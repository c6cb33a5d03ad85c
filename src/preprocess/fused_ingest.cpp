#include "preprocess/fused_ingest.hpp"

#include <fstream>

#include "common/error.hpp"
#include "raslog/fast_io.hpp"
#include "taxonomy/classifier.hpp"

namespace bglpred {
namespace {

/// The shared classify -> Phase-1 per-record core of both fused entry
/// points (text scanner and record-batch source): the output log, the
/// Phase-1 operator, and the running stats.
class FusedPipeline {
 public:
  explicit FusedPipeline(const PreprocessOptions& options)
      : phase1_(options.threshold) {}

  void push(const RasRecord& parsed, std::string_view entry) {
    BGL_REQUIRE(!have_prev_ || parsed.time >= prev_time_,
                "fused ingest requires non-decreasing record times "
                "(use read_log + preprocess for unsorted input)");
    have_prev_ = true;
    prev_time_ = parsed.time;

    // Intern unconditionally — even records Phase 1 drops — so pool ids
    // line up with the three-step path, where read_log interns every
    // record before any compression runs.
    RasRecord rec = parsed;
    rec.entry_data = log_.pool().intern(entry);
    classifier_.classify_record(entry, rec, st_.classification);
    const Phase1Verdict verdict = phase1_.push(rec, entry);
    ++verdicts_[static_cast<std::size_t>(verdict)];
    if (verdict == Phase1Verdict::kKept) {
      log_.append(rec);
    }
  }

  RasLog finish(PreprocessStats* stats) {
    if (stats != nullptr) {
      st_.count(verdicts_, log_.records());
      *stats = st_;
    }
    return std::move(log_);
  }

 private:
  RasLog log_;
  PreprocessStats st_;
  PreprocessStats::Verdicts verdicts_{};
  const EventClassifier classifier_;
  Phase1Compressor phase1_;
  TimePoint prev_time_ = 0;
  bool have_prev_ = false;
};

}  // namespace

RasLog ingest_classified(std::istream& is, const ReadOptions& read_options,
                         const PreprocessOptions& options,
                         PreprocessStats* stats, IngestReport* report) {
  FusedPipeline pipeline(options);
  // Accumulate into a local and copy out at the end (assigning a
  // temporary through the caller's pointer trips gcc-12's
  // use-after-free analysis).
  IngestReport local_report;
  IngestReport& rep = report != nullptr ? *report : local_report;
  ingest_records(is, read_options, rep,
                 [&pipeline](const RasRecord& parsed, std::string_view entry) {
                   pipeline.push(parsed, entry);
                 });
  return pipeline.finish(stats);
}

RasLog ingest_classified(RecordBatchSource& source,
                         const PreprocessOptions& options,
                         PreprocessStats* stats) {
  FusedPipeline pipeline(options);
  RasLog batch;
  while (source.next_batch(batch)) {
    for (const RasRecord& rec : batch.records()) {
      pipeline.push(rec, batch.text_of(rec));
    }
  }
  return pipeline.finish(stats);
}

RasLog load_classified(const std::string& path,
                       const ReadOptions& read_options,
                       const PreprocessOptions& options,
                       PreprocessStats* stats, IngestReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open for reading: " + path);
  }
  return ingest_classified(in, read_options, options, stats, report);
}

}  // namespace bglpred
