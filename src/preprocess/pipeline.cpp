#include "preprocess/pipeline.hpp"

namespace bglpred {

void PreprocessStats::count(const Verdicts& verdicts,
                            const std::vector<RasRecord>& kept) {
  const auto [kept_count, temporal_dups, spatial_dups] = verdicts;
  unique_events = kept_count;
  raw_records = kept_count + temporal_dups + spatial_dups;
  temporal = {raw_records, raw_records - temporal_dups, temporal_dups};
  spatial = {temporal.output_records, kept_count, spatial_dups};
  for (const RasRecord& rec : kept) {
    if (rec.fatal()) {
      ++unique_fatal_events;
      const MainCategory main = catalog().info(rec.subcategory).main;
      ++fatal_per_main[static_cast<std::size_t>(main)];
    }
  }
}

PreprocessStats preprocess(RasLog& log, const PreprocessOptions& options) {
  if (!log.is_time_sorted()) {
    log.sort_by_time();
  }
  const EventClassifier classifier;
  Phase1Compressor phase1(options.threshold);
  PreprocessStats stats;
  PreprocessStats::Verdicts verdicts{};
  // Classify everything first, then compress: two tight loops run faster
  // than one that interleaves the classifier's and the operator's tables.
  // classify_all classifies each distinct (text, facility, severity) once.
  stats.classification = classifier.classify_all(log);
  auto& records = log.mutable_records();
  std::size_t out = 0;
  for (const RasRecord& rec : records) {
    const Phase1Verdict verdict =
        phase1.push(rec, log.pool().str(rec.entry_data));
    ++verdicts[static_cast<std::size_t>(verdict)];
    if (verdict == Phase1Verdict::kKept) {
      records[out++] = rec;
    }
  }
  records.resize(out);
  stats.count(verdicts, records);
  return stats;
}

}  // namespace bglpred
