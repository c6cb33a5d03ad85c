// Online prediction engine.
//
// The paper argues the meta-learner is cheap enough to deploy online
// (§3.3: rule matching is trivial; rule generation runs offline). This
// adapter wraps a trained predictor behind a raw-record feed: it
// classifies each incoming record, runs it through the Phase-1 operator
// that preprocess() runs offline (preprocess/phase1.hpp), and forwards
// the survivors, so on a time-ordered raw log the predictor sees exactly
// preprocess(raw) and emits the warnings the offline evaluation scores.
// examples/online_prediction.cpp drives it against a live replay.
//
// Records arrive in runs (raslog/record_run.hpp): a served SUBMIT frame
// is one run, a RasLog batch another, one record the run of one — all
// through the one feed(run, out). A run carries each distinct entry text
// once with its hash, so the engine classifies each distinct (text,
// facility, severity) of a run once, hands Phase 1 and the reorder
// buffer the run's hash, appends warnings to the caller's vector, and
// publishes its registry counters once per run.
//
// Robustness (DESIGN.md §7): real RAS streams are neither clean nor
// ordered, so the engine
//   * validates every raw record's enum fields before classification and
//     routes malformed ones to a degraded-mode counter instead of
//     undefined behavior;
//   * tolerates bounded out-of-order arrival via a reorder buffer
//     (`reorder_horizon` seconds) and clamps a record later than the
//     horizon to the high-water mark, so predictors never see time
//     running backwards;
//   * checkpoints: save() serializes the full engine state (Phase-1
//     state, reorder buffer, stats, predictor blob) and restore()
//     resumes a stream byte-identically to an uninterrupted engine.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "predict/predictor.hpp"
#include "preprocess/phase1.hpp"
#include "raslog/record_run.hpp"
#include "raslog/source.hpp"
#include "taxonomy/classifier.hpp"

namespace bglpred {

/// Streaming statistics of the online engine.
struct OnlineStats {
  std::size_t raw_records = 0;
  std::size_t deduplicated = 0;   ///< dropped by either Phase-1 pass
  std::size_t forwarded = 0;      ///< events handed to the predictor
  std::size_t warnings = 0;
  std::size_t degraded = 0;       ///< malformed records counted, not fed
  std::size_t reordered = 0;      ///< records that arrived out of order
  std::size_t clamped = 0;        ///< late beyond the horizon, clamped
};

/// Engine tunables.
struct OnlineOptions {
  /// Threshold of both Phase-1 passes (temporal and spatial).
  Duration dedup_threshold = kDefaultCompressionThreshold;
  /// Out-of-order tolerance in seconds. Records are held in a reorder
  /// buffer and released once the stream's high-water mark has advanced
  /// past their time by this horizon; any skew ≤ horizon is fully
  /// repaired (the predictor sees the canonically sorted stream). A
  /// record later than that is clamped to the high-water mark. 0
  /// disables buffering, so every late record is clamped.
  Duration reorder_horizon = 0;
};

/// See file comment. The engine owns the (already trained) predictor.
class OnlineEngine {
 public:
  explicit OnlineEngine(PredictorPtr predictor,
                        const OnlineOptions& options = {});

  /// Feeds a run of raw records in order and appends every warning the
  /// predictor emits to `out`. Under a reorder horizon a record can
  /// release zero or several buffered ones, so warnings need not line up
  /// with the run's records. Splitting a stream into runs at any points
  /// changes nothing: warnings, stats() and save() bytes are those of
  /// the stream fed record by record.
  void feed(const RecordRun& run, std::vector<Warning>& out);

  /// The run of one: `record` with its raw ENTRY_DATA text.
  std::vector<Warning> feed(const RasRecord& record,
                            std::string_view entry_data);

  /// Drains the reorder buffer at end-of-stream and returns any warnings
  /// the released records produce. A no-op when the horizon is 0.
  std::vector<Warning> flush();

  /// Feeds an entire batch source (e.g. the streaming generator), each
  /// batch as one run whose texts are the batch's pool, one batch
  /// resident at a time, then flush()es — so a log of any length runs in
  /// O(batch) memory. Returns every warning emitted.
  std::vector<Warning> feed_source(RecordBatchSource& source);

  /// Serializes the complete engine state — options, stats, reorder
  /// buffer, Phase-1 state, and the predictor's checkpoint blob — so a
  /// restored engine resumes the stream byte-identically. Requires the
  /// predictor to be checkpointable.
  void save(std::ostream& os) const;

  /// Rebuilds an engine from a save() stream. `fresh` must be a
  /// same-type, same-configuration predictor (its name is verified
  /// against the checkpoint; its state is then overwritten).
  static OnlineEngine restore(std::istream& is, PredictorPtr fresh);

  const OnlineStats& stats() const { return stats_; }
  const OnlineOptions& options() const { return options_; }
  BasePredictor& predictor() { return *predictor_; }

  /// Binds every OnlineStats counter into `registry` under `prefix`
  /// (e.g. "shard3.engine."), so consumers read live metrics instead of
  /// polling stats() members. Counters are shared by name: engines
  /// attached under the same prefix aggregate into the same instruments
  /// (that is how a shard sums over its streams). The engine's current
  /// totals are added on attach, so a checkpoint-restored engine reports
  /// lifetime counts, not post-restore deltas.
  void attach_metrics(MetricsRegistry& registry, const std::string& prefix);

  /// Zeroes the counter set under `prefix`. For state replacement: when
  /// every engine attached under a prefix is discarded (shard restore),
  /// reset before the replacements re-attach, so the registry again
  /// equals the sum of live engine stats instead of compounding the
  /// discarded engines' increments with the restored lifetime totals.
  static void reset_metrics(MetricsRegistry& registry,
                            const std::string& prefix);

 private:
  /// A classified record parked in the reorder buffer, with the hash of
  /// its entry text (the text itself is not kept). `seq` is the arrival
  /// index — the final comparator tie-break, so the release order is
  /// deterministic even for fully identical records.
  struct Buffered {
    RasRecord rec;
    std::uint64_t entry_hash = 0;
    std::uint64_t seq = 0;
  };
  struct BufferedLater {
    bool operator()(const Buffered& a, const Buffered& b) const;
  };

  /// Mirrors of the stats counters inside an attached MetricsRegistry,
  /// brought level at the end of every run (publish); all null until
  /// attach_metrics is called.
  struct BoundCounters {
    Counter* raw_records = nullptr;
    Counter* deduplicated = nullptr;
    Counter* forwarded = nullptr;
    Counter* warnings = nullptr;
    Counter* degraded = nullptr;
    Counter* reordered = nullptr;
    Counter* clamped = nullptr;
  };

  /// One row per engine counter: registry name, the OnlineStats field it
  /// mirrors, and the BoundCounters slot it binds. attach_metrics,
  /// reset_metrics and the checkpoint all walk this table, so the counter
  /// set cannot drift between them (definition in online.cpp).
  struct CounterSlot {
    const char* name;
    std::size_t OnlineStats::*stat;
    Counter* BoundCounters::*bound;
  };
  static const CounterSlot kCounterSlots[7];

  /// Validates the raw enum fields; malformed records are counted as
  /// degraded and dropped.
  bool validate(const RasRecord& record) const;
  /// Validates, classifies and orders record `i` of `run`.
  void admit(const RecordRun& run, std::size_t i, std::vector<Warning>& out);
  /// Counts Phase 1's verdict on one canonically-ordered record and
  /// forwards the record to the predictor if it was kept.
  void deliver(const RasRecord& rec, Phase1Verdict verdict,
               std::vector<Warning>& out);
  /// Releases every buffered record at or below the release time.
  void release_until(TimePoint limit, std::vector<Warning>& out);
  /// Adds what stats_ gained since `before` to the bound registry
  /// counters: the counters move once per run, not once per record.
  void publish(const OnlineStats& before);

  PredictorPtr predictor_;
  OnlineOptions options_;
  BoundCounters counters_;
  EventClassifier classifier_;
  /// The current run's classes, by run text id (reset per run).
  ClassificationMemo classes_;
  Phase1Compressor phase1_;
  OnlineStats stats_;
  // Min-heap (via std::push_heap with the inverted comparator) of parked
  // records, plus the stream's high-water mark and arrival counter.
  std::vector<Buffered> buffer_;
  TimePoint high_water_ = kMinTime;
  std::uint64_t seq_ = 0;

  static constexpr TimePoint kMinTime = INT64_MIN;
};

}  // namespace bglpred
