// Shard layer of the prediction service (DESIGN §8.2).
//
// Streams (identified by the client-chosen 64-bit stream id — one per
// job, location group, or collector, the client decides) are routed to a
// fixed set of shards by a deterministic hash, so a stream's records are
// always processed by the same shard in arrival order. Each stream owns
// a full OnlineEngine (its own Phase-1 state, reorder buffer, and predictor
// state), which is what makes the served path byte-equivalent to running
// one in-process engine per stream. Only the immutable rule model is
// shared: every stream whose predictor loads the same rules matches
// against one RuleSet (see load_rules in mining/rules.hpp).
//
// Hand-off is by run and bounded: submit() appends one run — a SUBMIT
// frame's records with each distinct entry text stored once
// (raslog/record_run.hpp) — to the target shard's FIFO, whose capacity
// `queue_capacity` counts records. It accepts the longest prefix that
// fits, min(run size, capacity - queued records), and the session layer
// answers a short prefix with REJECTED_BUSY instead of buffering without
// bound. Accounting is per run: one capacity check, one accepted-total
// update, one counter increment and one gauge store, no clock read. The
// queue is flat (records, text ids, texts, text bytes) and keeps its
// buffers across drains, so a steady stream of frames allocates nothing.
// drain() hands each run to its stream's engine, inline or fanned out
// one task per shard on a ThreadPool; shards never share engines, so
// shard-level parallelism cannot reorder a stream.
//
// save()/restore() checkpoint the whole shard set — every engine via its
// PR 3 checkpoint format plus each stream's pending (emitted but not yet
// polled) warnings — so a restored service resumes byte-identically.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/online.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/metrics.hpp"

namespace bglpred::serve {

/// Everything the service needs to build engines and bound its memory.
struct ShardOptions {
  std::size_t shard_count = 4;
  /// Per-shard hand-off queue bound, in records. A full queue rejects
  /// further submits (explicit backpressure) until the next drain.
  std::size_t queue_capacity = 4096;
  /// 0 drains inline on the caller; >0 fans drain() out one task per
  /// shard on an internal pool of this many threads.
  std::size_t worker_threads = 0;
  /// Options for every per-stream OnlineEngine.
  OnlineOptions engine;
  /// Builds the (already trained) predictor for a new stream's engine.
  /// Called once per stream, and once per stream again on restore; with
  /// worker threads, concurrently from the drain tasks. A factory that
  /// load_state()s one saved model gives every stream the same shared
  /// rule set, so per-stream memory is the stream's state, not the model.
  std::function<PredictorPtr()> predictor_factory;
};

class ShardManager {
 public:
  enum class Submit : std::uint8_t { kAccepted, kBusy };

  ShardManager(const ShardOptions& options, MetricsRegistry& registry);

  /// Deterministic stream -> shard routing (exposed for tests and the
  /// load generator's skew analysis).
  static std::size_t shard_of(std::uint64_t stream_id,
                              std::size_t shard_count);

  /// Enqueues the longest prefix of `run` that fits in the target
  /// shard's queue — min(run size, capacity - queued records) records,
  /// copying the texts they use — and returns its length. A run cut
  /// short counts one serve.records_rejected.
  std::size_t submit(std::uint64_t stream_id, const RecordRun& run);

  /// The run of one: kBusy when the target shard's queue is at capacity
  /// (nothing is enqueued in that case).
  Submit submit(std::uint64_t stream_id, const RasRecord& record,
                std::string_view entry);

  /// Processes every queued run in every shard. With worker threads,
  /// one task per non-empty shard, joined before returning.
  void drain();

  /// Drains only the shard owning `stream_id` (the cheap barrier ahead
  /// of a poll).
  void drain_stream(std::uint64_t stream_id);

  /// Moves out the stream's pending warnings (drains its shard first so
  /// a poll observes every previously accepted submit).
  std::vector<Warning> poll(std::uint64_t stream_id);

  /// Checkpoints the whole shard set. Drains first; queues are therefore
  /// always empty in a checkpoint.
  void save(std::ostream& os);

  /// Replaces all stream state from a save() blob. Strong guarantee: on
  /// throw, the previous state is untouched.
  void restore(std::istream& is);

  /// Result of a directory checkpoint: how many per-shard files were
  /// rewritten vs skipped because their serialized bytes (by CRC)
  /// matched the manifest already on disk.
  struct SaveDirStats {
    std::size_t shards_written = 0;
    std::size_t shards_skipped = 0;
  };

  /// Checkpoints the shard set into `dir` as one file per shard plus a
  /// CHECKPOINT manifest, every write atomic (common/atomic_io: tmp +
  /// fsync + rename). Unlike save(), unchanged shards are not
  /// rewritten — repeated checkpoints of a mostly-idle service stream
  /// only the shards that moved.
  SaveDirStats save_dir(const std::string& dir);

  /// Restores from a save_dir() checkpoint, validating the manifest's
  /// per-shard sizes and CRCs before touching live state. Strong
  /// guarantee: on throw, the previous state is untouched.
  void restore_dir(const std::string& dir);

  /// Streams currently materialized.
  std::size_t stream_count() const;

  /// Lifetime count of records accepted for `stream_id` (0 for unknown
  /// streams). This is the exactly-once watermark a reconnecting client
  /// resumes from via STREAM_STATUS: fresh connections get fresh seq
  /// watermarks, so the per-stream total is the only cross-connection
  /// progress record. Deliberately NOT checkpointed — it counts what
  /// this process accepted, so it resets across restore/restart, and a
  /// resuming client must re-baseline after either.
  std::uint64_t stream_accepted(std::uint64_t stream_id) const;

  const ShardOptions& options() const { return options_; }

  /// The service-level instrument bundle (shared with the session layer,
  /// which counts frames into the same registry).
  ServeMetrics& metrics() { return metrics_; }

 private:
  /// One shard's FIFO of accepted runs in flat buffers. Run k owns
  /// records [runs[k].first_record, runs[k+1].first_record) and texts
  /// [runs[k].first_text, runs[k+1].first_text); its text ids index its
  /// own texts. A text's view is pointed into `bytes` when the queue is
  /// drained, after the last append can have moved them.
  struct RunQueue {
    struct Run {
      std::uint64_t stream_id = 0;
      std::size_t first_record = 0;
      std::size_t first_text = 0;
    };
    std::vector<Run> runs;
    std::vector<RasRecord> records;
    std::vector<std::uint32_t> text_ids;
    std::vector<RunText> texts;
    std::vector<std::size_t> text_offsets;  ///< into `bytes`, per text
    std::string bytes;

    bool empty() const { return runs.empty(); }
    /// Empties the queue and keeps every buffer.
    void clear();
    /// Appends the first `n` records of `run` and the texts they use.
    void append(std::uint64_t stream_id, const RecordRun& run,
                std::size_t n);
    /// Points every text view into `bytes`; call once before run().
    void settle();
    /// Run k of runs.size().
    RecordRun run(std::size_t k) const;
  };

  /// One stream's full serving state.
  struct Stream {
    explicit Stream(OnlineEngine e) : engine(std::move(e)) {}
    OnlineEngine engine;
    std::vector<Warning> pending;
    /// Steady-clock stamps parallel to `pending`, for warning-age
    /// metrics (not checkpointed; ages reset across restore).
    std::vector<std::uint64_t> pending_born_micros;
  };

  struct Shard {
    RunQueue queue;
    std::map<std::uint64_t, Stream> streams;  // ordered: checkpoint bytes
    Gauge* queue_depth = nullptr;
    Gauge* stream_count = nullptr;
  };

  Stream& stream_for(Shard& shard, std::size_t shard_index,
                     std::uint64_t stream_id);
  /// One stream's checkpoint encoding, shared by save() and save_dir().
  void encode_stream_state(std::ostream& os, std::uint64_t stream_id,
                           const Stream& stream) const;
  /// Inverse of encode_stream_state; throws ParseError on damage.
  Stream decode_stream_state(std::istream& is, std::uint64_t& stream_id);
  /// Swaps fully-built replacement stream maps into the live shards and
  /// re-baselines metrics (the no-throw tail of both restore paths).
  void adopt_streams(std::vector<std::map<std::uint64_t, Stream>> replacement);
  void drain_shard(std::size_t index);
  OnlineEngine make_engine() const;
  std::string engine_prefix(std::size_t shard_index) const;

  ShardOptions options_;
  MetricsRegistry* registry_;
  ServeMetrics metrics_;
  // deque: Shard holds an std::map of move-only Streams, and deque
  // growth never relocates elements, so no copy constructor is needed.
  std::deque<Shard> shards_;
  /// Lifetime accepted-record totals per stream. Touched only on the
  /// event-loop thread (submit happens before any worker fan-out), so
  /// no synchronization is needed.
  std::unordered_map<std::uint64_t, std::uint64_t> accepted_totals_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace bglpred::serve
