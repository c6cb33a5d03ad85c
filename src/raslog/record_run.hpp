// Runs of raw records: the unit the served path moves a SUBMIT frame in.
//
// A run is a stretch of one stream's raw records in arrival order whose
// entry texts are stored once per distinct text, each with its
// stable_hash64 (the key of Phase 1's spatial pass). A SUBMIT frame
// decodes into one run, a shard queues one run per frame, and
// OnlineEngine::feed(run) classifies each distinct text of a run once.
// One record with its text is the run of one; a RasLog batch is the run
// whose texts are its pool.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "raslog/record.hpp"

namespace bglpred {

/// One distinct entry text of a run and its stable_hash64.
struct RunText {
  std::string_view text;
  std::uint64_t hash = 0;
};

/// Read-only view of a run. Record i's entry text is
/// texts[text_ids[i]]; `entry_data` keeps the sender's id untouched.
struct RecordRun {
  std::span<const RasRecord> records;
  std::span<const std::uint32_t> text_ids;  ///< parallel to `records`
  std::span<const RunText> texts;
};

/// Builds a run from (record, text) pairs, giving equal texts one id.
/// Texts are not copied: the views alias the caller's bytes (a frame
/// payload, a log's pool), which must outlive the run. clear() keeps
/// every buffer, so a builder reused for runs no larger than earlier
/// ones allocates nothing.
class RecordRunBuilder {
 public:
  void clear();
  void add(const RasRecord& record, std::string_view text);

  std::size_t size() const { return records_.size(); }
  RecordRun run() const { return {records_, text_ids_, texts_}; }

 private:
  /// Doubles the text index and re-inserts every text of the run.
  void grow();
  /// The slot holding `text`, or the empty slot where it belongs.
  std::size_t probe(std::string_view text, std::uint64_t hash) const;

  std::vector<RasRecord> records_;
  std::vector<std::uint32_t> text_ids_;
  std::vector<RunText> texts_;
  /// Open-addressing index over texts_, at most half full. A slot holds
  /// (generation << 32 | text id + 1); a slot stamped with an older
  /// generation is empty, so clear() needs to touch none of them.
  std::vector<std::uint64_t> slots_;
  std::uint64_t generation_ = 1;
};

}  // namespace bglpred
