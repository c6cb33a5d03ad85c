// Phase-1 duplicate removal (§3.1): the one compression operator that
// preprocess(), the fused ingest and the online engine all run.
//
// Two gap-based passes with one threshold keep the first record of each
// cluster whose consecutive occurrences are <= threshold apart: temporal
// on (JOB_ID, LOCATION, subcategory) — a condition re-reported at one
// location — then spatial on (JOB_ID, ENTRY_DATA) — one fault fanned out
// across a job's partition. Records arrive one at a time, classified and
// time-ordered; only temporal survivors reach the spatial pass, so a
// sorted log keeps exactly what the two whole-log passes would keep.
// The spatial key hashes the entry text (the online engine's records
// carry client-side ids, not pool ids). Only temporal survivors hash it;
// the engine's reorder buffer, which drops the text, pushes a hash.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/time.hpp"
#include "raslog/log.hpp"

namespace bglpred {

/// Default compression threshold from the paper (§3.1).
inline constexpr Duration kDefaultCompressionThreshold = 300;

/// Record counts of one compression pass.
struct CompressionResult {
  std::size_t input_records = 0;
  std::size_t output_records = 0;
  std::size_t removed = 0;

  double compression_ratio() const {
    return input_records == 0
               ? 1.0
               : static_cast<double>(output_records) /
                     static_cast<double>(input_records);
  }
};

/// What Phase 1 decided for one record.
enum class Phase1Verdict : std::uint8_t {
  kKept,
  kTemporalDuplicate,
  kSpatialDuplicate,  ///< kept by the temporal pass, dropped by the spatial
};

/// See file comment.
class Phase1Compressor {
 public:
  explicit Phase1Compressor(
      Duration threshold = kDefaultCompressionThreshold);

  static std::uint64_t entry_hash(std::string_view entry) {
    return stable_hash64(entry);
  }

  /// Runs `rec` through both passes; `entry` is hashed only if the
  /// temporal pass keeps the record.
  Phase1Verdict push(const RasRecord& rec, std::string_view entry);
  /// Same, for a record whose text was hashed earlier with entry_hash().
  Phase1Verdict push_hashed(const RasRecord& rec, std::uint64_t entry_hash);

  /// Writes both last-seen maps in key order (bytes depend on the state
  /// alone); load() replaces the state, or throws ParseError and leaves
  /// it unspecified.
  void save(std::ostream& os) const;
  void load(std::istream& is);

 private:
  struct TemporalKey {
    bgl::JobId job;
    bgl::Location location;
    SubcategoryId subcategory;
    auto operator<=>(const TemporalKey&) const = default;
  };
  struct SpatialKey {
    bgl::JobId job;
    std::uint64_t entry_hash;
    auto operator<=>(const SpatialKey&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const TemporalKey& k) const;
    std::size_t operator()(const SpatialKey& k) const;
  };

  bool temporal_keeps(const RasRecord& rec);
  Phase1Verdict spatial_verdict(const RasRecord& rec, std::uint64_t hash);

  Duration threshold_;
  std::unordered_map<TemporalKey, TimePoint, KeyHash> temporal_;
  std::unordered_map<SpatialKey, TimePoint, KeyHash> spatial_;
};

}  // namespace bglpred
