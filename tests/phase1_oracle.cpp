#include "phase1_oracle.hpp"

#include <unordered_map>

#include "common/error.hpp"

namespace bglpred::oracle {
namespace {

struct TemporalKey {
  bgl::JobId job;
  bgl::Location location;
  SubcategoryId subcategory;
  bool operator==(const TemporalKey&) const = default;
};

struct TemporalKeyHash {
  std::size_t operator()(const TemporalKey& k) const {
    std::uint64_t h = k.job;
    h = h * 0x9e3779b97f4a7c15ULL + k.location.rack;
    h = h * 0x9e3779b97f4a7c15ULL +
        (static_cast<std::uint64_t>(k.location.kind) << 24 |
         static_cast<std::uint64_t>(k.location.midplane) << 16 |
         static_cast<std::uint64_t>(k.location.node_card) << 8 |
         k.location.unit);
    h = h * 0x9e3779b97f4a7c15ULL + k.subcategory;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

struct SpatialKey {
  StringId entry_data;
  bgl::JobId job;
  bool operator==(const SpatialKey&) const = default;
};

struct SpatialKeyHash {
  std::size_t operator()(const SpatialKey& k) const {
    const std::uint64_t h =
        (static_cast<std::uint64_t>(k.entry_data) << 32 | k.job) *
        0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(h ^ (h >> 32));
  }
};

/// One gap-based pass: a record is dropped when its key was last seen at
/// most `threshold` seconds earlier; the last-seen time advances on
/// every record.
template <typename Key, typename Hash, typename KeyOf>
CompressionResult compress(RasLog& log, Duration threshold, KeyOf key_of) {
  BGL_REQUIRE(threshold >= 0, "threshold must be non-negative");
  BGL_REQUIRE(log.is_time_sorted(), "log must be time-sorted");
  CompressionResult result;
  result.input_records = log.size();
  std::unordered_map<Key, TimePoint, Hash> last_seen;
  auto& records = log.mutable_records();
  std::size_t out = 0;
  for (const RasRecord& rec : records) {
    auto [it, inserted] = last_seen.try_emplace(key_of(rec), rec.time);
    const bool keep = inserted || rec.time - it->second > threshold;
    it->second = rec.time;
    if (keep) {
      records[out++] = rec;
    }
  }
  records.resize(out);
  result.output_records = out;
  result.removed = result.input_records - out;
  return result;
}

}  // namespace

CompressionResult compress_temporal(RasLog& log, Duration threshold) {
  return compress<TemporalKey, TemporalKeyHash>(
      log, threshold, [](const RasRecord& rec) {
        return TemporalKey{rec.job, rec.location, rec.subcategory};
      });
}

CompressionResult compress_spatial(RasLog& log, Duration threshold) {
  return compress<SpatialKey, SpatialKeyHash>(
      log, threshold, [](const RasRecord& rec) {
        return SpatialKey{rec.entry_data, rec.job};
      });
}

}  // namespace bglpred::oracle
