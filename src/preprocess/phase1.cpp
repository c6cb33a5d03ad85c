#include "preprocess/phase1.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/binary.hpp"
#include "common/error.hpp"

namespace bglpred {

Phase1Compressor::Phase1Compressor(Duration threshold)
    : threshold_(threshold) {
  BGL_REQUIRE(threshold >= 0, "threshold must be non-negative");
}

// bgl:hot-begin(phase1)
// Per record for every caller (preprocess, fused ingest, online submit):
// at most two last-seen lookups, no allocation beyond map growth.
namespace {

/// Gap-based clustering: keep when the key is new or last seen more than
/// `threshold` ago; the last-seen time advances on every record.
template <typename Map>
bool gap_keeps(Map& last_seen, const typename Map::key_type& key,
               TimePoint time, Duration threshold) {
  auto [it, inserted] = last_seen.try_emplace(key, time);
  const bool keep = inserted || time - it->second > threshold;
  it->second = time;
  return keep;
}

}  // namespace

std::size_t Phase1Compressor::KeyHash::operator()(const TemporalKey& k) const {
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

std::size_t Phase1Compressor::KeyHash::operator()(const SpatialKey& k) const {
  const std::uint64_t h = (k.entry_hash ^ k.job) * 0x9e3779b97f4a7c15ULL;
  return static_cast<std::size_t>(h ^ (h >> 32));
}

bool Phase1Compressor::temporal_keeps(const RasRecord& rec) {
  return gap_keeps(temporal_, {rec.job, rec.location, rec.subcategory},
                   rec.time, threshold_);
}

Phase1Verdict Phase1Compressor::spatial_verdict(const RasRecord& rec,
                                                std::uint64_t hash) {
  return gap_keeps(spatial_, {rec.job, hash}, rec.time, threshold_)
             ? Phase1Verdict::kKept
             : Phase1Verdict::kSpatialDuplicate;
}

Phase1Verdict Phase1Compressor::push(const RasRecord& rec,
                                     std::string_view entry) {
  return temporal_keeps(rec) ? spatial_verdict(rec, entry_hash(entry))
                             : Phase1Verdict::kTemporalDuplicate;
}

Phase1Verdict Phase1Compressor::push_hashed(const RasRecord& rec,
                                            std::uint64_t entry_hash) {
  return temporal_keeps(rec) ? spatial_verdict(rec, entry_hash)
                             : Phase1Verdict::kTemporalDuplicate;
}
// bgl:hot-end

namespace {

template <typename Map, typename AppendKey>
void append_sorted(std::string& out, const Map& map, AppendKey append_key) {
  std::vector<std::pair<typename Map::key_type, TimePoint>> entries(
      map.begin(), map.end());
  std::sort(entries.begin(), entries.end());
  wire::append<std::uint64_t>(out, entries.size());
  for (const auto& [key, time] : entries) {
    append_key(key);
    wire::append<std::int64_t>(out, time);
  }
}

bgl::Location read_location(std::istream& is) {
  char bytes[bgl::kLocationWireSize] = {};
  wire::read_exact(is, bytes, sizeof(bytes), "location");
  bgl::Location loc;
  if (!bgl::decode_location(bytes, loc)) {
    throw ParseError("checkpoint location kind out of range");
  }
  return loc;
}

/// Nothing is reserved for the count read from the stream: a corrupt
/// count fails on truncation instead of allocating for it.
template <typename Map, typename ReadKey>
Map load_map(std::istream& is, ReadKey read_key) {
  Map map;
  const auto count = wire::read<std::uint64_t>(is, "phase-1 state size");
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto key = read_key();
    map.emplace(key, wire::read<std::int64_t>(is, "phase-1 key time"));
  }
  return map;
}

}  // namespace

void Phase1Compressor::save(std::ostream& os) const {
  std::string out;
  append_sorted(out, temporal_, [&out](const TemporalKey& key) {
    wire::append<std::uint32_t>(out, key.job);
    bgl::append_location(out, key.location);
    wire::append<std::uint16_t>(out, key.subcategory);
  });
  append_sorted(out, spatial_, [&out](const SpatialKey& key) {
    wire::append<std::uint32_t>(out, key.job);
    wire::append<std::uint64_t>(out, key.entry_hash);
  });
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

void Phase1Compressor::load(std::istream& is) {
  // Braced initializers evaluate left to right, in stream order.
  temporal_ = load_map<decltype(temporal_)>(is, [&is] {
    return TemporalKey{wire::read<std::uint32_t>(is, "temporal key job"),
                       read_location(is),
                       wire::read<std::uint16_t>(is, "temporal key subcat")};
  });
  spatial_ = load_map<decltype(spatial_)>(is, [&is] {
    return SpatialKey{wire::read<std::uint32_t>(is, "spatial key job"),
                      wire::read<std::uint64_t>(is, "spatial key hash")};
  });
}

}  // namespace bglpred
