// Fault-injection property tests for the columnar log store: every
// injected damage class must surface as the matching typed diagnostic
// under a strict open, and a lenient open must salvage every intact
// segment — with whatever survives replaying as an exact (gap-allowed)
// subsequence of the clean oracle.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/binary.hpp"
#include "common/crc32.hpp"
#include "faultinject/store_faults.hpp"
#include "logstore/convert.hpp"
#include "logstore/cursor.hpp"
#include "logstore/format.hpp"
#include "logstore/manifest.hpp"
#include "logstore/segment.hpp"
#include "logstore/store.hpp"
#include "raslog/io.hpp"
#include "simgen/generator.hpp"

namespace bglpred {
namespace {

struct FaultCase {
  StoreFault fault;
  logstore::StoreFaultClass expected;
};

const std::vector<FaultCase>& fault_cases() {
  static const std::vector<FaultCase> cases = {
      {StoreFault::kFooterCorruption, logstore::StoreFaultClass::kBadFooter},
      {StoreFault::kTruncatedColumn, logstore::StoreFaultClass::kBadColumn},
      {StoreFault::kManifestMismatch,
       logstore::StoreFaultClass::kManifestMismatch},
      {StoreFault::kManifestCorruption,
       logstore::StoreFaultClass::kBadManifest},
  };
  return cases;
}

/// A fresh multi-segment store built from a deterministic log.
std::string build_store(const RasLog& log, const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  logstore::StoreOptions options;
  options.segment_records = 256;  // several segments to salvage around
  options.block_records = 64;
  logstore::store_from_log(log, dir, /*stream=*/0, options);
  return dir;
}

RasLog oracle_log(std::uint64_t seed) {
  RasLog log = std::move(
      LogGenerator(SystemProfile::anl()).generate(0.008, seed).log);
  log.sort_by_time();
  return log;
}

/// Replays the whole store and asserts the result is an in-order,
/// field-exact subsequence of `oracle` (lenient opens drop whole
/// segments, so survivors are the oracle minus contiguous gaps).
std::size_t expect_subsequence_of(const logstore::StoreReader& reader,
                                  const RasLog& oracle) {
  logstore::Cursor cursor = reader.scan();
  logstore::StoreRecord got;
  std::size_t oracle_i = 0;
  std::size_t replayed = 0;
  while (cursor.next(got)) {
    bool matched = false;
    for (; oracle_i < oracle.size(); ++oracle_i) {
      const RasRecord& want = oracle.records()[oracle_i];
      if (got.rec.time == want.time && got.rec.location == want.location &&
          got.rec.severity == want.severity &&
          got.rec.subcategory == want.subcategory &&
          got.entry == oracle.text_of(want)) {
        matched = true;
        ++oracle_i;
        break;
      }
    }
    EXPECT_TRUE(matched) << "replayed record " << replayed
                         << " not found in oracle order";
    if (!matched) {
      break;
    }
    ++replayed;
  }
  return replayed;
}

TEST(LogStoreFaultTest, StrictOpenRaisesTypedDiagnostics) {
  const RasLog log = oracle_log(1);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const FaultCase& c : fault_cases()) {
      const std::string dir = build_store(log, "store_fault_strict");
      Rng rng(seed);
      const std::string what = inject_store_fault(dir, c.fault, rng);
      try {
        logstore::StoreReader::open(dir);
        FAIL() << "strict open accepted a damaged store (seed " << seed
               << ", " << what << ")";
      } catch (const logstore::StoreCorruption& e) {
        EXPECT_EQ(static_cast<int>(e.cls()), static_cast<int>(c.expected))
            << "seed " << seed << ": " << what << " -> " << e.what();
      }
    }
  }
}

void put_u32(std::string& bytes, std::size_t at, std::uint32_t value) {
  for (std::size_t b = 0; b < 4; ++b) {
    bytes[at + b] = static_cast<char>((value >> (8 * b)) & 0xff);
  }
}

/// `open` must refuse the input for its count, with the typed class.
template <typename Fn>
void expect_count_refused(Fn&& open, logstore::StoreFaultClass expected) {
  try {
    open();
    ADD_FAILURE() << "accepted a count larger than its bytes";
  } catch (const logstore::StoreCorruption& e) {
    EXPECT_EQ(static_cast<int>(e.cls()), static_cast<int>(expected))
        << e.what();
    EXPECT_NE(std::string(e.what()).find("count exceeds"), std::string::npos)
        << e.what();
  }
}

TEST(LogStoreFaultTest, EntryDictionaryCountLargerThanItsBytesIsTyped) {
  // CRCs recomputed, so only the count is wrong: the reader must refuse
  // it as a bad dictionary before reserving 2^32-1 entries.
  const std::string dir = build_store(oracle_log(1), "store_dict_count");
  const std::string path = dir + "/seg-000000.bgls";
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  // Trailer: u32 footer CRC, u32 footer size, end tag. Footer: tag,
  // version, record count, min/max time, block records, column count,
  // then 24 bytes per column (id, offset, size, CRC).
  const std::size_t footer_size =
      wire::decode<std::uint32_t>(bytes.data() + bytes.size() - 12);
  const std::size_t footer_at = bytes.size() - 16 - footer_size;
  const std::size_t column = footer_at + 44 + logstore::kColEntryDict * 24;
  const auto offset = wire::decode<std::uint64_t>(bytes.data() + column + 4);
  const auto size = wire::decode<std::uint64_t>(bytes.data() + column + 12);
  put_u32(bytes, offset, 0xffffffffu);
  put_u32(bytes, column + 20,
          crc32(std::string_view(bytes.data() + offset, size)));
  put_u32(bytes, bytes.size() - 16,
          crc32(std::string_view(bytes.data() + footer_at, footer_size)));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  expect_count_refused([&] { logstore::Segment::open(path); },
                     logstore::StoreFaultClass::kBadDictionary);
}

TEST(LogStoreFaultTest, ManifestCountLargerThanItsBytesIsTyped) {
  std::string bytes = logstore::encode_manifest(logstore::Manifest{});
  // Tag, u32 version, u8 sealed, then the u32 entry count; CRC last.
  put_u32(bytes, logstore::kManifestTag.size() + 4 + 1, 0xffffffffu);
  put_u32(bytes, bytes.size() - 4,
          crc32(std::string_view(bytes.data(), bytes.size() - 4)));
  expect_count_refused([&] { logstore::decode_manifest(bytes); },
                     logstore::StoreFaultClass::kBadManifest);
}

TEST(LogStoreFaultTest, LenientOpenSalvagesIntactSegments) {
  const RasLog log = oracle_log(2);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const FaultCase& c : fault_cases()) {
      if (c.fault == StoreFault::kManifestCorruption) {
        continue;  // covered by LenientRecoversFromManifestDamage
      }
      const std::string dir = build_store(log, "store_fault_lenient");
      Rng rng(seed);
      const std::string what = inject_store_fault(dir, c.fault, rng);

      logstore::StoreOpenReport report;
      const logstore::StoreReader reader =
          logstore::StoreReader::open(dir, ReadOptions::lenient(), &report);
      EXPECT_EQ(report.segments_dropped, 1u) << what;
      EXPECT_EQ(report.by_class[static_cast<std::size_t>(c.expected)], 1u)
          << "seed " << seed << ": " << what;
      EXPECT_EQ(report.segments_opened, report.segments_listed - 1) << what;
      EXPECT_FALSE(report.samples.empty()) << what;
      EXPECT_LT(reader.record_count(), log.size()) << what;
      EXPECT_GT(reader.record_count(), 0u) << what;

      const std::size_t replayed = expect_subsequence_of(reader, log);
      EXPECT_EQ(replayed, reader.record_count()) << what;
    }
  }
}

TEST(LogStoreFaultTest, LenientRecoversFromManifestDamage) {
  const RasLog log = oracle_log(3);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const std::string dir = build_store(log, "store_fault_manifest");
    Rng rng(seed);
    const std::string what =
        inject_store_fault(dir, StoreFault::kManifestCorruption, rng);

    // Strict refuses; lenient falls back to the directory scan and
    // recovers every record (the segments themselves are intact).
    EXPECT_THROW(logstore::StoreReader::open(dir), logstore::StoreCorruption)
        << what;
    logstore::StoreOpenReport report;
    const logstore::StoreReader reader =
        logstore::StoreReader::open(dir, ReadOptions::lenient(), &report);
    EXPECT_TRUE(report.manifest_recovered) << what;
    EXPECT_EQ(
        report.by_class[static_cast<std::size_t>(
            logstore::StoreFaultClass::kBadManifest)],
        1u)
        << what;
    EXPECT_EQ(reader.record_count(), log.size()) << what;
    const std::size_t replayed = expect_subsequence_of(reader, log);
    EXPECT_EQ(replayed, log.size()) << what;
  }
}

TEST(LogStoreFaultTest, ErrorBudgetStopsMassSalvage) {
  // With a tight error budget, even lenient opens give up when the
  // dropped fraction exceeds the cap.
  const RasLog log = oracle_log(4);
  const std::string dir = build_store(log, "store_fault_budget");
  Rng rng(9);
  inject_store_fault(dir, StoreFault::kManifestMismatch, rng);
  EXPECT_THROW(
      logstore::StoreReader::open(dir, ReadOptions::lenient(0.001), nullptr),
      ParseError);
}

}  // namespace
}  // namespace bglpred
