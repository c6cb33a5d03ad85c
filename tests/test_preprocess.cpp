// Tests for Phase-1 temporal/spatial compression: the two-pass oracle,
// the incremental operator, and the pipeline.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/binary.hpp"
#include "common/error.hpp"
#include "phase1_oracle.hpp"
#include "preprocess/pipeline.hpp"
#include "raslog/log.hpp"
#include "simgen/generator.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {
namespace {

using oracle::compress_spatial;
using oracle::compress_temporal;

RasRecord make(TimePoint t, bgl::JobId job, const bgl::Location& loc,
               SubcategoryId subcat) {
  RasRecord rec;
  rec.time = t;
  rec.job = job;
  rec.location = loc;
  rec.subcategory = subcat;
  const SubcategoryInfo& info = catalog().info(subcat);
  rec.severity = info.severity;
  rec.facility = info.facility;
  return rec;
}

const bgl::Location kChipA = bgl::Location::make_compute_chip(0, 0, 0, 0);
const bgl::Location kChipB = bgl::Location::make_compute_chip(0, 0, 0, 1);
const bgl::Location kChipC = bgl::Location::make_compute_chip(0, 0, 0, 2);

class CompressorTest : public ::testing::Test {
 protected:
  SubcategoryId torus_ = catalog().find("torusFailure");
  SubcategoryId socket_ = catalog().find("socketReadFailure");
};

TEST_F(CompressorTest, TemporalCoalescesWithinThreshold) {
  RasLog log;
  log.append_with_text(make(100, 1, kChipA, torus_), "e1");
  log.append_with_text(make(300, 1, kChipA, torus_), "e2");  // gap 200 <=300
  log.append_with_text(make(500, 1, kChipA, torus_), "e3");  // gap 200
  const CompressionResult r = compress_temporal(log, 300);
  EXPECT_EQ(r.input_records, 3u);
  EXPECT_EQ(r.output_records, 1u);  // gap-based: one cluster
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.records()[0].time, 100);  // first survives
}

TEST_F(CompressorTest, TemporalKeepsBeyondThreshold) {
  RasLog log;
  log.append_with_text(make(100, 1, kChipA, torus_), "e1");
  log.append_with_text(make(500, 1, kChipA, torus_), "e2");  // gap 400 > 300
  const CompressionResult r = compress_temporal(log, 300);
  EXPECT_EQ(r.output_records, 2u);
}

TEST_F(CompressorTest, TemporalKeysOnJobLocationSubcategory) {
  RasLog log;
  log.append_with_text(make(100, 1, kChipA, torus_), "e1");
  log.append_with_text(make(110, 2, kChipA, torus_), "different job");
  log.append_with_text(make(120, 1, kChipB, torus_), "different location");
  log.append_with_text(make(130, 1, kChipA, socket_), "different subcat");
  const CompressionResult r = compress_temporal(log, 300);
  EXPECT_EQ(r.output_records, 4u);  // nothing coalesces
}

TEST_F(CompressorTest, TemporalGapBasedSlidingCluster) {
  // Events 250 s apart: each within threshold of the previous -> one
  // cluster even though first-to-last exceeds the threshold.
  RasLog log;
  for (int i = 0; i < 5; ++i) {
    log.append_with_text(make(100 + 250 * i, 1, kChipA, torus_), "e");
  }
  const CompressionResult r = compress_temporal(log, 300);
  EXPECT_EQ(r.output_records, 1u);
}

TEST_F(CompressorTest, SpatialDropsCrossLocationDuplicates) {
  RasLog log;
  // Same ENTRY_DATA + JOB_ID from different locations within 300 s.
  log.append_with_text(make(100, 7, kChipA, torus_), "same fault text");
  log.append_with_text(make(150, 7, kChipB, torus_), "same fault text");
  const CompressionResult r = compress_spatial(log, 300);
  EXPECT_EQ(r.output_records, 1u);
  EXPECT_EQ(log.records()[0].location, kChipA);
}

TEST_F(CompressorTest, SpatialKeepsDifferentJobOrText) {
  RasLog log;
  log.append_with_text(make(100, 7, kChipA, torus_), "text one");
  log.append_with_text(make(120, 8, kChipB, torus_), "text one");  // job
  log.append_with_text(make(140, 7, kChipB, torus_), "text two");  // text
  const CompressionResult r = compress_spatial(log, 300);
  EXPECT_EQ(r.output_records, 3u);
}

TEST_F(CompressorTest, CompressionIsIdempotent) {
  RasLog log;
  for (int i = 0; i < 50; ++i) {
    log.append_with_text(
        make(100 + i * 37, (i % 3 == 0) ? 1u : 2u,
             i % 2 == 0 ? kChipA : kChipB, i % 5 == 0 ? socket_ : torus_),
        "text " + std::to_string(i % 7));
  }
  log.sort_by_time();
  compress_temporal(log, 300);
  compress_spatial(log, 300);
  const std::size_t once = log.size();
  const CompressionResult t2 = compress_temporal(log, 300);
  const CompressionResult s2 = compress_spatial(log, 300);
  EXPECT_EQ(t2.removed, 0u);
  EXPECT_EQ(s2.removed, 0u);
  EXPECT_EQ(log.size(), once);
}

TEST_F(CompressorTest, RequiresSortedLog) {
  RasLog log;
  log.append_with_text(make(500, 1, kChipA, torus_), "a");
  log.append_with_text(make(100, 1, kChipA, torus_), "b");
  EXPECT_THROW(compress_temporal(log, 300), InvalidArgument);
  EXPECT_THROW(compress_spatial(log, 300), InvalidArgument);
}

TEST_F(CompressorTest, ZeroThresholdOnlyMergesSameSecond) {
  RasLog log;
  log.append_with_text(make(100, 1, kChipA, torus_), "e");
  log.append_with_text(make(100, 1, kChipA, torus_), "e");
  log.append_with_text(make(101, 1, kChipA, torus_), "e");
  const CompressionResult r = compress_temporal(log, 0);
  // Same-second duplicate merges (gap 0 <= 0); the 101 s record survives.
  EXPECT_EQ(r.output_records, 2u);
}

TEST_F(CompressorTest, CompressionRatio) {
  CompressionResult r;
  r.input_records = 100;
  r.output_records = 25;
  EXPECT_DOUBLE_EQ(r.compression_ratio(), 0.25);
  CompressionResult empty;
  EXPECT_DOUBLE_EQ(empty.compression_ratio(), 1.0);
}

// ---- the incremental operator ---------------------------------------------

class Phase1CompressorTest : public CompressorTest {};

TEST_F(Phase1CompressorTest, TemporalThenSpatialVerdicts) {
  Phase1Compressor phase1(300);
  EXPECT_EQ(phase1.push(make(100, 7, kChipA, torus_), "fault"),
            Phase1Verdict::kKept);
  // Same (job, location, subcategory) 50 s later: the temporal pass.
  EXPECT_EQ(phase1.push(make(150, 7, kChipA, torus_), "fault"),
            Phase1Verdict::kTemporalDuplicate);
  // Same text and job from another location: the spatial pass.
  EXPECT_EQ(phase1.push(make(160, 7, kChipB, torus_), "fault"),
            Phase1Verdict::kSpatialDuplicate);
  // Another job, or another text, is another fault.
  EXPECT_EQ(phase1.push(make(170, 8, kChipC, torus_), "fault"),
            Phase1Verdict::kKept);
  EXPECT_EQ(phase1.push(make(180, 7, kChipC, torus_), "other fault"),
            Phase1Verdict::kKept);
  // Gap-based: 640 s after the last spatial sighting is a new cluster.
  EXPECT_EQ(phase1.push(make(800, 7, kChipC, socket_), "fault"),
            Phase1Verdict::kKept);
}

TEST_F(Phase1CompressorTest, SpatialPassSeesOnlyTemporalSurvivors) {
  // The batch pipeline runs the spatial pass over the temporal pass's
  // output, so a record the temporal pass drops must not refresh the
  // spatial last-seen time.
  Phase1Compressor phase1(300);
  EXPECT_EQ(phase1.push(make(100, 7, kChipA, torus_), "fault"),
            Phase1Verdict::kKept);
  EXPECT_EQ(phase1.push(make(350, 7, kChipA, torus_), "fault"),
            Phase1Verdict::kTemporalDuplicate);
  // 400 s after the last *spatial* sighting (100), though only 150 s
  // after the temporally dropped one.
  EXPECT_EQ(phase1.push(make(500, 7, kChipB, torus_), "fault"),
            Phase1Verdict::kKept);
}

TEST_F(Phase1CompressorTest, HashedPushMatchesTextPush) {
  Phase1Compressor by_text(300);
  Phase1Compressor by_hash(300);
  const char* texts[] = {"a", "b", "a", "c", "b", "a"};
  for (int i = 0; i < 6; ++i) {
    const RasRecord rec =
        make(100 + 40 * i, 1, i % 2 == 0 ? kChipA : kChipB, torus_);
    EXPECT_EQ(by_text.push(rec, texts[i]),
              by_hash.push_hashed(rec, Phase1Compressor::entry_hash(texts[i])))
        << "record " << i;
  }
}

TEST_F(Phase1CompressorTest, SaveLoadRoundTripKeepsBothPasses) {
  // One job, 20 s apart, four texts: every fifth record repeats its
  // predecessor's chip (a temporal duplicate); the rest come from new
  // chips, so the spatial pass decides them from state saved before the
  // cut.
  std::vector<RasRecord> records;
  std::vector<std::string> texts;
  for (int i = 0; i < 60; ++i) {
    const int chip = i % 5 == 4 ? i - 1 : i;
    records.push_back(make(100 + 20 * i, 1,
                           bgl::Location::make_compute_chip(
                               0, 0, static_cast<std::uint8_t>(chip / 32),
                               static_cast<std::uint8_t>(chip % 32)),
                           torus_));
    texts.push_back("text " + std::to_string(i % 4));
  }
  Phase1Compressor original(300);
  for (int i = 0; i < 30; ++i) {
    original.push(records[i], texts[i]);
  }
  std::stringstream blob;
  original.save(blob);
  const std::string bytes = blob.str();
  Phase1Compressor restored(300);
  restored.push(make(1, 99, kChipC, torus_), "replaced by load");
  restored.load(blob);
  std::ostringstream again;
  restored.save(again);
  EXPECT_EQ(again.str(), bytes);
  std::size_t per_verdict[3] = {};
  for (int i = 30; i < 60; ++i) {
    const Phase1Verdict want = original.push(records[i], texts[i]);
    EXPECT_EQ(restored.push(records[i], texts[i]), want) << "record " << i;
    ++per_verdict[static_cast<std::size_t>(want)];
  }
  EXPECT_GT(per_verdict[static_cast<std::size_t>(
                Phase1Verdict::kTemporalDuplicate)],
            0u);
  EXPECT_GT(per_verdict[static_cast<std::size_t>(
                Phase1Verdict::kSpatialDuplicate)],
            0u);
}

TEST_F(Phase1CompressorTest, LoadRefusesCountsLargerThanTheStream) {
  for (const std::uint64_t count : {std::uint64_t{0xffffffffu},
                                    std::uint64_t{1} << 40}) {
    std::stringstream temporal;
    wire::write<std::uint64_t>(temporal, count);
    Phase1Compressor phase1;
    EXPECT_THROW(phase1.load(temporal), ParseError);

    std::stringstream spatial;
    wire::write<std::uint64_t>(spatial, 0);
    wire::write<std::uint64_t>(spatial, count);
    try {
      phase1.load(spatial);
      ADD_FAILURE() << "loaded " << count << " spatial keys";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("spatial key"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Phase1CompressorOptionsTest, RejectsNegativeThreshold) {
  EXPECT_THROW(Phase1Compressor(-1), InvalidArgument);
}

// ---- pipeline ---------------------------------------------------------------

TEST(PipelineTest, EndToEndClassifiesAndCompresses) {
  RasLog log;
  const SubcategoryInfo& torus = catalog().info(catalog().find("torusFailure"));
  // Three duplicate raw reports of one fault + one distinct event.
  for (TimePoint t : {100, 150, 200}) {
    RasRecord rec;
    rec.time = t;
    rec.job = 5;
    rec.location = kChipA;
    rec.facility = torus.facility;
    rec.severity = torus.severity;
    log.append_with_text(rec, std::string(torus.phrase) + " seq=1");
  }
  RasRecord other;
  other.time = 5000;
  other.job = 5;
  other.location = kChipA;
  other.facility = torus.facility;
  other.severity = torus.severity;
  log.append_with_text(other, std::string(torus.phrase) + " seq=2");

  const PreprocessStats stats = preprocess(log);
  EXPECT_EQ(stats.raw_records, 4u);
  EXPECT_EQ(stats.unique_events, 2u);
  EXPECT_EQ(stats.unique_fatal_events, 2u);
  EXPECT_EQ(stats.fatal_per_main[static_cast<std::size_t>(
                MainCategory::kNetwork)],
            2u);
  for (const RasRecord& rec : log.records()) {
    EXPECT_NE(rec.subcategory, kUnclassified);
  }
}

TEST(PipelineTest, SortsUnsortedInput) {
  RasLog log;
  const SubcategoryInfo& torus = catalog().info(catalog().find("torusFailure"));
  for (TimePoint t : {900, 100, 500}) {
    RasRecord rec;
    rec.time = t;
    rec.job = 1;
    rec.location = kChipA;
    rec.facility = torus.facility;
    rec.severity = torus.severity;
    log.append_with_text(rec, std::string(torus.phrase) + " s=" +
                                  std::to_string(t));
  }
  preprocess(log);
  EXPECT_TRUE(log.is_time_sorted());
}

TEST(PipelineTest, EmptyLogIsFine) {
  RasLog log;
  const PreprocessStats stats = preprocess(log);
  EXPECT_EQ(stats.raw_records, 0u);
  EXPECT_EQ(stats.unique_events, 0u);
}

// classify_all, and so preprocess(), classifies each distinct (pool id,
// facility, severity) once. Per record it must equal classify_record, the
// unmemoized classification, in subcategory and in every statistic.
TEST(ClassifyAllMemoTest, EqualsPerRecordClassificationOnEveryProfile) {
  const struct {
    const char* name;
    SystemProfile profile;
    double scale;
  } logs[] = {
      {"ANL", SystemProfile::anl(), 0.05},
      {"SDSC", SystemProfile::sdsc(), 0.1},
      {"BGQ", SystemProfile::bgq_multistream(), 0.01},
      {"DCP", SystemProfile::dc_prophet(), 0.005},
  };
  const EventClassifier classifier;
  for (const auto& l : logs) {
    SCOPED_TRACE(l.name);
    const RasLog raw = LogGenerator(l.profile).generate(l.scale, 1).log;
    RasLog memoized = raw.subset(raw.records());
    const ClassificationStats got = classifier.classify_all(memoized);
    RasLog oracle = raw.subset(raw.records());
    ClassificationStats want;
    for (RasRecord& rec : oracle.mutable_records()) {
      classifier.classify_record(oracle.text_of(rec), rec, want);
    }
    ASSERT_LT(oracle.pool().size(), oracle.size() / 2)
        << "texts must repeat for the memo to matter";
    EXPECT_EQ(got.classified_by_phrase, want.classified_by_phrase);
    EXPECT_EQ(got.classified_by_fallback, want.classified_by_fallback);
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.per_main, want.per_main);
    ASSERT_EQ(memoized.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      ASSERT_EQ(memoized.records()[i].subcategory,
                oracle.records()[i].subcategory)
          << "record " << i;
    }
    RasLog preprocessed = raw.subset(raw.records());
    const PreprocessStats stats = preprocess(preprocessed);
    EXPECT_EQ(stats.classification.total, want.total);
    EXPECT_EQ(stats.classification.classified_by_phrase,
              want.classified_by_phrase);
    EXPECT_EQ(stats.classification.per_main, want.per_main);
  }
}

}  // namespace
}  // namespace bglpred
