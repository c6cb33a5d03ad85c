// Tests for the ThreePhasePredictor facade and the online engine.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/binary.hpp"
#include "common/error.hpp"
#include "core/online.hpp"
#include "core/three_phase.hpp"
#include "simgen/generator.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {
namespace {

TEST(ThreePhaseTest, MethodNames) {
  EXPECT_STREQ(to_string(Method::kStatistical), "statistical");
  EXPECT_STREQ(to_string(Method::kRule), "rule");
  EXPECT_STREQ(to_string(Method::kMeta), "meta");
  EXPECT_STREQ(to_string(Method::kPeriodic), "periodic");
  EXPECT_STREQ(to_string(Method::kEveryFailure), "every-failure");
}

TEST(ThreePhaseTest, MakePredictorBuildsEveryMethod) {
  const ThreePhasePredictor tpp;
  for (const Method m : {Method::kStatistical, Method::kRule, Method::kMeta,
                         Method::kPeriodic, Method::kEveryFailure}) {
    const PredictorPtr p = tpp.make_predictor(m);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->name(), to_string(m));
  }
}

TEST(ThreePhaseTest, RejectsTooFewFolds) {
  ThreePhaseOptions opt;
  opt.cv_folds = 1;
  EXPECT_THROW(ThreePhasePredictor{opt}, InvalidArgument);
}

TEST(ThreePhaseTest, EndToEndOnGeneratedLog) {
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.04);
  ThreePhaseOptions opt;
  opt.prediction.window = 30 * kMinute;
  opt.cv_folds = 5;
  const ThreePhasePredictor tpp(opt);
  const PreprocessStats p1 = tpp.run_phase1(g.log);
  EXPECT_GT(p1.unique_fatal_events, 50u);
  EXPECT_LT(p1.unique_events, p1.raw_records);

  const CvResult rule = tpp.evaluate(g.log, Method::kRule);
  const CvResult meta = tpp.evaluate(g.log, Method::kMeta);
  // Core qualitative claims of the paper on any calibrated log:
  // the meta-learner's recall beats the rule base's, and everything is a
  // valid probability.
  EXPECT_GE(meta.macro_recall, rule.macro_recall);
  for (const CvResult* r : {&rule, &meta}) {
    EXPECT_GE(r->macro_precision, 0.0);
    EXPECT_LE(r->macro_precision, 1.0);
    EXPECT_GE(r->macro_recall, 0.0);
    EXPECT_LE(r->macro_recall, 1.0);
  }
}

TEST(OnlineEngineTest, DeduplicatesAndForwards) {
  ThreePhaseOptions opt;
  opt.prediction.window = 30 * kMinute;
  const ThreePhasePredictor tpp(opt);
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));

  const SubcategoryInfo& torus =
      catalog().info(catalog().find("torusFailure"));
  RasRecord rec;
  rec.time = 1000;
  rec.job = 5;
  rec.location = bgl::Location::make_compute_chip(0, 0, 0, 0);
  rec.facility = torus.facility;
  rec.severity = torus.severity;

  // First sighting passes through and (every-failure) warns.
  auto w1 = engine.feed(rec, std::string(torus.phrase) + " seq=1");
  EXPECT_EQ(w1.size(), 1u);
  // Duplicate within the threshold is swallowed.
  rec.time = 1100;
  auto w2 = engine.feed(rec, std::string(torus.phrase) + " seq=1");
  EXPECT_TRUE(w2.empty());
  EXPECT_EQ(engine.stats().deduplicated, 1u);
  // Beyond the threshold it is a fresh event again.
  rec.time = 1100 + 400;
  auto w3 = engine.feed(rec, std::string(torus.phrase) + " seq=2");
  EXPECT_EQ(w3.size(), 1u);
  EXPECT_EQ(engine.stats().raw_records, 3u);
  EXPECT_EQ(engine.stats().forwarded, 2u);
  EXPECT_EQ(engine.stats().warnings, 2u);
}

TEST(OnlineEngineTest, ClassifiesFromEntryText) {
  ThreePhaseOptions opt;
  const ThreePhasePredictor tpp(opt);
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  const SubcategoryInfo& cache =
      catalog().info(catalog().find("cacheFailure"));
  RasRecord rec;
  rec.time = 2000;
  rec.location = bgl::Location::make_compute_chip(0, 1, 2, 3);
  rec.facility = cache.facility;
  rec.severity = cache.severity;
  auto w = engine.feed(rec, std::string(cache.phrase) + " bank 3");
  EXPECT_EQ(w.size(), 1u);  // classified fatal -> every-failure warns
}

TEST(OnlineEngineTest, MatchesOfflinePhase1OnReplay) {
  // The engine's Phase 1 (temporal then spatial) must forward exactly
  // the records full offline preprocess() keeps.
  GeneratedLog g = LogGenerator(SystemProfile::sdsc()).generate(0.01);
  ThreePhaseOptions opt;
  const ThreePhasePredictor tpp(opt);
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  for (const RasRecord& rec : g.log.records()) {
    engine.feed(rec, g.log.text_of(rec));
  }
  RasLog offline = std::move(g.log);
  const PreprocessStats stats = preprocess(offline);
  ASSERT_GT(stats.spatial.removed, 0u);
  EXPECT_EQ(engine.stats().forwarded, stats.unique_events);
  EXPECT_EQ(engine.stats().deduplicated,
            stats.temporal.removed + stats.spatial.removed);
}

TEST(OnlineEngineTest, DropsSpatialDuplicatesAcrossLocations) {
  const ThreePhasePredictor tpp;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  RasRecord rec;
  rec.facility = Facility::kKernel;
  rec.severity = Severity::kFatal;
  rec.job = 9;
  rec.time = 1000;
  rec.location = bgl::Location::make_compute_chip(0, 0, 0, 0);
  EXPECT_EQ(engine.feed(rec, "kernel panic").size(), 1u);
  // The same fault reported by another chip of the job: one event.
  rec.time = 1010;
  rec.location = bgl::Location::make_compute_chip(0, 0, 0, 1);
  EXPECT_TRUE(engine.feed(rec, "kernel panic").empty());
  // Another job's report of the same text is its own event.
  rec.job = 10;
  EXPECT_EQ(engine.feed(rec, "kernel panic").size(), 1u);
  EXPECT_EQ(engine.stats().deduplicated, 1u);
  EXPECT_EQ(engine.stats().forwarded, 2u);
}

TEST(OnlineEngineTest, RejectsNullPredictor) {
  EXPECT_THROW(OnlineEngine(nullptr), InvalidArgument);
}

TEST(OnlineEngineTest, MalformedRecordsCountedAsDegraded) {
  const ThreePhasePredictor tpp;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  RasRecord rec;
  rec.time = 1000;
  rec.facility = static_cast<Facility>(200);  // out of enum range
  rec.severity = Severity::kFatal;
  auto w = engine.feed(rec, "mystery event");
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(engine.stats().degraded, 1u);
  EXPECT_EQ(engine.stats().forwarded, 0u);

  rec.facility = Facility::kKernel;
  rec.severity = static_cast<Severity>(99);
  engine.feed(rec, "mystery event");
  EXPECT_EQ(engine.stats().degraded, 2u);

  // A healthy record after the junk still flows normally.
  rec.severity = Severity::kFatal;
  auto ok = engine.feed(rec, "kernel panic");
  EXPECT_EQ(ok.size(), 1u);
  EXPECT_EQ(engine.stats().forwarded, 1u);
  EXPECT_EQ(engine.stats().raw_records, 3u);
}

TEST(OnlineEngineTest, HorizonZeroClampsLateTimestamps) {
  const ThreePhasePredictor tpp;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  RasRecord rec;
  rec.facility = Facility::kKernel;
  rec.severity = Severity::kFatal;
  rec.location = bgl::Location::make_compute_chip(0, 0, 0, 0);

  rec.time = 2000;
  auto w1 = engine.feed(rec, "kernel panic a");
  EXPECT_EQ(w1.size(), 1u);
  // A record from the past: clamped to the high-water mark, counted,
  // and the emitted warning anchors at the clamped time.
  rec.time = 1000;
  rec.location = bgl::Location::make_compute_chip(1, 0, 0, 0);
  auto w2 = engine.feed(rec, "kernel panic b");
  ASSERT_EQ(w2.size(), 1u);
  EXPECT_EQ(w2[0].issued_at, 2000);
  EXPECT_EQ(engine.stats().reordered, 1u);
  EXPECT_EQ(engine.stats().clamped, 1u);
}

TEST(OnlineEngineTest, ReorderBufferRestoresOrder) {
  OnlineOptions opts;
  opts.reorder_horizon = 100;
  const ThreePhasePredictor tpp;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure), opts);
  RasRecord rec;
  rec.facility = Facility::kKernel;
  rec.severity = Severity::kFatal;

  std::vector<Warning> all;
  // Distinct texts: one text from one job within the threshold would be
  // a single fault to Phase 1's spatial pass.
  const auto feed_at = [&](TimePoint t, std::uint16_t rack) {
    rec.time = t;
    rec.location = bgl::Location::make_compute_chip(rack, 0, 0, 0);
    const std::string text = "kernel panic rack " + std::to_string(rack);
    for (Warning& w : engine.feed(rec, text)) {
      all.push_back(std::move(w));
    }
  };
  feed_at(1000, 0);
  feed_at(1050, 1);  // skew: arrives before the 1010 record
  feed_at(1010, 2);
  feed_at(1300, 3);  // advances the watermark, releasing 1000..1050
  for (Warning& w : engine.flush()) {
    all.push_back(std::move(w));
  }
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0].issued_at, 1000);
  EXPECT_EQ(all[1].issued_at, 1010);  // repaired order
  EXPECT_EQ(all[2].issued_at, 1050);
  EXPECT_EQ(all[3].issued_at, 1300);
  EXPECT_EQ(engine.stats().reordered, 1u);
  EXPECT_EQ(engine.stats().clamped, 0u);
}

TEST(OnlineEngineTest, RecordLateBeyondHorizonIsClamped) {
  // Horizon 100: a record 1500 s late cannot be repaired by the buffer,
  // so it is clamped to the high-water mark like at horizon 0 and time
  // never runs backwards.
  OnlineOptions opts;
  opts.reorder_horizon = 100;
  const ThreePhasePredictor tpp;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure), opts);
  RasRecord rec;
  rec.facility = Facility::kKernel;
  rec.severity = Severity::kFatal;
  std::vector<Warning> all;
  const auto feed_at = [&](TimePoint t, std::uint16_t rack) {
    rec.time = t;
    rec.location = bgl::Location::make_compute_chip(rack, 0, 0, 0);
    const std::string text = "kernel panic rack " + std::to_string(rack);
    for (Warning& w : engine.feed(rec, text)) {
      all.push_back(std::move(w));
    }
  };
  feed_at(1000, 0);
  feed_at(2000, 1);  // releases 1000
  feed_at(500, 2);
  for (Warning& w : engine.flush()) {
    all.push_back(std::move(w));
  }
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].issued_at, 1000);
  EXPECT_EQ(all[1].issued_at, 2000);
  EXPECT_EQ(all[2].issued_at, 2000);
  EXPECT_EQ(engine.stats().reordered, 1u);
  EXPECT_EQ(engine.stats().clamped, 1u);
}

TEST(OnlineEngineTest, CheckpointRoundTripPreservesDedupState) {
  const ThreePhasePredictor tpp;
  const SubcategoryInfo& torus =
      catalog().info(catalog().find("torusFailure"));
  RasRecord rec;
  rec.time = 1000;
  rec.job = 5;
  rec.location = bgl::Location::make_compute_chip(0, 0, 0, 0);
  rec.facility = torus.facility;
  rec.severity = torus.severity;

  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  engine.feed(rec, std::string(torus.phrase) + " x");

  std::stringstream blob;
  engine.save(blob);
  OnlineEngine restored = OnlineEngine::restore(
      blob, tpp.make_predictor(Method::kEveryFailure));

  // The restored engine remembers the dedup entry: a near-duplicate is
  // swallowed exactly as the original would swallow it.
  rec.time = 1100;
  auto w_restored = restored.feed(rec, std::string(torus.phrase) + " x");
  auto w_original = engine.feed(rec, std::string(torus.phrase) + " x");
  EXPECT_TRUE(w_restored.empty());
  EXPECT_TRUE(w_original.empty());
  EXPECT_EQ(restored.stats().deduplicated, engine.stats().deduplicated);
  EXPECT_EQ(restored.stats().raw_records, engine.stats().raw_records);
}

TEST(OnlineEngineTest, CheckpointMidBufferResumesIdentically) {
  // Restore with records parked in the reorder buffer and Phase-1 state
  // in both passes: the resumed stream's warnings and counters equal the
  // uninterrupted engine's.
  OnlineOptions opts;
  opts.reorder_horizon = 60;
  const ThreePhasePredictor tpp;
  std::vector<RasRecord> records;
  std::vector<std::string> texts;
  for (int i = 0; i < 40; ++i) {
    RasRecord rec;
    rec.facility = Facility::kKernel;
    rec.severity = Severity::kFatal;
    rec.job = static_cast<bgl::JobId>(i % 3);
    rec.time = 1000 + 25 * i - (i % 4 == 1 ? 40 : 0);  // skew <= horizon
    rec.location = bgl::Location::make_compute_chip(
        static_cast<std::uint16_t>(i % 5), 0, 0, 0);
    records.push_back(rec);
    texts.push_back("kernel panic " + std::to_string(i % 6));
  }
  const auto run = [&](OnlineEngine& engine, std::size_t from,
                       std::size_t to, std::vector<Warning>& out) {
    for (std::size_t i = from; i < to; ++i) {
      for (Warning& w : engine.feed(records[i], texts[i])) {
        out.push_back(std::move(w));
      }
    }
  };
  OnlineEngine whole(tpp.make_predictor(Method::kEveryFailure), opts);
  std::vector<Warning> expected;
  run(whole, 0, records.size(), expected);
  for (Warning& w : whole.flush()) {
    expected.push_back(std::move(w));
  }

  OnlineEngine first(tpp.make_predictor(Method::kEveryFailure), opts);
  std::vector<Warning> got;
  run(first, 0, 20, got);
  std::stringstream blob;
  first.save(blob);
  OnlineEngine second = OnlineEngine::restore(
      blob, tpp.make_predictor(Method::kEveryFailure));
  run(second, 20, records.size(), got);
  for (Warning& w : second.flush()) {
    got.push_back(std::move(w));
  }
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].issued_at, expected[i].issued_at) << "warning " << i;
  }
  EXPECT_GT(whole.stats().deduplicated, 0u);
  EXPECT_EQ(second.stats().deduplicated, whole.stats().deduplicated);
  EXPECT_EQ(second.stats().forwarded, whole.stats().forwarded);
  EXPECT_EQ(second.stats().reordered, whole.stats().reordered);
}

TEST(OnlineEngineTest, RestoreRefusesBufferCountsLargerThanTheBlob) {
  const ThreePhasePredictor tpp;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  RasRecord rec;
  rec.facility = Facility::kKernel;
  rec.severity = Severity::kFatal;
  rec.time = 1000;
  engine.feed(rec, "kernel panic");
  std::stringstream blob;
  engine.save(blob);
  // Tag, two options, seven counters, high-water mark and sequence
  // counter precede the reorder buffer's record count.
  constexpr std::size_t kBufferCountAt = 8 + 2 * 8 + 7 * 8 + 8 + 8;
  for (const std::uint64_t count : {std::uint64_t{0xffffffffu},
                                    std::uint64_t{1} << 40}) {
    std::string bytes = blob.str();
    ASSERT_EQ(wire::decode<std::uint64_t>(bytes.data() + kBufferCountAt), 0u);
    for (std::size_t b = 0; b < 8; ++b) {
      bytes[kBufferCountAt + b] = static_cast<char>((count >> (8 * b)) & 0xff);
    }
    std::istringstream is(bytes);
    try {
      OnlineEngine::restore(is, tpp.make_predictor(Method::kEveryFailure));
      ADD_FAILURE() << "restored " << count << " buffered records";
    } catch (const ParseError& e) {
      // The garbage behind the count fails as records or truncates.
      const std::string what = e.what();
      EXPECT_TRUE(what.find("buffered") != std::string::npos ||
                  what.find("binary log record") != std::string::npos)
          << what;
    }
  }
}

}  // namespace
}  // namespace bglpred
