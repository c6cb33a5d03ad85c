// Runs of raw records (raslog/record_run.hpp) and the engine's one feed
// path over them. Splitting a stream into runs at any points must not
// change anything an engine emits or stores: on the ANL, SDSC, BG/Q and
// DC-Prophet profiles, at reorder horizon 0 and above it, a log fed as
// runs of 1, 7 and 64 records and at random cut points yields the
// warnings, OnlineStats and save() bytes of the same log fed record by
// record.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/online.hpp"
#include "core/three_phase.hpp"
#include "raslog/record_run.hpp"
#include "simgen/generator.hpp"

namespace bglpred {
namespace {

RasRecord record_at(TimePoint time) {
  RasRecord rec;
  rec.time = time;
  return rec;
}

TEST(RecordRunBuilderTest, EqualTextsShareOneIdNumberedByFirstUse) {
  struct Case {
    std::vector<std::string_view> texts;
    std::vector<std::uint32_t> ids;
    std::vector<std::string_view> distinct;
  };
  // Equal texts in a row take the previous record's id without a probe;
  // the ids must be the ones the probe gives.
  const Case cases[] = {
      {{"b", "a", "b", "c", "a", "b"}, {0, 1, 0, 2, 1, 0}, {"b", "a", "c"}},
      {{"x", "x", "x", "y", "y", "x", "x"},
       {0, 0, 0, 1, 1, 0, 0},
       {"x", "y"}},
      {{"a", "b", "a", "b", "a", "b"}, {0, 1, 0, 1, 0, 1}, {"a", "b"}},
      {{"", "", "e", "", ""}, {0, 0, 1, 0, 0}, {"", "e"}},
      // Same length and first byte as the previous text, not equal.
      {{"ab", "ac", "ac", "ab"}, {0, 1, 1, 0}, {"ab", "ac"}},
  };
  for (const Case& c : cases) {
    RecordRunBuilder builder;
    for (std::size_t i = 0; i < c.texts.size(); ++i) {
      builder.add(record_at(static_cast<TimePoint>(i)), c.texts[i]);
    }
    const RecordRun run = builder.run();
    ASSERT_EQ(run.records.size(), c.texts.size());
    EXPECT_EQ(std::vector<std::uint32_t>(run.text_ids.begin(),
                                         run.text_ids.end()),
              c.ids);
    ASSERT_EQ(run.texts.size(), c.distinct.size());
    for (std::size_t id = 0; id < run.texts.size(); ++id) {
      EXPECT_EQ(run.texts[id].text, c.distinct[id]);
      EXPECT_EQ(run.texts[id].hash, stable_hash64(c.distinct[id]));
    }
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      EXPECT_EQ(run.records[i].time, static_cast<TimePoint>(i));
      EXPECT_EQ(run.texts[run.text_ids[i]].text, c.texts[i]);
    }
  }
}

TEST(RecordRunBuilderTest, ClearForgetsTextsAcrossGrowth) {
  RecordRunBuilder builder;
  std::vector<std::string> texts;
  for (int i = 0; i < 300; ++i) {
    texts.push_back("text " + std::to_string(i));
  }
  for (int round = 0; round < 3; ++round) {
    builder.clear();
    // Every text twice, so the index grows past its first size and
    // still finds each text's first id.
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& text : texts) {
        builder.add(RasRecord{}, text);
      }
    }
    const RecordRun run = builder.run();
    ASSERT_EQ(run.texts.size(), texts.size()) << "round " << round;
    for (std::size_t i = 0; i < run.text_ids.size(); ++i) {
      ASSERT_EQ(run.text_ids[i], i % texts.size()) << "record " << i;
    }
  }
  builder.clear();
  builder.add(RasRecord{}, "text 7");
  EXPECT_EQ(builder.run().texts.size(), 1u);
  EXPECT_EQ(builder.run().text_ids[0], 0u);
  // The first record after clear() repeats the last text before it, in
  // a new buffer as a new frame's payload would be: it is the run's
  // first text, aliasing the new bytes, not the old.
  const std::string before = "repeated";
  const std::string after = "repeated";
  builder.clear();
  builder.add(RasRecord{}, "other");
  builder.add(RasRecord{}, before);
  builder.clear();
  builder.add(RasRecord{}, after);
  builder.add(RasRecord{}, after);
  const RecordRun run = builder.run();
  ASSERT_EQ(run.texts.size(), 1u);
  EXPECT_EQ(run.texts[0].text.data(), after.data());
  EXPECT_EQ(run.texts[0].hash, stable_hash64(after));
  EXPECT_EQ(std::vector<std::uint32_t>(run.text_ids.begin(),
                                       run.text_ids.end()),
            (std::vector<std::uint32_t>{0, 0}));
}

// ---- run semantics -------------------------------------------------------

struct Profile {
  const char* name;
  SystemProfile (*make)();
  double train_scale;
  double stream_scale;
};

const Profile kProfiles[] = {
    {"ANL", &SystemProfile::anl, 0.1, 0.02},
    {"SDSC", &SystemProfile::sdsc, 0.25, 0.02},
    {"BGQ", &SystemProfile::bgq_multistream, 0.02, 0.005},
    {"DCP", &SystemProfile::dc_prophet, 0.01, 0.002},
};
constexpr std::size_t kProfileCount = std::size(kProfiles);

const std::string& trained_model(std::size_t p) {
  static std::string models[kProfileCount];
  if (models[p].empty()) {
    RasLog history =
        LogGenerator(kProfiles[p].make()).generate(kProfiles[p].train_scale)
            .log;
    const ThreePhasePredictor tpp;
    tpp.run_phase1(history);
    PredictorPtr meta = tpp.make_predictor(Method::kMeta);
    meta->train(history);
    std::ostringstream os;
    meta->save_state(os);
    models[p] = os.str();
  }
  return models[p];
}

PredictorPtr load_model(std::size_t p) {
  PredictorPtr meta = ThreePhasePredictor{}.make_predictor(Method::kMeta);
  std::istringstream is(trained_model(p));
  meta->load_state(is);
  return meta;
}

/// The profile's raw log with arrival skew: about 2 % of records swap
/// with a neighbour and 0.2 % arrive an hour late, so the reorder buffer
/// repairs some records and clamps others.
RasLog skewed_log(std::size_t p) {
  RasLog log = LogGenerator(kProfiles[p].make())
                   .generate(kProfiles[p].stream_scale, 1)
                   .log;
  auto& records = log.mutable_records();
  Rng rng(p + 11);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    if (rng.bernoulli(0.02)) {
      std::swap(records[i], records[i + 1]);
    } else if (rng.bernoulli(0.002)) {
      records[i].time -= 3600;
    }
  }
  return log;
}

struct Fed {
  std::vector<Warning> warnings;
  OnlineStats stats;
  std::string state;
};

/// Feeds `log` cut into runs before every record `cut(i)` names, then
/// flushes.
template <typename Cut>
Fed feed_in_runs(std::size_t p, const OnlineOptions& options,
                 const RasLog& log, Cut cut) {
  OnlineEngine engine(load_model(p), options);
  Fed fed;
  RecordRunBuilder builder;
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i > 0 && cut(i)) {
      engine.feed(builder.run(), fed.warnings);
      builder.clear();
    }
    const RasRecord& rec = log.records()[i];
    builder.add(rec, log.text_of(rec));
  }
  engine.feed(builder.run(), fed.warnings);
  for (Warning& w : engine.flush()) {
    fed.warnings.push_back(std::move(w));
  }
  fed.stats = engine.stats();
  std::ostringstream os;
  engine.save(os);
  fed.state = os.str();
  return fed;
}

Fed feed_record_by_record(std::size_t p, const OnlineOptions& options,
                          const RasLog& log) {
  OnlineEngine engine(load_model(p), options);
  Fed fed;
  for (const RasRecord& rec : log.records()) {
    for (Warning& w : engine.feed(rec, log.text_of(rec))) {
      fed.warnings.push_back(std::move(w));
    }
  }
  for (Warning& w : engine.flush()) {
    fed.warnings.push_back(std::move(w));
  }
  fed.stats = engine.stats();
  std::ostringstream os;
  engine.save(os);
  fed.state = os.str();
  return fed;
}

void expect_same(const Fed& got, const Fed& want) {
  ASSERT_EQ(got.warnings.size(), want.warnings.size());
  for (std::size_t i = 0; i < got.warnings.size(); ++i) {
    const Warning& a = got.warnings[i];
    const Warning& b = want.warnings[i];
    ASSERT_TRUE(a.issued_at == b.issued_at &&
                a.window_begin == b.window_begin &&
                a.window_end == b.window_end && a.confidence == b.confidence &&
                a.mergeable == b.mergeable && a.source == b.source)
        << "warning " << i << " differs";
  }
  EXPECT_EQ(got.stats.raw_records, want.stats.raw_records);
  EXPECT_EQ(got.stats.deduplicated, want.stats.deduplicated);
  EXPECT_EQ(got.stats.forwarded, want.stats.forwarded);
  EXPECT_EQ(got.stats.warnings, want.stats.warnings);
  EXPECT_EQ(got.stats.degraded, want.stats.degraded);
  EXPECT_EQ(got.stats.reordered, want.stats.reordered);
  EXPECT_EQ(got.stats.clamped, want.stats.clamped);
  EXPECT_TRUE(got.state == want.state) << "save() bytes differ";
}

class RunFeedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RunFeedTest, AnySplitIntoRunsEqualsRecordByRecord) {
  const std::size_t p = GetParam();
  const RasLog log = skewed_log(p);
  for (const Duration horizon : {Duration{0}, Duration{600}}) {
    SCOPED_TRACE("horizon " + std::to_string(horizon));
    OnlineOptions options;
    options.reorder_horizon = horizon;
    const Fed want = feed_record_by_record(p, options, log);
    ASSERT_FALSE(want.warnings.empty()) << "the stream never warned";
    ASSERT_GT(want.stats.reordered, 0u);
    ASSERT_GT(want.stats.clamped, 0u);
    for (const std::size_t every : {1u, 7u, 64u}) {
      SCOPED_TRACE("runs of " + std::to_string(every));
      expect_same(feed_in_runs(p, options, log,
                               [every](std::size_t i) {
                                 return i % every == 0;
                               }),
                  want);
    }
    SCOPED_TRACE("random cuts");
    Rng rng(p + 101);
    expect_same(feed_in_runs(p, options, log,
                             [&rng](std::size_t) {
                               return rng.bernoulli(0.05);
                             }),
                want);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, RunFeedTest, ::testing::Range<std::size_t>(0, kProfileCount),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(kProfiles[info.param].name);
    });

}  // namespace
}  // namespace bglpred
