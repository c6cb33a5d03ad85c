// Differential gate for the one Phase-1 operator, on the ANL, SDSC, BG/Q
// and DC-Prophet profiles with three held-out seeds each:
//
//  * preprocess() keeps exactly the records, and reports exactly the
//    per-pass counts, of the two whole-log StringId passes in
//    tests/phase1_oracle.hpp;
//  * an OnlineEngine fed the raw log emits, field for field, the warnings
//    the same trained meta-learner emits on preprocess(raw) — the stream
//    the offline evaluation scores — both uninterrupted and across a
//    mid-stream save/restore of the engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "core/online.hpp"
#include "core/three_phase.hpp"
#include "phase1_oracle.hpp"
#include "simgen/generator.hpp"

namespace bglpred {
namespace {

struct Profile {
  const char* name;
  SystemProfile (*make)();
  double train_scale;
  double stream_scale;
};

// DC-Prophet's mined model is by far the largest; its scales stay small
// for the sanitizer builds.
const Profile kProfiles[] = {
    {"ANL", &SystemProfile::anl, 0.1, 0.05},
    {"SDSC", &SystemProfile::sdsc, 0.25, 0.05},
    {"BGQ", &SystemProfile::bgq_multistream, 0.02, 0.01},
    {"DCP", &SystemProfile::dc_prophet, 0.01, 0.002},
};
constexpr std::size_t kProfileCount = std::size(kProfiles);

RasLog raw_log(const Profile& profile, double scale,
               std::uint64_t seed_offset) {
  return LogGenerator(profile.make()).generate(scale, seed_offset).log;
}

/// save_state of the meta-learner trained on the profile's own history
/// (seed offset 0), as a deployment trains it.
const std::string& trained_model(std::size_t p) {
  static std::string models[kProfileCount];
  if (models[p].empty()) {
    RasLog history = raw_log(kProfiles[p], kProfiles[p].train_scale, 0);
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

void append(std::vector<Warning>& out, std::vector<Warning> more) {
  out.insert(out.end(), std::make_move_iterator(more.begin()),
             std::make_move_iterator(more.end()));
}

/// First index at which the two warning sequences differ in any field,
/// or -1 when they are equal.
long first_difference(const std::vector<Warning>& a,
                      const std::vector<Warning>& b) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (a[i].issued_at != b[i].issued_at ||
        a[i].window_begin != b[i].window_begin ||
        a[i].window_end != b[i].window_end ||
        a[i].confidence != b[i].confidence || a[i].source != b[i].source ||
        a[i].mergeable != b[i].mergeable) {
      return static_cast<long>(i);
    }
  }
  return a.size() == b.size() ? -1 : static_cast<long>(std::min(a.size(),
                                                                b.size()));
}

class Phase1DifferentialTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(Phase1DifferentialTest, OperatorKeepsWhatTheTwoPassOracleKeeps) {
  const Profile& profile = kProfiles[GetParam()];
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(std::string(profile.name) + " seed " +
                 std::to_string(seed));
    const RasLog raw = raw_log(profile, profile.stream_scale, seed);
    RasLog expected = raw.subset(raw.records());
    expected.sort_by_time();
    const ClassificationStats classified =
        EventClassifier{}.classify_all(expected);
    const CompressionResult temporal = oracle::compress_temporal(expected);
    const CompressionResult spatial = oracle::compress_spatial(expected);

    RasLog got = raw.subset(raw.records());
    const PreprocessStats stats = preprocess(got);
    ASSERT_GT(spatial.removed, 0u) << "no spatial duplicates to compare on";
    EXPECT_EQ(stats.raw_records, raw.size());
    EXPECT_EQ(stats.classification.classified_by_phrase,
              classified.classified_by_phrase);
    EXPECT_EQ(stats.classification.classified_by_fallback,
              classified.classified_by_fallback);
    EXPECT_EQ(stats.classification.per_main, classified.per_main);
    EXPECT_EQ(stats.temporal.input_records, temporal.input_records);
    EXPECT_EQ(stats.temporal.output_records, temporal.output_records);
    EXPECT_EQ(stats.temporal.removed, temporal.removed);
    EXPECT_EQ(stats.spatial.input_records, spatial.input_records);
    EXPECT_EQ(stats.spatial.output_records, spatial.output_records);
    EXPECT_EQ(stats.spatial.removed, spatial.removed);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      const RasRecord& a = got.records()[i];
      const RasRecord& b = expected.records()[i];
      ASSERT_TRUE(a.time == b.time && a.entry_data == b.entry_data &&
                  a.job == b.job && a.location == b.location &&
                  a.subcategory == b.subcategory &&
                  a.severity == b.severity && a.facility == b.facility &&
                  a.event_type == b.event_type)
          << "record " << i << " differs";
    }
  }
}

TEST_P(Phase1DifferentialTest, ServedWarningsEqualOfflineWarnings) {
  const std::size_t p = GetParam();
  const Profile& profile = kProfiles[p];
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(std::string(profile.name) + " seed " +
                 std::to_string(seed));
    const RasLog raw = raw_log(profile, profile.stream_scale, seed);
    ASSERT_TRUE(raw.is_time_sorted());

    // Offline: the model fed the Phase-1 stream the evaluation scores.
    RasLog preprocessed = raw.subset(raw.records());
    preprocess(preprocessed);
    PredictorPtr offline_model = load_model(p);
    std::vector<Warning> offline;
    for (const RasRecord& rec : preprocessed.records()) {
      if (auto w = offline_model->observe(rec)) {
        offline.push_back(std::move(*w));
      }
    }
    ASSERT_FALSE(offline.empty()) << "the stream never warned";

    // Served: the raw log through the engine, uninterrupted...
    OnlineEngine engine(load_model(p));
    std::vector<Warning> served;
    for (const RasRecord& rec : raw.records()) {
      append(served, engine.feed(rec, raw.text_of(rec)));
    }
    append(served, engine.flush());
    EXPECT_EQ(engine.stats().forwarded, preprocessed.size());
    EXPECT_EQ(engine.stats().deduplicated, raw.size() - preprocessed.size());
    EXPECT_EQ(first_difference(served, offline), -1)
        << served.size() << " served vs " << offline.size() << " offline";

    // ...and restored from a checkpoint taken mid-stream.
    OnlineEngine first_half(load_model(p));
    std::vector<Warning> resumed;
    const std::size_t cut = raw.size() / 2;
    for (std::size_t i = 0; i < cut; ++i) {
      const RasRecord& rec = raw.records()[i];
      append(resumed, first_half.feed(rec, raw.text_of(rec)));
    }
    std::stringstream blob;
    first_half.save(blob);
    OnlineEngine restored = OnlineEngine::restore(blob, load_model(p));
    for (std::size_t i = cut; i < raw.size(); ++i) {
      const RasRecord& rec = raw.records()[i];
      append(resumed, restored.feed(rec, raw.text_of(rec)));
    }
    append(resumed, restored.flush());
    EXPECT_EQ(first_difference(resumed, offline), -1)
        << resumed.size() << " resumed vs " << offline.size() << " offline";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, Phase1DifferentialTest,
    ::testing::Range<std::size_t>(0, kProfileCount),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(kProfiles[info.param].name);
    });

}  // namespace
}  // namespace bglpred
