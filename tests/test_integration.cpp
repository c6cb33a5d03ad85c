// End-to-end integration tests: generate both calibrated logs, run the
// full three-phase pipeline, and assert the paper's qualitative results
// hold (bands kept loose — the deterministic seed keeps them stable, but
// they must survive profile re-tuning).
#include <gtest/gtest.h>

#include "core/three_phase.hpp"
#include "mining/event_sets.hpp"
#include "simgen/generator.hpp"
#include "stats/interarrival.hpp"

namespace bglpred {
namespace {

// GoogleTest prints this struct as a byte dump, and the dump is part of
// each ctest test name. The name is held inline (not as a pointer) so
// those bytes, and with them the test names, are the same in every run.
struct ProfileCase {
  char name[8];
  Duration rulegen_window;
};

class IntegrationTest : public ::testing::TestWithParam<ProfileCase> {
 protected:
  // Fixture scale: large enough that per-fold trigger selection is
  // stable (at 0.15 the net/ios follow-up margin is one unlucky seed
  // away from the 0.85 relative cut — see StatisticalOptions).
  static constexpr double kScale = 0.25;

  static SystemProfile profile_for(const std::string& name) {
    return name == "ANL" ? SystemProfile::anl() : SystemProfile::sdsc();
  }

  // Generate + preprocess once per profile (shared across tests).
  static RasLog& preprocessed(const std::string& name,
                              Duration rulegen_window) {
    static std::map<std::string, RasLog> cache;
    auto it = cache.find(name);
    if (it == cache.end()) {
      GeneratedLog g = LogGenerator(profile_for(name)).generate(kScale);
      ThreePhaseOptions opt;
      opt.rule.rule_generation_window = rulegen_window;
      ThreePhasePredictor(opt).run_phase1(g.log);
      it = cache.emplace(name, std::move(g.log)).first;
    }
    return it->second;
  }
};

TEST_P(IntegrationTest, StatisticalPredictorInPaperBand) {
  const auto param = GetParam();
  RasLog& log = preprocessed(param.name, param.rulegen_window);
  // Table-5 configuration: [5 min, 1 h].
  ThreePhaseOptions opt;
  opt.prediction.lead = 5 * kMinute;
  opt.prediction.window = kHour;
  opt.rule.rule_generation_window = param.rulegen_window;
  const CvResult cv =
      ThreePhasePredictor(opt).evaluate(log, Method::kStatistical);
  // Paper: ANL P=.5157 R=.4872; SDSC P=.2837 R=.3117. Wide bands.
  if (std::string(param.name) == "ANL") {
    EXPECT_GT(cv.macro_precision, 0.35);
    EXPECT_LT(cv.macro_precision, 0.70);
    EXPECT_GT(cv.macro_recall, 0.30);
    EXPECT_LT(cv.macro_recall, 0.70);
  } else {
    EXPECT_GT(cv.macro_precision, 0.15);
    EXPECT_LT(cv.macro_precision, 0.55);
    EXPECT_GT(cv.macro_recall, 0.10);
    EXPECT_LT(cv.macro_recall, 0.50);
  }
}

TEST_P(IntegrationTest, RulePredictorHasHighPrecisionModerateRecall) {
  const auto param = GetParam();
  RasLog& log = preprocessed(param.name, param.rulegen_window);
  ThreePhaseOptions opt;
  opt.prediction.window = 30 * kMinute;
  opt.rule.rule_generation_window = param.rulegen_window;
  const CvResult cv = ThreePhasePredictor(opt).evaluate(log, Method::kRule);
  // Paper band: precision 0.7-0.9, recall 0.22-0.55. Under coverage
  // counting on strongly bursty logs our recall runs above the band and
  // precision a notch below it (EXPERIMENTS.md discusses); the test pins
  // the qualitative region: precision clearly above chance, recall
  // moderate-to-high and bounded away from both 0 and 1.
  EXPECT_GT(cv.macro_precision, 0.45);
  EXPECT_GT(cv.macro_recall, 0.2);
  EXPECT_LT(cv.macro_recall, 0.85);
}

TEST_P(IntegrationTest, RecallRisesWithPredictionWindow) {
  const auto param = GetParam();
  RasLog& log = preprocessed(param.name, param.rulegen_window);
  double prev = -1.0;
  for (const Duration w : {5 * kMinute, 30 * kMinute, 60 * kMinute}) {
    ThreePhaseOptions opt;
    opt.prediction.window = w;
    opt.rule.rule_generation_window = param.rulegen_window;
    const CvResult cv =
        ThreePhasePredictor(opt).evaluate(log, Method::kRule);
    EXPECT_GT(cv.macro_recall, prev - 0.03)  // monotone up to noise
        << "window " << w;
    prev = cv.macro_recall;
  }
}

TEST_P(IntegrationTest, MetaLearnerBoostsRecallOverBothBases) {
  const auto param = GetParam();
  RasLog& log = preprocessed(param.name, param.rulegen_window);
  ThreePhaseOptions opt;
  opt.prediction.window = 30 * kMinute;
  opt.rule.rule_generation_window = param.rulegen_window;
  const ThreePhasePredictor tpp(opt);
  const CvResult stat = tpp.evaluate(log, Method::kStatistical);
  const CvResult rule = tpp.evaluate(log, Method::kRule);
  const CvResult meta = tpp.evaluate(log, Method::kMeta);
  // The headline claim: the meta-learner's coverage beats either base.
  EXPECT_GT(meta.macro_recall, rule.macro_recall - 1e-9);
  EXPECT_GT(meta.macro_recall, stat.macro_recall - 1e-9);
  // And its precision sits at or above the weaker base's.
  EXPECT_GT(meta.macro_precision,
            std::min(stat.macro_precision, rule.macro_precision) - 0.05);
}

TEST_P(IntegrationTest, MetaBeatsNaiveBaselines) {
  const auto param = GetParam();
  RasLog& log = preprocessed(param.name, param.rulegen_window);
  ThreePhaseOptions opt;
  opt.prediction.window = 30 * kMinute;
  opt.rule.rule_generation_window = param.rulegen_window;
  const ThreePhasePredictor tpp(opt);
  const CvResult meta = tpp.evaluate(log, Method::kMeta);
  const CvResult periodic = tpp.evaluate(log, Method::kPeriodic);
  EXPECT_GT(meta.macro_f1(), periodic.macro_f1());
}

TEST_P(IntegrationTest, NoPrecursorFractionInPaperRange) {
  const auto param = GetParam();
  RasLog& log = preprocessed(param.name, param.rulegen_window);
  // Paper: 31%-66% (ANL) and 47%-75% (SDSC) of failures lack precursors
  // as the window ranges over 5..60 minutes. Check ordering + rough
  // magnitude at the ends.
  EventSetStats at5;
  extract_event_sets(log, 5 * kMinute, &at5);
  EventSetStats at60;
  extract_event_sets(log, 60 * kMinute, &at60);
  EXPECT_GT(at5.no_precursor_fraction(), at60.no_precursor_fraction());
  EXPECT_GT(at5.no_precursor_fraction(), 0.3);
  EXPECT_LT(at60.no_precursor_fraction(), 0.5);
}

TEST_P(IntegrationTest, FailuresClusterInTime) {
  const auto param = GetParam();
  RasLog& log = preprocessed(param.name, param.rulegen_window);
  // Figure 2: a significant share of failures follow the previous one
  // closely.
  const Ecdf cdf = fatal_gap_cdf(log);
  EXPECT_GT(cdf.eval(kHour), 0.25);
  EXPECT_GT(cdf.eval(4 * kHour), cdf.eval(kHour));
}

INSTANTIATE_TEST_SUITE_P(
    BothSystems, IntegrationTest,
    ::testing::Values(ProfileCase{"ANL", 15 * kMinute},
                      ProfileCase{"SDSC", 25 * kMinute}),
    [](const ::testing::TestParamInfo<ProfileCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace bglpred
