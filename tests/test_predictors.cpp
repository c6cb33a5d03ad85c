// Tests for the base predictors (statistical, rule-based, baselines).
#include <gtest/gtest.h>

#include <sstream>

#include "common/binary.hpp"
#include "common/error.hpp"
#include "predict/baselines.hpp"
#include "predict/checkpoint.hpp"
#include "predict/rule_predictor.hpp"
#include "predict/statistical_predictor.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {
namespace {

RasRecord event(TimePoint t, const char* name) {
  const SubcategoryId id = catalog().find(name);
  EXPECT_NE(id, kUnclassified) << name;
  const SubcategoryInfo& info = catalog().info(id);
  RasRecord rec;
  rec.time = t;
  rec.subcategory = id;
  rec.severity = info.severity;
  rec.facility = info.facility;
  rec.location = bgl::Location::make_compute_chip(0, 0, 0, 0);
  return rec;
}

RasLog log_of(const std::vector<std::pair<TimePoint, const char*>>& events) {
  RasLog log;
  for (const auto& [t, name] : events) {
    log.append_with_text(event(t, name), name);
  }
  log.sort_by_time();
  return log;
}

// Training log where network failures are reliably followed by another
// failure within 10 minutes, and kernel failures are isolated.
RasLog correlated_training_log() {
  std::vector<std::pair<TimePoint, const char*>> events;
  TimePoint t = 0;
  for (int i = 0; i < 40; ++i) {
    t += 4 * kHour;
    events.emplace_back(t, "torusFailure");
    events.emplace_back(t + 5 * kMinute, "socketReadFailure");
  }
  for (int i = 0; i < 30; ++i) {
    t += 6 * kHour;
    events.emplace_back(t, "kernelPanicFailure");
  }
  return log_of(events);
}

// ---- statistical predictor --------------------------------------------------

TEST(StatisticalPredictorTest, LearnsTriggerCategories) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  StatisticalPredictor predictor(config);
  const RasLog training = correlated_training_log();
  predictor.train(training);
  EXPECT_TRUE(predictor.is_trigger(MainCategory::kNetwork));
  EXPECT_FALSE(predictor.is_trigger(MainCategory::kKernel));
  EXPECT_NEAR(
      predictor.probabilities()[static_cast<std::size_t>(
          MainCategory::kNetwork)],
      1.0, 1e-9);
}

TEST(StatisticalPredictorTest, WarnsOnTriggerEventsOnly) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  StatisticalPredictor predictor(config);
  predictor.train(correlated_training_log());
  predictor.reset();

  auto w = predictor.observe(event(1000000, "torusFailure"));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->source, "statistical");
  EXPECT_EQ(w->window_begin, 1000000 + 1);
  EXPECT_EQ(w->window_end, 1000000 + 30 * kMinute);
  EXPECT_FALSE(w->mergeable);

  EXPECT_FALSE(predictor.observe(event(2000000, "kernelPanicFailure")));
  EXPECT_FALSE(predictor.observe(event(3000000, "maskInfo")));
}

TEST(StatisticalPredictorTest, MinTriggersGuardsSmallCategories) {
  // Only 3 network failures: below the default min_triggers of 20.
  const RasLog training = log_of({{0, "torusFailure"},
                                  {100, "torusFailure"},
                                  {200, "torusFailure"}});
  PredictionConfig config;
  config.window = kHour;
  StatisticalPredictor predictor(config);
  predictor.train(training);
  EXPECT_FALSE(predictor.is_trigger(MainCategory::kNetwork));
}

TEST(StatisticalPredictorTest, LeadShiftsWindowBegin) {
  PredictionConfig config;
  // The training cascade's follow-up lands 5 minutes after the trigger,
  // so a 3-minute lead keeps it countable ((t+lead, t+window]).
  config.lead = 3 * kMinute;
  config.window = kHour;
  StatisticalPredictor predictor(config);
  predictor.train(correlated_training_log());
  auto w = predictor.observe(event(5000000, "torusFailure"));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->window_begin, 5000000 + 3 * kMinute + 1);
}

TEST(StatisticalPredictorTest, RejectsBadConfig) {
  PredictionConfig config;
  config.lead = kHour;
  config.window = kHour;
  EXPECT_THROW(StatisticalPredictor{config}, InvalidArgument);
}

// ---- rule predictor ------------------------------------------------------------

// Training log with a deterministic cascade nodeMapFileError ->
// nodemapCreateFailure 5 minutes later, repeated 50 times.
RasLog cascade_training_log() {
  std::vector<std::pair<TimePoint, const char*>> events;
  TimePoint t = 0;
  for (int i = 0; i < 50; ++i) {
    t += 2 * kHour;
    events.emplace_back(t, "nodeMapFileError");
    events.emplace_back(t + 5 * kMinute, "nodemapCreateFailure");
  }
  return log_of(events);
}

TEST(RulePredictorTest, MinesCascadeRule) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictorOptions options;
  options.rule_generation_window = 15 * kMinute;
  RulePredictor predictor(config, options);
  predictor.train(cascade_training_log());
  ASSERT_FALSE(predictor.rules().empty());
  const Rule& top = predictor.rules().rules()[0];
  EXPECT_EQ(top.body,
            (Itemset{body_item(catalog().find("nodeMapFileError"))}));
  EXPECT_EQ(top.heads,
            std::vector<SubcategoryId>{catalog().find(
                "nodemapCreateFailure")});
  // Negative windows sampled inside the 15-minute tail after each
  // cascade dilute the confidence below 1 (honest P(failure | body)).
  EXPECT_GT(top.confidence, 0.5);
  EXPECT_LE(top.confidence, 1.0);
  EXPECT_EQ(predictor.training_stats().fatal_events, 50u);
  EXPECT_EQ(predictor.training_stats().with_precursors, 50u);
}

TEST(RulePredictorTest, WarnsWhenBodyObserved) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor predictor(config, {});
  predictor.train(cascade_training_log());
  predictor.reset();

  EXPECT_FALSE(predictor.observe(event(10000000, "maskInfo")));
  auto w = predictor.observe(event(10000100, "nodeMapFileError"));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->source, "rule");
  EXPECT_TRUE(w->mergeable);
  EXPECT_GT(w->confidence, 0.5);
  EXPECT_EQ(w->window_end, 10000100 + 30 * kMinute);
}

TEST(RulePredictorTest, FatalEventsDoNotMatchBodies) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor predictor(config, {});
  predictor.train(cascade_training_log());
  predictor.reset();
  EXPECT_FALSE(predictor.observe(event(10000000, "nodemapCreateFailure")));
}

TEST(RulePredictorTest, WindowEvictionForgetsOldBodies) {
  PredictionConfig config;
  config.window = 10 * kMinute;
  RulePredictor predictor(config, {});
  predictor.train(cascade_training_log());
  predictor.reset();
  auto first = predictor.observe(event(20000000, "nodeMapFileError"));
  EXPECT_TRUE(first.has_value());
  // 11 minutes later the body has left the window; an unrelated event
  // does not re-fire the rule.
  EXPECT_FALSE(
      predictor.observe(event(20000000 + 11 * kMinute, "maskInfo")));
}

TEST(RulePredictorTest, SameSecondDuplicateSuppressed) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor predictor(config, {});
  predictor.train(cascade_training_log());
  predictor.reset();
  EXPECT_TRUE(predictor.observe(event(30000000, "nodeMapFileError")));
  EXPECT_FALSE(predictor.observe(event(30000000, "nodeMapFileError")));
  // A later refresh re-fires (level-triggered).
  EXPECT_TRUE(predictor.observe(event(30000000 + 60, "nodeMapFileError")));
}

TEST(RulePredictorTest, ResetClearsStreamingState) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor predictor(config, {});
  predictor.train(cascade_training_log());
  predictor.reset();
  EXPECT_TRUE(predictor.observe(event(40000000, "nodeMapFileError")));
  predictor.reset();
  // Same timestamp fires again after reset (debounce cleared).
  EXPECT_TRUE(predictor.observe(event(40000000, "nodeMapFileError")));
}

TEST(RulePredictorTest, NoRulesMeansNoWarnings) {
  // Training log with no precursors at all.
  std::vector<std::pair<TimePoint, const char*>> events;
  for (int i = 0; i < 30; ++i) {
    events.emplace_back(i * kHour, "torusFailure");
  }
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor predictor(config, {});
  predictor.train(log_of(events));
  EXPECT_TRUE(predictor.rules().empty());
  predictor.reset();
  EXPECT_FALSE(predictor.observe(event(50000000, "maskInfo")));
}

// ---- baselines -------------------------------------------------------------------

TEST(BaselineTest, NeverPredictorIsSilent) {
  PredictionConfig config;
  NeverPredictor predictor(config);
  predictor.train(correlated_training_log());
  EXPECT_FALSE(predictor.observe(event(1000, "torusFailure")));
}

TEST(BaselineTest, EveryFailureWarnsOnAllFatal) {
  PredictionConfig config;
  config.window = kHour;
  EveryFailurePredictor predictor(config);
  predictor.train(correlated_training_log());
  EXPECT_TRUE(predictor.observe(event(1000, "kernelPanicFailure")));
  EXPECT_TRUE(predictor.observe(event(2000, "torusFailure")));
  EXPECT_FALSE(predictor.observe(event(3000, "maskInfo")));
}

TEST(BaselineTest, PeriodicLearnsMeanGap) {
  PredictionConfig config;
  config.window = kHour;
  PeriodicPredictor predictor(config);
  // Fatal events exactly 2 hours apart.
  std::vector<std::pair<TimePoint, const char*>> events;
  for (int i = 0; i < 20; ++i) {
    events.emplace_back(i * 2 * kHour, "torusFailure");
  }
  predictor.train(log_of(events));
  EXPECT_EQ(predictor.period(), 2 * kHour);
  predictor.reset();
  // First observation arms; warnings then appear on the period.
  EXPECT_FALSE(predictor.observe(event(0, "maskInfo")));
  EXPECT_FALSE(predictor.observe(event(kHour, "maskInfo")));
  EXPECT_TRUE(predictor.observe(event(2 * kHour + 1, "maskInfo")));
}

// ---- checkpointing ---------------------------------------------------------

TEST(CheckpointTest, StatisticalRoundTripPreservesModel) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  StatisticalPredictor trained(config);
  trained.train(correlated_training_log());
  std::stringstream blob;
  trained.save_state(blob);

  StatisticalPredictor restored(config);
  restored.load_state(blob);
  EXPECT_EQ(restored.probabilities(), trained.probabilities());
  EXPECT_EQ(restored.is_trigger(MainCategory::kNetwork),
            trained.is_trigger(MainCategory::kNetwork));

  auto a = trained.observe(event(1000000, "torusFailure"));
  auto b = restored.observe(event(1000000, "torusFailure"));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->confidence, b->confidence);
  EXPECT_EQ(a->window_end, b->window_end);
}

TEST(CheckpointTest, RuleLoadsOfOneModelShareItsRules) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor trained(config);
  trained.train(cascade_training_log());
  ASSERT_FALSE(trained.rules().empty());
  std::ostringstream os;
  trained.save_state(os);

  RulePredictor a(config);
  RulePredictor b(config);
  for (RulePredictor* p : {&a, &b}) {
    std::istringstream is(os.str());
    p->load_state(is);
  }
  EXPECT_EQ(&a.rules(), &b.rules());
  EXPECT_NE(&a.rules(), &trained.rules());  // train() shares nothing
  EXPECT_EQ(a.rules().rules(), trained.rules().rules());
  // Only the rules are shared: each keeps its own window and debounce,
  // so one second's precursor warns in both.
  const TimePoint t0 = 9000000;
  EXPECT_TRUE(a.observe(event(t0, "nodeMapFileError")).has_value());
  EXPECT_TRUE(b.observe(event(t0, "nodeMapFileError")).has_value());
}

TEST(CheckpointTest, RuleRoundTripPreservesMidStreamState) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor trained(config);
  trained.train(cascade_training_log());
  ASSERT_TRUE(trained.checkpointable());

  // Stream a precursor into the live window *before* checkpointing: the
  // restored instance must warn off the same window content.
  const TimePoint t0 = 9000000;
  auto live = trained.observe(event(t0, "nodeMapFileError"));
  std::stringstream blob;
  trained.save_state(blob);

  RulePredictor restored(config);
  restored.load_state(blob);
  EXPECT_EQ(restored.rules().size(), trained.rules().size());
  for (std::size_t i = 0; i < trained.rules().size(); ++i) {
    EXPECT_EQ(restored.rules().rules()[i].to_string(),
              trained.rules().rules()[i].to_string());
  }
  // Same-second duplicate suppression depends on the serialized debounce
  // state, so both must stay silent...
  if (live.has_value()) {
    EXPECT_FALSE(restored.observe(event(t0, "nodeMapFileError")));
    EXPECT_FALSE(trained.observe(event(t0, "nodeMapFileError")));
  }
  // ...and both re-fire identically a second later.
  auto a = trained.observe(event(t0 + 1, "nodeMapFileError"));
  auto b = restored.observe(event(t0 + 1, "nodeMapFileError"));
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a.has_value()) {
    EXPECT_EQ(a->confidence, b->confidence);
    EXPECT_EQ(a->issued_at, b->issued_at);
  }
}

TEST(CheckpointTest, RuleWindowHoldingALabelItemMatchesAsTheNaiveScan) {
  // Only a crafted checkpoint puts a label item in the window. The
  // counting state does not track it, so matching must take the rebuilt
  // window's scan, as best_match_naive does, while the item is live.
  PredictionConfig config;
  config.window = 30 * kMinute;
  Rule labelled;
  labelled.body = {body_item(catalog().find("nodeMapFileError")),
                   label_item(7)};
  labelled.heads = {7};
  labelled.support = 0.1;
  labelled.confidence = 0.9;
  const TimePoint t0 = 9000000;
  std::ostringstream os;
  detail::write_checkpoint_header(os, "RULE", config);
  save_rules(os, RuleSet({labelled}));
  for (int i = 0; i < 3; ++i) {
    wire::write<std::uint64_t>(os, 0);  // training statistics
  }
  wire::write<std::uint64_t>(os, 1);  // window: the label item alone
  wire::write<std::int64_t>(os, t0);
  wire::write<std::uint32_t>(os, label_item(7));
  wire::write<std::uint64_t>(os, 0);  // no debounce entries

  RulePredictor restored(config);
  std::istringstream is(os.str());
  restored.load_state(is);
  const auto w = restored.observe(event(t0 + 1, "nodeMapFileError"));
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->confidence, 0.9);
  // Once the label item has left the window, the rule cannot fire.
  EXPECT_FALSE(
      restored.observe(event(t0 + 30 * kMinute + 2, "nodeMapFileError")));
}

TEST(CheckpointTest, LoadRejectsConfigMismatch) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  StatisticalPredictor trained(config);
  trained.train(correlated_training_log());
  std::stringstream blob;
  trained.save_state(blob);

  PredictionConfig other;
  other.window = kHour;
  StatisticalPredictor wrong(other);
  EXPECT_THROW(wrong.load_state(blob), ParseError);
}

TEST(CheckpointTest, LoadRejectsWrongKindTag) {
  PredictionConfig config;
  config.window = 30 * kMinute;
  StatisticalPredictor stat(config);
  stat.train(correlated_training_log());
  std::stringstream blob;
  stat.save_state(blob);

  RulePredictor rule(config);
  EXPECT_THROW(rule.load_state(blob), ParseError);
}

}  // namespace
}  // namespace bglpred
