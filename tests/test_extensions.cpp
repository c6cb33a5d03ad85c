// Tests for the extension modules: LogQuery, binary I/O, lead-time
// analysis, rule-index pruning, and cross-category correlation.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/error.hpp"
#include "core/three_phase.hpp"
#include "counted_match.hpp"
#include "eval/lead_time.hpp"
#include "mining/event_sets.hpp"
#include "mining/rules.hpp"
#include "raslog/binary_io.hpp"
#include "simgen/generator.hpp"
#include "stats/correlation.hpp"
#include "taxonomy/query.hpp"

namespace bglpred {
namespace {

RasRecord event(TimePoint t, const char* name,
                bgl::Location loc = bgl::Location::make_compute_chip(0, 0,
                                                                     0, 0),
                bgl::JobId job = 1) {
  const SubcategoryId id = catalog().find(name);
  EXPECT_NE(id, kUnclassified) << name;
  const SubcategoryInfo& info = catalog().info(id);
  RasRecord rec;
  rec.time = t;
  rec.subcategory = id;
  rec.severity = info.severity;
  rec.facility = info.facility;
  rec.location = loc;
  rec.job = job;
  return rec;
}

RasLog sample_log() {
  RasLog log;
  log.append_with_text(
      event(100, "torusFailure",
            bgl::Location::make_compute_chip(0, 0, 1, 2), 7),
      "a");
  log.append_with_text(
      event(200, "maskInfo", bgl::Location::make_compute_chip(0, 1, 3, 4),
            8),
      "b");
  log.append_with_text(
      event(300, "socketReadFailure",
            bgl::Location::make_io_node(0, 0, 2, 0), 7),
      "c");
  log.append_with_text(
      event(400, "kernelPanicFailure",
            bgl::Location::make_compute_chip(0, 1, 5, 6), 9),
      "d");
  return log;
}

// ---- LogQuery -----------------------------------------------------------

TEST(LogQueryTest, TimeRange) {
  const RasLog log = sample_log();
  EXPECT_EQ(LogQuery(log).between(150, 350).count(), 2u);
  EXPECT_EQ(LogQuery(log).between(0, 100).count(), 0u);
}

TEST(LogQueryTest, SeverityFilters) {
  const RasLog log = sample_log();
  EXPECT_EQ(LogQuery(log).fatal_only().count(), 3u);
  EXPECT_EQ(LogQuery(log).min_severity(Severity::kWarning).count(), 3u);
}

TEST(LogQueryTest, CategoryAndSubcategory) {
  const RasLog log = sample_log();
  EXPECT_EQ(LogQuery(log).in_main_category(MainCategory::kNetwork).count(),
            1u);
  EXPECT_EQ(LogQuery(log)
                .of_subcategory(catalog().find("kernelPanicFailure"))
                .count(),
            1u);
}

TEST(LogQueryTest, LocationSubtreeAndJob) {
  const RasLog log = sample_log();
  // Midplane 0 contains the torus chip and the I/O node.
  EXPECT_EQ(
      LogQuery(log).under(bgl::Location::make_midplane(0, 0)).count(), 2u);
  EXPECT_EQ(LogQuery(log).of_job(7).count(), 2u);
}

TEST(LogQueryTest, FiltersCompose) {
  const RasLog log = sample_log();
  const auto hits = LogQuery(log)
                        .fatal_only()
                        .under(bgl::Location::make_midplane(0, 0))
                        .between(0, 250)
                        .records();
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].time, 100);
}

TEST(LogQueryTest, MaterializeAndFirst) {
  const RasLog log = sample_log();
  const RasLog fatal = LogQuery(log).fatal_only().materialize();
  EXPECT_EQ(fatal.size(), 3u);
  EXPECT_EQ(fatal.text_of(fatal.records()[0]), "a");
  const auto first = LogQuery(log).of_job(9).first();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->time, 400);
  EXPECT_FALSE(LogQuery(log).of_job(999).first().has_value());
}

TEST(LogQueryTest, CustomPredicate) {
  const RasLog log = sample_log();
  EXPECT_EQ(LogQuery(log)
                .where([](const RasRecord& rec) { return rec.time > 250; })
                .count(),
            2u);
}

// ---- binary I/O ------------------------------------------------------------

TEST(BinaryIoTest, RoundTripsSampleLog) {
  const RasLog log = sample_log();
  std::stringstream buffer;
  write_log_binary(buffer, log);
  const RasLog restored = read_log_binary(buffer);
  ASSERT_EQ(restored.size(), log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    const RasRecord& a = log.records()[i];
    const RasRecord& b = restored.records()[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.location, b.location);
    EXPECT_EQ(a.event_type, b.event_type);
    EXPECT_EQ(a.facility, b.facility);
    EXPECT_EQ(a.severity, b.severity);
    EXPECT_EQ(a.subcategory, b.subcategory);
    EXPECT_EQ(log.text_of(a), restored.text_of(b));
  }
}

TEST(BinaryIoTest, RoundTripsGeneratedLogExactly) {
  GeneratedLog g = LogGenerator(SystemProfile::sdsc()).generate(0.01);
  std::stringstream buffer;
  write_log_binary(buffer, g.log);
  const RasLog restored = read_log_binary(buffer);
  ASSERT_EQ(restored.size(), g.log.size());
  for (std::size_t i = 0; i < g.log.size(); i += 137) {
    EXPECT_EQ(g.log.records()[i].time, restored.records()[i].time);
    EXPECT_EQ(g.log.text_of(g.log.records()[i]),
              restored.text_of(restored.records()[i]));
  }
}

TEST(BinaryIoTest, RejectsBadMagicAndTruncation) {
  {
    std::stringstream buffer("NOTALOG!");
    EXPECT_THROW(read_log_binary(buffer), ParseError);
  }
  {
    const RasLog log = sample_log();
    std::stringstream buffer;
    write_log_binary(buffer, log);
    std::string data = buffer.str();
    data.resize(data.size() - 5);  // chop the last record
    std::stringstream truncated(data);
    EXPECT_THROW(read_log_binary(truncated), ParseError);
  }
}

TEST(BinaryIoTest, FileRoundTrip) {
  const RasLog log = sample_log();
  const std::string path = testing::TempDir() + "/bglpred_bin_test.rasb";
  save_log_binary(path, log);
  const RasLog restored = load_log_binary(path);
  EXPECT_EQ(restored.size(), log.size());
  EXPECT_THROW(load_log_binary("/nonexistent/x.rasb"), Error);
}

// ---- lead time ---------------------------------------------------------------

Warning warn(TimePoint issue, TimePoint begin, TimePoint end) {
  Warning w;
  w.issued_at = issue;
  w.window_begin = begin;
  w.window_end = end;
  w.source = "test";
  return w;
}

TEST(LeadTimeTest, MeasuresFromEarliestCoveringWarning) {
  const std::vector<Warning> warnings{warn(100, 101, 700),
                                      warn(300, 301, 900)};
  const auto report = lead_time_report(warnings, {500});
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.covered, 1u);
  ASSERT_EQ(report.leads.size(), 1u);
  EXPECT_DOUBLE_EQ(report.leads[0], 400.0);  // earliest = issued at 100
}

TEST(LeadTimeTest, UncoveredFailuresExcluded) {
  const std::vector<Warning> warnings{warn(100, 101, 200)};
  const auto report = lead_time_report(warnings, {150, 500});
  EXPECT_EQ(report.failures, 2u);
  EXPECT_EQ(report.covered, 1u);
  EXPECT_DOUBLE_EQ(report.summary.mean, 50.0);
}

TEST(LeadTimeTest, ActionableFraction) {
  const std::vector<Warning> warnings{warn(0, 1, 10000)};
  const auto report = lead_time_report(warnings, {100, 400, 900});
  EXPECT_EQ(report.covered, 3u);
  EXPECT_DOUBLE_EQ(report.actionable_fraction(300), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(report.actionable_fraction(1000), 0.0);
}

TEST(LeadTimeTest, EmptyInputs) {
  const auto report = lead_time_report({}, {});
  EXPECT_EQ(report.failures, 0u);
  EXPECT_DOUBLE_EQ(report.actionable_fraction(60), 0.0);
}

// ---- rule-index pruning -----------------------------------------------------
//
// RuleSet's matching index drops exactly the rules best_match can never
// return: those whose body contains an earlier kept rule's body. rules()
// keeps the full list either way.

Rule rule(Itemset body, std::vector<SubcategoryId> heads, double conf) {
  Rule r;
  r.body = std::move(body);
  r.heads = std::move(heads);
  r.confidence = conf;
  return r;
}

// Every query below must get best_match_naive's rule from best_match and,
// where it can track the window, from a RuleMatch.
void expect_matches_naive(const RuleSet& rules,
                          const std::vector<Itemset>& queries) {
  for (const Itemset& observed : queries) {
    const Rule* naive = rules.best_match_naive(observed);
    EXPECT_EQ(rules.best_match(observed), naive)
        << itemset_to_string(observed);
    if (counted::countable(observed)) {
      EXPECT_EQ(counted::best(rules, observed), naive)
          << itemset_to_string(observed);
    }
  }
}

TEST(PruningTest, DropsDominatedSuperBody) {
  const RuleSet rules({rule({1}, {50}, 0.8), rule({1, 2}, {50}, 0.7)});
  EXPECT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules.reachable_size(), 1u);
  EXPECT_EQ(rules.best_match(Itemset{1, 2}), &rules.rules()[0]);
  expect_matches_naive(rules, {{}, {1}, {2}, {1, 2}});
}

TEST(PruningTest, KeepsMoreConfidentSpecificRule) {
  const RuleSet rules({rule({1}, {50}, 0.5), rule({1, 2}, {50}, 0.9)});
  EXPECT_EQ(rules.reachable_size(), 2u);  // {1, 2} fires first
  EXPECT_EQ(rules.best_match(Itemset{1, 2})->confidence, 0.9);
  EXPECT_EQ(rules.best_match(Itemset{1})->confidence, 0.5);
  expect_matches_naive(rules, {{}, {1}, {2}, {1, 2}});
}

TEST(PruningTest, UnreachableWhateverItsHeads) {
  // Only the body decides which rule fires, so heads cannot save it.
  for (const std::vector<SubcategoryId>& heads :
       {std::vector<SubcategoryId>{50}, std::vector<SubcategoryId>{60},
        std::vector<SubcategoryId>{50, 60}}) {
    const RuleSet rules({rule({1}, {50}, 0.9), rule({1, 2}, heads, 0.5)});
    EXPECT_EQ(rules.reachable_size(), 1u);
    expect_matches_naive(rules, {{1}, {2}, {1, 2}});
  }
}

TEST(PruningTest, MultiHeadDomination) {
  const RuleSet rules({rule({1}, {50, 60}, 0.9), rule({1, 3}, {50}, 0.4),
                       rule({3}, {50}, 0.3), rule({2, 3}, {60}, 0.2)});
  // {1, 3} contains {1}; {2, 3} contains {3}, itself kept.
  EXPECT_EQ(rules.reachable_size(), 2u);
  EXPECT_EQ(rules.best_match(Itemset{1, 3})->heads.size(), 2u);
  expect_matches_naive(rules, {{1}, {3}, {1, 3}, {2, 3}, {1, 2, 3}});
}

TEST(PruningTest, KeptEmptyBodyMakesLaterRulesUnreachable) {
  const RuleSet rules({rule({1}, {50}, 0.9), rule({}, {60}, 0.6),
                       rule({2}, {50}, 0.5), rule({1, 2}, {60}, 0.4)});
  EXPECT_EQ(rules.reachable_size(), 2u);
  EXPECT_EQ(rules.best_match(Itemset{2}), &rules.rules()[1]);
  EXPECT_EQ(RuleMatch(rules).best(), &rules.rules()[1]);
  expect_matches_naive(rules, {{}, {1}, {2}, {1, 2}});
}

TEST(PruningTest, UnencodableBodies) {
  // Items past the bitset universe (synthetic inputs only): their bodies
  // are kept out of the counting path, and must prune exactly as well.
  const Item far = body_item(static_cast<SubcategoryId>(kItemBodyBits + 3));
  const RuleSet rules({rule({1}, {50}, 0.9), rule({far}, {50}, 0.8),
                       rule({1, far}, {50}, 0.7), rule({2, far}, {50}, 0.6),
                       rule({2}, {50}, 0.5)});
  // {1, far} contains {1} and {2, far} contains {far}; {far} cannot cover
  // the encodable {2}.
  EXPECT_EQ(rules.reachable_size(), 3u);
  EXPECT_EQ(rules.best_match(Itemset{2, far}), &rules.rules()[1]);
  EXPECT_EQ(rules.best_match(Itemset{2}), &rules.rules()[4]);
  expect_matches_naive(rules, {{}, {1}, {2}, {far}, {1, far}, {2, far},
                               {1, 2, far}});
}

TEST(PruningTest, BestMatchUnchangedOnRealRules) {
  // Property: on mined rules, the pruned index returns exactly the rule
  // the full-list scan returns, for every rule body and every union of
  // two bodies as the window.
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.05);
  ThreePhaseOptions opt;
  ThreePhasePredictor(opt).run_phase1(g.log);
  // A wide rule-generation window mines sub-body chains to prune.
  const TransactionDb db =
      extract_event_sets(g.log, 60 * kMinute, nullptr, 2.0);
  const RuleSet rules = mine_rules(db, RuleOptions{});
  EXPECT_LT(rules.reachable_size(), rules.size());
  std::vector<Itemset> queries;
  for (const Rule& a : rules.rules()) {
    for (const Rule& b : rules.rules()) {
      Itemset both;
      std::set_union(a.body.begin(), a.body.end(), b.body.begin(),
                     b.body.end(), std::back_inserter(both));
      queries.push_back(std::move(both));
    }
  }
  expect_matches_naive(rules, queries);
}

// ---- correlation ---------------------------------------------------------------

TEST(CorrelationTest, DetectsInjectedCascade) {
  RasLog log;
  TimePoint t = 0;
  for (int i = 0; i < 60; ++i) {
    t += 6 * kHour;
    log.append_with_text(event(t, "torusFailure"), "n");
    log.append_with_text(event(t + 10 * kMinute, "socketReadFailure"),
                         "io");
  }
  log.sort_by_time();
  const CategoryCorrelation corr =
      category_correlation(log, 0, 30 * kMinute);
  const auto net = static_cast<std::size_t>(MainCategory::kNetwork);
  const auto ios = static_cast<std::size_t>(MainCategory::kIostream);
  EXPECT_NEAR(corr.conditional[net][ios], 1.0, 1e-9);
  EXPECT_NEAR(corr.conditional[ios][net], 0.0, 1e-9);
  EXPECT_EQ(corr.triggers[net], 60u);
  EXPECT_GT(corr.lift(MainCategory::kNetwork, MainCategory::kIostream),
            1.0);
}

TEST(CorrelationTest, RenderContainsAllCategories) {
  RasLog log;
  log.append_with_text(event(100, "torusFailure"), "x");
  const CategoryCorrelation corr = category_correlation(log, 0, kHour);
  const std::string out = corr.render();
  for (int c = 0; c < kMainCategoryCount; ++c) {
    EXPECT_NE(out.find(to_string(static_cast<MainCategory>(c))),
              std::string::npos);
  }
}

TEST(CorrelationTest, RejectsBadArguments) {
  RasLog log;
  log.append_with_text(event(100, "torusFailure"), "x");
  EXPECT_THROW(category_correlation(log, 10, 10), InvalidArgument);
}

}  // namespace
}  // namespace bglpred
