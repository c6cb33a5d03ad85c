// Differential gate for the one rule miner. mine_rules mines each fatal
// label at the absolute floor max(ceil(min_support * n_label),
// min_rule_hits); the oracle in tests/mining_oracle.hpp is the earlier
// pipeline, which mines at the relative floor alone, on the horizontal
// apriori_reference, and drops the bodies under min_rule_hits only
// afterwards. On held-out logs of the ANL, SDSC, BG/Q and DC-Prophet
// profiles their save_rules bytes must be equal:
//
//  * three seeds per profile at the rule predictor's defaults (15-min
//    rule-generation window, support 0.04, confidence 0.2, 4 negative
//    windows per fatal event);
//  * the extremes of the window and threshold sweeps (EXPERIMENTS X2,
//    X3), once per profile: support 0.01 with 60-min windows, 5-min
//    windows, and support 0.16 with confidence 0.4, all extracted as the
//    sweeps extract them (no negatives).
//
// On these logs min_rule_hits sets the floor of nearly every label;
// MiningFloorTest builds one database with a label on each side of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "core/three_phase.hpp"
#include "mining/event_sets.hpp"
#include "mining/rules.hpp"
#include "mining_oracle.hpp"
#include "predict/rule_predictor.hpp"
#include "simgen/generator.hpp"

namespace bglpred {
namespace {

struct Profile {
  const char* name;
  SystemProfile (*make)();
  double scale;
};

// DC-Prophet's event-sets are by far the richest; its scale stays small
// for the sanitizer builds.
const Profile kProfiles[] = {
    {"ANL", &SystemProfile::anl, 0.05},
    {"SDSC", &SystemProfile::sdsc, 0.25},
    {"BGQ", &SystemProfile::bgq_multistream, 0.01},
    {"DCP", &SystemProfile::dc_prophet, 0.005},
};

std::string saved(const RuleSet& rules) {
  std::ostringstream os;
  save_rules(os, rules);
  return os.str();
}

/// Mines `db` both ways and requires equal bytes and a non-empty model.
void expect_same_rules(const TransactionDb& db, const RuleOptions& options,
                       const std::string& what) {
  SCOPED_TRACE(what);
  const RuleSet mined = mine_rules(db, options);
  const RuleSet expected = oracle::mine_rules(db, options);
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(mined.size(), expected.size());
  // Not EXPECT_EQ: a mismatch would print both blobs, up to megabytes.
  EXPECT_TRUE(saved(mined) == saved(expected))
      << mined.size() << " mined rules differ from the oracle's "
      << expected.size();
}

class MiningDifferentialTest : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(MiningDifferentialTest, MinedRulesEqualThePostFilterOracle) {
  const Profile& profile = kProfiles[GetParam()];
  const RulePredictorOptions predictor;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RasLog log =
        LogGenerator(profile.make()).generate(profile.scale, seed).log;
    ThreePhasePredictor{}.run_phase1(log);
    const std::string tag =
        std::string(profile.name) + " seed " + std::to_string(seed);
    expect_same_rules(
        extract_event_sets(log, predictor.rule_generation_window, nullptr,
                           predictor.negative_ratio),
        predictor.rules, tag + ", defaults");
    if (seed != 1) {
      continue;
    }
    RuleOptions low_support = predictor.rules;
    low_support.mining.min_support = 0.01;
    expect_same_rules(extract_event_sets(log, 60 * kMinute), low_support,
                      tag + ", support 0.01, 60-min windows");
    expect_same_rules(extract_event_sets(log, 5 * kMinute), predictor.rules,
                      tag + ", 5-min windows");
    RuleOptions high_support = predictor.rules;
    high_support.mining.min_support = 0.16;
    high_support.min_confidence = 0.4;
    expect_same_rules(
        extract_event_sets(log, predictor.rule_generation_window),
        high_support, tag + ", support 0.16, confidence 0.4");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, MiningDifferentialTest,
    ::testing::Range<std::size_t>(0, std::size(kProfiles)),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(kProfiles[info.param].name);
    });

// Both sides of the floor in one database, at the default thresholds:
// label 60's 300 event-sets give it the relative floor ceil(0.04 * 300) =
// 12, above min_rule_hits; label 61's 40 give it ceil(0.04 * 40) = 2, so
// min_rule_hits (5) decides. Label 61's bodies draw from items of their
// own, which keeps its rules above the confidence floor.
TEST(MiningFloorTest, BothFloorsMatchTheOracle) {
  Rng rng(0xf1002u);
  const auto draw = [&](int first, int last) {
    Transaction t;
    for (int k = rng.uniform_int(1, 4); k > 0; --k) {
      t.push_back(body_item(
          static_cast<SubcategoryId>(rng.uniform_int(first, last))));
    }
    return t;
  };
  TransactionDb db;
  for (int i = 0; i < 300; ++i) {
    Transaction t = draw(0, 7);
    t.push_back(label_item(60));
    db.add(std::move(t));
  }
  for (int i = 0; i < 40; ++i) {
    Transaction t = draw(8, 10);
    t.push_back(label_item(61));
    db.add(std::move(t));
  }
  for (int i = 0; i < 400; ++i) {
    db.add(draw(0, 10));  // negative windows
  }
  const RuleOptions options;
  const RuleSet mined = mine_rules(db, options);
  EXPECT_EQ(saved(mined), saved(oracle::mine_rules(db, options)));
  std::map<SubcategoryId, std::size_t> fewest_hits;
  for (const Rule& rule : mined.rules()) {
    ASSERT_EQ(rule.heads.size(), 1u);
    auto [it, inserted] =
        fewest_hits.try_emplace(rule.heads[0], rule.hit_count);
    it->second = std::min(it->second, rule.hit_count);
  }
  ASSERT_EQ(fewest_hits.size(), 2u);
  EXPECT_GE(fewest_hits[60], 12u);
  EXPECT_GE(fewest_hits[61], options.min_rule_hits);
  EXPECT_LT(fewest_hits[61], 12u);
}

}  // namespace
}  // namespace bglpred
