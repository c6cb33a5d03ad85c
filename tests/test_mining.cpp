// Tests for the association-rule mining substrate: itemsets, Apriori,
// FP-Growth (cross-checked against each other and a brute-force oracle),
// rule generation/combination, and event-set extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "mining/apriori.hpp"
#include "mining/event_sets.hpp"
#include "mining/fpgrowth.hpp"
#include "mining/rules.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {
namespace {

// ---- item helpers -----------------------------------------------------

TEST(ItemsTest, LabelEncoding) {
  const Item body = body_item(17);
  const Item label = label_item(17);
  EXPECT_FALSE(is_label(body));
  EXPECT_TRUE(is_label(label));
  EXPECT_EQ(subcat_of(body), 17);
  EXPECT_EQ(subcat_of(label), 17);
  EXPECT_NE(body, label);
}

TEST(ItemsTest, SubsetTest) {
  EXPECT_TRUE(is_subset({}, {1, 2, 3}));
  EXPECT_TRUE(is_subset({2}, {1, 2, 3}));
  EXPECT_TRUE(is_subset({1, 3}, {1, 2, 3}));
  EXPECT_FALSE(is_subset({4}, {1, 2, 3}));
  EXPECT_FALSE(is_subset({1, 4}, {1, 2, 3}));
  EXPECT_FALSE(is_subset({1}, {}));
}

// ---- transaction db ------------------------------------------------------

TEST(TransactionDbTest, AddSortsAndDedupes) {
  TransactionDb db;
  db.add({3, 1, 2, 1});
  ASSERT_EQ(db.size(), 1u);
  EXPECT_EQ(db.transactions()[0], (Itemset{1, 2, 3}));
}

TEST(TransactionDbTest, AbsoluteSupport) {
  TransactionDb db;
  db.add({1, 2});
  db.add({1, 2, 3});
  db.add({2, 3});
  EXPECT_EQ(db.absolute_support({1, 2}), 2u);
  EXPECT_EQ(db.absolute_support({2}), 3u);
  EXPECT_EQ(db.absolute_support({1, 3}), 1u);
  EXPECT_EQ(db.absolute_support({4}), 0u);
}

TEST(TransactionDbTest, MinCountCeilsAndFloorsAtOne) {
  TransactionDb db;
  for (int i = 0; i < 100; ++i) {
    db.add({static_cast<Item>(i)});
  }
  EXPECT_EQ(db.min_count_for(0.04), 4u);
  EXPECT_EQ(db.min_count_for(0.041), 5u);
  EXPECT_EQ(db.min_count_for(0.0), 1u);
  EXPECT_THROW(db.min_count_for(1.5), InvalidArgument);
}

// ---- frequent itemset mining ------------------------------------------------

// Brute-force oracle: enumerate all itemsets appearing in the db and
// count support by scanning.
std::vector<FrequentItemset> brute_force(const TransactionDb& db,
                                         const MiningOptions& options) {
  std::map<Itemset, std::size_t> counts;
  for (const Transaction& t : db.transactions()) {
    // Enumerate all non-empty subsets up to max size (transactions in
    // these tests are small).
    const std::size_t n = t.size();
    for (std::size_t mask = 1; mask < (1u << n); ++mask) {
      Itemset subset;
      for (std::size_t b = 0; b < n; ++b) {
        if (mask & (1u << b)) {
          subset.push_back(t[b]);
        }
      }
      if (subset.size() <= options.max_itemset_size) {
        ++counts[subset];
      }
    }
  }
  const std::size_t min_count = db.min_count_for(options.min_support);
  std::vector<FrequentItemset> out;
  for (const auto& [items, count] : counts) {
    if (count >= min_count) {
      out.push_back({items, count});
    }
  }
  return out;
}

TransactionDb random_db(std::uint64_t seed, std::size_t transactions,
                        int universe, int max_len) {
  Rng rng(seed);
  TransactionDb db;
  for (std::size_t i = 0; i < transactions; ++i) {
    Transaction t;
    const auto len = static_cast<std::size_t>(rng.uniform_int(1, max_len));
    for (std::size_t k = 0; k < len; ++k) {
      t.push_back(static_cast<Item>(rng.uniform_int(0, universe - 1)));
    }
    db.add(std::move(t));
  }
  return db;
}

TEST(AprioriTest, TextbookExample) {
  TransactionDb db;
  db.add({1, 2, 5});
  db.add({2, 4});
  db.add({2, 3});
  db.add({1, 2, 4});
  db.add({1, 3});
  db.add({2, 3});
  db.add({1, 3});
  db.add({1, 2, 3, 5});
  db.add({1, 2, 3});
  MiningOptions opt;
  opt.min_support = 2.0 / 9.0;
  const FrequentSet result = apriori(db, opt);
  EXPECT_EQ(result.count_of({1}), 6u);
  EXPECT_EQ(result.count_of({2}), 7u);
  EXPECT_EQ(result.count_of({1, 2}), 4u);
  EXPECT_EQ(result.count_of({1, 2, 3}), 2u);
  EXPECT_EQ(result.count_of({1, 2, 5}), 2u);
  EXPECT_EQ(result.count_of({4}), 2u);
  EXPECT_EQ(result.count_of({1, 4}), 0u);  // infrequent (support 1)
}

TEST(AprioriTest, EmptyDb) {
  const FrequentSet result = apriori(TransactionDb{}, MiningOptions{});
  EXPECT_EQ(result.size(), 0u);
}

TEST(AprioriTest, MaxItemsetSizeBounds) {
  TransactionDb db;
  for (int i = 0; i < 10; ++i) {
    db.add({1, 2, 3, 4});
  }
  MiningOptions opt;
  opt.min_support = 0.5;
  opt.max_itemset_size = 2;
  const FrequentSet result = apriori(db, opt);
  for (const FrequentItemset& f : result.itemsets()) {
    EXPECT_LE(f.items.size(), 2u);
  }
  EXPECT_EQ(result.count_of({1, 2}), 10u);
  EXPECT_EQ(result.count_of({1, 2, 3}), 0u);
}

// Property sweep: Apriori == FP-Growth == brute force on random DBs,
// across support thresholds and universe shapes.
struct MinerParam {
  std::uint64_t seed;
  std::size_t transactions;
  int universe;
  int max_len;
  double min_support;
};

class MinerEquivalenceTest : public ::testing::TestWithParam<MinerParam> {};

TEST_P(MinerEquivalenceTest, AprioriEqualsFpGrowthEqualsBruteForce) {
  const MinerParam p = GetParam();
  const TransactionDb db =
      random_db(p.seed, p.transactions, p.universe, p.max_len);
  MiningOptions opt;
  opt.min_support = p.min_support;
  opt.max_itemset_size = 4;

  const auto a = sorted_by_itemset(apriori(db, opt).itemsets());
  const auto f = sorted_by_itemset(fpgrowth(db, opt).itemsets());
  const auto oracle = sorted_by_itemset(brute_force(db, opt));

  ASSERT_EQ(a.size(), oracle.size());
  ASSERT_EQ(f.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(a[i].items, oracle[i].items);
    EXPECT_EQ(a[i].count, oracle[i].count);
    EXPECT_EQ(f[i].items, oracle[i].items);
    EXPECT_EQ(f[i].count, oracle[i].count);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, MinerEquivalenceTest,
    ::testing::Values(MinerParam{1, 50, 8, 5, 0.1},
                      MinerParam{2, 100, 12, 6, 0.05},
                      MinerParam{3, 200, 6, 4, 0.2},
                      MinerParam{4, 30, 20, 8, 0.1},
                      MinerParam{5, 150, 10, 5, 0.02},
                      MinerParam{6, 80, 5, 3, 0.3},
                      MinerParam{7, 400, 15, 6, 0.04},
                      MinerParam{8, 60, 25, 10, 0.15}));

// ---- rule generation ---------------------------------------------------------

TEST(RuleTest, GeneratesBodyToLabelRules) {
  TransactionDb db;
  // 10 transactions: {a, b, L} x8, {a, b} x2 -> confidence 0.8.
  const Item a = body_item(1);
  const Item b = body_item(2);
  const Item label = label_item(50);
  for (int i = 0; i < 8; ++i) {
    db.add({a, b, label});
  }
  db.add({a, b});
  db.add({a, b});
  MiningOptions opt;
  opt.min_support = 0.1;
  const FrequentSet frequent = apriori(db, opt);
  const auto rules = generate_rules(frequent, db.size(), 0.2);
  // Find the {a,b} -> 50 rule.
  bool found = false;
  for (const Rule& r : rules) {
    if (r.body == Itemset{a, b}) {
      found = true;
      EXPECT_DOUBLE_EQ(r.confidence, 0.8);
      EXPECT_DOUBLE_EQ(r.support, 0.8);
      EXPECT_EQ(r.heads, std::vector<SubcategoryId>{50});
      EXPECT_EQ(r.body_count, 10u);
      EXPECT_EQ(r.hit_count, 8u);
    }
    EXPECT_FALSE(r.body.empty());
    EXPECT_EQ(r.heads.size(), 1u);
  }
  EXPECT_TRUE(found);
}

TEST(RuleTest, MinConfidenceFilters) {
  TransactionDb db;
  const Item a = body_item(1);
  const Item label = label_item(50);
  db.add({a, label});
  for (int i = 0; i < 9; ++i) {
    db.add({a});
  }
  MiningOptions opt;
  opt.min_support = 0.05;
  const FrequentSet frequent = apriori(db, opt);
  EXPECT_TRUE(generate_rules(frequent, db.size(), 0.2).empty());  // 0.1<0.2
  EXPECT_EQ(generate_rules(frequent, db.size(), 0.05).size(), 1u);
}

TEST(RuleTest, CombineMergesEqualBodies) {
  Rule r1;
  r1.body = {1, 2};
  r1.heads = {50};
  r1.confidence = 0.4;
  r1.support = 0.1;
  r1.body_count = 10;
  r1.hit_count = 4;
  Rule r2 = r1;
  r2.heads = {60};
  r2.confidence = 0.3;
  r2.hit_count = 3;
  Rule other;
  other.body = {3};
  other.heads = {70};
  other.confidence = 0.9;
  other.body_count = 5;
  other.hit_count = 4;

  const auto combined = combine_rules({r1, r2, other});
  ASSERT_EQ(combined.size(), 2u);
  const Rule* merged = nullptr;
  for (const Rule& r : combined) {
    if (r.body == Itemset{1, 2}) {
      merged = &r;
    }
  }
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->heads, (std::vector<SubcategoryId>{50, 60}));
  EXPECT_DOUBLE_EQ(merged->confidence, 0.7);  // exact sum (disjoint labels)
  EXPECT_EQ(merged->hit_count, 7u);
}

TEST(RuleTest, CombinedConfidenceClampedToOne) {
  Rule r1;
  r1.body = {1};
  r1.heads = {50};
  r1.confidence = 0.8;
  r1.body_count = 10;
  Rule r2 = r1;
  r2.heads = {60};
  r2.confidence = 0.8;
  const auto combined = combine_rules({r1, r2});
  ASSERT_EQ(combined.size(), 1u);
  EXPECT_DOUBLE_EQ(combined[0].confidence, 1.0);
}

TEST(RuleSetTest, SortedByConfidenceAndBestMatch) {
  Rule high;
  high.body = {1, 2};
  high.heads = {50};
  high.confidence = 0.9;
  Rule low;
  low.body = {1};
  low.heads = {60};
  low.confidence = 0.4;
  const RuleSet set({low, high});
  ASSERT_EQ(set.size(), 2u);
  EXPECT_DOUBLE_EQ(set.rules()[0].confidence, 0.9);

  // Window containing both bodies -> the higher-confidence rule wins.
  const Rule* best = set.best_match({1, 2, 7});
  ASSERT_NE(best, nullptr);
  EXPECT_DOUBLE_EQ(best->confidence, 0.9);
  // Window containing only item 1 -> the single-item rule.
  best = set.best_match({1, 7});
  ASSERT_NE(best, nullptr);
  EXPECT_DOUBLE_EQ(best->confidence, 0.4);
  EXPECT_EQ(set.best_match({7, 8}), nullptr);
}

/// A save_rules blob of three rules over the low item ids.
std::string small_rule_blob() {
  std::vector<Rule> rules(3);
  for (std::size_t i = 0; i < rules.size(); ++i) {
    rules[i].body = {static_cast<Item>(i + 1)};
    rules[i].heads = {static_cast<SubcategoryId>(50 + i)};
    rules[i].support = 0.1;
    rules[i].confidence = 0.9 - 0.2 * static_cast<double>(i);
    rules[i].body_count = 10;
    rules[i].hit_count = 9 - 2 * i;
  }
  std::ostringstream os;
  save_rules(os, RuleSet(std::move(rules)));
  return os.str();
}

std::shared_ptr<const RuleSet> load_rules_from(const std::string& blob) {
  std::istringstream is(blob);
  return load_rules(is);
}

TEST(RuleSetTest, LoadsOfOneBlobShareOneSet) {
  const std::string blob = small_rule_blob();
  const std::shared_ptr<const RuleSet> a = load_rules_from(blob);
  const std::shared_ptr<const RuleSet> b = load_rules_from(blob);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a->size(), 3u);
  EXPECT_EQ(a->best_match(Itemset{2, 3}), &a->rules()[1]);
}

TEST(RuleSetTest, LoadOfARuleOneUlpApartBuildsItsOwnSet) {
  const std::shared_ptr<const RuleSet> original =
      load_rules_from(small_rule_blob());
  std::vector<Rule> rules = original->rules();
  rules[1].confidence = std::nextafter(rules[1].confidence, 1.0);
  std::ostringstream os;
  save_rules(os, RuleSet(rules));
  const std::shared_ptr<const RuleSet> nudged = load_rules_from(os.str());
  EXPECT_NE(nudged, original);
  EXPECT_EQ(nudged->rules(), rules);
  EXPECT_NE(nudged->rules(), original->rules());
}

TEST(RuleSetTest, SetsLiveOnlyAsLongAsTheirHolders) {
  const std::string blob = small_rule_blob();
  std::shared_ptr<const RuleSet> held = load_rules_from(blob);
  const std::weak_ptr<const RuleSet> first = held;
  held.reset();
  EXPECT_TRUE(first.expired());  // loads do not keep a set alive
  const std::shared_ptr<const RuleSet> reloaded = load_rules_from(blob);
  EXPECT_TRUE(first.expired());
  EXPECT_EQ(reloaded->size(), 3u);
  EXPECT_EQ(load_rules_from(blob), reloaded);
}

TEST(RuleSetTest, LoadRefusesRuleCountsLargerThanTheStream) {
  // The count is read before any rule: it must fail on truncation, not
  // allocate for 2^40 rules first.
  for (const std::uint64_t count : {std::uint64_t{0xffffffffu},
                                    std::uint64_t{1} << 40}) {
    std::stringstream blob;
    wire::write_tag(blob, "BGLRULE1");
    wire::write<std::uint64_t>(blob, count);
    try {
      load_rules(blob);
      ADD_FAILURE() << "loaded " << count << " rules from an empty stream";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("rule body"), std::string::npos)
          << e.what();
    }
  }
}

TEST(RuleTest, ToStringUsesCatalogNames) {
  Rule r;
  r.body = {body_item(catalog().find("nodeMapFileError"))};
  r.heads = {catalog().find("nodemapCreateFailure")};
  r.confidence = 1.0;
  EXPECT_EQ(r.to_string(),
            "nodeMapFileError ==> nodemapCreateFailure: 1.000000");
}

TEST(MineRulesTest, ApioriAndFpGrowthProduceIdenticalRuleSets) {
  Rng rng(77);
  TransactionDb db;
  for (int i = 0; i < 300; ++i) {
    Transaction t;
    for (int k = 0; k < 4; ++k) {
      t.push_back(body_item(static_cast<SubcategoryId>(
          rng.uniform_int(0, 9))));
    }
    t.push_back(label_item(static_cast<SubcategoryId>(
        rng.uniform_int(90, 92))));
    db.add(std::move(t));
  }
  RuleOptions opt;
  opt.mining.min_support = 0.04;
  opt.min_confidence = 0.2;
  const RuleSet a = mine_rules(db, opt, MiningAlgorithm::kApriori);
  const RuleSet f = mine_rules(db, opt, MiningAlgorithm::kFpGrowth);
  ASSERT_EQ(a.size(), f.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.rules()[i].body, f.rules()[i].body);
    EXPECT_EQ(a.rules()[i].heads, f.rules()[i].heads);
    EXPECT_DOUBLE_EQ(a.rules()[i].confidence, f.rules()[i].confidence);
  }
}

TEST(MineRulesTest, ZeroMaxItemsetSizeIsRejected) {
  // Regression: max_itemset_size == 0 used to wrap the per-label
  // "leave room for the label" subtraction around std::size_t and mine
  // with an effectively unbounded cardinality. It is a contract error.
  TransactionDb db;
  db.add({body_item(1), label_item(2)});
  RuleOptions opt;
  opt.mining.max_itemset_size = 0;
  for (const SupportBase base :
       {SupportBase::kPerLabel, SupportBase::kAllTransactions}) {
    opt.support_base = base;
    EXPECT_THROW(mine_rules(db, opt), InvalidArgument);
  }
}

// ---- event-set extraction ------------------------------------------------------

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

TEST(EventSetTest, BuildsWindowedTransactions) {
  RasLog log;
  log.append_with_text(event(100, "nodeMapFileError"), "a");
  log.append_with_text(event(200, "maskInfo"), "b");
  log.append_with_text(event(500, "nodemapCreateFailure"), "f");
  log.append_with_text(event(5000, "torusFailure"), "g");  // no precursors

  EventSetStats stats;
  const TransactionDb db = extract_event_sets(log, 600, &stats);
  EXPECT_EQ(stats.fatal_events, 2u);
  EXPECT_EQ(stats.with_precursors, 1u);
  EXPECT_EQ(stats.without_precursors, 1u);
  EXPECT_DOUBLE_EQ(stats.no_precursor_fraction(), 0.5);

  ASSERT_EQ(db.size(), 2u);
  const Itemset expected{
      body_item(catalog().find("nodeMapFileError")),
      body_item(catalog().find("maskInfo")),
      label_item(catalog().find("nodemapCreateFailure"))};
  Itemset sorted_expected = expected;
  std::sort(sorted_expected.begin(), sorted_expected.end());
  EXPECT_EQ(db.transactions()[0], sorted_expected);
  EXPECT_EQ(db.transactions()[1],
            (Itemset{label_item(catalog().find("torusFailure"))}));
}

TEST(EventSetTest, WindowBoundaryIsExclusive) {
  RasLog log;
  log.append_with_text(event(100, "maskInfo"), "a");
  log.append_with_text(event(700, "torusFailure"), "f");
  // Precursor exactly window seconds before: 700 - 600 = 100 -> excluded
  // (window is (t - W, t)).
  const TransactionDb db = extract_event_sets(log, 600, nullptr);
  EXPECT_EQ(db.transactions()[0].size(), 1u);  // label only
}

TEST(EventSetTest, EarlierFatalEventsAreNotBodyItems) {
  RasLog log;
  log.append_with_text(event(100, "torusFailure"), "f1");
  log.append_with_text(event(200, "socketReadFailure"), "f2");
  const TransactionDb db = extract_event_sets(log, 600, nullptr);
  ASSERT_EQ(db.size(), 2u);
  // The second transaction must not contain the first fatal event.
  EXPECT_EQ(db.transactions()[1].size(), 1u);
}

TEST(EventSetTest, RequiresPositiveWindowAndSortedLog) {
  RasLog log;
  log.append_with_text(event(100, "torusFailure"), "f");
  EXPECT_THROW(extract_event_sets(log, 0, nullptr), InvalidArgument);
}

}  // namespace
}  // namespace bglpred
