// Tests for the association-rule mining substrate: itemsets, Apriori
// (cross-checked against the horizontal reference and a brute-force
// oracle), rule mining/combination, and event-set extraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/binary.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "mining/apriori.hpp"
#include "mining/event_sets.hpp"
#include "mining/rules.hpp"
#include "mining_oracle.hpp"
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
                                         std::size_t min_count,
                                         std::size_t max_itemset_size) {
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
      if (subset.size() <= max_itemset_size) {
        ++counts[subset];
      }
    }
  }
  std::vector<FrequentItemset> out;
  for (const auto& [items, count] : counts) {
    if (count >= min_count) {
      out.push_back({items, count});
    }
  }
  return out;
}

/// The support count apriori() reports for `items`; 0 if not frequent.
std::size_t count_of(const std::vector<FrequentItemset>& frequent,
                     const Itemset& items) {
  const auto it = std::find_if(
      frequent.begin(), frequent.end(),
      [&](const FrequentItemset& f) { return f.items == items; });
  return it == frequent.end() ? 0 : it->count;
}

std::vector<FrequentItemset> sorted_by_itemset(
    std::vector<FrequentItemset> itemsets) {
  std::sort(itemsets.begin(), itemsets.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              return a.items < b.items;
            });
  return itemsets;
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
  const auto result = apriori(db, /*min_count=*/2, /*max_itemset_size=*/5);
  EXPECT_EQ(count_of(result, {1}), 6u);
  EXPECT_EQ(count_of(result, {2}), 7u);
  EXPECT_EQ(count_of(result, {1, 2}), 4u);
  EXPECT_EQ(count_of(result, {1, 2, 3}), 2u);
  EXPECT_EQ(count_of(result, {1, 2, 5}), 2u);
  EXPECT_EQ(count_of(result, {4}), 2u);
  EXPECT_EQ(count_of(result, {1, 4}), 0u);  // infrequent (support 1)
  EXPECT_THROW(apriori(db, 0, 5), InvalidArgument);
}

TEST(AprioriTest, EmptyDb) {
  EXPECT_TRUE(apriori(TransactionDb{}, 1, 5).empty());
}

TEST(AprioriTest, MaxItemsetSizeBounds) {
  TransactionDb db;
  for (int i = 0; i < 10; ++i) {
    db.add({1, 2, 3, 4});
  }
  const auto result = apriori(db, /*min_count=*/5, /*max_itemset_size=*/2);
  for (const FrequentItemset& f : result) {
    EXPECT_LE(f.items.size(), 2u);
  }
  EXPECT_EQ(count_of(result, {1, 2}), 10u);
  EXPECT_EQ(count_of(result, {1, 2, 3}), 0u);
}

// Property sweep: Apriori == the horizontal reference == brute force on
// random DBs, across support thresholds and universe shapes. The test's
// name predates FP-Growth's removal and is kept so its eight instance
// IDs stay stable.
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
  const std::size_t min_count = db.min_count_for(p.min_support);
  constexpr std::size_t kMaxItemsetSize = 4;

  const auto a = sorted_by_itemset(apriori(db, min_count, kMaxItemsetSize));
  const auto r = sorted_by_itemset(
      oracle::apriori_reference(db, min_count, kMaxItemsetSize));
  const auto brute = brute_force(db, min_count, kMaxItemsetSize);

  ASSERT_EQ(a.size(), brute.size());
  ASSERT_EQ(r.size(), brute.size());
  for (std::size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(a[i].items, brute[i].items);
    EXPECT_EQ(a[i].count, brute[i].count);
    EXPECT_EQ(r[i].items, brute[i].items);
    EXPECT_EQ(r[i].count, brute[i].count);
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
  RuleOptions opt;
  opt.min_label_count = 8;
  const RuleSet rules = mine_rules(db, opt);
  EXPECT_EQ(rules.size(), 3u);  // {a}, {b} and {a, b}, each -> 50
  // Find the {a,b} -> 50 rule.
  bool found = false;
  for (const Rule& r : rules.rules()) {
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
  RuleOptions opt;
  opt.min_label_count = 1;
  opt.min_rule_hits = 1;
  opt.min_confidence = 0.2;
  EXPECT_TRUE(mine_rules(db, opt).empty());  // 0.1 < 0.2
  opt.min_confidence = 0.05;
  const RuleSet rules = mine_rules(db, opt);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_DOUBLE_EQ(rules.rules()[0].confidence, 0.1);
  EXPECT_EQ(rules.rules()[0].body_count, 10u);
  EXPECT_EQ(rules.rules()[0].hit_count, 1u);
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

TEST(RuleTest, CombinedSupportStaysAtMostOne) {
  // A body in all 28 event-sets, under three labels: 9/28 + 18/28 + 1/28
  // sums to one ulp above 1 in doubles, which load_rules would refuse.
  Rule rule;
  rule.body = {1};
  rule.body_count = 28;
  std::vector<Rule> rules;
  for (const std::size_t hits : {9, 18, 1}) {
    rule.heads = {static_cast<SubcategoryId>(50 + rules.size())};
    rule.hit_count = hits;
    rule.support = static_cast<double>(hits) / 28.0;
    rule.confidence = rule.support;
    rules.push_back(rule);
  }
  const auto combined = combine_rules(rules);
  ASSERT_EQ(combined.size(), 1u);
  EXPECT_EQ(combined[0].support, 1.0);
  EXPECT_EQ(combined[0].confidence, 1.0);
  EXPECT_EQ(combined[0].hit_count, 28u);
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

TEST(RuleSetTest, EveryProperPrefixOfASectionThrowsAndRegistersNothing) {
  const std::string blob = small_rule_blob();
  for (std::size_t length = 0; length < blob.size(); ++length) {
    EXPECT_THROW(load_rules_from(blob.substr(0, length)), ParseError)
        << length << " of " << blob.size() << " bytes";
  }
  const std::shared_ptr<const RuleSet> a = load_rules_from(blob);
  const std::shared_ptr<const RuleSet> b = load_rules_from(blob);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.use_count(), 2);  // the registry holds no reference
  ASSERT_EQ(a->size(), 3u);
}

TEST(RuleSetTest, LoadOfASectionDifferingInItsLastByteBuildsItsOwnSet) {
  const std::string blob = small_rule_blob();
  std::string changed = blob;
  changed.back() = static_cast<char>(changed.back() ^ 1);  // top hit byte
  const std::shared_ptr<const RuleSet> original = load_rules_from(blob);
  const std::shared_ptr<const RuleSet> other = load_rules_from(changed);
  EXPECT_NE(other, original);
  EXPECT_EQ(other->rules().back().hit_count,
            original->rules().back().hit_count ^ (std::uint64_t{1} << 56));
  EXPECT_EQ(load_rules_from(blob), original);
  EXPECT_EQ(load_rules_from(changed), other);
}

/// Overwrites the 8 bytes at `at` with `value`, little-endian.
void put_u64(std::string& bytes, std::size_t at, std::uint64_t value) {
  std::string le;
  wire::append(le, value);
  bytes.replace(at, le.size(), le);
}

/// stable_hash64's state after the first `words` 8-byte words of `bytes`
/// (common/hash.hpp; the test asserts the collision it crafts with it).
std::uint64_t hash_state(std::string_view bytes, std::size_t words) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h = bytes.size() * kMul;
  for (std::size_t i = 0; i < words; ++i) {
    h = (h ^ wire::decode<std::uint64_t>(bytes.data() + 8 * i)) * kMul;
    h ^= h >> 29;
  }
  return h;
}

TEST(RuleSetTest, LoadOfASectionCraftedToCollideBuildsItsOwnSet) {
  // Four one-item rules make a 192-byte section after the tag: its last
  // two 8-byte words are the last rule's body and hit counts.
  std::vector<Rule> rules(4);
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
  const std::string blob = os.str();
  const std::string_view section = std::string_view(blob).substr(8);
  ASSERT_EQ(section.size(), 192u);
  // A new body count in word 22; word 23 undoes its effect on the state.
  std::string crafted = blob;
  const std::size_t body_count_at = 8 + 22 * 8;
  const std::size_t hit_count_at = 8 + 23 * 8;
  put_u64(crafted, body_count_at, 11);
  const std::uint64_t hits =
      wire::decode<std::uint64_t>(blob.data() + hit_count_at) ^
      hash_state(section, 23) ^
      hash_state(std::string_view(crafted).substr(8), 23);
  put_u64(crafted, hit_count_at, hits);
  ASSERT_EQ(stable_hash64(std::string_view(crafted).substr(8)),
            stable_hash64(section));

  const std::shared_ptr<const RuleSet> original = load_rules_from(blob);
  const std::shared_ptr<const RuleSet> collided = load_rules_from(crafted);
  EXPECT_NE(collided, original);
  EXPECT_EQ(collided->rules().back().body_count, 11u);
  EXPECT_EQ(collided->rules().back().hit_count, hits);
  EXPECT_EQ(original->rules().back().body_count, 10u);
  EXPECT_EQ(load_rules_from(blob), original);
  EXPECT_EQ(load_rules_from(crafted), collided);
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

/// A save_rules blob of one rule {1} -> 50 with the given fields.
std::string one_rule_blob(double support, double confidence) {
  std::ostringstream os;
  wire::write_tag(os, "BGLRULE1");
  wire::write<std::uint64_t>(os, 1);   // rule count
  wire::write<std::uint32_t>(os, 1);   // body size
  wire::write<std::uint32_t>(os, 1);   // body item
  wire::write<std::uint32_t>(os, 1);   // head count
  wire::write<std::uint16_t>(os, 50);  // head
  wire::write_double(os, support);
  wire::write_double(os, confidence);
  wire::write<std::uint64_t>(os, 10);  // body count
  wire::write<std::uint64_t>(os, 5);   // hit count
  return os.str();
}

TEST(RuleSetTest, LoadRefusesSupportsAndConfidencesOutsideZeroToOne) {
  // Matching checks that every confidence it serves is in [0, 1], and
  // the rule sort needs a strict weak order, so a model carrying a value
  // outside [0, 1] must fail its load instead.
  for (const double edge : {0.0, 0.5, 1.0}) {
    const std::string blob = one_rule_blob(edge, edge);
    const std::shared_ptr<const RuleSet> loaded = load_rules_from(blob);
    ASSERT_EQ(loaded->size(), 1u);
    std::ostringstream again;
    save_rules(again, *loaded);
    EXPECT_EQ(again.str(), blob);  // the hand-made blob is save_rules'
  }
  for (const double bad : {2.0, -1.0, std::nan(""), HUGE_VAL, -0.5}) {
    for (const bool bad_confidence : {true, false}) {
      const std::string blob = bad_confidence ? one_rule_blob(0.5, bad)
                                              : one_rule_blob(bad, 0.5);
      try {
        load_rules_from(blob);
        ADD_FAILURE() << "loaded a rule with " << bad << " in its "
                      << (bad_confidence ? "confidence" : "support");
      } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("confidence"),
                  std::string::npos)
            << e.what();
      }
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

TEST(MineRulesTest, ZeroMaxItemsetSizeIsRejected) {
  // Regression: max_itemset_size == 0 used to wrap the per-label
  // "leave room for the label" subtraction around std::size_t and mine
  // with an effectively unbounded cardinality, and 1 mined two-item
  // rules. No rule fits in fewer than two items: a contract error.
  TransactionDb db;
  for (int i = 0; i < 10; ++i) {
    db.add({body_item(1), label_item(2)});
  }
  RuleOptions opt;
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}}) {
    opt.mining.max_itemset_size = size;
    EXPECT_THROW(mine_rules(db, opt), InvalidArgument) << size;
    EXPECT_THROW(mine_rules(TransactionDb{}, opt), InvalidArgument) << size;
  }
  opt.mining.max_itemset_size = 2;
  const RuleSet rules = mine_rules(db, opt);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules.rules()[0].body, Itemset{body_item(1)});
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
