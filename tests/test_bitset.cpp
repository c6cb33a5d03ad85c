// Tests for the bitset substrate behind the mining/matching fast paths:
// ItemBitset / DynamicBitset units, the dense item encoding, and
// randomized differential checks pinning every fast path to its retained
// naive reference (vertical support counting, Eclat-style Apriori,
// indexed and counted rule matching).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitset.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "counted_match.hpp"
#include "mining/apriori.hpp"
#include "mining/items.hpp"
#include "mining/rules.hpp"
#include "mining/transaction.hpp"
#include "mining_oracle.hpp"

namespace bglpred {
namespace {

// ---- ItemBitset -------------------------------------------------------

TEST(ItemBitsetTest, SetTestClearCount) {
  ItemBitset bits;
  EXPECT_FALSE(bits.any());
  EXPECT_EQ(bits.count(), 0u);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(ItemBitset::kBits - 1);
  EXPECT_TRUE(bits.any());
  EXPECT_EQ(bits.count(), 4u);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(ItemBitset::kBits - 1));
  EXPECT_FALSE(bits.test(1));
  bits.clear(63);
  EXPECT_FALSE(bits.test(63));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset();
  EXPECT_FALSE(bits.any());
}

TEST(ItemBitsetTest, OutOfRangeBitThrows) {
  ItemBitset bits;
  EXPECT_THROW(bits.set(ItemBitset::kBits), ContractViolation);
  EXPECT_THROW(bits.test(ItemBitset::kBits), ContractViolation);
}

TEST(ItemBitsetTest, SubsetAcrossWordBoundaries) {
  ItemBitset small;
  ItemBitset big;
  for (std::size_t bit : {3u, 64u, 130u, 255u}) {
    big.set(bit);
  }
  EXPECT_TRUE(small.is_subset_of(big));  // empty set
  small.set(64);
  small.set(255);
  EXPECT_TRUE(small.is_subset_of(big));
  EXPECT_FALSE(big.is_subset_of(small));
  small.set(65);
  EXPECT_FALSE(small.is_subset_of(big));
}

TEST(ItemBitsetTest, ForEachSetAscending) {
  ItemBitset bits;
  const std::vector<std::size_t> expected = {0, 5, 63, 64, 127, 128, 254};
  for (std::size_t bit : expected) {
    bits.set(bit);
  }
  std::vector<std::size_t> seen;
  bits.for_each_set([&](std::size_t bit) { seen.push_back(bit); });
  EXPECT_EQ(seen, expected);
}

// ---- DynamicBitset ----------------------------------------------------

TEST(DynamicBitsetTest, GrowsOnSetAndCounts) {
  DynamicBitset bits;
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_FALSE(bits.test(1000));  // out of width == unset
  bits.set(3);
  bits.set(200);
  EXPECT_TRUE(bits.test(3));
  EXPECT_TRUE(bits.test(200));
  EXPECT_FALSE(bits.test(4));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(DynamicBitsetTest, AndOperationsClampWidth) {
  DynamicBitset a;
  DynamicBitset b;
  a.set(1);
  a.set(70);
  a.set(500);  // beyond b's width; must not survive an AND
  b.set(1);
  b.set(70);
  b.set(90);
  EXPECT_EQ(DynamicBitset::and_count(a, b), 2u);
  EXPECT_EQ(DynamicBitset::and_count(b, a), 2u);
  const DynamicBitset both = DynamicBitset::and_of(a, b);
  EXPECT_TRUE(both.test(1));
  EXPECT_TRUE(both.test(70));
  EXPECT_FALSE(both.test(500));
  a.and_with(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_FALSE(a.test(500));
}

TEST(DynamicBitsetTest, WordIsZeroPastTheEnd) {
  DynamicBitset a;
  EXPECT_EQ(a.word(0), 0u);  // an empty bitset reads as all-zeros
  a.set(2);
  a.set(130);
  EXPECT_EQ(a.word_count(), 3u);
  EXPECT_EQ(a.word(0), std::uint64_t{1} << 2);
  EXPECT_EQ(a.word(1), 0u);
  EXPECT_EQ(a.word(2), std::uint64_t{1} << 2);
  EXPECT_EQ(a.word(3), 0u);
  EXPECT_EQ(a.word(1000), 0u);
}

// ---- dense item encoding ----------------------------------------------

TEST(ItemEncodingTest, BodyAndLabelSlots) {
  EXPECT_EQ(item_bit(body_item(0)), 0u);
  EXPECT_EQ(item_bit(body_item(100)), 100u);
  EXPECT_EQ(item_bit(label_item(0)), kItemBodyBits);
  EXPECT_EQ(item_bit(label_item(100)), kItemBodyBits + 100);
  // Body and label slots never collide.
  EXPECT_NE(item_bit(body_item(7)), item_bit(label_item(7)));
  // Outside the fixed universe.
  EXPECT_EQ(item_bit(body_item(static_cast<SubcategoryId>(kItemBodyBits))),
            kNoItemBit);
  EXPECT_EQ(item_bit(label_item(static_cast<SubcategoryId>(kItemBodyBits))),
            kNoItemBit);
}

TEST(ItemEncodingTest, TryEncodeBitset) {
  ItemBitset bits;
  EXPECT_TRUE(try_encode_bitset({body_item(1), label_item(2)}, &bits));
  EXPECT_EQ(bits.count(), 2u);
  EXPECT_TRUE(bits.test(1));
  EXPECT_TRUE(bits.test(kItemBodyBits + 2));
  EXPECT_FALSE(try_encode_bitset(
      {body_item(1), body_item(static_cast<SubcategoryId>(kItemBodyBits))},
      &bits));
}

// ---- randomized differential checks -----------------------------------

// Random transactions over a mixed universe: in-universe body items,
// label items, and (when `exotic` is set) items past the bitset width to
// force the naive fallbacks.
TransactionDb random_db(Rng& rng, std::size_t transactions, bool exotic) {
  TransactionDb db;
  for (std::size_t t = 0; t < transactions; ++t) {
    Itemset items;
    const std::size_t n =
        static_cast<std::size_t>(rng.uniform_int(1, 8));
    for (std::size_t i = 0; i < n; ++i) {
      const auto subcat =
          static_cast<SubcategoryId>(rng.uniform_int(0, 11));
      switch (rng.uniform_int(0, exotic ? 3 : 2)) {
        case 0:
        case 1:
          items.push_back(body_item(subcat));
          break;
        case 2:
          items.push_back(label_item(subcat));
          break;
        default:
          // Past kItemBodyBits: unencodable, exercises fallbacks.
          items.push_back(body_item(
              static_cast<SubcategoryId>(kItemBodyBits + subcat)));
          break;
      }
    }
    db.add(items);
  }
  return db;
}

Itemset random_query(Rng& rng, bool exotic) {
  Itemset items;
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 4));
  for (std::size_t i = 0; i < n; ++i) {
    const auto subcat = static_cast<SubcategoryId>(rng.uniform_int(0, 13));
    if (exotic && rng.uniform_int(0, 5) == 0) {
      items.push_back(
          body_item(static_cast<SubcategoryId>(kItemBodyBits + subcat)));
    } else if (rng.uniform_int(0, 2) == 0) {
      items.push_back(label_item(subcat));
    } else {
      items.push_back(body_item(subcat));
    }
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

TEST(DifferentialTest, VerticalSupportMatchesNaive) {
  Rng rng(0xb175e7u);
  for (int round = 0; round < 30; ++round) {
    const bool exotic = round % 2 == 0;
    const TransactionDb db = random_db(
        rng, static_cast<std::size_t>(rng.uniform_int(0, 40)), exotic);
    for (int q = 0; q < 50; ++q) {
      const Itemset query = random_query(rng, exotic);
      EXPECT_EQ(db.absolute_support(query),
                oracle::absolute_support_naive(db, query))
          << "round " << round << " query " << itemset_to_string(query);
    }
  }
}

TEST(DifferentialTest, VerticalIndexSurvivesCopyAndMutation) {
  Rng rng(0xc0b1e5u);
  TransactionDb db = random_db(rng, 25, /*exotic=*/false);
  const Itemset query = {body_item(1), body_item(2)};
  const std::size_t before = db.absolute_support(query);  // builds index
  EXPECT_EQ(before, oracle::absolute_support_naive(db, query));
  TransactionDb copy = db;  // copy drops the cached index
  copy.add({body_item(1), body_item(2)});
  EXPECT_EQ(copy.absolute_support(query), before + 1);
  EXPECT_EQ(db.absolute_support(query), before);  // original unaffected
  db.add({body_item(1), body_item(2), body_item(3)});  // invalidates index
  EXPECT_EQ(db.absolute_support(query), before + 1);
  EXPECT_EQ(db.absolute_support(query),
            oracle::absolute_support_naive(db, query));
}

TEST(DifferentialTest, AprioriMatchesReference) {
  Rng rng(0xa9110fu);
  for (int round = 0; round < 12; ++round) {
    const bool exotic = round % 3 == 0;
    const TransactionDb db = random_db(
        rng, static_cast<std::size_t>(rng.uniform_int(4, 30)), exotic);
    const std::size_t min_count = db.min_count_for(
        static_cast<double>(rng.uniform_int(5, 30)) / 100.0);
    const auto max_itemset_size =
        static_cast<std::size_t>(rng.uniform_int(1, 4));
    const auto fast = apriori(db, min_count, max_itemset_size);
    const auto reference =
        oracle::apriori_reference(db, min_count, max_itemset_size);
    // The vertical fast path must reproduce the reference bit-for-bit,
    // order included.
    ASSERT_EQ(fast.size(), reference.size()) << "round " << round;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].items, reference[i].items);
      EXPECT_EQ(fast[i].count, reference[i].count);
    }
  }
}

TEST(DifferentialTest, BestMatchMatchesNaive) {
  Rng rng(0xbe57a7c4u);
  for (int round = 0; round < 10; ++round) {
    const bool exotic = round % 2 == 1;
    const TransactionDb db = random_db(
        rng, static_cast<std::size_t>(rng.uniform_int(10, 60)), exotic);
    RuleOptions options;
    options.mining.min_support = 0.05;
    options.min_confidence = 0.05;
    options.min_label_count = 1;
    options.min_rule_hits = 1;
    const RuleSet rules = mine_rules(db, options);
    for (int q = 0; q < 60; ++q) {
      const Itemset observed = random_query(rng, exotic);
      const Rule* naive = rules.best_match_naive(observed);
      const Rule* fast = rules.best_match(observed);
      // Pointer equality: ties must resolve to the *same* rule.
      EXPECT_EQ(fast, naive)
          << "round " << round << " observed "
          << itemset_to_string(observed);
      if (counted::countable(observed)) {
        EXPECT_EQ(counted::best(rules, observed), naive)
            << "round " << round << " observed "
            << itemset_to_string(observed);
      }
    }
  }
}

TEST(RuleSetTest, DefaultConstructedMatchesNothing) {
  // mine_rules returns this for an empty database, and an untrained
  // RulePredictor matches against it.
  const RuleSet rules;
  EXPECT_EQ(rules.reachable_size(), 0u);
  EXPECT_EQ(rules.best_match(Itemset{body_item(1), body_item(7)}), nullptr);
  RuleMatch match(rules);
  EXPECT_EQ(match.best(), nullptr);
  match.add(item_bit(body_item(1)));
  EXPECT_EQ(match.best(), nullptr);
  match.remove(item_bit(body_item(1)));
  EXPECT_EQ(match.best(), nullptr);
}

TEST(RuleSetTest, EmptyBodyRuleMatchesEmptyWindow) {
  // An empty-body rule (possible in synthetic inputs) must match any
  // window, including the empty one, on every path.
  Rule rule;
  rule.heads = {3};
  rule.confidence = 0.5;
  rule.support = 0.1;
  const RuleSet rules({rule});
  EXPECT_NE(rules.best_match(Itemset{}), nullptr);
  RuleMatch match(rules);
  EXPECT_NE(match.best(), nullptr);
  EXPECT_EQ(match.best(), rules.best_match_naive(Itemset{}));
  EXPECT_EQ(rules.best_match(Itemset{}), rules.best_match_naive(Itemset{}));
  match.add(item_bit(body_item(4)));
  match.remove(item_bit(body_item(4)));
  EXPECT_EQ(match.best(), &rules.rules()[0]);  // still, once emptied again
}

// ---- RuleMatch sequences ----------------------------------------------

// A small synthetic set over body items 0-19: few one-item bodies, so
// many are kept and the state often spans words; confidences from
// four levels, so ties are common; super-bodies of earlier bodies that
// can never fire; bodies holding a label item or an item outside the
// universe, which the counting path never satisfies; and, when asked, an
// empty body.
RuleSet random_rule_set(Rng& rng, bool empty_body) {
  std::vector<Rule> rules;
  const auto n = static_cast<std::size_t>(rng.uniform_int(30, 240));
  for (std::size_t i = 0; i < n; ++i) {
    Rule rule;
    const std::int64_t pick = rng.uniform_int(0, 39);
    const std::int64_t size = pick == 0 ? 1 : pick <= 24 ? 2 : 3;
    for (std::int64_t k = 0; k < size; ++k) {
      rule.body.push_back(
          body_item(static_cast<SubcategoryId>(rng.uniform_int(0, 19))));
    }
    if (!rules.empty() && rng.bernoulli(0.15)) {  // a dominated super-body
      const Rule& earlier = rules[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(rules.size()) - 1))];
      rule.body.insert(rule.body.end(), earlier.body.begin(),
                       earlier.body.end());
    }
    switch (rng.uniform_int(0, 9)) {
      case 0:
        rule.body.push_back(body_item(static_cast<SubcategoryId>(
            kItemBodyBits + rng.uniform_int(0, 3))));
        break;
      case 1:
        rule.body.push_back(
            label_item(static_cast<SubcategoryId>(rng.uniform_int(0, 19))));
        break;
      default:
        break;
    }
    std::sort(rule.body.begin(), rule.body.end());
    rule.body.erase(std::unique(rule.body.begin(), rule.body.end()),
                    rule.body.end());
    rule.heads = {static_cast<SubcategoryId>(50 + i % 3)};
    rule.confidence = static_cast<double>(rng.uniform_int(1, 4)) / 4.0;
    rule.support = static_cast<double>(rng.uniform_int(1, 2)) / 10.0;
    rules.push_back(std::move(rule));
  }
  if (empty_body) {
    Rule rule;
    rule.heads = {60};
    rule.confidence = static_cast<double>(rng.uniform_int(1, 4)) / 4.0;
    rule.support = 0.1;
    rules.push_back(std::move(rule));
  }
  return RuleSet(std::move(rules));
}

TEST(RuleMatchTest, RandomAddRemoveSequencesMatchNaive) {
  Rng rng(0x5e9c0de5u);
  std::size_t multi_word_sets = 0;
  for (int round = 0; round < 40; ++round) {
    const RuleSet first = random_rule_set(rng, round % 2 == 0);
    const RuleSet second = random_rule_set(rng, round % 3 == 0);
    multi_word_sets += first.reachable_size() > 64;
    multi_word_sets += second.reachable_size() > 64;
    RuleMatch match(first);
    const RuleSet* bound = &first;
    std::vector<Item> live;  // the window's distinct items
    for (int step = 0; step < 400; ++step) {
      if (step == 200) {
        // Rebind mid-stream and replay the live items, as load_state
        // does after swapping the model.
        match.bind(second);
        bound = &second;
        for (const Item item : live) {
          match.add(item_bit(item));
        }
      } else if (!live.empty() && (live.size() == 20 || rng.bernoulli(0.5))) {
        const auto at = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(live.size()) - 1));
        match.remove(item_bit(live[at]));
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        Item item = 0;
        do {
          item = body_item(static_cast<SubcategoryId>(rng.uniform_int(0, 19)));
        } while (std::find(live.begin(), live.end(), item) != live.end());
        match.add(item_bit(item));
        live.push_back(item);
      }
      Itemset observed = live;
      std::sort(observed.begin(), observed.end());
      ASSERT_EQ(match.best(), bound->best_match_naive(observed))
          << "round " << round << " step " << step << " window "
          << itemset_to_string(observed);
    }
  }
  EXPECT_GT(multi_word_sets, 10u) << "the summary words must be exercised";
}

}  // namespace
}  // namespace bglpred
