// Checks a RuleMatch (mining/rules.hpp) on a window given as an itemset,
// for tests that pin the counting matcher to RuleSet::best_match_naive.
#pragma once

#include <algorithm>

#include "mining/items.hpp"
#include "mining/rules.hpp"

namespace bglpred::counted {

/// True if a RuleMatch tracks every item of `observed`: body items inside
/// the bitset universe, the only items a prediction window holds.
inline bool countable(const Itemset& observed) {
  return std::all_of(observed.begin(), observed.end(), [](Item item) {
    return !is_label(item) && item_bit(item) != kNoItemBit;
  });
}

/// best() of a RuleMatch bound to `rules` once every item of the
/// countable window `observed` is added.
inline const Rule* best(const RuleSet& rules, const Itemset& observed) {
  RuleMatch match(rules);
  for (const Item item : observed) {
    match.add(item_bit(item));
  }
  return match.best();
}

}  // namespace bglpred::counted
