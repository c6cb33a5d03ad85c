// Apriori frequent-itemset mining (Agrawal & Srikant, VLDB '94) — the
// algorithm the paper cites for Step 2 of the rule-based method.
//
// Level-wise search: frequent k-itemsets are joined into (k+1)-candidates
// sharing a k-1 prefix, and candidates with any infrequent k-subset are
// pruned (the apriori property). Candidate support is counted vertically:
// each frequent itemset carries its transaction bitset (tid-list), and a
// candidate's bitset is the word-wise AND of its two join parents'
// bitsets, so counting is a popcount instead of a subset enumeration over
// every transaction (Eclat-style counting on Apriori's level-wise
// lattice). The textbook horizontal counting lives on as the test-only
// oracle in tests/mining_oracle.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "mining/transaction.hpp"

namespace bglpred {

/// One frequent itemset with its absolute support count.
struct FrequentItemset {
  Itemset items;
  std::size_t count = 0;
};

/// Mines every itemset of at most `max_itemset_size` items that occurs in
/// at least `min_count` transactions of `db`. Itemsets come out level by
/// level, each level in lexicographic order.
std::vector<FrequentItemset> apriori(const TransactionDb& db,
                                     std::size_t min_count,
                                     std::size_t max_itemset_size);

}  // namespace bglpred
