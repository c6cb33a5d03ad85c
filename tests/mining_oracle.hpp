// Differential oracles for rule mining (mining/apriori.hpp,
// mining/rules.hpp). Test-only: the product mines with the vertical
// apriori() at the per-label hit floor, and these pin what it must find.
//
//  * apriori_reference counts candidates horizontally, enumerating each
//    transaction's k-subsets against a candidate hash map — the textbook
//    statement of the algorithm, with its own candidate generation.
//  * absolute_support_naive scans every transaction with is_subset.
//  * mine_rules is the earlier per-label pipeline: it mines each label at
//    the relative support floor alone and drops the bodies under
//    min_rule_hits afterwards.
#pragma once

#include <cstddef>
#include <vector>

#include "mining/apriori.hpp"
#include "mining/rules.hpp"
#include "mining/transaction.hpp"

namespace bglpred::oracle {

/// Same contract and output order as apriori().
std::vector<FrequentItemset> apriori_reference(const TransactionDb& db,
                                               std::size_t min_count,
                                               std::size_t max_itemset_size);

/// Number of transactions of `db` containing `items`.
std::size_t absolute_support_naive(const TransactionDb& db,
                                   const Itemset& items);

/// The rules ::bglpred::mine_rules must produce: mined at
/// ceil(min_support * n_label) on apriori_reference, then filtered by
/// min_rule_hits.
RuleSet mine_rules(const TransactionDb& db, const RuleOptions& options);

}  // namespace bglpred::oracle
