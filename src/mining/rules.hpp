// Association-rule mining over event-sets (§3.2.2 Steps 2-4).
//
// Rules have the class-association form
//
//     {non-fatal subcategories} -> {fatal subcategories}
//
// Each event-set transaction contains exactly one label item (the fatal
// event it was built around), so after the Step-3 merge of equal-body
// rules the combined confidence P(any head | body) is the exact sum of
// the member confidences.
#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/bitset.hpp"
#include "mining/transaction.hpp"

namespace bglpred {

/// One (possibly combined) association rule.
struct Rule {
  Itemset body;                          ///< sorted non-fatal body items
  std::vector<SubcategoryId> heads;      ///< fatal subcategories predicted
  double support = 0.0;                  ///< relative support of body∪head
  double confidence = 0.0;               ///< P(any head | body)
  std::size_t body_count = 0;            ///< absolute support of the body
  std::size_t hit_count = 0;             ///< absolute support of body∪head

  /// Renders "a b ==> f1 f2: 0.71" using catalog names (Figure 3 style).
  std::string to_string() const;

  bool operator==(const Rule&) const = default;
};

/// Mining bounds (paper: support 0.04).
struct MiningOptions {
  /// Minimum support, relative to the event-sets of the rule's own fatal
  /// label (class-based association rules). This is the only reading
  /// under which the paper's Figure-3 rules are possible — e.g. its
  /// linkcardFailure rules exist although linkcardFailure accounts for
  /// under 4% of all fatal events (DESIGN §5).
  double min_support = 0.04;
  /// Maximum itemset cardinality (body + label), at least 2. Bounds the
  /// exponential blow-up the paper describes for low thresholds.
  std::size_t max_itemset_size = 5;
};

/// Rule-generation thresholds (paper: support 0.04, confidence 0.2).
struct RuleOptions {
  MiningOptions mining;
  double min_confidence = 0.2;
  /// Labels with fewer training occurrences than this are not mined (too
  /// few samples for a meaningful 4% bar).
  std::size_t min_label_count = 10;
  /// Absolute floor on a rule's hit count: a body must co-occur with its
  /// label at least this often, whatever the relative support works out
  /// to (guards rare classes against one-shot rules). The miner applies
  /// it while counting, not after.
  std::size_t min_rule_hits = 5;
};

/// An ordered rule collection with matching support.
///
/// A rule whose body contains an earlier rule's body can never be the
/// best match, so the matching index covers the reachable rules only;
/// rules() keeps the full list, which save_rules writes. The index holds
/// each kept body as an ItemBitset plus an inverted item -> kept-rule
/// bitset. best_match ORs the observed items' masks one 64-bit word at a
/// time and returns at the first subset hit, allocating nothing, so one
/// RuleSet can serve any number of readers (load_rules shares it between
/// every stream that loads the same model). Bodies with items outside the
/// fixed bitset universe (synthetic tests only) and the empty body take an
/// always-checked naive path so results stay identical.
class RuleSet {
 public:
  RuleSet() = default;
  /// Sorts rules in descending confidence (Step 4), ties broken by higher
  /// support then lexicographic body for determinism, and builds the
  /// matching index over the reachable rules.
  explicit RuleSet(std::vector<Rule> rules);

  const std::vector<Rule>& rules() const { return rules_; }
  std::size_t size() const { return rules_.size(); }
  bool empty() const { return rules_.empty(); }
  /// Rules the matching index keeps: those best_match can ever return.
  std::size_t reachable_size() const { return index_rules_.size(); }

  /// Returns the highest-confidence rule whose body is a subset of
  /// `observed` (sorted body items of the current window), or nullptr if
  /// none matches (Step 6: "select the rule with the highest confidence").
  const Rule* best_match(const Itemset& observed) const;

  /// Bitset fast path for callers that maintain the observed set
  /// incrementally (RulePredictor). Only valid when every observed item
  /// is inside the fixed bitset universe.
  const Rule* best_match(const ItemBitset& observed) const;

  /// Reference implementation: linear scan of the full list in confidence
  /// order. Kept as the differential-test oracle for the indexed matcher.
  const Rule* best_match_naive(const Itemset& observed) const;

 private:
  const Rule* match_candidates(const ItemBitset& observed,
                               const Itemset* observed_items) const;

  std::vector<Rule> rules_;
  // Matching index over the reachable rules, in confidence order.
  std::vector<std::size_t> index_rules_;      ///< slot -> index in rules_
  std::vector<ItemBitset> bodies_;            ///< slot -> encoded body
  std::vector<DynamicBitset> rules_by_item_ =
      std::vector<DynamicBitset>(ItemBitset::kBits);  ///< item bit -> slots
  DynamicBitset always_check_;  ///< slots needing the naive subset test
};

/// Merges rules with identical bodies into multi-head rules, summing
/// supports, confidences and hit counts (Step 3).
std::vector<Rule> combine_rules(std::vector<Rule> rules);

/// Steps 2-4 on an event-set database: for each fatal label with at least
/// min_label_count event-sets, Apriori mines that label's bodies at the
/// absolute floor max(ceil(min_support * n_label), min_rule_hits); each
/// body's confidence is its hit count over its support in all of `db`,
/// and bodies under min_confidence are dropped. Equal bodies are then
/// merged and the rules sorted. Throws InvalidArgument if
/// max_itemset_size < 2: no rule fits in one item.
RuleSet mine_rules(const TransactionDb& db, const RuleOptions& options);

/// Binary serialization of a mined rule set ("BGLRULE1" section;
/// common/binary.hpp wire format). Only the rule list travels — the
/// matching index is deterministically rebuilt on load, and the
/// confidence order is preserved, so a loaded set matches (and
/// best_match-es) byte-identically to the saved one.
void save_rules(std::ostream& os, const RuleSet& rules);

/// Parses a save_rules section. Loads of equal rule lists share one set:
/// the parsed list is compared field by field with every set a previous
/// load returned that is still held, and a match is returned as is, so
/// the matching index is built once however many streams load the model.
/// Otherwise a new set is built and returned. Thread-safe. Throws
/// ParseError on a malformed or truncated section, and on a rule whose
/// support or confidence is not a finite value in [0, 1].
std::shared_ptr<const RuleSet> load_rules(std::istream& is);

}  // namespace bglpred
