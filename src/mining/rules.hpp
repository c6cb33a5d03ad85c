// Association-rule generation over mined frequent itemsets
// (§3.2.2 Steps 2-4).
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
#include "mining/frequent.hpp"

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

/// What the minimum-support fraction is relative to.
enum class SupportBase {
  /// Classic association rules: fraction of *all* event-sets. Rules for
  /// rare failure classes can never clear the bar (a class with fewer
  /// occurrences than min_support * |D| is unminable).
  kAllTransactions,
  /// Class-based association rules: fraction of the event-sets built
  /// around the rule's *own* fatal label. This is the only reading under
  /// which the paper's Figure-3 rules are possible — e.g. its
  /// linkcardFailure rules exist although linkcardFailure accounts for
  /// under 4% of all fatal events — so it is the default.
  kPerLabel,
};

/// Rule-generation thresholds (paper: support 0.04, confidence 0.2).
struct RuleOptions {
  MiningOptions mining;
  double min_confidence = 0.2;
  SupportBase support_base = SupportBase::kPerLabel;
  /// Labels with fewer training occurrences than this are not mined under
  /// kPerLabel (too few samples for a meaningful 4% bar).
  std::size_t min_label_count = 10;
  /// Absolute floor on a rule's hit count under kPerLabel: a body must
  /// co-occur with its label at least this often, whatever the relative
  /// support works out to (guards rare classes against one-shot rules).
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

/// Generates single-head rules body->label from a frequent set: for every
/// frequent itemset containing exactly one label item and a non-empty
/// body, with confidence >= min_confidence. (Step 2.)
std::vector<Rule> generate_rules(const FrequentSet& frequent,
                                 std::size_t transaction_count,
                                 double min_confidence);

/// Merges rules with identical bodies into multi-head rules, summing
/// confidences and hit counts (Step 3).
std::vector<Rule> combine_rules(std::vector<Rule> rules);

/// Convenience: mine (with the given algorithm), generate, combine, sort.
enum class MiningAlgorithm { kApriori, kFpGrowth };

RuleSet mine_rules(const TransactionDb& db, const RuleOptions& options,
                   MiningAlgorithm algorithm = MiningAlgorithm::kApriori);

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
/// ParseError on a malformed or truncated section.
std::shared_ptr<const RuleSet> load_rules(std::istream& is);

}  // namespace bglpred
