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

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mining/items.hpp"
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
/// best match, so the matching index covers the reachable (kept) rules
/// only; rules() keeps the full list, which save_rules writes. The index
/// holds, per kept slot in confidence order, the number of distinct items
/// in its body, and per body-item bit the slots whose body holds it (a
/// posting list). A stream matches its window through a RuleMatch bound
/// to the set; the set itself is immutable, so one RuleSet serves any
/// number of streams (load_rules shares it between every stream that
/// loads the same model).
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
  /// A scan of the kept rules in confidence order: the path for windows
  /// holding items outside the bitset universe (synthetic inputs only)
  /// and for tests. A stream's window uses a RuleMatch.
  const Rule* best_match(const Itemset& observed) const;

  /// Reference implementation: linear scan of the full list in confidence
  /// order. Kept as the differential-test oracle for the matchers.
  const Rule* best_match_naive(const Itemset& observed) const;

 private:
  friend class RuleMatch;

  /// Body size of a slot the counting path never satisfies: its body
  /// holds a label item or an item outside the universe. No window of
  /// body items reaches it (at most kItemBodyBits are live).
  static constexpr std::uint8_t kUncounted = 0xff;

  /// The kept slots whose body holds body-item bit `bit`.
  std::span<const std::uint32_t> postings(std::size_t bit) const {
    return {postings_.data() + posting_offsets_[bit],
            postings_.data() + posting_offsets_[bit + 1]};
  }

  std::vector<Rule> rules_;
  // Matching index over the reachable rules, in confidence order.
  std::vector<std::size_t> index_rules_;  ///< slot -> index in rules_
  /// slot -> distinct body items (at most kItemBodyBits), or kUncounted
  std::vector<std::uint8_t> body_sizes_;
  /// Body-item bit b's slots are postings_[offsets[b], offsets[b + 1]).
  std::vector<std::uint32_t> posting_offsets_ =
      std::vector<std::uint32_t>(kItemBodyBits + 1, 0);
  std::vector<std::uint32_t> postings_;
};

/// A stream's matching state over one RuleSet: a counting (TREAT-style)
/// matcher. It holds, per kept slot, how many of the slot's body items
/// the window holds, and a bitset of the slots whose whole body it holds,
/// with one summary bit per bitset word. The caller reports each change
/// of the window's item set: add(bit) when an item's window count goes
/// 0 -> 1, remove(bit) when it goes 1 -> 0; each walks that item's
/// posting list. best() is the first satisfied slot, which is the first
/// in confidence order: two countr_zeros. add, remove and best allocate
/// nothing.
///
/// Bits are item_bit()s of body items, below kItemBodyBits: a prediction
/// window holds non-fatal items only. A body holding a label item or an
/// item outside the universe is never satisfied here, so a window that
/// holds an item outside the universe must be matched with
/// RuleSet::best_match(const Itemset&) instead; then no such body can be
/// a subset of a window this state tracks, and best() is exact.
class RuleMatch {
 public:
  /// Binds to `rules` with an empty window; see bind().
  explicit RuleMatch(const RuleSet& rules) { bind(rules); }

  /// Sizes the state for `rules` and empties the window: only an empty
  /// body is satisfied. `rules` must outlive the binding, in place.
  void bind(const RuleSet& rules);

  /// The window gained body-item bit `bit` (its count went 0 -> 1).
  void add(std::size_t bit);
  /// The window lost body-item bit `bit` (its count went 1 -> 0).
  void remove(std::size_t bit);
  /// The highest-confidence rule whose body the window holds, or nullptr:
  /// RuleSet::best_match_naive of the window's items.
  const Rule* best() const;

 private:
  void mark(std::size_t slot);
  void unmark(std::size_t slot);

  const RuleSet* rules_ = nullptr;
  std::vector<std::uint8_t> counts_;       ///< slot -> live body items
  std::vector<std::uint64_t> satisfied_;   ///< slots whose body is live
  std::vector<std::uint64_t> summary_;     ///< satisfied_ words != 0
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
/// confidence order is preserved, so a loaded set matches the saved one
/// rule for rule.
void save_rules(std::ostream& os, const RuleSet& rules);

/// Parses a save_rules section. Loads of one section share one set: the
/// section is read into one byte buffer, and a set a previous load built
/// from bytes with the same stable_hash64 that is still held is confirmed
/// field by field (doubles by bit pattern) and returned as is, so rules
/// are decoded and the matching index built once however many streams
/// load the model. Otherwise a new set is built, registered and returned.
/// Thread-safe. Throws ParseError on a malformed or truncated section, and
/// on a rule whose support or confidence is not a finite value in [0, 1];
/// a section that throws registers nothing.
std::shared_ptr<const RuleSet> load_rules(std::istream& is);

}  // namespace bglpred
