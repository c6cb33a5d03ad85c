// Rule-based base predictor (§3.2.2).
//
// Training extracts event-sets with the *rule generation window*, mines
// each fatal label's rules with Apriori (mine_rules: the hit floor is
// applied while mining), merges equal-body rules, and sorts by
// confidence. At test time a sliding window of the last `prediction
// window` seconds of non-fatal events is matched against rule bodies;
// the highest-confidence matching rule emits a warning. A rule is
// debounced while its previous warning interval is still open, so a
// persisting body does not spray duplicate warnings.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "mining/event_sets.hpp"
#include "mining/rules.hpp"
#include "predict/predictor.hpp"

namespace bglpred {

/// Tunables for the rule-based predictor.
struct RulePredictorOptions {
  /// Rule generation window used during training (paper: 15 min for ANL,
  /// 25 min for SDSC, selected by sweep — see bench/ablation_rulegen_window).
  Duration rule_generation_window = 15 * kMinute;
  RuleOptions rules;  ///< support/confidence thresholds
  /// Negative windows per fatal event added to the training transactions
  /// (see extract_event_sets): calibrates rule confidences to
  /// P(failure | body), pruning coincidental chatter bodies.
  double negative_ratio = 4.0;
};

/// See file comment.
class RulePredictor final : public BasePredictor {
 public:
  RulePredictor(const PredictionConfig& config,
                const RulePredictorOptions& options = {});

  std::string name() const override { return "rule"; }
  void train(const LogView& training) override;
  void reset() override;
  std::optional<Warning> observe(const RasRecord& rec) override;

  bool checkpointable() const override { return true; }
  void save_state(std::ostream& os) const override;
  void load_state(std::istream& is) override;

  /// The mined (combined, sorted) rules: after train() this predictor's
  /// own set, after load_state() the set every predictor that loaded the
  /// same rules shares. Empty before either.
  const RuleSet& rules() const { return *rules_; }

  /// Event-set statistics from the last train() call.
  const EventSetStats& training_stats() const { return training_stats_; }

 private:
  PredictionConfig config_;
  RulePredictorOptions options_;
  // Immutable once held, and shared by load_rules: the debounce keys and
  // match_ point into a set this predictor keeps alive.
  std::shared_ptr<const RuleSet> rules_;
  EventSetStats training_stats_;

  // Streaming test state. The window's distinct-item set is maintained
  // incrementally: per-item occurrence counts, and match_, told of each
  // item whose count goes 0 -> 1 or 1 -> 0, so each observe() reads the
  // best match instead of rebuilding and matching the window's itemset.
  // Items outside the fixed bitset universe (synthetic tests only), and
  // label items (only a crafted checkpoint's window holds one), spill
  // into overflow_counts_ and force the equivalent naive rebuild path.
  std::deque<std::pair<TimePoint, Item>> window_;  // non-fatal items
  std::vector<std::uint32_t> item_counts_ =
      std::vector<std::uint32_t>(kItemBodyBits, 0);  // by body item bit
  std::map<Item, std::uint32_t> overflow_counts_;  // untracked items
  RuleMatch match_;  // bound to *rules_
  std::unordered_map<const Rule*, TimePoint> rule_debounce_;

  void add_item(Item item);
  void remove_item(Item item);
};

}  // namespace bglpred
