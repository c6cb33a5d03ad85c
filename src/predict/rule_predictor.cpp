#include "predict/rule_predictor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/error.hpp"
#include "predict/checkpoint.hpp"

namespace bglpred {

namespace {

// What every untrained predictor holds.
const std::shared_ptr<const RuleSet>& no_rules() {
  static const auto empty = std::make_shared<const RuleSet>();
  return empty;
}

// The bit match_ counts `item` under, or kNoItemBit for an item it does
// not track: one outside the universe, or a label item, which only a
// crafted checkpoint can put in the window.
std::size_t counted_bit(Item item) {
  return is_label(item) ? kNoItemBit : item_bit(item);
}

}  // namespace

RulePredictor::RulePredictor(const PredictionConfig& config,
                             const RulePredictorOptions& options)
    : config_(config),
      options_(options),
      rules_(no_rules()),
      match_(*rules_) {
  BGL_REQUIRE(config.window > config.lead,
              "prediction window must exceed the lead time");
  BGL_REQUIRE(options.rule_generation_window > 0,
              "rule generation window must be positive");
}

void RulePredictor::train(const LogView& training) {
  const TransactionDb db = extract_event_sets(
      training, options_.rule_generation_window, &training_stats_,
      options_.negative_ratio);
  rules_ = std::make_shared<const RuleSet>(mine_rules(db, options_.rules));
  reset();
}

void RulePredictor::reset() {
  window_.clear();
  item_counts_.assign(kItemBodyBits, 0);
  overflow_counts_.clear();
  match_.bind(*rules_);
  rule_debounce_.clear();
}

void RulePredictor::add_item(Item item) {
  const std::size_t bit = counted_bit(item);
  if (bit == kNoItemBit) {
    ++overflow_counts_[item];
    return;
  }
  if (item_counts_[bit]++ == 0) {
    match_.add(bit);
  }
}

void RulePredictor::remove_item(Item item) {
  const std::size_t bit = counted_bit(item);
  if (bit == kNoItemBit) {
    const auto it = overflow_counts_.find(item);
    BGL_CHECK(it != overflow_counts_.end(),
              "evicting an item the window never counted");
    if (--it->second == 0) {
      overflow_counts_.erase(it);
    }
    return;
  }
  BGL_CHECK(item_counts_[bit] > 0,
            "evicting an item the window never counted");
  if (--item_counts_[bit] == 0) {
    match_.remove(bit);
  }
}

void RulePredictor::save_state(std::ostream& os) const {
  detail::write_checkpoint_header(os, "RULE", config_);
  save_rules(os, *rules_);
  wire::write<std::uint64_t>(os, training_stats_.fatal_events);
  wire::write<std::uint64_t>(os, training_stats_.with_precursors);
  wire::write<std::uint64_t>(os, training_stats_.without_precursors);
  wire::write<std::uint64_t>(os, window_.size());
  for (const auto& [time, item] : window_) {
    wire::write<std::int64_t>(os, time);
    wire::write<std::uint32_t>(os, item);
  }
  // Debounce entries key on rule pointers; serialize as indices into the
  // confidence order (stable across save/load), sorted for deterministic
  // bytes regardless of hash-map iteration order.
  std::vector<std::pair<std::uint64_t, TimePoint>> debounce;
  debounce.reserve(rule_debounce_.size());
  const Rule* base = rules_->rules().data();
  for (const auto& [rule, time] : rule_debounce_) {
    debounce.emplace_back(static_cast<std::uint64_t>(rule - base), time);
  }
  std::sort(debounce.begin(), debounce.end());
  wire::write<std::uint64_t>(os, debounce.size());
  for (const auto& [index, time] : debounce) {
    wire::write<std::uint64_t>(os, index);
    wire::write<std::int64_t>(os, time);
  }
}

void RulePredictor::load_state(std::istream& is) {
  detail::read_checkpoint_header(is, "RULE", config_);
  rules_ = load_rules(is);
  // Right away: the debounce keys and match_ point into the old rules.
  reset();
  training_stats_.fatal_events =
      wire::read<std::uint64_t>(is, "fatal event count");
  training_stats_.with_precursors =
      wire::read<std::uint64_t>(is, "precursor count");
  training_stats_.without_precursors =
      wire::read<std::uint64_t>(is, "no-precursor count");
  const auto window_size = wire::read<std::uint64_t>(is, "window size");
  for (std::uint64_t i = 0; i < window_size; ++i) {
    const auto time = wire::read<std::int64_t>(is, "window entry time");
    const auto item = wire::read<std::uint32_t>(is, "window entry item");
    window_.emplace_back(static_cast<TimePoint>(time),
                         static_cast<Item>(item));
    // Replaying the inserts rebuilds item_counts_, overflow_counts_ and
    // match_'s counts exactly as the live engine maintained them.
    add_item(window_.back().second);
  }
  const auto debounce_size = wire::read<std::uint64_t>(is, "debounce size");
  for (std::uint64_t i = 0; i < debounce_size; ++i) {
    const auto index = wire::read<std::uint64_t>(is, "debounce rule index");
    const auto time = wire::read<std::int64_t>(is, "debounce time");
    if (index >= rules_->size()) {
      throw ParseError("debounce entry references a rule out of range");
    }
    rule_debounce_.emplace(&rules_->rules()[index],
                           static_cast<TimePoint>(time));
  }
}

std::optional<Warning> RulePredictor::observe(const RasRecord& rec) {
  // Evict items older than the prediction window.
  while (!window_.empty() &&
         window_.front().first <= rec.time - config_.window) {
    remove_item(window_.front().second);
    window_.pop_front();
  }
  if (rec.fatal() || rec.subcategory == kUnclassified) {
    return std::nullopt;
  }
  window_.emplace_back(rec.time, body_item(rec.subcategory));
  add_item(window_.back().second);

  const Rule* rule = nullptr;
  if (overflow_counts_.empty()) {
    // Fast path: match_ has counted every item of the window.
    rule = match_.best();
  } else {
    // Items match_ does not track are present (synthetic inputs or a
    // crafted checkpoint): fall back to the full sorted-itemset match for
    // exact semantics.
    Itemset observed;
    observed.reserve(window_.size());
    for (const auto& [t, item] : window_) {
      observed.push_back(item);
    }
    std::sort(observed.begin(), observed.end());
    observed.erase(std::unique(observed.begin(), observed.end()),
                   observed.end());
    rule = rules_->best_match(observed);
  }
  if (rule == nullptr) {
    return std::nullopt;
  }
  // A confidence outside [0, 1] means the miner's support bookkeeping
  // broke; issuing such a warning would poison the evaluator's averages.
  BGL_CHECK(rule->confidence >= 0.0 && rule->confidence <= 1.0,
            "matched rule carries an out-of-range confidence");
  // Every match (re-)fires: rule warnings are level-triggered, and the
  // evaluator merges overlapping same-source warnings into one episode,
  // so a persisting precursor body is a single continuing prediction
  // rather than a train of expiring false alarms. We only suppress exact
  // same-second duplicates of the same rule to bound the warning volume.
  auto [it, inserted] = rule_debounce_.try_emplace(rule, rec.time);
  if (!inserted) {
    if (rec.time == it->second) {
      return std::nullopt;
    }
    it->second = rec.time;
  }

  Warning w;
  w.issued_at = rec.time;
  w.window_begin = rec.time + config_.lead + 1;
  w.window_end = rec.time + config_.window;
  w.confidence = rule->confidence;
  w.source = name();
  w.mergeable = true;
  return w;
}

}  // namespace bglpred
