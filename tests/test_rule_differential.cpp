// Differential gate for the served rule matcher. RulePredictor matches
// through the pruned index, the word-at-a-time walk and its last-set
// memo; an oracle here rebuilds each window's itemset from scratch,
// scans the full rules() list with best_match_naive and applies the same
// same-second debounce. On held-out logs of three profiles, every record
// must produce the same warning from both, and every window must get
// best_match_naive's rule from both best_match overloads. Mid-stream
// checkpoint restores, of the same model and of a different one, check
// that no memo outlives the rules it points into.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/three_phase.hpp"
#include "mining/rules.hpp"
#include "predict/rule_predictor.hpp"
#include "simgen/generator.hpp"

namespace bglpred {
namespace {

class Oracle {
 public:
  Oracle(const PredictionConfig& config, RuleSet rules)
      : config_(config), rules_(std::move(rules)) {}
  Oracle(const Oracle&) = delete;  // debounce keys point into rules_
  Oracle& operator=(const Oracle&) = delete;

  const RuleSet& rules() const { return rules_; }

  /// The warning RulePredictor must emit for `rec`. Leaves the window's
  /// distinct items in `observed`, or clears it when nothing is matched.
  std::optional<Warning> observe(const RasRecord& rec, Itemset* observed) {
    while (!window_.empty() &&
           window_.front().first <= rec.time - config_.window) {
      window_.pop_front();
    }
    observed->clear();
    if (rec.fatal() || rec.subcategory == kUnclassified) {
      return std::nullopt;
    }
    window_.emplace_back(rec.time, body_item(rec.subcategory));
    for (const auto& entry : window_) {
      observed->push_back(entry.second);
    }
    std::sort(observed->begin(), observed->end());
    observed->erase(std::unique(observed->begin(), observed->end()),
                    observed->end());
    const Rule* rule = rules_.best_match_naive(*observed);
    if (rule == nullptr) {
      return std::nullopt;
    }
    auto [it, inserted] = debounce_.try_emplace(rule, rec.time);
    if (!inserted) {
      if (it->second == rec.time) {
        return std::nullopt;
      }
      it->second = rec.time;
    }
    Warning w;
    w.issued_at = rec.time;
    w.window_begin = rec.time + config_.lead + 1;
    w.window_end = rec.time + config_.window;
    w.confidence = rule->confidence;
    w.source = "rule";
    w.mergeable = true;
    return w;
  }

 private:
  PredictionConfig config_;
  RuleSet rules_;
  std::deque<std::pair<TimePoint, Item>> window_;
  std::unordered_map<const Rule*, TimePoint> debounce_;
};

struct Profile {
  const char* name;
  SystemProfile (*make)();
  double train_scale;
  double stream_scale;
};

// DC-Prophet's model is by far the largest (thousands of rules, so every
// item mask spans many words); its scales stay small for the sanitizer
// builds.
const Profile kProfiles[] = {
    {"ANL", &SystemProfile::anl, 0.1, 0.05},
    {"SDSC", &SystemProfile::sdsc, 0.25, 0.05},
    {"DCP", &SystemProfile::dc_prophet, 0.01, 0.002},
};
constexpr std::size_t kProfileCount = std::size(kProfiles);

RasLog phase1_log(const Profile& profile, double scale,
                  std::uint64_t seed_offset) {
  RasLog log = LogGenerator(profile.make()).generate(scale, seed_offset).log;
  ThreePhasePredictor{}.run_phase1(log);
  return log;
}

const PredictionConfig& config() {
  static const PredictionConfig config = ThreePhaseOptions{}.prediction;
  return config;
}

/// save_state of a RulePredictor freshly trained on the profile's own
/// history (seed offset 0), as the meta-learner trains it.
const std::string& trained_model(std::size_t p) {
  static std::string models[kProfileCount];
  if (models[p].empty()) {
    RulePredictor predictor(config(), ThreePhaseOptions{}.rule);
    predictor.train(phase1_log(kProfiles[p], kProfiles[p].train_scale, 0));
    std::ostringstream os;
    predictor.save_state(os);
    models[p] = os.str();
  }
  return models[p];
}

void load(RulePredictor& predictor, const std::string& blob) {
  std::istringstream is(blob);
  predictor.load_state(is);
}

struct Mismatches {
  std::size_t warnings = 0;
  std::size_t count = 0;
  std::string first;

  void note(std::size_t record, const std::string& what) {
    if (count++ == 0) {
      first = "record " + std::to_string(record) + ": " + what;
    }
  }
};

// Feeds rec to both sides and records any difference in the warning or
// in either best_match overload on the oracle's window.
void step(RulePredictor& predictor, Oracle& oracle, const RasRecord& rec,
          std::size_t index, Mismatches* out) {
  Itemset observed;
  const std::optional<Warning> expected = oracle.observe(rec, &observed);
  const std::optional<Warning> got = predictor.observe(rec);
  out->warnings += expected.has_value();
  if (!observed.empty()) {
    const Rule* naive = oracle.rules().best_match_naive(observed);
    if (oracle.rules().best_match(observed) != naive) {
      out->note(index, "best_match(Itemset) differs from the naive scan");
    }
    ItemBitset bits;
    if (try_encode_bitset(observed, &bits) &&
        oracle.rules().best_match(bits) != naive) {
      out->note(index, "best_match(ItemBitset) differs from the naive scan");
    }
  }
  if (got.has_value() != expected.has_value()) {
    out->note(index, got.has_value() ? "unexpected warning"
                                     : "missing warning");
    return;
  }
  if (got.has_value() &&
      (got->issued_at != expected->issued_at ||
       got->window_begin != expected->window_begin ||
       got->window_end != expected->window_end ||
       got->confidence != expected->confidence ||
       got->source != expected->source ||
       got->mergeable != expected->mergeable)) {
    out->note(index, "warning fields differ");
  }
}

class RuleDifferentialTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RuleDifferentialTest, ServedWarningsEqualNaiveOracle) {
  const std::size_t p = GetParam();
  // The model swapped in two thirds of the way through: the next
  // profile's, which ranks other rules on the same window.
  const std::size_t q = (p + 1) % kProfileCount;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE(std::string(kProfiles[p].name) + " seed " +
                 std::to_string(seed));
    const RasLog log = phase1_log(kProfiles[p], kProfiles[p].stream_scale,
                                  seed);
    const auto& records = log.records();
    ASSERT_GT(records.size(), 300u);

    RulePredictor a(config());
    RulePredictor b(config());
    load(a, trained_model(p));
    load(b, trained_model(q));
    ASSERT_LT(a.rules().reachable_size(), a.rules().size());
    Oracle oracle_a(config(), a.rules());
    Oracle oracle_b(config(), b.rules());

    Mismatches m;
    const std::size_t third = records.size() / 3;
    for (std::size_t i = 0; i < 2 * third; ++i) {
      if (i == third) {
        // Restore a's own checkpoint into a: same rules, new addresses.
        std::stringstream blob;
        a.save_state(blob);
        a.load_state(blob);
      }
      step(a, oracle_a, records[i], i, &m);
      step(b, oracle_b, records[i], i, &m);
    }
    // b has seen the same records, so its window holds the item set a's
    // memo was last keyed on; only the rules differ.
    std::stringstream blob;
    b.save_state(blob);
    a.load_state(blob);
    for (std::size_t i = 2 * third; i < records.size(); ++i) {
      step(a, oracle_b, records[i], i, &m);
    }
    EXPECT_EQ(m.count, 0u) << m.first;
    EXPECT_GT(m.warnings, 0u) << "the stream never fired a rule";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, RuleDifferentialTest,
    ::testing::Range<std::size_t>(0, kProfileCount),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(kProfiles[info.param].name);
    });

}  // namespace
}  // namespace bglpred
