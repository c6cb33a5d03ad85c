// Ablation: rule-index pruning. Per-class mining emits every frequent
// sub-body as a rule, and best_match returns the first rule in confidence
// order whose body fits the window, so a rule whose body contains an
// earlier rule's body can never fire. RuleSet's matching index keeps only
// the reachable rules. This driver prints mined against reachable rule
// counts and checks that the pruned index returns the full-list scan's
// rule (best_match_naive) on every rule body.
//
// Usage: ablation_rule_pruning [--scale=0.3] [--folds=10]

#include "bench_common.hpp"
#include "mining/event_sets.hpp"

using namespace bglpred;
using namespace bglpred::bench;


int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.3);
  print_header("Ablation (extension)", "Rule-index pruning", scale);

  TextTable table;
  table.set_header({"log", "rule-gen window", "mined rules", "reachable",
                    "reduction", "best-match preserved"});
  for (const char* profile : {"ANL", "SDSC"}) {
    const PreparedLog& prepared = prepared_log(profile, scale);
    for (const Duration w : {15 * kMinute, 30 * kMinute, 60 * kMinute}) {
      const TransactionDb db =
          extract_event_sets(prepared.log, w, nullptr, 4.0);
      const RuleSet rules = mine_rules(db, RuleOptions{});
      bool preserved = true;
      for (const Rule& r : rules.rules()) {
        if (rules.best_match(r.body) != rules.best_match_naive(r.body)) {
          preserved = false;
          break;
        }
      }
      const std::size_t dropped = rules.size() - rules.reachable_size();
      table.add_row({profile, format_duration(w),
                     std::to_string(rules.size()),
                     std::to_string(rules.reachable_size()),
                     TextTable::num(100.0 * static_cast<double>(dropped) /
                                        std::max<std::size_t>(
                                            1, rules.size()),
                                    1) +
                         "%",
                     preserved ? "yes" : "NO"});
    }
  }
  std::fputs(table.render().c_str(), stdout);
  return 0;
}
