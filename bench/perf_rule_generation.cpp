// google-benchmark for the §3.3 cost claim: "the rule generation process
// varies from 35 seconds for a 5-minute prediction window to 167 seconds
// for a 1-hour prediction window; the rule matching process is trivial.
// Therefore it is practical to deploy the meta-learner as an online
// prediction engine."
//
// We measure end-to-end rule generation (event-set extraction + mining +
// combination) as the window sweeps 5..60 minutes, rule mining alone on
// the rule predictor's training event-sets, plus single-event match
// latency. Absolute times are hardware-dependent (2007 testbed vs
// now); the claim to reproduce is the ~5x growth across the sweep and
// matching being orders of magnitude cheaper.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "mining/event_sets.hpp"
#include "predict/rule_predictor.hpp"

using namespace bglpred;
using namespace bglpred::bench;

namespace {

constexpr double kScale = 0.3;

void BM_RuleGeneration(benchmark::State& state) {
  const Duration window = state.range(0) * kMinute;
  const PreparedLog& prepared = prepared_log("ANL", kScale);
  RuleOptions options;
  std::size_t rules = 0;
  for (auto _ : state) {
    const TransactionDb db =
        extract_event_sets(prepared.log, window, nullptr);
    const RuleSet set = mine_rules(db, options);
    rules = set.size();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rules"] = static_cast<double>(rules);
}

// Extraction alone, to attribute the end-to-end split between event-set
// construction and mining.
void BM_EventSetExtraction(benchmark::State& state) {
  const Duration window = state.range(0) * kMinute;
  const PreparedLog& prepared = prepared_log("ANL", kScale);
  std::size_t sets = 0;
  for (auto _ : state) {
    const TransactionDb db =
        extract_event_sets(prepared.log, window, nullptr);
    sets = db.size();
    benchmark::DoNotOptimize(sets);
  }
  state.counters["event_sets"] = static_cast<double>(sets);
}

// mine_rules alone on the event-sets RulePredictor::train extracts with
// its default options, extracted once outside the timed loop. The
// DC-Prophet history at scale 0.04 is the one servebench's dcp_flood
// trains on, where mining dominates the set-up.
void BM_MineRules(benchmark::State& state, const char* profile,
                  double scale) {
  const RulePredictorOptions options;
  const TransactionDb db =
      extract_event_sets(prepared_log(profile, scale).log,
                         options.rule_generation_window, nullptr,
                         options.negative_ratio);
  std::size_t rules = 0;
  for (auto _ : state) {
    rules = mine_rules(db, options.rules).size();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["event_sets"] = static_cast<double>(db.size());
  state.counters["rules"] = static_cast<double>(rules);
}

// Replays the training log through the trained matcher. The ANL model
// is small (71 rules, 40 reachable); the DC-Prophet fleet model at scale
// 0.04 is the one servebench's dcp_flood serves (22,592 rules, 12,309
// reachable), where matching dominates a served record.
void BM_RuleMatching(benchmark::State& state, const char* profile,
                     double scale) {
  const PreparedLog& prepared = prepared_log(profile, scale);
  PredictionConfig config;
  config.window = 30 * kMinute;
  RulePredictor predictor(config, {});
  predictor.train(prepared.log);
  predictor.reset();
  // Replay a slice of the log through the trained matcher.
  const auto& records = prepared.log.records();
  std::size_t i = 0;
  std::size_t warnings = 0;
  for (auto _ : state) {
    const auto w = predictor.observe(records[i % records.size()]);
    warnings += w.has_value();
    benchmark::DoNotOptimize(warnings);
    ++i;
  }
  state.counters["warnings"] = static_cast<double>(warnings);
  state.counters["rules"] = static_cast<double>(predictor.rules().size());
  state.counters["reachable"] =
      static_cast<double>(predictor.rules().reachable_size());
}

}  // namespace

BENCHMARK(BM_RuleGeneration)
    ->Arg(5)
    ->Arg(15)
    ->Arg(30)
    ->Arg(45)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EventSetExtraction)
    ->Arg(5)
    ->Arg(30)
    ->Arg(60)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MineRules, anl, "ANL", kScale)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MineRules, dcp, "DCP", 0.04)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RuleMatching, anl, "ANL", kScale)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_RuleMatching, dcp, "DCP", 0.04)
    ->Unit(benchmark::kMicrosecond);

BGL_BENCH_MAIN("perf_rule_generation")
