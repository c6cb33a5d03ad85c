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
//
//   $ ./perf_rule_generation           # emits BENCH_perf_rule_generation.json
//   $ ./perf_rule_generation --smoke   # matching gate, then BM_RuleMatching
//
// --smoke trains the model servebench's dcp_flood serves (the DC-Prophet
// history at scale 0.04) and replays a held-out DC-Prophet installation
// through RulePredictor and through a naive replay that rebuilds the
// window per record and scans every rule with best_match_naive. Their
// warnings must be equal, and RulePredictor's time per record must be at
// least kMinMatchSpeedup times below the naive replay's, both timed in
// this process (EXPERIMENTS.md X21). Then it times the BM_RuleMatching
// rows briefly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "core/three_phase.hpp"
#include "mining/event_sets.hpp"
#include "predict/rule_predictor.hpp"
#include "simgen/stream.hpp"

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
  // Replay the log through the trained matcher, in time order: each lap
  // starts from a reset predictor, as a new stream would. Without it,
  // time would jump back at every lap and nothing would leave the window.
  const auto& records = prepared.log.records();
  std::size_t i = 0;
  std::size_t warnings = 0;
  for (auto _ : state) {
    if (i == records.size()) {
      state.PauseTiming();
      predictor.reset();
      state.ResumeTiming();
      i = 0;
    }
    const auto w = predictor.observe(records[i]);
    warnings += w.has_value();
    benchmark::DoNotOptimize(warnings);
    ++i;
  }
  state.counters["warnings"] = static_cast<double>(warnings);
  state.counters["rules"] = static_cast<double>(predictor.rules().size());
  state.counters["reachable"] =
      static_cast<double>(predictor.rules().reachable_size());
}


// ---- --smoke ---------------------------------------------------------------

// RulePredictor must replay at least this many times faster per record
// than the naive replay. The counting matcher measures 348-428x on a
// 4-CPU 2.1 GHz KVM guest; a matcher that scans the rules at every change
// of the window's item set, as the earlier word walk did, reaches 46-66x
// there (EXPERIMENTS.md X21).
constexpr double kMinMatchSpeedup = 150.0;
constexpr int kPredictorRepeats = 7;

/// A DC-Prophet installation generated as servebench streams it, after
/// Phase 1.
RasLog dcp_phase1(double scale, std::uint64_t seed_offset) {
  StreamConfig config;
  config.scale = scale;
  config.seed_offset = seed_offset;
  StreamRecordSource source(SystemProfile::dc_prophet(), config);
  RasLog log;
  RasLog batch;
  while (source.next_batch(batch)) {
    for (const RasRecord& rec : batch.records()) {
      log.append_with_text(rec, batch.text_of(rec));
    }
  }
  ThreePhasePredictor{}.run_phase1(log);
  return log;
}

/// The fields of a warning a replay must reproduce.
struct Issued {
  TimePoint at = 0;
  TimePoint window_begin = 0;
  TimePoint window_end = 0;
  double confidence = 0.0;

  bool operator==(const Issued&) const = default;
};

Issued issued(const Warning& w) {
  return {w.issued_at, w.window_begin, w.window_end, w.confidence};
}

/// RulePredictor's warnings on `records`, and the fastest replay's
/// seconds.
std::vector<Issued> predictor_replay(RulePredictor& predictor,
                                     const std::vector<RasRecord>& records,
                                     double* seconds) {
  std::vector<Issued> out;
  out.reserve(records.size());
  *seconds = 1e30;
  for (int rep = 0; rep < kPredictorRepeats; ++rep) {
    predictor.reset();
    out.clear();
    const auto start = std::chrono::steady_clock::now();
    for (const RasRecord& rec : records) {
      if (const std::optional<Warning> w = predictor.observe(rec)) {
        out.push_back(issued(*w));
      }
    }
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    *seconds = std::min(*seconds, took.count());
  }
  return out;
}

/// What RulePredictor must warn on `records`: each window rebuilt from
/// scratch, matched with best_match_naive, under the same same-second
/// debounce. Times itself into `seconds`.
std::vector<Issued> naive_replay(const RuleSet& rules,
                                 const PredictionConfig& config,
                                 const std::vector<RasRecord>& records,
                                 double* seconds) {
  std::vector<Issued> out;
  std::deque<std::pair<TimePoint, Item>> window;
  std::unordered_map<const Rule*, TimePoint> debounce;
  Itemset observed;
  const auto start = std::chrono::steady_clock::now();
  for (const RasRecord& rec : records) {
    while (!window.empty() &&
           window.front().first <= rec.time - config.window) {
      window.pop_front();
    }
    if (rec.fatal() || rec.subcategory == kUnclassified) {
      continue;
    }
    window.emplace_back(rec.time, body_item(rec.subcategory));
    observed.clear();
    for (const auto& entry : window) {
      observed.push_back(entry.second);
    }
    std::sort(observed.begin(), observed.end());
    observed.erase(std::unique(observed.begin(), observed.end()),
                   observed.end());
    const Rule* rule = rules.best_match_naive(observed);
    if (rule == nullptr) {
      continue;
    }
    const auto [it, inserted] = debounce.try_emplace(rule, rec.time);
    if (!inserted) {
      if (it->second == rec.time) {
        continue;
      }
      it->second = rec.time;
    }
    out.push_back({rec.time, rec.time + config.lead + 1,
                   rec.time + config.window, rule->confidence});
  }
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  *seconds = took.count();
  return out;
}

int run_smoke() {
  const ThreePhaseOptions options;
  RulePredictor predictor(options.prediction, options.rule);
  predictor.train(dcp_phase1(0.04, 0));
  const RuleSet& rules = predictor.rules();
  const RasLog stream = dcp_phase1(0.01, 1);
  const std::vector<RasRecord>& records = stream.records();
  std::printf("smoke: DC-Prophet model of %zu rules, %zu reachable; "
              "held-out stream of %zu records\n",
              rules.size(), rules.reachable_size(), records.size());

  double naive_s = 0.0;
  const std::vector<Issued> want =
      naive_replay(rules, options.prediction, records, &naive_s);
  double predictor_s = 0.0;
  const std::vector<Issued> got =
      predictor_replay(predictor, records, &predictor_s);
  if (got != want) {
    std::fprintf(stderr,
                 "smoke: RulePredictor issued %zu warnings, the naive "
                 "replay %zu, and they differ\n",
                 got.size(), want.size());
    return 1;
  }
  if (want.empty()) {
    std::fprintf(stderr, "smoke: the stream never fired a rule\n");
    return 1;
  }
  const double per_record = 1e9 / static_cast<double>(records.size());
  const double speedup = naive_s / predictor_s;
  std::printf("smoke: %zu equal warnings; RulePredictor %.1f ns/record, "
              "naive replay %.1f ns/record, speedup %.1fx\n",
              want.size(), predictor_s * per_record, naive_s * per_record,
              speedup);
  if (speedup < kMinMatchSpeedup) {
    std::fprintf(stderr, "smoke: speedup %.1fx below the %.0fx gate\n",
                 speedup, kMinMatchSpeedup);
    return 1;
  }
  return 0;
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

int main(int argc, char** argv) {
  std::vector<char*> args;
  static char filter[] = "--benchmark_filter=BM_RuleMatching";
  static char min_time[] = "--benchmark_min_time=0.01";
  bool smoke = false;
  bool filtered = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    filtered = filtered ||
               std::strncmp(argv[i], "--benchmark_filter", 18) == 0;
    args.push_back(argv[i]);
  }
  if (smoke) {
    const int rc = run_smoke();
    if (rc != 0) {
      return rc;
    }
    if (!filtered) {
      args.push_back(filter);
    }
    args.push_back(min_time);
  }
  return bglpred::bench::run_benchmark_driver(
      "perf_rule_generation", static_cast<int>(args.size()), args.data());
}
