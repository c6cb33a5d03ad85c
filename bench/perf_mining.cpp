// google-benchmark: Apriori mining throughput on event-set databases
// extracted from the calibrated ANL log, across the rule-generation window
// and support sweep. It times the frequent-itemset pass alone, over the
// whole database at the relative floor; BM_MineRules in
// perf_rule_generation times the per-label rule mining the product runs.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "mining/apriori.hpp"
#include "mining/event_sets.hpp"
#include "mining/rules.hpp"

using namespace bglpred;
using namespace bglpred::bench;

namespace {

const TransactionDb& anl_event_sets(Duration window) {
  static std::map<Duration, TransactionDb> cache;
  auto it = cache.find(window);
  if (it == cache.end()) {
    const PreparedLog& prepared = prepared_log("ANL", 0.3);
    it = cache
             .emplace(window,
                      extract_event_sets(prepared.log, window, nullptr))
             .first;
  }
  return it->second;
}

void BM_Apriori(benchmark::State& state) {
  const Duration window = state.range(0) * kMinute;
  const double support = static_cast<double>(state.range(1)) / 1000.0;
  const TransactionDb& db = anl_event_sets(window);
  const std::size_t min_count = db.min_count_for(support);
  std::size_t found = 0;
  for (auto _ : state) {
    found = apriori(db, min_count, MiningOptions{}.max_itemset_size).size();
    benchmark::DoNotOptimize(found);
  }
  state.counters["transactions"] = static_cast<double>(db.size());
  state.counters["frequent"] = static_cast<double>(found);
}

}  // namespace

// Args: {rule-gen window minutes, min support x1000}.
BENCHMARK(BM_Apriori)
    ->Args({15, 40})
    ->Args({15, 20})
    ->Args({15, 10})
    ->Args({60, 40})
    ->Args({60, 10})
    ->Unit(benchmark::kMillisecond);

BGL_BENCH_MAIN("perf_mining")
