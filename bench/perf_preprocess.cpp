// google-benchmark: Phase-1 throughput — categorization plus temporal and
// spatial compression, in records/second. This is the path that must keep
// up with CMCS's sub-millisecond logging for online deployment.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "bench_json.hpp"
#include "preprocess/pipeline.hpp"
#include "simgen/generator.hpp"

using namespace bglpred;
using namespace bglpred::bench;

namespace {

void BM_Phase1Pipeline(benchmark::State& state) {
  const double scale = static_cast<double>(state.range(0)) / 100.0;
  // Generate once outside the loop; preprocess mutates, so copy per
  // iteration through subset().
  const GeneratedLog generated =  // repo-lint: allow(simgen-materialize)
      LogGenerator(SystemProfile::anl()).generate(scale);
  std::size_t unique = 0;
  for (auto _ : state) {
    state.PauseTiming();
    RasLog copy = generated.log.subset(generated.log.records());
    state.ResumeTiming();
    const PreprocessStats stats = preprocess(copy);
    unique = stats.unique_events;
    benchmark::DoNotOptimize(unique);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(generated.log.size()));
  state.counters["raw_records"] =
      static_cast<double>(generated.log.size());
  state.counters["unique"] = static_cast<double>(unique);
}

void BM_Phase1OperatorOnly(benchmark::State& state) {
  const GeneratedLog generated =  // repo-lint: allow(simgen-materialize)
      LogGenerator(SystemProfile::anl()).generate(0.1);
  // Pre-classify once; the Phase-1 operator is the measured piece.
  RasLog classified = generated.log.subset(generated.log.records());
  const EventClassifier classifier;
  classified.sort_by_time();
  classifier.classify_all(classified);
  std::size_t kept = 0;
  for (auto _ : state) {
    Phase1Compressor phase1;
    kept = 0;
    for (const RasRecord& rec : classified.records()) {
      kept += phase1.push(rec, classified.text_of(rec)) ==
              Phase1Verdict::kKept;
    }
    benchmark::DoNotOptimize(kept);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(classified.size()));
  state.counters["unique"] = static_cast<double>(kept);
}

}  // namespace

// Range arg: generation scale x100 (2 -> 0.02 of the 15-month log).
BENCHMARK(BM_Phase1Pipeline)->Arg(2)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Phase1OperatorOnly)->Unit(benchmark::kMillisecond);

BGL_BENCH_MAIN("perf_preprocess")
