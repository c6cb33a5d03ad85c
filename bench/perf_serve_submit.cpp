// Served SUBMIT path microbenchmarks (EXPERIMENTS.md X19).
//
//   $ ./perf_serve_submit           # emits BENCH_perf_serve_submit.json
//   $ ./perf_serve_submit --smoke   # CI gate, then every row briefly
//
// BM_Crc32/{bytewise,slicing,folded}: the two frame CRC kernels
// (common/crc32.hpp) against the bytewise oracle (tests/crc32_oracle.hpp),
// on 64 KiB buffers; the folded row reports an error on a CPU without
// PCLMULQDQ.
// BM_ServeSubmit: pre-encoded SUBMIT_BATCH frames of 8 ANL installations,
// 64 records each as servebench sends them, through Session::on_bytes and
// ShardManager::drain (once per 256 KiB of frames, the server's cadence)
// into engines running the trained meta-learner. The model is trained
// once and each pass's 8 predictors are loaded before its timing starts.
//
// --smoke gates same-process ratios, not a committed baseline, all timed
// here on the same buffers: the slicing kernel must checksum at least 3x
// as fast as the bytewise loop, and where the CPU runs the folded kernel
// it must be at least 4x the slicing kernel. It prints which kernel
// crc32() selected, and a served pass must accept every record with no
// error reply.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_json.hpp"
#include "common/binary.hpp"
#include "common/crc32.hpp"
#include "core/three_phase.hpp"
#include "crc32_oracle.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/shard_manager.hpp"
#include "simgen/stream.hpp"

namespace {

using namespace bglpred;

constexpr std::size_t kCrcBytes = 64 * 1024;
constexpr std::size_t kInstallations = 8;
constexpr std::size_t kRecordsPerFrame = 64;
constexpr std::size_t kDrainBytes = 256 * 1024;
constexpr double kMinSlicingSpeedup = 3.0;
constexpr double kMinFoldedSpeedup = 4.0;

const std::string& crc_buffer() {
  static const std::string bytes = [] {
    std::string out(kCrcBytes, '\0');
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (char& c : out) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      c = static_cast<char>(x >> 56);
    }
    return out;
  }();
  return bytes;
}

using Crc32Kernel = std::uint32_t (*)(std::string_view, std::uint32_t);

struct NamedKernel {
  const char* name;
  Crc32Kernel kernel;
};

/// BM_Crc32's rows, by state.range(0); 0 and 1 keep their earlier names.
const NamedKernel kKernels[] = {
    {"bytewise oracle", &oracle::crc32_bytewise},
    {"slicing-by-8", &crc32_slicing},
    {"folded", &crc32_folded},
};

void BM_Crc32(benchmark::State& state) {
  const NamedKernel& k = kKernels[state.range(0)];
  if (k.kernel == &crc32_folded && !crc32_folded_supported()) {
    state.SkipWithError("this CPU lacks PCLMULQDQ and SSE4.1");
    return;
  }
  const std::string& bytes = crc_buffer();
  std::uint32_t crc = 0;
  for (auto _ : state) {
    crc = k.kernel(bytes, crc);
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
  state.SetLabel(k.name);
}

RasLog streamed(double scale, std::uint64_t seed_offset) {
  StreamConfig config;
  config.scale = scale;
  config.seed_offset = seed_offset;
  StreamRecordSource source(SystemProfile::anl(), config);
  RasLog log;
  RasLog batch;
  while (source.next_batch(batch)) {
    for (const RasRecord& rec : batch.records()) {
      log.append_with_text(rec, batch.text_of(rec));
    }
  }
  return log;
}

/// The trained model and one pass of encoded frames, built once.
struct Workload {
  std::string model;
  std::vector<std::string> frames;
  std::size_t records = 0;
};

const Workload& workload() {
  static const Workload w = [] {
    Workload out;
    const ThreePhasePredictor tpp;
    RasLog history = streamed(0.05, 0);
    tpp.run_phase1(history);
    PredictorPtr meta = tpp.make_predictor(Method::kMeta);
    meta->train(history);
    std::ostringstream os;
    meta->save_state(os);
    out.model = os.str();
    std::vector<RasLog> installations;
    for (std::size_t i = 0; i < kInstallations; ++i) {
      installations.push_back(streamed(0.01, i + 1));
    }
    std::vector<std::size_t> next(kInstallations, 0);
    for (bool any = true; any;) {
      any = false;
      for (std::size_t i = 0; i < kInstallations; ++i) {
        const RasLog& log = installations[i];
        const std::size_t n =
            std::min(kRecordsPerFrame, log.size() - next[i]);
        if (n == 0) {
          continue;
        }
        any = true;
        serve::Frame frame;
        frame.type = serve::MessageType::kSubmitBatch;
        frame.stream_id = i + 1;
        frame.seq = static_cast<std::uint32_t>(out.frames.size() + 1);
        wire::append<std::uint32_t>(frame.payload,
                                    static_cast<std::uint32_t>(n));
        for (std::size_t k = next[i]; k < next[i] + n; ++k) {
          const RasRecord& rec = log.records()[k];
          serve::encode_record(frame.payload, rec, log.text_of(rec));
        }
        out.frames.push_back(serve::encode_frame(frame));
        next[i] += n;
        out.records += n;
      }
    }
    return out;
  }();
  return w;
}

std::vector<PredictorPtr> load_predictors(const Workload& w) {
  const ThreePhasePredictor tpp;
  std::vector<PredictorPtr> out;
  for (std::size_t i = 0; i < kInstallations; ++i) {
    PredictorPtr predictor = tpp.make_predictor(Method::kMeta);
    std::istringstream is(w.model);
    predictor->load_state(is);
    out.push_back(std::move(predictor));
  }
  return out;
}

/// One pass of every frame through a fresh session and shard set whose
/// factory hands out `loaded`. Returns the records accepted; counts
/// replies other than kOk into `bad_replies`.
std::size_t serve_pass(const Workload& w, std::vector<PredictorPtr>& loaded,
                       std::size_t& bad_replies) {
  serve::ShardOptions options;
  options.queue_capacity = 1u << 16;
  options.predictor_factory = [&loaded] {
    PredictorPtr predictor = std::move(loaded.back());
    loaded.pop_back();
    return predictor;
  };
  MetricsRegistry registry;
  serve::ShardManager shards(options, registry);
  serve::Session session(shards);
  std::string out;
  std::size_t undrained = 0;
  for (const std::string& frame : w.frames) {
    session.on_bytes(frame, out);
    bad_replies += static_cast<serve::MessageType>(out[5]) !=
                   serve::MessageType::kOk;
    out.clear();
    undrained += frame.size();
    if (undrained >= kDrainBytes) {
      shards.drain();
      undrained = 0;
    }
  }
  shards.drain();
  return shards.metrics().records_in.value();
}

void BM_ServeSubmit(benchmark::State& state) {
  const Workload& w = workload();
  std::size_t bad_replies = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<PredictorPtr> loaded = load_predictors(w);
    state.ResumeTiming();
    benchmark::DoNotOptimize(serve_pass(w, loaded, bad_replies));
  }
  if (bad_replies != 0) {
    state.SkipWithError("a SUBMIT was not answered kOk");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.records));
  state.counters["frames"] = static_cast<double>(w.frames.size());
}

/// Fastest of `reps` timings of 64 checksums of the 64 KiB buffer, in s.
double min_seconds(int reps, Crc32Kernel kernel) {
  double best = 1e30;
  std::uint32_t crc = 0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    for (int k = 0; k < 64; ++k) {
      crc = kernel(crc_buffer(), crc);
    }
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, took.count());
  }
  benchmark::DoNotOptimize(crc);
  return best;
}

/// 0 when `fast` checksums at least `floor` times as fast as `slow`.
int gate(const char* fast_name, double fast, const char* slow_name,
         double slow, double floor) {
  const double speedup = slow / fast;
  std::printf("smoke: crc32 over 64 x 64 KiB: %s %.3f ms, %s %.3f ms, "
              "speedup %.2fx\n",
              fast_name, fast * 1e3, slow_name, slow * 1e3, speedup);
  if (speedup < floor) {
    std::fprintf(stderr, "smoke: %s speedup %.2fx below the %.1fx gate\n",
                 fast_name, speedup, floor);
    return 1;
  }
  return 0;
}

int run_smoke() {
  const bool folded = crc32_folded_supported();
  std::printf("smoke: crc32 selected the %s kernel\n",
              folded ? "folded (PCLMULQDQ)" : "slicing-by-8");
  const std::uint32_t want = oracle::crc32_bytewise(crc_buffer());
  if (crc32(crc_buffer()) != want || crc32_slicing(crc_buffer()) != want ||
      (folded && crc32_folded(crc_buffer()) != want)) {
    std::fprintf(stderr, "smoke: the kernels disagree\n");
    return 1;
  }
  const double slicing = min_seconds(15, &crc32_slicing);
  const double bytewise = min_seconds(15, &oracle::crc32_bytewise);
  if (gate("slicing-by-8", slicing, "bytewise", bytewise,
           kMinSlicingSpeedup) != 0) {
    return 1;
  }
  if (folded && gate("folded", min_seconds(15, &crc32_folded),
                     "slicing-by-8", slicing, kMinFoldedSpeedup) != 0) {
    return 1;
  }
  const Workload& w = workload();
  std::vector<PredictorPtr> loaded = load_predictors(w);
  std::size_t bad_replies = 0;
  const std::size_t accepted = serve_pass(w, loaded, bad_replies);
  std::printf("smoke: served %zu of %zu records in %zu frames\n", accepted,
              w.records, w.frames.size());
  if (accepted != w.records || bad_replies != 0) {
    std::fprintf(stderr, "smoke: %zu bad replies\n", bad_replies);
    return 1;
  }
  return 0;
}

}  // namespace

BENCHMARK(BM_Crc32)->DenseRange(0, 2)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServeSubmit)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  std::vector<char*> args;
  static char min_time[] = "--benchmark_min_time=0.01";
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (smoke) {
    const int rc = run_smoke();
    if (rc != 0) {
      return rc;
    }
    args.push_back(min_time);
  }
  return bglpred::bench::run_benchmark_driver(
      "perf_serve_submit", static_cast<int>(args.size()), args.data());
}
