// Allocation gates: a steady-state RuleSet::best_match call, through
// either overload, and a steady-state Session::on_bytes on a SUBMIT frame
// (framing, CRC, decode, enqueue, reply) must not touch the heap. The
// regex hot-alloc lint sees only spelled-out allocations; this binary
// replaces the global operator new/delete with a per-thread counter, so
// it also sees copies, resizes and growth inside containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <new>
#include <utility>
#include <vector>

#include "common/binary.hpp"
#include "core/three_phase.hpp"
#include "mining/rules.hpp"
#include "predict/rule_predictor.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serve/shard_manager.hpp"
#include "simgen/generator.hpp"

namespace {
thread_local std::size_t g_allocations = 0;
}  // namespace

// The library's array forms forward to these. noinline keeps GCC from
// pairing the malloc and free inside with new and delete at inlined call
// sites (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace bglpred {
namespace {

RasLog phase1_log(double scale, std::uint64_t seed_offset) {
  RasLog log = LogGenerator(SystemProfile::dc_prophet())
                   .generate(scale, seed_offset)
                   .log;
  ThreePhasePredictor{}.run_phase1(log);
  return log;
}

TEST(RuleAllocTest, CounterSeesHeapAllocations) {
  const std::size_t before = g_allocations;
  std::vector<int> v(64);
  v.push_back(1);
  EXPECT_GE(g_allocations - before, 2u);
}

TEST(RuleAllocTest, SteadyStateBestMatchAllocatesNothing) {
  // A trained DC-Prophet model, the largest the profiles mine.
  const ThreePhaseOptions options;
  RulePredictor predictor(options.prediction, options.rule);
  predictor.train(phase1_log(0.01, 0));
  const RuleSet& rules = predictor.rules();
  ASSERT_GT(rules.reachable_size(), 64u) << "item masks must span words";

  // Every sliding window of a held-out stream, collected up front.
  const RasLog stream = phase1_log(0.002, 1);
  std::vector<Itemset> windows;
  std::deque<std::pair<TimePoint, Item>> window;
  for (const RasRecord& rec : stream.records()) {
    while (!window.empty() &&
           window.front().first <= rec.time - options.prediction.window) {
      window.pop_front();
    }
    if (rec.fatal() || rec.subcategory == kUnclassified) {
      continue;
    }
    window.emplace_back(rec.time, body_item(rec.subcategory));
    Itemset observed;
    for (const auto& entry : window) {
      observed.push_back(entry.second);
    }
    std::sort(observed.begin(), observed.end());
    observed.erase(std::unique(observed.begin(), observed.end()),
                   observed.end());
    windows.push_back(std::move(observed));
  }
  std::vector<ItemBitset> bits(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    ASSERT_TRUE(try_encode_bitset(windows[i], &bits[i]));
  }
  ASSERT_GT(windows.size(), 1000u);

  std::size_t matched = 0;
  std::size_t disagreed = 0;
  const std::size_t before = g_allocations;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const Rule* from_items = rules.best_match(windows[i]);
    const Rule* from_bits = rules.best_match(bits[i]);
    matched += from_items != nullptr;
    disagreed += from_items != from_bits;
  }
  const std::size_t allocations = g_allocations - before;
  EXPECT_EQ(allocations, 0u)
      << "over " << 2 * windows.size() << " best_match calls";
  EXPECT_EQ(disagreed, 0u);
  EXPECT_GT(matched, 0u);
}

TEST(SessionAllocTest, SteadyStateSubmitAllocatesNothing) {
  // ANL records of 8 streams in 64-record SUBMIT_BATCH frames, as
  // servebench floods them, drained every 8 frames.
  const ThreePhasePredictor tpp;
  serve::ShardOptions options;
  options.queue_capacity = 1u << 16;
  options.predictor_factory = [&tpp] {
    return tpp.make_predictor(Method::kEveryFailure);
  };
  MetricsRegistry registry;
  serve::ShardManager shards(options, registry);
  serve::Session session(shards);
  const RasLog log = LogGenerator(SystemProfile::anl()).generate(0.02, 1).log;
  constexpr std::size_t kStreams = 8;
  constexpr std::size_t kRecordsPerFrame = 64;
  // Every frame twice: a warm pass, then the counted one under fresh seqs.
  std::vector<std::string> frames;
  for (std::uint32_t pass = 0; pass < 2; ++pass) {
    for (std::size_t begin = 0; begin < log.size();
         begin += kRecordsPerFrame) {
      const std::size_t end = std::min(begin + kRecordsPerFrame, log.size());
      serve::Frame frame;
      frame.type = serve::MessageType::kSubmitBatch;
      frame.stream_id = frames.size() % kStreams;
      frame.seq = static_cast<std::uint32_t>(frames.size() + 1);
      wire::append<std::uint32_t>(frame.payload,
                                  static_cast<std::uint32_t>(end - begin));
      for (std::size_t i = begin; i < end; ++i) {
        const RasRecord& rec = log.records()[i];
        serve::encode_record(frame.payload, rec, log.text_of(rec));
      }
      frames.push_back(serve::encode_frame(frame));
    }
  }
  ASSERT_GT(frames.size(), 200u);
  const std::size_t per_pass = frames.size() / 2;

  std::string out;
  std::size_t allocations[2] = {0, 0};
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::size_t before = g_allocations;
    session.on_bytes(frames[i], out);
    allocations[i / per_pass] += g_allocations - before;
    ASSERT_GT(out.size(), 5u);
    ASSERT_EQ(static_cast<serve::MessageType>(out[5]),
              serve::MessageType::kOk)
        << "frame " << i;
    out.clear();
    if (i % kStreams == kStreams - 1) {
      shards.drain();
    }
  }
  EXPECT_GT(allocations[0], 0u) << "the counter must see the cold pass";
  EXPECT_EQ(allocations[1], 0u) << "over " << per_pass << " SUBMIT frames";
  EXPECT_EQ(shards.metrics().records_in.value(), 2 * log.size());
}

}  // namespace
}  // namespace bglpred
