// Event-loop behavior tests for the epoll serve plane (DESIGN §8.3).
// Covers the idle-wakeup regression (the loop must block indefinitely,
// not tick), pipelined submits staying byte-identical to an in-process
// engine — including under forced backpressure, where the session's
// busy latch must keep accepted records an exact prefix of each window
// — and multi-connection liveness under the round-robin service
// discipline.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/binary.hpp"
#include "core/three_phase.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/shard_manager.hpp"
#include "simgen/generator.hpp"

namespace bglpred::serve {
namespace {

std::function<PredictorPtr()> every_failure_factory(
    const ThreePhasePredictor& tpp) {
  return [&tpp] { return tpp.make_predictor(Method::kEveryFailure); };
}

ShardOptions small_shard_options(const ThreePhasePredictor& tpp) {
  ShardOptions options;
  options.shard_count = 2;
  options.queue_capacity = 256;
  options.predictor_factory = every_failure_factory(tpp);
  return options;
}

std::vector<WireRecord> stream_records(const GeneratedLog& g,
                                       std::size_t max_records) {
  std::vector<WireRecord> out;
  const auto& records = g.log.records();
  const std::size_t n = std::min(max_records, records.size());
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(WireRecord{records[i], g.log.text_of(records[i])});
  }
  return out;
}

std::string oracle_warning_bytes(const ShardOptions& options,
                                 const std::vector<WireRecord>& records) {
  OnlineEngine engine(options.predictor_factory(), options.engine);
  std::vector<Warning> warnings;
  for (const WireRecord& wr : records) {
    for (Warning& w : engine.feed(wr.record, wr.entry)) {
      warnings.push_back(std::move(w));
    }
  }
  return encode_warnings(warnings);
}

// The satellite regression test for the old 50 ms tick: an idle server
// — open connection, no traffic — must not wake at all. The loop parks
// in wait(-1); only fd readiness or notify() may rouse it.
TEST(ServeLoopTest, IdleServerDoesNotBusyWake) {
  const ThreePhasePredictor tpp;
  ServerOptions options;
  options.shards = small_shard_options(tpp);
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());
  client.stats_json();  // a full roundtrip settles accept + first reads

  const Counter& wakeups = server.metrics().counter("serve.wakeups");
  // Give any tail wakeups from the roundtrip a moment to land, then
  // demand total silence. The removed tick fired every 50 ms, so 300 ms
  // of idle would show ~6 wakeups on a regression.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t before = wakeups.value();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(wakeups.value(), before) << "idle event loop woke up";

  client.shutdown_server();
  server.stop();
  EXPECT_GT(wakeups.value(), before);  // the shutdown itself wakes it
}

// Pipelined submits (multi-frame windows, one vectored send) must be
// byte-identical to the in-process engine — same differential gate the
// blocking path passes.
TEST(ServeLoopTest, PipelinedSubmitMatchesInProcessEngine) {
  const ThreePhasePredictor tpp;
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.02);
  const auto records = stream_records(g, 400);
  ASSERT_FALSE(records.empty());

  ServerOptions options;
  options.shards = small_shard_options(tpp);
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());

  client.submit_all_pipelined(77, records, /*batch_size=*/32, /*window=*/8);
  EXPECT_EQ(encode_warnings(client.poll_warnings(77)),
            oracle_warning_bytes(options.shards, records));

  client.shutdown_server();
  server.stop();
}

// Same equivalence with the shard queue squeezed so windows reliably
// hit REJECTED_BUSY mid-flight: the busy latch must auto-reject window
// followers, or records would reach the engine out of order and the
// byte comparison (ordering-sensitive through warning timestamps/
// windows) would diverge.
TEST(ServeLoopTest, PipelinedSubmitSurvivesBackpressureExactly) {
  const ThreePhasePredictor tpp;
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.02);
  const auto records = stream_records(g, 300);
  ASSERT_GT(records.size(), 100u);

  ServerOptions options;
  options.shards = small_shard_options(tpp);
  options.shards.shard_count = 1;
  options.shards.queue_capacity = 16;  // << one window (4 * 16 records)
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());

  const std::size_t busy_rounds =
      client.submit_all_pipelined(5, records, /*batch_size=*/16,
                                  /*window=*/4);
  EXPECT_GT(busy_rounds, 0u) << "backpressure was never exercised";
  EXPECT_EQ(encode_warnings(client.poll_warnings(5)),
            oracle_warning_bytes(options.shards, records));

  const std::string stats = client.stats_json();
  EXPECT_NE(stats.find("\"serve.records_rejected\":"), std::string::npos);
  client.shutdown_server();
  server.stop();
}

// The busy latch at the session layer, pinned directly: once a window
// head hits backpressure, a flagged follower must be auto-rejected with
// accepted=0 and WITHOUT touching the shards; the next unflagged head
// reopens the gate. This is the exact-prefix guarantee submit_all_
// pipelined's resume arithmetic relies on.
TEST(SessionPipelineTest, BusyLatchRejectsFollowersUntilNextWindowHead) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  ShardOptions options = small_shard_options(tpp);
  options.shard_count = 1;
  options.queue_capacity = 2;
  ShardManager manager(options, registry);
  Session session(manager);

  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto records = stream_records(g, 2);
  ASSERT_EQ(records.size(), 2u);

  // Fill the queue so the head frame is rejected with nothing applied.
  const RasRecord filler;
  ASSERT_EQ(manager.submit(9, filler, "a"), ShardManager::Submit::kAccepted);
  ASSERT_EQ(manager.submit(9, filler, "b"), ShardManager::Submit::kAccepted);

  const auto submit_frame = [&records](std::uint32_t seq, std::uint16_t flags,
                                       std::size_t which) {
    Frame f;
    f.type = MessageType::kSubmitRecord;
    f.stream_id = 1;
    f.seq = seq;
    f.flags = flags;
    encode_record(f.payload, records[which].record, records[which].entry);
    return encode_frame(f);
  };
  const auto reply_of = [](const std::string& bytes) {
    FrameReader reader;
    reader.feed(bytes);
    Frame frame;
    FrameError error;
    EXPECT_EQ(reader.next(frame, error), FrameReader::Status::kFrame);
    return frame;
  };
  const auto accepted_of = [](const Frame& reply) {
    BytesReader in(reply.payload);
    return in.read<std::uint64_t>("accepted count");
  };

  // Window head: genuine backpressure.
  std::string out;
  session.on_bytes(submit_frame(1, 0, 0), out);
  Frame reply = reply_of(out);
  EXPECT_EQ(reply.type, MessageType::kRejectedBusy);
  EXPECT_EQ(accepted_of(reply), 0u);

  // Flagged follower: auto-rejected by the latch — the shards never see
  // it (records_rejected counts only real shard refusals, and the head
  // already accounted its own).
  const std::uint64_t rejected_before =
      manager.metrics().records_rejected.value();
  out.clear();
  session.on_bytes(submit_frame(2, kFlagPipelineFollow, 1), out);
  reply = reply_of(out);
  EXPECT_EQ(reply.type, MessageType::kRejectedBusy);
  EXPECT_EQ(accepted_of(reply), 0u);
  EXPECT_EQ(manager.metrics().records_rejected.value(), rejected_before);

  // Queue drains; the next unflagged head clears the latch and both
  // records (fresh seqs — the rejected ones advanced no watermark) go
  // through, in order.
  manager.drain();
  out.clear();
  session.on_bytes(submit_frame(3, 0, 0), out);
  EXPECT_EQ(reply_of(out).type, MessageType::kOk);
  out.clear();
  session.on_bytes(submit_frame(4, kFlagPipelineFollow, 1), out);
  EXPECT_EQ(reply_of(out).type, MessageType::kOk);
  EXPECT_EQ(manager.metrics().duplicate_frames.value(), 0u);
}

// Liveness and fairness across many simultaneous connections: every
// client (each its own stream, its own socket) must complete pipelined
// submits and polls even while its neighbors flood the loop. Exercises
// the rotating-cursor service rounds with far more connections than
// service rounds per wakeup.
TEST(ServeLoopTest, ConcurrentClientsAllMakeProgress) {
  const ThreePhasePredictor tpp;
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.02);
  const auto records = stream_records(g, 120);
  ASSERT_FALSE(records.empty());

  ServerOptions options;
  options.shards = small_shard_options(tpp);
  Server server(options);
  server.start();
  const std::string expected =
      oracle_warning_bytes(options.shards, records);

  constexpr std::size_t kClients = 12;
  std::vector<std::string> served(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = Client::connect(server.port());
      client.submit_all_pipelined(c + 1, records, /*batch_size=*/16,
                                  /*window=*/4);
      served[c] = encode_warnings(client.poll_warnings(c + 1));
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(served[c], expected) << "client " << c;
  }

  // All client sockets are closed: the reaper must release every
  // connection (EOF/RDHUP path) without an explicit shutdown frame.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.metrics().gauge("serve.connections").value() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.metrics().gauge("serve.connections").value(), 0);
  server.stop();
}

}  // namespace
}  // namespace bglpred::serve
