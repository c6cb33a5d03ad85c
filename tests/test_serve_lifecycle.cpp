// Connection-lifecycle and overload-protection tests for the serve
// plane (DESIGN §8.5). Each test arms exactly the limit it exercises
// and asserts two things: the misbehaving connection is dealt with
// (typed refusal, eviction, or timeout — and the matching serve.*
// counter fires), and well-behaved traffic keeps flowing. Also covers
// graceful drain (including the force-close deadline), the
// STREAM_STATUS reconnect watermark, submit_all_resilient surviving a
// mid-stream eviction, and the EINTR-vs-deadline regression in
// EventPoller::wait.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <pthread.h>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/three_phase.hpp"
#include "raslog/record.hpp"
#include "serve/client.hpp"
#include "serve/event_poller.hpp"
#include "serve/net_util.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace bglpred::serve {
namespace {

ServerOptions base_options(const ThreePhasePredictor& tpp) {
  ServerOptions options;
  options.shards.shard_count = 1;
  options.shards.queue_capacity = 256;
  options.shards.predictor_factory = [&tpp] {
    return tpp.make_predictor(Method::kEveryFailure);
  };
  return options;
}

std::vector<WireRecord> synthetic_records(std::size_t n) {
  std::vector<WireRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    RasRecord rec;
    rec.time = static_cast<TimePoint>(i + 1);
    rec.severity = Severity::kInfo;
    out.push_back(WireRecord{rec, "lifecycle test entry"});
  }
  return out;
}

std::string encoded_stats_request(std::uint32_t seq) {
  Frame f;
  f.type = MessageType::kStats;
  f.seq = seq;
  return encode_frame(f);
}

/// Polls `pred` every few milliseconds until it holds or `timeout_ms`
/// elapses; returns the final value.
bool wait_until(const std::function<bool()>& pred, std::uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Reads frames off a raw connection until EOF or the io timeout;
/// returns true if a kRejectedOverloaded frame was seen, setting
/// `saw_eof` when the server closed the connection.
bool drain_for_rejection(const OwnedFd& fd, bool& saw_eof) {
  FrameReader reader;
  std::string chunk;
  bool rejected = false;
  try {
    for (;;) {
      chunk.clear();
      const std::size_t n = recv_some(fd, chunk);
      if (n == 0) {
        saw_eof = true;
        break;
      }
      if (n == SIZE_MAX) {
        break;
      }
      reader.feed(chunk);
      Frame frame;
      FrameError error;
      while (reader.next(frame, error) == FrameReader::Status::kFrame) {
        if (frame.type == MessageType::kRejectedOverloaded) {
          rejected = true;
        }
      }
    }
  } catch (const Error&) {
    saw_eof = true;  // reset counts as a close
  }
  return rejected;
}

// Admission control: with the ceiling at one connection, a second
// arrival is accepted, told kRejectedOverloaded, and closed — while the
// admitted client keeps full service. Also pins the startup fd-limit
// gauge the centralized raise_fd_limit() publishes.
TEST(ServeLifecycleTest, AcceptShedOverConnectionCeiling) {
  const ThreePhasePredictor tpp;
  ServerOptions options = base_options(tpp);
  options.limits.max_connections = 1;
  Server server(options);
  server.start();
  EXPECT_GT(server.metrics().gauge("serve.fd_limit").value(), 0u);

  Client keeper = Client::connect(server.port());
  ASSERT_FALSE(keeper.stats_json().empty());  // admitted and served

  OwnedFd extra = connect_loopback(server.port(), /*connect_timeout=*/0);
  set_io_timeouts(extra, 2'000'000, 2'000'000);
  bool saw_eof = false;
  EXPECT_TRUE(drain_for_rejection(extra, saw_eof))
      << "shed connection never saw the typed refusal";
  EXPECT_TRUE(saw_eof) << "shed connection was not closed";
  EXPECT_EQ(server.metrics().counter("serve.accepts_shed").value(), 1u);

  // The admitted connection is unaffected.
  EXPECT_FALSE(keeper.stats_json().empty());
  keeper.shutdown_server();
  server.stop();
}

// Idle supervision keys on COMPLETED frames: a slowloris dribbling one
// byte at a time never completes one, so its byte activity must not
// refresh the deadline.
TEST(ServeLifecycleTest, SlowlorisDribbleIdlesOut) {
  const ThreePhasePredictor tpp;
  ServerOptions options = base_options(tpp);
  options.limits.idle_timeout_micros = 100'000;
  Server server(options);
  server.start();
  const Counter& idle = server.metrics().counter("serve.idle_timeouts");

  OwnedFd conn = connect_loopback(server.port());
  set_io_timeouts(conn, 50'000, 50'000);
  const std::string wire = encoded_stats_request(1);
  std::size_t off = 0;
  const bool evicted = wait_until(
      [&] {
        if (off + 1 < wire.size()) {  // never finish the frame
          try {
            send_all(conn, std::string_view(wire.data() + off, 1));
            ++off;
          } catch (const Error&) {
            // server already closed its end
          }
        }
        return idle.value() >= 1;
      },
      2000);
  EXPECT_TRUE(evicted) << "dribbling connection never idled out";

  server.drain();
  server.stop();
}

// A reader that floods requests and consumes no replies grows its
// outbox past the per-connection cap and is evicted at enqueue time.
TEST(ServeLifecycleTest, SlowReaderEvictedAtOutboxCap) {
  const ThreePhasePredictor tpp;
  ServerOptions options = base_options(tpp);
  options.limits.max_connection_outbox_bytes = 4096;
  options.limits.sndbuf_bytes = 4096;
  Server server(options);
  server.start();
  const Counter& evicted =
      server.metrics().counter("serve.slow_readers_evicted");

  OwnedFd conn = connect_loopback(server.port(), /*connect_timeout=*/0,
                                  /*rcvbuf_bytes=*/4096);
  set_io_timeouts(conn, 50'000, 2'000'000);
  std::uint32_t seq = 1;
  for (std::size_t i = 0; i < 64; ++i) {
    try {
      send_all(conn, encoded_stats_request(seq++));
    } catch (const Error&) {
      break;  // eviction raced the flood — that's the point
    }
  }
  EXPECT_TRUE(wait_until([&] { return evicted.value() >= 1; }, 2000))
      << "slow reader was never evicted";

  server.drain();
  server.stop();
}

// A connection whose buffered replies make no flush progress (stalled
// reader, shrunk windows) trips the write-stall timeout.
TEST(ServeLifecycleTest, WriteStallTimeoutEvictsStalledReader) {
  const ThreePhasePredictor tpp;
  ServerOptions options = base_options(tpp);
  options.limits.write_stall_timeout_micros = 100'000;
  options.limits.sndbuf_bytes = 4096;
  Server server(options);
  server.start();
  const Counter& stalled =
      server.metrics().counter("serve.write_stall_timeouts");

  OwnedFd conn = connect_loopback(server.port(), /*connect_timeout=*/0,
                                  /*rcvbuf_bytes=*/4096);
  set_io_timeouts(conn, 50'000, 2'000'000);
  // Enough replies that the kernel buffers (server sndbuf + our rcvbuf)
  // cannot absorb them all; the stuck remainder arms the stall timer.
  std::uint32_t seq = 1;
  for (std::size_t i = 0; i < 128; ++i) {
    send_all(conn, encoded_stats_request(seq++));
  }
  EXPECT_TRUE(wait_until([&] { return stalled.value() >= 1; }, 2000))
      << "stalled reader never hit the write-stall timeout";

  server.drain();
  server.stop();
}

// The per-connection inbound budget: the frame over budget is refused
// with kRejectedOverloaded (accepted=0, watermark untouched), and once
// the window rolls the same client is served again — budget rejection
// is backpressure, not a ban.
TEST(ServeLifecycleTest, BudgetRejectionRecoversNextWindow) {
  const ThreePhasePredictor tpp;
  ServerOptions options = base_options(tpp);
  options.limits.session.max_submit_frames_per_window = 2;
  options.limits.session.window_micros = 200'000;
  Server server(options);
  server.start();

  Client client = Client::connect(server.port());
  const std::vector<WireRecord> batch = synthetic_records(4);
  const SubmitResult first = client.submit_batch(5, batch);
  EXPECT_EQ(first.accepted, batch.size());
  const SubmitResult second = client.submit_batch(5, batch);
  EXPECT_EQ(second.accepted, batch.size());
  const SubmitResult third = client.submit_batch(5, batch);
  EXPECT_TRUE(third.overloaded);
  EXPECT_TRUE(third.busy);
  EXPECT_EQ(third.accepted, 0u);
  EXPECT_GE(server.metrics().counter("serve.budget_rejected").value(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  const SubmitResult retry = client.submit_batch(5, batch);
  EXPECT_EQ(retry.accepted, batch.size());
  EXPECT_EQ(client.stream_accepted(5), 3 * batch.size());

  client.shutdown_server();
  server.stop();
}

// Graceful drain: connections close once their replies flush, the loop
// exits with the last reap, and nothing needed the force-close hammer.
TEST(ServeLifecycleTest, DrainClosesIdleConnectionsGracefully) {
  const ThreePhasePredictor tpp;
  ServerOptions options = base_options(tpp);
  Server server(options);
  server.start();

  OwnedFd conn = connect_loopback(server.port());
  set_io_timeouts(conn, 2'000'000, 2'000'000);
  send_all(conn, encoded_stats_request(1));
  std::string reply;
  ASSERT_NE(recv_some(conn, reply), SIZE_MAX);  // registered and served

  server.drain();
  bool saw_eof = false;
  drain_for_rejection(conn, saw_eof);
  EXPECT_TRUE(saw_eof) << "drain never closed the idle connection";
  EXPECT_TRUE(wait_until([&] { return !server.running(); }, 3000))
      << "loop did not exit after the last connection drained";
  EXPECT_EQ(server.metrics().counter("serve.drain_forced_closes").value(),
            0u);
  server.stop();
}

// A connection that cannot flush (stalled reader, replies stuck) is
// force-closed at the drain deadline rather than holding the server
// open forever.
TEST(ServeLifecycleTest, DrainDeadlineForceClosesStuckConnection) {
  const ThreePhasePredictor tpp;
  ServerOptions options = base_options(tpp);
  options.limits.drain_deadline_micros = 150'000;
  options.limits.sndbuf_bytes = 4096;
  Server server(options);
  server.start();

  OwnedFd conn = connect_loopback(server.port(), /*connect_timeout=*/0,
                                  /*rcvbuf_bytes=*/4096);
  set_io_timeouts(conn, 50'000, 2'000'000);
  std::uint32_t seq = 1;
  for (std::size_t i = 0; i < 128; ++i) {
    send_all(conn, encoded_stats_request(seq++));  // replies get stuck
  }
  server.drain();
  EXPECT_TRUE(wait_until(
      [&] {
        return server.metrics()
                       .counter("serve.drain_forced_closes")
                       .value() >= 1 &&
               !server.running();
      },
      3000))
      << "drain deadline never force-closed the stuck connection";
  server.stop();
}

// STREAM_STATUS is the reconnect watermark: it reports the lifetime
// accepted count per stream, and zero for streams never seen.
TEST(ServeLifecycleTest, StreamStatusReportsLifetimeAccepted) {
  const ThreePhasePredictor tpp;
  Server server(base_options(tpp));
  server.start();

  Client client = Client::connect(server.port());
  const std::vector<WireRecord> records = synthetic_records(10);
  client.submit_all(7, records);
  EXPECT_EQ(client.stream_accepted(7), records.size());
  EXPECT_EQ(client.stream_accepted(8), 0u);
  client.submit_all(7, synthetic_records(5));
  EXPECT_EQ(client.stream_accepted(7), records.size() + 5);

  client.shutdown_server();
  server.stop();
}

// submit_all_resilient against a server that evicts its connection
// mid-stream (tight idle timeout + a deliberate stall between rounds):
// it must reconnect, resume from the watermark, and land every record
// exactly once.
TEST(ServeLifecycleTest, ResilientSubmitSurvivesMidStreamEviction) {
  const ThreePhasePredictor tpp;
  ServerOptions options = base_options(tpp);
  options.limits.idle_timeout_micros = 50'000;
  Server server(options);
  server.start();

  const std::vector<WireRecord> records = synthetic_records(600);
  ResilientOptions ropts;
  ropts.batch_size = 32;
  ropts.window = 2;
  ropts.max_attempts = 10;
  ropts.initial_backoff_micros = 5'000;
  ropts.max_backoff_micros = 50'000;
  ropts.connect_timeout_micros = 2'000'000;
  ropts.io_timeout_micros = 2'000'000;
  std::atomic<int> calls{0};
  ropts.on_progress = [&calls](std::uint64_t) {
    if (calls.fetch_add(1) == 0) {
      // on_progress fires right after a connection establishes, before
      // the remainder submits: outliving the idle timeout here means the
      // server evicts the brand-new connection, so the submit that
      // follows dies mid-stream and must take the reconnect path.
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
  };
  const ResilientStats stats =
      submit_all_resilient(server.port(), 3, records, ropts);
  EXPECT_GE(stats.reconnects, 1u) << "eviction never forced a reconnect";

  Client verifier = Client::connect(server.port());
  EXPECT_EQ(verifier.stream_accepted(3), records.size())
      << "records were dropped or double-fed across the reconnect";
  verifier.shutdown_server();
  server.stop();
}

std::atomic<int> g_sigusr1_count{0};

void count_sigusr1(int) { g_sigusr1_count.fetch_add(1); }

// The EINTR-vs-deadline regression (net_util satellite): a finite
// EventPoller::wait interrupted by signals must re-wait with the
// REMAINING time, not restart the full timeout. With a signal arriving
// every 30 ms, a restart-from-scratch implementation never times out;
// the fixed one returns on schedule.
TEST(ServeLifecycleTest, FiniteWaitTimesOutDespiteSignalStorm) {
  struct sigaction action {};
  action.sa_handler = count_sigusr1;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: the syscall must see EINTR
  struct sigaction previous {};
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);
  g_sigusr1_count.store(0);

  EventPoller poller;
  const pthread_t waiter = pthread_self();
  std::atomic<bool> stop{false};
  std::thread pinger([&stop, waiter] {
    // Self-bounded so a regression shows up as a failed assertion, not
    // a hung test.
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(5);
    while (!stop.load() && std::chrono::steady_clock::now() < give_up) {
      pthread_kill(waiter, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });

  std::vector<ReadyEvent> events;
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = poller.wait(300, events);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  stop.store(true);
  pinger.join();
  sigaction(SIGUSR1, &previous, nullptr);

  EXPECT_EQ(n, 0u);
  EXPECT_GE(g_sigusr1_count.load(), 1) << "no signal landed; test is vacuous";
  EXPECT_GE(elapsed_ms, 250) << "wait returned before its deadline";
  EXPECT_LT(elapsed_ms, 900) << "wait restarted its timeout on EINTR";
}

}  // namespace
}  // namespace bglpred::serve
