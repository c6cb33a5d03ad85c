// Unit tests for EventPoller, the serve loop's one readiness backend
// (DESIGN §8.3), on AF_UNIX socketpairs without a Server. Each case pins
// one piece of the edge-triggered contract the event loop is written
// against: a burst of ready fds is reported once per fd, and a full
// wakeup doubles the kernel batch; EPOLL_CTL_MOD re-arms write
// readiness on an already-writable fd (the outbox flush relies on it);
// an undrained fd is not reported again until new bytes arrive (the
// loop's sticky read_ready flags rely on it); and notify() wakes a
// blocked wait from another thread.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <cstddef>
#include <map>
#include <thread>
#include <vector>

#include "serve/event_poller.hpp"
#include "serve/net_util.hpp"

namespace bglpred::serve {
namespace {

struct SocketPair {
  OwnedFd watched;  ///< registered with the poller
  OwnedFd peer;     ///< written to, to make `watched` readable
};

SocketPair make_pair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketPair p{OwnedFd(fds[0]), OwnedFd(fds[1])};
  set_nonblocking(p.watched);
  return p;
}

/// Readable reports per fd over consecutive wait(0) calls, until one
/// returns nothing (bounded, so a poller that keeps reporting fails
/// instead of spinning).
std::map<int, int> readable_reports(EventPoller& poller,
                                    std::vector<std::size_t>& batch_sizes) {
  std::map<int, int> reports;
  std::vector<ReadyEvent> events;
  for (int round = 0; round < 16; ++round) {
    const std::size_t n = poller.wait(0, events);
    if (n == 0) {
      break;
    }
    batch_sizes.push_back(n);
    for (const ReadyEvent& ev : events) {
      EXPECT_TRUE(ev.readable) << "fd " << ev.fd;
      ++reports[ev.fd];
    }
  }
  return reports;
}

TEST(EventPollerTest, BurstIsReportedOnceAndAFullBatchDoublesTheNext) {
  // More fds than the initial 256-event kernel batch.
  constexpr std::size_t kFds = 300;
  EventPoller poller;
  std::vector<SocketPair> pairs;
  for (std::size_t i = 0; i < kFds; ++i) {
    pairs.push_back(make_pair());
    poller.add(pairs.back().watched.get(), /*want_write=*/false);
  }
  const auto burst = [&pairs] {
    for (const SocketPair& p : pairs) {
      send_all(p.peer, "x");
    }
  };

  burst();
  std::vector<std::size_t> first_batches;
  const std::map<int, int> first = readable_reports(poller, first_batches);
  EXPECT_EQ(first.size(), kFds);
  for (const auto& [fd, count] : first) {
    EXPECT_EQ(count, 1) << "fd " << fd << " reported " << count << " times";
  }
  ASSERT_GE(first_batches.size(), 2u)
      << "the first burst fit one batch; the doubling is not exercised";

  char buf[8];
  for (const SocketPair& p : pairs) {
    ASSERT_EQ(recv_into(p.watched, buf, sizeof(buf)), 1u);
  }

  // The full-batch wakeup above grew the kernel batch past kFds, so the
  // same burst now comes back in one wait.
  burst();
  std::vector<std::size_t> second_batches;
  const std::map<int, int> second = readable_reports(poller, second_batches);
  EXPECT_EQ(second.size(), kFds);
  ASSERT_EQ(second_batches.size(), 1u);
  EXPECT_EQ(second_batches[0], kFds);
}

TEST(EventPollerTest, ArmingWriteInterestOnAWritableFdReportsItOnNextWait) {
  EventPoller poller;
  const SocketPair p = make_pair();
  const int fd = p.watched.get();
  poller.add(fd, /*want_write=*/false);
  std::vector<ReadyEvent> events;
  EXPECT_EQ(poller.wait(0, events), 0u) << "writable but never asked for";

  // The socket was writable all along; no transition happens, so only
  // the MOD re-arm can make the next wait report it.
  poller.set_want_write(fd, true);
  ASSERT_EQ(poller.wait(0, events), 1u);
  EXPECT_EQ(events[0].fd, fd);
  EXPECT_TRUE(events[0].writable);
  EXPECT_FALSE(events[0].readable);
  EXPECT_EQ(poller.wait(0, events), 0u) << "an edge was reported twice";

  // Off, then on again: reported again, as a flush that re-arms after a
  // partial write needs.
  poller.set_want_write(fd, false);
  EXPECT_EQ(poller.wait(0, events), 0u);
  poller.set_want_write(fd, true);
  ASSERT_EQ(poller.wait(0, events), 1u);
  EXPECT_TRUE(events[0].writable);
}

TEST(EventPollerTest, UndrainedReadableFdIsNotReportedAgainUntilNewBytes) {
  EventPoller poller;
  const SocketPair p = make_pair();
  const int fd = p.watched.get();
  poller.add(fd, /*want_write=*/false);
  std::vector<ReadyEvent> events;

  send_all(p.peer, "abc");
  ASSERT_EQ(poller.wait(0, events), 1u);
  EXPECT_EQ(events[0].fd, fd);
  EXPECT_TRUE(events[0].readable);
  // Left undrained: three bytes still queued, yet no new edge.
  EXPECT_EQ(poller.wait(0, events), 0u);
  EXPECT_EQ(poller.wait(0, events), 0u);

  send_all(p.peer, "d");
  ASSERT_EQ(poller.wait(0, events), 1u);
  EXPECT_EQ(events[0].fd, fd);
  EXPECT_TRUE(events[0].readable);
}

TEST(EventPollerTest, NotifyFromAnotherThreadWakesABlockedWait) {
  EventPoller poller;
  std::thread notifier([&poller] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    poller.notify();
  });
  std::vector<ReadyEvent> events;
  const auto start = std::chrono::steady_clock::now();
  // Finite, so a notify() that wakes nothing fails below after 5 s
  // instead of hanging the suite.
  const std::size_t n = poller.wait(5000, events);
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  notifier.join();

  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(events.empty());
  EXPECT_LT(elapsed_ms, 2500) << "notify() did not wake the wait";
}

}  // namespace
}  // namespace bglpred::serve
