// Event-driven loopback TCP server for the prediction service
// (DESIGN §8.3).
//
// Single-threaded event loop over an edge-triggered epoll EventPoller.
// Wakeups are O(ready): the loop blocks indefinitely when no connection
// has pending bytes or queued output (no polling tick; `serve.wakeups`
// counts every wait() return, and a regression test pins the idle count
// to zero). Reads drain each ready connection to EAGAIN, round-robin one
// recv per connection per round so a hot stream cannot starve the rest;
// responses coalesce into per-connection chunked outboxes flushed with
// one vectored write per wakeup, EPOLLOUT armed only while an outbox is
// non-empty. Shard work happens inside the loop thread via
// ShardManager::drain() — once per wakeup, so submits arriving together
// batch through the shards — optionally fanned out on the manager's
// worker pool. With worker_threads=0 the whole service is exactly one
// thread and nothing busy-waits: deliberately sized for 1-CPU CI.
//
// start() runs the loop on a background thread (tests, examples, and
// the load generator drive clients from the foreground); stop() wakes
// the loop via the poller's notify door and joins. A SHUTDOWN frame —
// or drain() from any thread — starts a graceful drain: accepts shed,
// replies flush, connections close as they empty, stragglers are
// force-closed at the drain deadline, and the loop exits with the last
// reap. Overload protection (admission control, slow-reader eviction,
// idle/write-stall supervision, per-connection inbound budgets) is
// configured through ServerOptions::limits; every bound defaults off.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "common/metrics.hpp"
#include "serve/event_poller.hpp"
#include "serve/session.hpp"
#include "serve/shard_manager.hpp"

namespace bglpred::serve {

/// Overload-protection and lifecycle limits (DESIGN §8.5). Every bound
/// defaults OFF (0) except the drain deadline, so a default server
/// behaves exactly as before — in particular, with no timeouts armed an
/// idle server still parks in wait(-1) and wakes zero times
/// (IdleServerDoesNotBusyWake). Production configs and the chaos
/// harness turn the bounds on explicitly.
struct ServerLimits {
  /// Connection ceiling: further accepts are shed (typed
  /// kRejectedOverloaded reply, then close). 0 derives the ceiling from
  /// the fd limit raised at startup, minus headroom.
  std::size_t max_connections = 0;
  /// Memory ceiling across every connection's buffered replies: while
  /// the total outbox footprint is at or above this, new accepts are
  /// shed. 0 = unbounded.
  std::size_t max_total_outbox_bytes = 0;
  /// Per-connection outbox cap: a connection whose buffered replies
  /// exceed this is a slow reader and is evicted (closed, buffer
  /// dropped). 0 = unbounded.
  std::size_t max_connection_outbox_bytes = 0;
  /// Close a connection that completes no frame for this long (the
  /// accept counts as activity once). Partial bytes do NOT refresh the
  /// deadline — a slowloris dribbler idles out despite sending. 0 =
  /// never.
  std::uint64_t idle_timeout_micros = 0;
  /// Close a connection whose outbox flush makes no progress for this
  /// long (stalled reader with data in flight). 0 = never.
  std::uint64_t write_stall_timeout_micros = 0;
  /// Graceful-drain budget: once drain() or SHUTDOWN starts a drain,
  /// connections still open after this long are force-closed.
  std::uint64_t drain_deadline_micros = 5'000'000;
  /// SO_SNDBUF for accepted sockets; 0 keeps the kernel's autotuned
  /// default. Tests shrink it so stalled-reader scenarios trip the caps
  /// deterministically instead of vanishing into kernel buffering.
  int sndbuf_bytes = 0;
  /// Per-connection inbound budget, enforced by the session layer.
  SessionLimits session;
};

struct ServerOptions {
  /// 0 picks an ephemeral loopback port; read it back via port().
  std::uint16_t port = 0;
  /// Read by nothing: epoll is the only readiness backend. The field
  /// stays only because servebench/served_path.cpp still assigns it; a
  /// later change to that benchmark can delete the assignment, then this
  /// field and PollerBackend.
  PollerBackend backend = PollerBackend::kEpoll;
  /// listen() backlog — raise for connection-storm workloads like the
  /// 10k-connection sweep (the kernel caps it at somaxconn).
  int listen_backlog = 128;
  ServerLimits limits;
  ShardOptions shards;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and starts the event loop thread.
  void start();

  /// Requests the loop to exit and joins it. Idempotent.
  void stop();

  /// Begins a graceful drain from any thread (a SHUTDOWN frame does the
  /// same from within): new accepts are shed with kRejectedOverloaded,
  /// each connection closes once its buffered replies flush and its
  /// inbound bytes are consumed, and whatever remains at the drain
  /// deadline is force-closed. The loop exits when the last connection
  /// is reaped; follow with stop() to join the thread.
  void drain();

  /// Listening port (valid after start()).
  std::uint16_t port() const;

  /// True while the event loop is running.
  bool running() const;

  /// The metrics registry backing the STATS message. Instruments are
  /// atomic, so the test/load-generator thread can look up and read them
  /// (registry lookups return the existing instrument for a known name)
  /// while the event loop writes.
  MetricsRegistry& metrics() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bglpred::serve
