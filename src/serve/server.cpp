#include "serve/server.hpp"

#include <cerrno>
#include <cstdint>
#include <limits>
#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "serve/clock.hpp"
#include "serve/net_util.hpp"
#include "serve/outbox.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"

namespace bglpred::serve {

namespace {
/// One vectored write gathers at most this many outbox chunks. A flush
/// loops, so a deeper backlog still drains — this only bounds the iovec
/// array on the stack (well under IOV_MAX everywhere).
constexpr std::size_t kMaxIov = 64;

/// Round-robin service rounds per wakeup. Each round gives every
/// read-ready connection exactly one recv, so a firehose client cannot
/// starve its neighbors; when the bound trips with data still pending,
/// the loop re-enters wait() with a zero timeout (new readiness is
/// picked up, nothing blocks) and keeps going — retained read_ready
/// flags carry the edge-triggered obligation across wakeups.
constexpr int kMaxServiceRounds = 8;

/// fd headroom reserved when deriving the default connection ceiling
/// from RLIMIT_NOFILE: listener, poller, notify door, stdio, and
/// whatever the embedding process holds open.
constexpr std::size_t kFdHeadroom = 64;
}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)), shards(options.shards, registry) {}

  struct Connection {
    Connection(OwnedFd socket, ShardManager& shards,
               const SessionLimits& session_limits)
        : fd(std::move(socket)), session(shards, session_limits) {}
    OwnedFd fd;
    Session session;
    Outbox outbox;
    /// Edge-triggered read obligation: set by a readable event, cleared
    /// only by recv returning EAGAIN (or the connection dying). While
    /// set, the socket may hold bytes epoll will never re-announce.
    bool read_ready = false;
    /// Mirror of the poller's EPOLLOUT interest, so flush() only issues
    /// an epoll_ctl when the armed state actually changes.
    bool want_write = false;
    bool in_active = false;  ///< membership in Impl::active (dedup)
    bool in_dirty = false;   ///< membership in Impl::dirty (dedup)
    bool closing = false;    ///< close once outbox drains
    /// Lifecycle supervision (DESIGN §8.5). Both timer queues are
    /// deadline-ordered intrusive std::lists: timeouts are uniform per
    /// server, so re-arming is "move to the back" and the earliest
    /// deadline is always at the front — O(1) arm, disarm, and expiry
    /// peek, no heap.
    bool in_idle = false;   ///< membership in Impl::idle_order
    bool in_stall = false;  ///< membership in Impl::stall_order
    std::uint64_t idle_deadline_micros = 0;
    std::uint64_t stall_deadline_micros = 0;
    std::list<Connection*>::iterator idle_pos;
    std::list<Connection*>::iterator stall_pos;
    /// session.frames_seen() at the last idle refresh: the idle timer
    /// re-arms only when this advances, i.e. on *completed* frames — a
    /// slowloris dribbling partial bytes never refreshes its deadline.
    std::uint64_t frames_seen_last = 0;
  };

  void loop();
  void run_service_rounds(bool& reads_pending);
  void accept_new_connections();
  void flush(Connection& conn);
  void close_now(Connection& conn);
  void mark_readable(Connection& conn);
  void mark_dirty(Connection& conn);
  void set_closing(Connection& conn);
  void touch_idle(Connection& conn);
  void arm_stall(Connection& conn);
  void disarm_stall(Connection& conn);
  void remove_timers(Connection& conn);
  void expire_timers();
  int next_wait_timeout_ms(bool reads_pending) const;

  ServerOptions options;
  MetricsRegistry registry;
  ShardManager shards;
  OwnedFd listener;
  std::uint16_t bound_port = 0;
  std::optional<EventPoller> poller;
  std::thread thread;
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> loop_running{false};
  std::vector<std::unique_ptr<Connection>> connections;
  std::unordered_map<int, Connection*> by_fd;
  /// Connections with an outstanding edge-triggered read obligation —
  /// the service rounds iterate THIS list, never the full population,
  /// so a wakeup costs O(events + readable), not O(connections).
  /// Membership is lazy: entries whose read_ready flag cleared are
  /// swap-removed when the rounds next encounter them.
  std::vector<Connection*> active;
  /// Connections whose outbox changed during this wakeup's service
  /// rounds; only these get a post-round flush. Cleared every wakeup.
  std::vector<Connection*> dirty;
  /// Connections currently in the closing state but not yet reaped; the
  /// reap scan is skipped entirely while this is zero.
  std::size_t closing_count = 0;
  /// Admission ceiling resolved at start(): options.limits.max_connections,
  /// or the raised fd limit minus headroom when that is 0.
  std::size_t effective_max_connections = 0;
  /// Sum of outbox.size() over every live connection, maintained at the
  /// accounting points (enqueue delta, flush consume, close drop) and
  /// mirrored to the serve.outbox_bytes gauge once per wakeup. Drives
  /// the memory-ceiling accept shed.
  std::size_t outbox_total = 0;
  /// Deadline-ordered timer queues (see Connection's timer fields).
  std::list<Connection*> idle_order;
  std::list<Connection*> stall_order;
  /// Graceful drain: set by Server::drain() (any thread) or a SHUTDOWN
  /// frame (loop thread); the loop latches it into `draining`, stops
  /// admitting, closes connections as their outboxes empty, and
  /// force-closes whatever remains at the drain deadline.
  std::atomic<bool> drain_requested{false};
  bool draining = false;
  std::uint64_t drain_deadline_abs = 0;
  /// Pre-encoded kRejectedOverloaded frame sent (best effort) to shed
  /// accepts, so overload handling allocates nothing per rejection.
  std::string shed_reply;
  /// Reused across wakeups and connections — the loop allocates nothing
  /// per event.
  std::vector<ReadyEvent> events;
  std::vector<char> scratch;
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  BGL_REQUIRE(!impl_->thread.joinable(), "server already started");
  // Raise the fd ceiling before binding: admission control derives its
  // default connection ceiling from what the kernel actually grants,
  // and the gauge lets operators see that ceiling in STATS.
  const std::size_t fd_ceiling = raise_fd_limit();
  impl_->shards.metrics().fd_limit.set(static_cast<std::int64_t>(fd_ceiling));
  const ServerLimits& limits = impl_->options.limits;
  impl_->effective_max_connections =
      limits.max_connections > 0
          ? limits.max_connections
          : (fd_ceiling > 2 * kFdHeadroom ? fd_ceiling - kFdHeadroom
                                          : (fd_ceiling + 1) / 2);
  Frame shed;
  shed.type = MessageType::kRejectedOverloaded;
  shed.payload.assign(8, '\0');  // accepted = 0, LE
  impl_->shed_reply = encode_frame(shed);
  impl_->listener =
      make_loopback_listener(impl_->options.port, impl_->options.listen_backlog);
  set_nonblocking(impl_->listener);
  impl_->bound_port = local_port(impl_->listener);
  // The poller is created here, not on the loop thread, so stop() can
  // reach notify() the instant start() returns.
  impl_->poller.emplace();
  impl_->poller->add(impl_->listener.get(), /*want_write=*/false);
  impl_->stop_requested.store(false);
  impl_->drain_requested.store(false);
  impl_->loop_running.store(true);
  Impl* impl = impl_.get();
  impl_->thread = std::thread([impl] { impl->loop(); });
}

void Server::stop() {
  impl_->stop_requested.store(true);
  if (impl_->poller) {
    impl_->poller->notify();
  }
  if (impl_->thread.joinable()) {
    impl_->thread.join();
  }
}

void Server::drain() {
  impl_->drain_requested.store(true);
  if (impl_->poller) {
    impl_->poller->notify();
  }
}

std::uint16_t Server::port() const { return impl_->bound_port; }

bool Server::running() const { return impl_->loop_running.load(); }

MetricsRegistry& Server::metrics() const { return impl_->registry; }

void Server::Impl::mark_readable(Connection& conn) {
  conn.read_ready = true;
  if (!conn.in_active && !conn.closing) {
    conn.in_active = true;
    active.push_back(&conn);
  }
}

void Server::Impl::mark_dirty(Connection& conn) {
  if (!conn.in_dirty) {
    conn.in_dirty = true;
    dirty.push_back(&conn);
  }
}

void Server::Impl::set_closing(Connection& conn) {
  if (!conn.closing) {
    conn.closing = true;
    ++closing_count;
  }
  conn.read_ready = false;
  // A dying connection must leave both timer queues before the reap
  // frees it, or expire_timers would chase a dangling pointer.
  remove_timers(conn);
}

void Server::Impl::close_now(Connection& conn) {
  outbox_total -= conn.outbox.size();
  conn.outbox.clear();
  set_closing(conn);
}

// bgl:hot-begin(serve-timers)
// Timer maintenance runs once per completed frame / flush, so it shares
// the hot path's allocation discipline: list splicing only, no strings,
// no throws. Uniform per-server timeouts keep both queues
// deadline-ordered by construction — arming is an O(1) move-to-back.
void Server::Impl::touch_idle(Connection& conn) {
  if (options.limits.idle_timeout_micros == 0 || conn.closing) {
    return;
  }
  conn.idle_deadline_micros =
      monotonic_micros() + options.limits.idle_timeout_micros;
  if (conn.in_idle) {
    idle_order.erase(conn.idle_pos);
  }
  conn.idle_pos = idle_order.insert(idle_order.end(), &conn);
  conn.in_idle = true;
}

void Server::Impl::arm_stall(Connection& conn) {
  if (options.limits.write_stall_timeout_micros == 0 || conn.closing) {
    return;
  }
  conn.stall_deadline_micros =
      monotonic_micros() + options.limits.write_stall_timeout_micros;
  if (conn.in_stall) {
    stall_order.erase(conn.stall_pos);
  }
  conn.stall_pos = stall_order.insert(stall_order.end(), &conn);
  conn.in_stall = true;
}

void Server::Impl::disarm_stall(Connection& conn) {
  if (conn.in_stall) {
    stall_order.erase(conn.stall_pos);
    conn.in_stall = false;
  }
}

void Server::Impl::remove_timers(Connection& conn) {
  if (conn.in_idle) {
    idle_order.erase(conn.idle_pos);
    conn.in_idle = false;
  }
  disarm_stall(conn);
}
// bgl:hot-end

void Server::Impl::expire_timers() {
  if (idle_order.empty() && stall_order.empty()) {
    return;
  }
  const std::uint64_t now = monotonic_micros();
  // Front of each queue holds the earliest deadline; close_now pops the
  // expired entry from the queue via set_closing, so both loops strictly
  // shrink their list.
  while (!idle_order.empty() &&
         idle_order.front()->idle_deadline_micros <= now) {
    shards.metrics().idle_timeouts.inc();
    close_now(*idle_order.front());
  }
  while (!stall_order.empty() &&
         stall_order.front()->stall_deadline_micros <= now) {
    shards.metrics().write_stall_timeouts.inc();
    close_now(*stall_order.front());
  }
}

int Server::Impl::next_wait_timeout_ms(bool reads_pending) const {
  if (reads_pending) {
    return 0;  // service rounds still owe reads: poll, don't park
  }
  std::uint64_t next = std::numeric_limits<std::uint64_t>::max();
  if (!idle_order.empty()) {
    next = std::min(next, idle_order.front()->idle_deadline_micros);
  }
  if (!stall_order.empty()) {
    next = std::min(next, stall_order.front()->stall_deadline_micros);
  }
  if (draining) {
    next = std::min(next, drain_deadline_abs);
  }
  if (next == std::numeric_limits<std::uint64_t>::max()) {
    // No timers armed: park until fd readiness or notify(). The idle
    // busy-wake regression test pins this branch — a default-configured
    // server must keep waiting forever, never ticking.
    return -1;
  }
  const std::uint64_t now = monotonic_micros();
  if (next <= now) {
    return 0;
  }
  const std::uint64_t ms = (next - now + 999) / 1000;  // round up
  const auto cap =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  return static_cast<int>(ms > cap ? cap : ms);
}

// bgl:hot-begin(serve-flush)
// One vectored write per call gathers every queued reply frame; loops
// only while the kernel keeps accepting full batches. Partial-write
// resume lives in Outbox::consume (byte-offset into the front chunk),
// so the next flush restarts exactly where the kernel stopped —
// including mid-iovec.
void Server::Impl::flush(Connection& conn) {
  iovec iov[kMaxIov];
  std::size_t consumed = 0;
  bool dead = false;
  try {
    while (!conn.outbox.empty()) {
      const std::size_t iovcnt = conn.outbox.fill_iovecs(iov, kMaxIov);
      std::size_t batch = 0;
      for (std::size_t i = 0; i < iovcnt; ++i) {
        batch += iov[i].iov_len;
      }
      const std::size_t n = writev_nonblocking(conn.fd, iov, iovcnt);
      if (n == SIZE_MAX) {
        break;  // kernel buffer full; EPOLLOUT will re-announce
      }
      conn.outbox.consume(n);
      consumed += n;
      if (n < batch) {
        // Short write: the buffer just filled. Writability will
        // transition (an edge) once the peer drains it — no point in a
        // second syscall that would return EAGAIN.
        break;
      }
    }
  } catch (const Error&) {
    // Peer vanished mid-write: drop the connection, keep serving.
    dead = true;
  }
  outbox_total -= consumed;
  if (dead) {
    close_now(conn);
    return;  // poller interest dies with the fd at the reap
  }
  // Write-stall supervision: a drained outbox disarms the deadline;
  // progress (or a fresh backlog) re-arms it. A flush that moved zero
  // bytes against an already-armed deadline leaves it ticking — that is
  // the stalled-reader clock.
  if (conn.outbox.empty()) {
    disarm_stall(conn);
  } else if (consumed > 0 || !conn.in_stall) {
    arm_stall(conn);
  }
  // Arm EPOLLOUT only while bytes remain queued; disarm the moment the
  // outbox drains. Closing connections keep it armed too — a desync's
  // final error reply still has to drain before the reap. Skipping the
  // no-change case keeps the happy path (everything flushed in one
  // write) free of epoll_ctl calls.
  const bool want = !conn.outbox.empty();
  if (want != conn.want_write) {
    conn.want_write = want;
    poller->set_want_write(conn.fd.get(), want);
  }
}
// bgl:hot-end

void Server::Impl::accept_new_connections() {
  // Accept-time errors (fd exhaustion and friends) must not kill the
  // loop: skip the rest of the burst and retry on the next readable
  // event. Under edge-triggered epoll the accept loop must run to
  // would-block, or pending connections would wait forever.
  try {
    for (;;) {
      OwnedFd sock = accept_connection(listener);
      if (!sock.valid()) {
        break;
      }
      // Admission control: when draining, at the connection ceiling, or
      // over the total-outbox memory ceiling, shed the accept — a typed
      // kRejectedOverloaded frame (best effort: the socket is fresh, so
      // one small frame fits its send buffer short of pathology) tells
      // the client to back off and retry, then the close makes room the
      // only way shedding can.
      const bool shed =
          draining || connections.size() >= effective_max_connections ||
          (options.limits.max_total_outbox_bytes > 0 &&
           outbox_total >= options.limits.max_total_outbox_bytes);
      if (shed) {
        try {
          send_nonblocking(sock, shed_reply);
        } catch (const Error&) {
        }
        shards.metrics().accepts_shed.inc();
        continue;  // sock closes here
      }
      if (options.limits.sndbuf_bytes > 0) {
        set_send_buffer_bytes(sock, options.limits.sndbuf_bytes);
      }
      set_nonblocking(sock);
      auto conn = std::make_unique<Connection>(std::move(sock), shards,
                                               options.limits.session);
      // Probe immediately: bytes may have landed between accept and
      // epoll registration, and ET would only announce *new* arrivals.
      mark_readable(*conn);
      poller->add(conn->fd.get(), /*want_write=*/false);
      by_fd.emplace(conn->fd.get(), conn.get());
      // The accept itself counts as activity once; after this, only
      // completed frames refresh the idle deadline.
      touch_idle(*conn);
      connections.push_back(std::move(conn));
      shards.metrics().connections.add(1);
    }
  } catch (const Error&) {
  }
}

// bgl:hot-begin(serve-event-loop)
// Fair service over the active list only: each pass hands every
// read-ready connection exactly one recv (into the shared scratch
// buffer, straight through the session into that connection's outbox
// tail), so a firehose client cannot starve its neighbors. Entries
// that drain to EAGAIN — or die — are swap-removed on the spot; what
// remains after kMaxServiceRounds passes still owes reads, and the
// caller re-polls with timeout 0 so heavy load degrades to batched
// servicing instead of starvation. Everything here is O(active), never
// O(connections).
void Server::Impl::run_service_rounds(bool& reads_pending) {
  int rounds = 0;
  while (!active.empty() && rounds < kMaxServiceRounds) {
    ++rounds;
    for (std::size_t i = 0; i < active.size();) {
      Connection& conn = *active[i];
      if (conn.closing || !conn.read_ready) {
        conn.in_active = false;
        active[i] = active.back();
        active.pop_back();
        continue;  // the swapped-in entry takes this slot's turn
      }
      // A read error (e.g. ECONNRESET from an aborting client) drops
      // this connection only — mirroring what flush() does for write
      // errors — so one bad peer never terminates the server.
      try {
        const std::size_t n =
            recv_into(conn.fd, scratch.data(), scratch.size());
        if (n == 0) {
          close_now(conn);  // clean EOF
        } else if (n == SIZE_MAX) {
          conn.read_ready = false;  // drained: edge obligation met
        } else {
          const std::size_t before = conn.outbox.size();
          std::string& tail = conn.outbox.writable_tail();
          switch (conn.session.on_bytes(
              std::string_view(scratch.data(), n), tail)) {
            case Session::Status::kKeepOpen:
              break;
            case Session::Status::kClose:
              // Flush the error reply, then close: keep the outbox.
              set_closing(conn);
              break;
            case Session::Status::kShutdown:
              // SHUTDOWN drains the whole server, not just this
              // connection: latch the request; the loop starts the
              // drain after this wakeup's service completes.
              drain_requested.store(true);
              break;
          }
          conn.outbox.sync_tail();
          outbox_total += conn.outbox.size() - before;
          // Idle supervision keys on *completed* frames, not raw bytes:
          // the deadline refreshes only when the session decoded
          // something whole, so slowloris dribble never counts.
          if (conn.session.frames_seen() != conn.frames_seen_last) {
            conn.frames_seen_last = conn.session.frames_seen();
            touch_idle(conn);
          }
          // Slow-reader eviction: a connection whose buffered replies
          // outgrew its cap is consuming memory faster than it reads.
          // Drop it — the buffered bytes with it — rather than let one
          // reader hold the server's memory hostage.
          if (options.limits.max_connection_outbox_bytes > 0 &&
              !conn.closing &&
              conn.outbox.size() >
                  options.limits.max_connection_outbox_bytes) {
            shards.metrics().slow_readers_evicted.inc();
            close_now(conn);
          }
          if (!conn.outbox.empty() || conn.closing) {
            mark_dirty(conn);
          }
        }
      } catch (const Error&) {
        close_now(conn);
      }
      ++i;
    }
  }
  // Only the rounds bound leaves the active list nonempty: those
  // connections still owe reads.
  reads_pending = !active.empty();
  for (Connection* conn : dirty) {
    conn->in_dirty = false;
    if (!conn->outbox.empty() || conn->closing) {
      flush(*conn);
    }
  }
  dirty.clear();
}
// bgl:hot-end

void Server::Impl::loop() {
  scratch.resize(64 * 1024);
  bool reads_pending = false;
  while (!stop_requested.load()) {
    // Park forever when nothing is pending and no timers are armed:
    // notify() and fd readiness are then the only wakeup sources (the
    // idle-wakeup regression test holds `serve.wakeups` to this
    // contract). With supervision deadlines or a drain in flight, wake
    // at the earliest of them instead.
    const std::size_t nevents =
        poller->wait(next_wait_timeout_ms(reads_pending), events);
    shards.metrics().wakeups.inc();
    bool accept_ready = false;
    for (std::size_t i = 0; i < nevents; ++i) {
      const ReadyEvent& ev = events[i];
      if (ev.fd == listener.get()) {
        accept_ready = true;
        continue;
      }
      const auto it = by_fd.find(ev.fd);
      if (it == by_fd.end()) {
        continue;
      }
      Connection& conn = *it->second;
      if (ev.readable) {
        // RDHUP rides in here too: the peer half-closed, but queued
        // bytes (and the final EOF) still need to be read out.
        mark_readable(conn);
      } else if (ev.hangup) {
        close_now(conn);
      }
      if (ev.writable && !conn.outbox.empty()) {
        flush(conn);
      }
    }
    if (accept_ready) {
      accept_new_connections();
    }
    run_service_rounds(reads_pending);
    // Batched hand-off: everything submitted during this wakeup goes
    // through the shards in one drain (fanned out if a pool exists).
    shards.drain();
    // Latch a drain request (SHUTDOWN frame or Server::drain()) into
    // drain mode: stop admitting, let in-flight replies finish, and
    // start the force-close clock.
    if (!draining && drain_requested.load()) {
      draining = true;
      drain_deadline_abs =
          monotonic_micros() + options.limits.drain_deadline_micros;
    }
    expire_timers();
    if (draining) {
      // Graceful sweep: close every connection that is fully served —
      // nothing buffered, nothing left to read. Past the deadline, the
      // stragglers (stalled readers, mid-frame senders) are cut off.
      const bool force = monotonic_micros() >= drain_deadline_abs;
      for (const auto& c : connections) {
        if (c->closing) {
          continue;
        }
        if (force) {
          shards.metrics().drain_forced_closes.inc();
          close_now(*c);
        } else if (c->outbox.empty() && !c->read_ready) {
          close_now(*c);
        }
      }
    }
    shards.metrics().outbox_bytes.set(
        static_cast<std::int64_t>(outbox_total));
    // Reap closed connections: deregister before close so the poller
    // never holds a dangling fd. The scan is skipped entirely on
    // wakeups where nothing closed. The active list drops its closing
    // entries first — its removal is otherwise lazy, and the reap
    // frees the objects it points at.
    if (closing_count > 0) {
      std::erase_if(active, [](Connection* c) {
        if (c->closing) {
          c->in_active = false;
          return true;
        }
        return false;
      });
      std::erase_if(connections,
                    [this](const std::unique_ptr<Connection>& c) {
                      const bool done = c->closing && c->outbox.empty();
                      if (done) {
                        poller->remove(c->fd.get());
                        by_fd.erase(c->fd.get());
                        shards.metrics().connections.add(-1);
                        --closing_count;
                      }
                      return done;
                    });
    }
    if (draining && connections.empty()) {
      break;  // drained: every connection served and reaped
    }
  }
  // The registry outlives stop()/start() cycles: account for the
  // connections torn down here, or a restarted server reports a stale
  // nonzero gauge.
  shards.metrics().connections.add(
      -static_cast<std::int64_t>(connections.size()));
  shards.metrics().outbox_bytes.set(0);
  active.clear();
  dirty.clear();
  idle_order.clear();
  stall_order.clear();
  closing_count = 0;
  outbox_total = 0;
  draining = false;
  drain_requested.store(false);
  connections.clear();
  by_fd.clear();
  listener.reset();
  loop_running.store(false);
}

}  // namespace bglpred::serve
