// Readiness notification for the serve event loop (DESIGN §8.3): one
// edge-triggered epoll instance, O(ready) per wakeup with no
// per-connection scan.
//
// The server loop is written against the edge-triggered contract: an
// event is a hint that readiness may have appeared, the consumer must
// drain the fd until EAGAIN, and write interest is armed only while
// there are bytes queued to flush.
//
// wait() blocks indefinitely when asked (timeout_ms = -1); there is no
// polling tick. notify() is the only cross-thread door: it wakes a
// blocked wait() via an internal eventfd, which is how stop() reaches a
// loop that is otherwise asleep with zero pending work.
#pragma once

#include <sys/epoll.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/net_util.hpp"

namespace bglpred::serve {

/// The one readiness backend. A single-enumerator enum kept only for
/// ServerOptions::backend, which servebench still assigns.
enum class PollerBackend : std::uint8_t {
  kEpoll,  ///< edge-triggered epoll
};

/// One fd's readiness, as reported by wait().
struct ReadyEvent {
  int fd = -1;
  bool readable = false;  ///< drain with recv until EAGAIN
  bool writable = false;  ///< a pending flush may now make progress
  bool hangup = false;    ///< peer error/hangup (may still carry data)
};

class EventPoller {
 public:
  EventPoller();

  /// Registers `fd` for read readiness (plus write readiness when
  /// `want_write`). The fd must be non-blocking.
  void add(int fd, bool want_write);

  /// Arms or disarms write-readiness interest. Re-arming acts as an edge
  /// reset: if the socket is already writable, the next wait() reports
  /// it.
  void set_want_write(int fd, bool want_write);

  /// Deregisters `fd`. Call before closing it.
  void remove(int fd);

  /// Blocks until readiness, notify(), or `timeout_ms` (-1 = forever;
  /// 0 = nonblocking probe). Fills `out` (cleared first) and returns
  /// the event count; 0 means the timeout elapsed or a notify-only
  /// wakeup. EINTR never surfaces: a finite-timeout wait interrupted by
  /// a signal re-waits with the *remaining* time, so a 0 return with a
  /// positive timeout means the full timeout genuinely passed — the
  /// server's timer sweep depends on this.
  std::size_t wait(int timeout_ms, std::vector<ReadyEvent>& out);

  /// Wakes a blocked wait() from any thread.
  void notify();

 private:
  OwnedFd epoll_;
  OwnedFd wakeup_;
  std::vector<epoll_event> kernel_events_;
};

}  // namespace bglpred::serve
