#include "serve/event_poller.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "serve/clock.hpp"
#include "serve/net_util.hpp"

namespace bglpred::serve {

namespace {
[[noreturn]] void throw_errno(const char* what) {
  throw Error(std::string(what) + ": " + std::strerror(errno));
}

// EINTR bookkeeping for a finite-timeout wait: a signal must not make
// the wait return early (timer deadlines would then fire late under
// signal load — the loop treats a 0 return as "the deadline passed").
// Tracks the absolute deadline once and converts back to a remaining
// millisecond budget, rounded up so a re-wait never undershoots.
class WaitDeadline {
 public:
  explicit WaitDeadline(int timeout_ms) : timeout_ms_(timeout_ms) {
    if (timeout_ms > 0) {
      deadline_micros_ =
          monotonic_micros() + static_cast<std::uint64_t>(timeout_ms) * 1000;
    }
  }

  /// Timeout for the next wait attempt: the original value for
  /// infinite (-1) and probe (0) waits, else the remaining time.
  int remaining_ms() const {
    if (timeout_ms_ <= 0) {
      return timeout_ms_;
    }
    const std::uint64_t now = monotonic_micros();
    if (now >= deadline_micros_) {
      return 0;
    }
    return static_cast<int>((deadline_micros_ - now + 999) / 1000);
  }

  /// True when an EINTR-interrupted wait should report a timeout
  /// instead of re-waiting.
  bool expired() const { return timeout_ms_ > 0 && remaining_ms() == 0; }

 private:
  int timeout_ms_;
  std::uint64_t deadline_micros_ = 0;
};

OwnedFd make_notify_eventfd() {
  OwnedFd fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!fd.valid()) {
    throw_errno("eventfd");
  }
  return fd;
}

void drain_eventfd(const OwnedFd& fd) {
  std::uint64_t count = 0;
  // Counter semantics: one read consumes every pending notify; EAGAIN
  // just means another wakeup already drained it.
  [[maybe_unused]] const ssize_t n =
      ::read(fd.get(), &count, sizeof(count));
}

void signal_eventfd(const OwnedFd& fd) {
  const std::uint64_t one = 1;
  for (;;) {
    const ssize_t n = ::write(fd.get(), &one, sizeof(one));
    if (n >= 0 || errno != EINTR) {
      return;  // EAGAIN means the counter is saturated: already awake
    }
  }
}

std::uint32_t interest(bool want_write) {
  std::uint32_t events = EPOLLIN | EPOLLRDHUP | EPOLLET;
  if (want_write) {
    events |= EPOLLOUT;
  }
  return events;
}

}  // namespace

EventPoller::EventPoller()
    : epoll_(::epoll_create1(EPOLL_CLOEXEC)), kernel_events_(256) {
  if (!epoll_.valid()) {
    throw_errno("epoll_create1");
  }
  wakeup_ = make_notify_eventfd();
  // The notify eventfd stays level-triggered: it is drained on every
  // fire, so LT cannot spin, and LT removes any reasoning about
  // write-vs-drain edge races on the counter.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wakeup_.get(), &ev) != 0) {
    throw_errno("epoll_ctl add eventfd");
  }
}

void EventPoller::add(int fd, bool want_write) {
  epoll_event ev{};
  ev.events = interest(want_write);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    throw_errno("epoll_ctl add");
  }
}

void EventPoller::set_want_write(int fd, bool want_write) {
  epoll_event ev{};
  ev.events = interest(want_write);
  ev.data.fd = fd;
  // EPOLL_CTL_MOD doubles as an edge re-arm: if the socket is already
  // writable when EPOLLOUT is switched on, the next wait() reports it
  // even though writability never transitioned.
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) != 0) {
    throw_errno("epoll_ctl mod");
  }
}

void EventPoller::remove(int fd) {
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr) != 0) {
    throw_errno("epoll_ctl del");
  }
}

// bgl:hot-begin(serve-poller-wait)
// Woken once per batch of ready fds — O(ready), not O(connections) —
// and translating kernel events into ReadyEvents must not allocate
// beyond the caller's reused vector (the kernel batch grows only on
// the rare full-batch wakeup, then stays grown).
std::size_t EventPoller::wait(int timeout_ms, std::vector<ReadyEvent>& out) {
  out.clear();
  const WaitDeadline deadline(timeout_ms);
  int n;
  for (;;) {
    n = ::epoll_wait(epoll_.get(), kernel_events_.data(),
                     static_cast<int>(kernel_events_.size()),
                     deadline.remaining_ms());
    if (n >= 0) {
      break;
    }
    if (errno != EINTR) {
      throw_errno("epoll_wait");  // fatal: the loop cannot continue
    }
    if (deadline.expired()) {
      return 0;  // the signal ate the remaining budget: a real timeout
    }
    // Interrupted with time left (or an infinite/probe wait): re-wait
    // with the remaining budget so timer deadlines fire on schedule.
  }
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = kernel_events_[static_cast<std::size_t>(i)];
    if (ev.data.fd == wakeup_.get()) {
      drain_eventfd(wakeup_);
      continue;
    }
    ReadyEvent ready;
    ready.fd = ev.data.fd;
    ready.readable = (ev.events & (EPOLLIN | EPOLLRDHUP)) != 0;
    ready.writable = (ev.events & EPOLLOUT) != 0;
    ready.hangup = (ev.events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) != 0;
    out.push_back(ready);
  }
  // A full batch means more fds were probably ready than slots: every
  // extra wakeup repays the loop's per-wakeup costs, so double the
  // batch until one wakeup drains the ready list. Without this, 10k
  // hot connections squeeze through 256-event windows, one wakeup per
  // window.
  if (static_cast<std::size_t>(n) == kernel_events_.size()) {
    kernel_events_.resize(kernel_events_.size() * 2);
  }
  return out.size();
}
// bgl:hot-end

void EventPoller::notify() { signal_eventfd(wakeup_); }

}  // namespace bglpred::serve
