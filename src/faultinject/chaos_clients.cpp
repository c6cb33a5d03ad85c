#include "faultinject/chaos_clients.hpp"

#include <sys/socket.h>

#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "raslog/record.hpp"
#include "serve/client.hpp"
#include "serve/clock.hpp"
#include "serve/net_util.hpp"
#include "serve/protocol.hpp"

namespace bglpred {

namespace {

using serve::Frame;
using serve::MessageType;
using serve::OwnedFd;

/// Personas never wait forever on a socket: connects and probe reads are
/// bounded so a wedged server turns into counted observations, not a
/// hung chaos run.
constexpr std::uint64_t kConnectTimeoutMicros = 2'000'000;
constexpr std::uint64_t kProbeTimeoutMicros = 50'000;

std::string encoded_stats_request(std::uint32_t seq) {
  Frame f;
  f.type = MessageType::kStats;
  f.seq = seq;
  return serve::encode_frame(f);
}

/// One bounded probe read: what did the server do to this connection?
/// Returns the bytes received appended to `sink` via the per-connection
/// reader; updates typed_rejections / server_closes.
void probe_connection(const OwnedFd& fd, ChaosStats& stats) {
  serve::set_io_timeouts(fd, kProbeTimeoutMicros, kProbeTimeoutMicros);
  serve::FrameReader reader;
  std::string chunk;
  bool rejected = false;
  try {
    for (;;) {
      chunk.clear();
      const std::size_t n = serve::recv_some(fd, chunk);
      if (n == 0) {
        ++stats.server_closes;
        break;
      }
      if (n == SIZE_MAX) {
        break;  // probe window elapsed with the connection still open
      }
      reader.feed(chunk);
      Frame frame;
      serve::FrameError error;
      while (reader.next(frame, error) == serve::FrameReader::Status::kFrame) {
        if (frame.type == MessageType::kRejectedOverloaded && !rejected) {
          rejected = true;
          ++stats.typed_rejections;
        }
      }
    }
  } catch (const Error&) {
    ++stats.server_closes;  // reset counts the same as a clean close
  }
}

}  // namespace

ChaosStats run_slowloris(const ChaosOptions& options) {
  ChaosStats stats;
  // A real frame header promising a payload that will never finish
  // arriving: every byte is protocol-legal, no frame ever completes, so
  // only completed-frame-keyed idle supervision can evict us.
  Frame f;
  f.type = MessageType::kPollWarnings;
  f.stream_id = options.stream_id_base;
  f.seq = 1;
  f.payload.assign(std::size_t{1} << 16, 'x');
  const std::string wire = serve::encode_frame(f);

  struct Dribbler {
    OwnedFd fd;
    std::size_t off = 0;
  };
  std::vector<Dribbler> live;
  for (std::size_t i = 0; i < options.connections; ++i) {
    try {
      Dribbler d;
      d.fd = serve::connect_loopback(options.port, kConnectTimeoutMicros);
      serve::set_io_timeouts(d.fd, kProbeTimeoutMicros, kProbeTimeoutMicros);
      live.push_back(std::move(d));
      ++stats.connections_opened;
    } catch (const Error&) {
      ++stats.connections_refused;
    }
  }
  const std::uint64_t deadline =
      serve::monotonic_micros() + options.duration_micros;
  const std::uint64_t step = options.duration_micros / 64 + 1;
  while (serve::monotonic_micros() < deadline && !live.empty()) {
    for (std::size_t i = 0; i < live.size();) {
      try {
        serve::send_all(live[i].fd,
                        std::string_view(wire.data() + live[i].off, 1));
        ++live[i].off;
        ++stats.bytes_sent;
        ++i;
      } catch (const Error&) {
        ++stats.server_closes;  // evicted mid-dribble
        live[i] = std::move(live.back());
        live.pop_back();
      }
    }
    std::this_thread::sleep_for(std::chrono::microseconds(step));
  }
  // Dribbles land in the kernel buffer even after the server closes its
  // end; only a read observes the eviction.
  for (const Dribbler& d : live) {
    probe_connection(d.fd, stats);
  }
  return stats;
}

ChaosStats run_stalled_reader(const ChaosOptions& options) {
  ChaosStats stats;
  // Even connections flood STATS requests — replies pile into the
  // server outbox far past any per-connection cap, forcing slow-reader
  // eviction the moment the backlog is enqueued. Odd connections send a
  // small burst and stall with replies stuck in flight (their own
  // receive window shrunk so the kernel can't absorb them), arming the
  // write-stall timeout instead.
  std::vector<OwnedFd> live;
  for (std::size_t i = 0; i < options.connections; ++i) {
    const bool heavy = i % 2 == 0;
    bool opened = false;
    try {
      OwnedFd fd = serve::connect_loopback(options.port, kConnectTimeoutMicros,
                                           heavy ? 0 : 4096);
      serve::set_io_timeouts(fd, kProbeTimeoutMicros, kConnectTimeoutMicros);
      opened = true;
      ++stats.connections_opened;
      const std::size_t count = heavy ? options.requests_per_connection * 8
                                      : options.requests_per_connection / 4 + 1;
      std::uint32_t seq = 1;
      for (std::size_t r = 0; r < count; ++r) {
        const std::string frame = encoded_stats_request(seq++);
        serve::send_all(fd, frame);
        ++stats.frames_sent;
        stats.bytes_sent += frame.size();
      }
      live.push_back(std::move(fd));
    } catch (const Error&) {
      // Refused connect, or evicted mid-burst — either way the persona
      // loses its hold on this socket.
      if (opened) {
        ++stats.server_closes;
      } else {
        ++stats.connections_refused;
      }
    }
  }
  // Now the abuse: hold every socket open without reading a byte for
  // the whole duration, then look at what the server did about it.
  std::this_thread::sleep_for(
      std::chrono::microseconds(options.duration_micros));
  for (const OwnedFd& fd : live) {
    probe_connection(fd, stats);
  }
  return stats;
}

ChaosStats run_rst_storm(const ChaosOptions& options) {
  ChaosStats stats;
  const std::string wire = encoded_stats_request(1);
  const std::uint64_t deadline =
      serve::monotonic_micros() + options.duration_micros;
  for (std::size_t i = 0;
       i < options.connections && serve::monotonic_micros() < deadline; ++i) {
    try {
      OwnedFd fd = serve::connect_loopback(options.port, kConnectTimeoutMicros);
      ++stats.connections_opened;
      // Half a frame, then an abortive close: SO_LINGER(0) makes the
      // kernel send RST, so the server reads ECONNRESET with a partial
      // frame buffered — the harshest connection death there is.
      const std::string_view fragment(wire.data(), wire.size() / 2);
      serve::send_all(fd, fragment);
      stats.bytes_sent += fragment.size();
      const linger abort_now{1, 0};
      ::setsockopt(fd.get(), SOL_SOCKET, SO_LINGER, &abort_now,
                   sizeof(abort_now));
      fd.reset();  // close() now emits RST
    } catch (const Error&) {
      ++stats.connections_refused;
    }
  }
  return stats;
}

ChaosStats run_connection_storm(const ChaosOptions& options) {
  ChaosStats stats;
  std::vector<OwnedFd> held;
  held.reserve(options.connections);
  const std::uint64_t deadline =
      serve::monotonic_micros() + options.duration_micros;
  for (std::size_t i = 0;
       i < options.connections && serve::monotonic_micros() < deadline; ++i) {
    try {
      held.push_back(
          serve::connect_loopback(options.port, kConnectTimeoutMicros));
      ++stats.connections_opened;
    } catch (const Error&) {
      ++stats.connections_refused;
    }
  }
  // Every socket past the admission ceiling should observe the typed
  // kRejectedOverloaded refusal (or at minimum a close) — never a hang.
  // Shed sockets sit at the END of `held` (they arrived after capacity
  // filled) and probe instantly (refusal frame + close already queued),
  // so walk backwards; admitted sockets each burn a full probe window,
  // so stop when the persona's time budget runs out and just close the
  // rest.
  const std::uint64_t probe_deadline =
      serve::monotonic_micros() + options.duration_micros;
  for (std::size_t i = held.size(); i-- > 0;) {
    if (serve::monotonic_micros() >= probe_deadline) {
      break;
    }
    probe_connection(held[i], stats);
  }
  return stats;
}

ChaosStats run_garbage_flooder(const ChaosOptions& options) {
  ChaosStats stats;
  Rng rng(options.seed);
  for (std::size_t i = 0; i < options.connections; ++i) {
    try {
      OwnedFd fd = serve::connect_loopback(options.port, kConnectTimeoutMicros);
      serve::set_io_timeouts(fd, kProbeTimeoutMicros, kConnectTimeoutMicros);
      ++stats.connections_opened;
      std::string noise(256, '\0');
      for (std::size_t r = 0; r < options.requests_per_connection; ++r) {
        for (char& c : noise) {
          c = static_cast<char>(rng() & 0xff);
        }
        try {
          serve::send_all(fd, noise);
          stats.bytes_sent += noise.size();
        } catch (const Error&) {
          ++stats.server_closes;  // desync close raced our next blast
          break;
        }
      }
      probe_connection(fd, stats);
    } catch (const Error&) {
      ++stats.connections_refused;
    }
  }
  return stats;
}

ChaosStats run_greedy_submitter(const ChaosOptions& options) {
  ChaosStats stats;
  // Perfectly valid traffic at maximum rate: the per-connection inbound
  // budget is the only thing standing between this and the shards. Each
  // burst is requests_per_connection 4-record frames gather-written
  // before any reply is read, so a burst larger than the budget's frames
  // per window trips it however long a round trip takes.
  constexpr std::size_t kFrameRecords = 4;
  std::vector<serve::WireRecord> burst;
  for (std::size_t r = 0; r < options.requests_per_connection * kFrameRecords;
       ++r) {
    RasRecord rec;
    rec.time = static_cast<TimePoint>(r + 1);
    rec.severity = Severity::kInfo;
    burst.push_back(serve::WireRecord{rec, "chaos greedy submitter entry"});
  }
  serve::ClientOptions copts;
  copts.connect_timeout_micros = kConnectTimeoutMicros;
  copts.io_timeout_micros = kConnectTimeoutMicros;
  const std::uint64_t deadline =
      serve::monotonic_micros() + options.duration_micros;
  for (std::size_t i = 0;
       i < options.connections && serve::monotonic_micros() < deadline; ++i) {
    try {
      serve::Client client = serve::Client::connect(options.port, copts);
      ++stats.connections_opened;
      bool rejected = false;
      while (serve::monotonic_micros() < deadline) {
        // Retransmits of a pushed-back remainder are not counted. The
        // chaos server's shard queues hold far more than a burst, so a
        // push-back is the budget's typed rejection.
        const std::size_t pushed_back = client.submit_all_pipelined(
            options.stream_id_base + 1 + i, burst, kFrameRecords,
            options.requests_per_connection);
        stats.frames_sent += options.requests_per_connection;
        if (pushed_back != 0 && !rejected) {
          rejected = true;
          ++stats.typed_rejections;
        }
      }
    } catch (const Error&) {
      ++stats.server_closes;
    }
  }
  return stats;
}

}  // namespace bglpred
