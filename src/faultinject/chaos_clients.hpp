// Misbehaving-network-client personas for the serve plane's chaos
// harness (DESIGN §8.5).
//
// Each persona reproduces one classic way a TCP peer abuses a server,
// bounded in time and connection count and seeded through bglpred::Rng
// so a chaos run is reproducible:
//
//   - slowloris: dribbles partial frame bytes forever without ever
//     completing one — the idle-timeout supervisor must evict it even
//     though the socket is never silent.
//   - stalled reader: floods requests that generate large replies and
//     never reads them — trips the per-connection outbox cap (heavy
//     connections) and the write-stall timeout (light ones).
//   - RST storm: half-open aborts — sends a fragment, then closes with
//     SO_LINGER(0) so the kernel emits RST instead of FIN; the server
//     must absorb ECONNRESET without dropping anyone else.
//   - connection storm: opens connections far past the admission
//     ceiling and verifies the typed kRejectedOverloaded refusal.
//   - garbage flooder: writes random bytes; the session must answer
//     with a typed error and desync-close, never crash.
//   - greedy submitter: valid submit frames in pipelined bursts larger
//     than the per-connection inbound budget, which must reject the
//     excess with kRejectedOverloaded while healthy traffic keeps flowing.
//
// Personas attack streams at stream_id_base and above, disjoint from
// the healthy load generator's streams, so correctness checks on the
// healthy side stay exact. Everything here drives the real wire
// protocol through serve/net_util — no test doubles.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bglpred {

struct ChaosOptions {
  std::uint16_t port = 0;           ///< server under attack
  std::uint64_t duration_micros = 1'000'000;  ///< per-persona time budget
  std::size_t connections = 8;      ///< sockets the persona opens
  std::size_t requests_per_connection = 32;   ///< persona-specific volume
  std::uint64_t seed = 1;           ///< jitter/garbage reproducibility
  /// First stream id the persona touches; healthy traffic must stay
  /// below it. Defaults far above any test stream.
  std::uint64_t stream_id_base = std::uint64_t{1} << 32;
};

/// What the persona observed from the outside (all counts exact).
struct ChaosStats {
  std::size_t connections_opened = 0;   ///< TCP connects that succeeded
  std::size_t connections_refused = 0;  ///< connects that failed outright
  std::size_t typed_rejections = 0;     ///< kRejectedOverloaded frames seen
  std::size_t server_closes = 0;        ///< EOF/reset observed mid-abuse
  std::size_t frames_sent = 0;          ///< complete frames written
  std::size_t bytes_sent = 0;           ///< total bytes written
};

ChaosStats run_slowloris(const ChaosOptions& options);
ChaosStats run_stalled_reader(const ChaosOptions& options);
ChaosStats run_rst_storm(const ChaosOptions& options);
ChaosStats run_connection_storm(const ChaosOptions& options);
ChaosStats run_garbage_flooder(const ChaosOptions& options);
ChaosStats run_greedy_submitter(const ChaosOptions& options);

}  // namespace bglpred
