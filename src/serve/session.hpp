// Per-connection session: the layer between raw bytes and the shard
// manager (DESIGN §8.3).
//
// A session owns a FrameReader and a duplicate-detection sequence
// watermark. It is transport-agnostic — on_bytes() consumes whatever the
// socket (or a test, or the fault-injection harness) hands it and
// appends response frames to an output buffer — which is what makes the
// frame-fault property suite runnable without sockets.
//
// Error containment contract (ISSUE 4): nothing thrown by the protocol
// decoders escapes on_bytes(). Recoverable damage (bad CRC, unknown
// type, malformed payload, duplicate sequence) is answered with a typed
// kError frame and the session keeps serving; framing damage that
// desynchronizes the byte stream (bad magic/version, implausible length
// prefix) is answered with a final kError frame and kClose — the server
// drops that connection and keeps serving everyone else.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "raslog/record_run.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_manager.hpp"

namespace bglpred::serve {

/// Per-connection inbound budget (DESIGN §8.5): how many submit frames /
/// payload bytes one connection may push per rolling window before the
/// session answers kRejectedOverloaded instead of applying. 0 disables a
/// bound. The overloaded reply reuses the REJECTED_BUSY discipline —
/// accepted=0, watermark untouched, busy latch set — so a well-behaved
/// client backs off and retransmits verbatim; a greedy one burns its
/// budget and gets nothing applied.
struct SessionLimits {
  std::uint64_t max_submit_frames_per_window = 0;
  std::uint64_t max_submit_payload_bytes_per_window = 0;
  std::uint64_t window_micros = 100'000;  ///< rolling window length
};

class Session {
 public:
  enum class Status : std::uint8_t {
    kKeepOpen,
    kClose,     ///< framing desync: flush `out`, then close
    kShutdown,  ///< SHUTDOWN handled: flush `out`, then drain the server
  };

  explicit Session(ShardManager& shards, SessionLimits limits = {});

  /// Consumes `data`, appends response frames to `out`.
  Status on_bytes(std::string_view data, std::string& out);

  /// Count of complete, well-formed frames this session has decoded.
  /// The server's idle-timeout supervision keys "activity" on deltas of
  /// this counter — a connection dribbling partial bytes (slowloris)
  /// never completes a frame, so it never refreshes its idle deadline.
  std::uint64_t frames_seen() const { return frames_seen_; }

 private:
  Status handle_frame(const Frame& frame, std::string& out);
  void respond(const Frame& frame, std::string& out);
  void respond_error(ErrorCode code, std::string message, const Frame& frame,
                     std::string& out);
  Status handle_submit(const Frame& frame, std::string& out);
  bool submit_budget_exceeded(const Frame& frame);
  void handle_poll(const Frame& frame, std::string& out);
  void handle_checkpoint(const Frame& frame, std::string& out);
  void handle_restore(const Frame& frame, std::string& out);
  void handle_stats(const Frame& frame, std::string& out);
  void handle_stream_status(const Frame& frame, std::string& out);

  ShardManager* shards_;
  ServeMetrics* metrics_;
  SessionLimits limits_;
  FrameReader reader_;
  /// Reused for every frame and every SUBMIT, so a steady stream of
  /// SUBMITs allocates nothing once their buffers have grown.
  Frame frame_;
  RecordRunBuilder run_;
  std::uint64_t frames_seen_ = 0;
  // Rolling budget window (meaningful only when limits_ enable a bound).
  std::uint64_t window_start_micros_ = 0;
  std::uint64_t window_frames_ = 0;
  std::uint64_t window_bytes_ = 0;
  /// Highest fully-handled request sequence; retransmitted/duplicated
  /// frames (seq <= watermark) are answered with kDuplicateFrame and NOT
  /// re-applied, so a duplicate storm cannot double-feed an engine.
  /// Frames that applied nothing — typed errors, and submits fully
  /// rejected with kRejectedBusy — do not advance it, so a collector may
  /// retransmit them verbatim (same seq) after backing off. A partially
  /// applied batch does advance it (re-applying would double-feed); its
  /// kRejectedBusy reply carries the accepted count to resume from.
  std::uint32_t seq_watermark_ = 0;
  /// Set when a submit hits REJECTED_BUSY or kRejectedOverloaded; while
  /// set, submit frames flagged kFlagPipelineFollow auto-reject with
  /// accepted=0 so the accepted records of a pipelined window always
  /// form an exact prefix of it (stream order survives backpressure and
  /// budget rejection mid-window). Cleared by the next window-head
  /// submit (a frame without the flag).
  bool busy_latched_ = false;
};

}  // namespace bglpred::serve
