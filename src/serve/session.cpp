#include "serve/session.hpp"

#include <chrono>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "serve/clock.hpp"

namespace bglpred::serve {

Session::Session(ShardManager& shards, SessionLimits limits)
    : shards_(&shards), metrics_(&shards.metrics()), limits_(limits) {}

namespace {

/// Out of line, so the SUBMIT region below spells no throw; handle_frame's
/// try/catch answers it with kBadPayload.
[[noreturn]] void malformed_submit(const char* what) {
  throw ParseError(what);
}

/// A reply whose payload is one u64 count (a submit's accepted records,
/// a stream's lifetime accepted total).
Frame count_reply(MessageType type, const Frame& request,
                  std::uint64_t count) {
  Frame reply;
  reply.type = type;
  reply.stream_id = request.stream_id;
  reply.seq = request.seq;
  for (int b = 0; b < 8; ++b) {
    reply.payload.push_back(static_cast<char>((count >> (8 * b)) & 0xff));
  }
  return reply;
}

}  // namespace

void Session::respond(const Frame& frame, std::string& out) {
  append_frame(out, frame);
  metrics_->frames_out.inc();
}

void Session::respond_error(ErrorCode code, std::string message,
                            const Frame& frame, std::string& out) {
  metrics_->decode_errors.inc();
  respond(make_error_frame(
              FrameError{code, std::move(message), frame.stream_id,
                         frame.seq}),
          out);
}

// bgl:hot-begin(serve-frame-pump)
// Every byte off every connection passes through this loop; it appends
// to the caller's outbox and bumps counters, nothing else. Decode
// errors arrive as *status values* from the FrameReader — the throwing
// decoders live behind handle_frame's try/catch, outside the region.
Session::Status Session::on_bytes(std::string_view data, std::string& out) {
  reader_.feed(data);
  for (;;) {
    FrameError error;
    switch (reader_.next(frame_, error)) {
      case FrameReader::Status::kNeedMore:
        return Status::kKeepOpen;
      case FrameReader::Status::kBadFrame:
        metrics_->decode_errors.inc();
        respond(make_error_frame(error), out);
        continue;
      case FrameReader::Status::kDesync:
        metrics_->decode_errors.inc();
        respond(make_error_frame(error), out);
        return Status::kClose;
      case FrameReader::Status::kFrame: {
        metrics_->frames_in.inc();
        ++frames_seen_;  // idle supervision keys activity on this delta
        const Status status = handle_frame(frame_, out);
        if (status != Status::kKeepOpen) {
          return status;
        }
        continue;
      }
    }
  }
}
// bgl:hot-end

Session::Status Session::handle_frame(const Frame& frame, std::string& out) {
  if (!is_request_type(static_cast<std::uint8_t>(frame.type))) {
    respond_error(ErrorCode::kBadType,
                  "unknown request type " +
                      std::to_string(static_cast<unsigned>(frame.type)),
                  frame, out);
    return Status::kKeepOpen;
  }
  if (frame.seq <= seq_watermark_) {
    // Counted as a duplicate, not a decode error: the frame is intact,
    // it has just been seen before (a retransmitting collector).
    metrics_->duplicate_frames.inc();
    respond(make_error_frame(FrameError{
                ErrorCode::kDuplicateFrame,
                "sequence " + std::to_string(frame.seq) +
                    " at or below watermark " +
                    std::to_string(seq_watermark_),
                frame.stream_id, frame.seq}),
            out);
    return Status::kKeepOpen;
  }
  // The watermark advances only once a frame is fully handled: a frame
  // answered with kRejectedBusy (or a typed error) leaves it untouched,
  // so a collector may retransmit the identical frame — same seq — after
  // backing off without tripping the duplicate check.
  //
  // Decoders throw ParseError on malformed payloads; convert every such
  // throw (and any engine-level Error) into a typed error frame so the
  // session survives arbitrary payload bytes.
  try {
    switch (frame.type) {
      case MessageType::kSubmitRecord:
      case MessageType::kSubmitBatch:
        // handle_submit advances the watermark itself, and only on a
        // non-busy outcome.
        return handle_submit(frame, out);
      case MessageType::kPollWarnings:
        handle_poll(frame, out);
        break;
      case MessageType::kCheckpoint:
        handle_checkpoint(frame, out);
        break;
      case MessageType::kRestore:
        handle_restore(frame, out);
        break;
      case MessageType::kStats:
        handle_stats(frame, out);
        break;
      case MessageType::kStreamStatus:
        handle_stream_status(frame, out);
        break;
      case MessageType::kShutdown: {
        Frame ok;
        ok.type = MessageType::kOk;
        ok.stream_id = frame.stream_id;
        ok.seq = frame.seq;
        respond(ok, out);
        seq_watermark_ = frame.seq;
        return Status::kShutdown;
      }
      default:
        respond_error(ErrorCode::kBadType, "unhandled request type", frame,
                      out);
        return Status::kKeepOpen;
    }
  } catch (const ParseError& e) {
    respond_error(ErrorCode::kBadPayload, e.what(), frame, out);
    return Status::kKeepOpen;
  } catch (const Error& e) {
    respond_error(ErrorCode::kNotSupported, e.what(), frame, out);
    return Status::kKeepOpen;
  }
  seq_watermark_ = frame.seq;
  return Status::kKeepOpen;
}

/// Rolling-window inbound budget. Count-then-compare with a strict `>`,
/// so a limit of N admits exactly N frames (or bytes) per window; the
/// N+1th trips it. Disabled limits (0) never trip.
bool Session::submit_budget_exceeded(const Frame& frame) {
  if (limits_.max_submit_frames_per_window == 0 &&
      limits_.max_submit_payload_bytes_per_window == 0) {
    return false;
  }
  const std::uint64_t now = monotonic_micros();
  if (now - window_start_micros_ >= limits_.window_micros) {
    window_start_micros_ = now;
    window_frames_ = 0;
    window_bytes_ = 0;
  }
  ++window_frames_;
  window_bytes_ += frame.payload.size();
  return (limits_.max_submit_frames_per_window != 0 &&
          window_frames_ > limits_.max_submit_frames_per_window) ||
         (limits_.max_submit_payload_bytes_per_window != 0 &&
          window_bytes_ > limits_.max_submit_payload_bytes_per_window);
}

// bgl:hot-begin(session-submit)
// Once per SUBMIT frame: decode every record into the reused run
// builder, enqueue the frame as one run, append the reply to `out`. No
// allocation once warm (bgl_rule_alloc_tests). Malformed payloads leave
// through the decoders' ParseError to handle_frame's try/catch.
Session::Status Session::handle_submit(const Frame& frame, std::string& out) {
  const std::uint64_t started = monotonic_micros();
  // Pipeline-window order guard: once a submit hits backpressure, any
  // *follower* frame of the same client window (kFlagPipelineFollow)
  // must not apply — the client will resubmit the rejected remainder,
  // and applying a follower first would reorder the stream. A window
  // head (no flag — also every legacy frame) re-opens the gate.
  if ((frame.flags & kFlagPipelineFollow) == 0) {
    busy_latched_ = false;
  } else if (busy_latched_) {
    respond(count_reply(MessageType::kRejectedBusy, frame, 0), out);
    return Status::kKeepOpen;
  }
  // Inbound budget, checked before any decoding: a greedy submitter is
  // refused for the price of a header inspection. The reply mirrors a
  // fully-rejected busy submit — accepted=0, watermark untouched, latch
  // set so window followers auto-reject — which keeps the exact-prefix
  // guarantee and the verbatim-retransmit recovery identical to the
  // backpressure path clients already implement.
  if (submit_budget_exceeded(frame)) {
    metrics_->budget_rejected.inc();
    busy_latched_ = true;
    respond(count_reply(MessageType::kRejectedOverloaded, frame, 0), out);
    return Status::kKeepOpen;
  }
  BytesReader in(frame.payload);
  std::uint32_t count = 1;
  if (frame.type == MessageType::kSubmitBatch) {
    count = in.read<std::uint32_t>("batch record count");
    if (count > frame.payload.size()) {
      malformed_submit("batch record count implausibly large");
    }
  }
  // Decode the whole frame before enqueueing any of it: a malformed
  // record anywhere fails the frame as a unit (typed error, nothing
  // applied) instead of half-applying it. The run's texts alias
  // frame.payload until the shard queue copies them.
  run_.clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    const WireRecordView wr = decode_record_view(in);
    run_.add(wr.record, wr.entry);
  }
  if (in.remaining() != 0) {
    malformed_submit("trailing bytes after submitted records");
  }
  const std::uint64_t accepted = shards_->submit(frame.stream_id, run_.run());
  const bool busy = accepted < count;
  if (busy) {
    busy_latched_ = true;
  }
  if (frame.type == MessageType::kSubmitBatch && count > 0) {
    metrics_->batches_in.inc();
  }
  if (!busy || accepted > 0) {
    // A fully-rejected frame (busy, nothing applied) leaves the
    // watermark untouched: the collector may retransmit it verbatim
    // (same seq) after backing off. A partially-applied batch DID mutate
    // engine state, so it advances the watermark like a success — the
    // kRejectedBusy reply carries the accepted count, and the collector
    // resumes from that offset with a fresh frame.
    seq_watermark_ = frame.seq;
  }
  // Both replies carry the accepted count: on kRejectedBusy the client
  // resumes the batch from this offset after backing off.
  respond(count_reply(busy ? MessageType::kRejectedBusy : MessageType::kOk,
                       frame, accepted),
          out);
  metrics_->submit_micros.record(monotonic_micros() - started);
  return Status::kKeepOpen;
}
// bgl:hot-end

void Session::handle_poll(const Frame& frame, std::string& out) {
  if (!frame.payload.empty()) {
    throw ParseError("POLL_WARNINGS carries no payload");
  }
  Frame reply;
  reply.type = MessageType::kWarnings;
  reply.stream_id = frame.stream_id;
  reply.seq = frame.seq;
  reply.payload = encode_warnings(shards_->poll(frame.stream_id));
  respond(reply, out);
}

void Session::handle_checkpoint(const Frame& frame, std::string& out) {
  if (!frame.payload.empty()) {
    throw ParseError("CHECKPOINT carries no payload");
  }
  std::ostringstream blob;
  shards_->save(blob);
  metrics_->checkpoints.inc();
  Frame reply;
  reply.type = MessageType::kCheckpointBlob;
  reply.stream_id = frame.stream_id;
  reply.seq = frame.seq;
  reply.payload = std::move(blob).str();
  respond(reply, out);
}

void Session::handle_restore(const Frame& frame, std::string& out) {
  std::istringstream blob{frame.payload};
  try {
    shards_->restore(blob);
  } catch (const Error& e) {
    respond_error(ErrorCode::kRestoreFailed, e.what(), frame, out);
    return;
  }
  metrics_->restores.inc();
  Frame reply;
  reply.type = MessageType::kOk;
  reply.stream_id = frame.stream_id;
  reply.seq = frame.seq;
  respond(reply, out);
}

void Session::handle_stats(const Frame& frame, std::string& out) {
  if (!frame.payload.empty()) {
    throw ParseError("STATS carries no payload");
  }
  shards_->drain();
  // The one legitimate wall-clock read in src/serve/: STATS dumps are
  // for humans and log pipelines, which want an absolute timestamp.
  // Every timer in this layer uses the monotonic clock (clock.hpp).
  metrics_->stats_wall_micros.set(static_cast<std::int64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          // repo-lint: allow(serve-wall-clock)
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  Frame reply;
  reply.type = MessageType::kStatsJson;
  reply.stream_id = frame.stream_id;
  reply.seq = frame.seq;
  reply.payload = metrics_->registry->dump_json();
  respond(reply, out);
}

void Session::handle_stream_status(const Frame& frame, std::string& out) {
  if (!frame.payload.empty()) {
    throw ParseError("STREAM_STATUS carries no payload");
  }
  // The reconnect watermark: how many records of this stream the server
  // has accepted over its lifetime, across every connection. A resuming
  // client (Client::submit_all_resilient) reads this after reconnecting
  // and skips exactly that many records, making retries exactly-once
  // from the engine's perspective.
  respond(count_reply(MessageType::kOk, frame,
                      shards_->stream_accepted(frame.stream_id)),
          out);
}

}  // namespace bglpred::serve
