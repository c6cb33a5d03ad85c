// Framed wire protocol for the sharded prediction service (DESIGN §8).
//
// Every message travels as one length-prefixed frame:
//
//   offset size  field
//   0      4     magic "BGLS"
//   4      1     protocol version (kProtocolVersion)
//   5      1     message type (MessageType)
//   6      2     flags (bit 0: kFlagPipelineFollow; rest reserved 0)
//   8      8     stream id (which RAS stream the message concerns)
//   16     4     request sequence number (responses echo it)
//   20     4     payload size (bounded by kMaxPayload)
//   24     4     CRC-32 of the payload bytes
//   28     -     payload
//
// All integers are little-endian (common/binary.hpp byte order). The
// frame layer is deliberately dumb: FrameReader only validates framing
// (magic, version, size bound, CRC) and classifies damage as either
// *recoverable* (the frame's extent is trustworthy, so the reader skips
// it and stays synchronized — bad CRC) or *desync* (the length prefix
// itself cannot be trusted — bad magic/version/oversized length — and
// the only safe move is to drop the connection). Payload decoding is a
// separate, strict layer: decoders throw ParseError, and the session
// layer converts every such throw into a typed ERROR frame — no decode
// error ever propagates past the session (ISSUE 4).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "predict/predictor.hpp"
#include "raslog/record.hpp"

namespace bglpred::serve {

inline constexpr std::string_view kFrameMagic = "BGLS";
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 28;

/// Header flag bits. Bit 0 marks a submit frame as a *non-head* member
/// of a client pipeline window: if an earlier frame of the same window
/// already hit REJECTED_BUSY, the session auto-rejects followers with
/// accepted=0 instead of applying them — otherwise a later frame could
/// slip records into the engine ahead of the rejected remainder of an
/// earlier one, breaking stream order. Frames without the bit (every
/// legacy frame, and the head of each window) clear the latch and are
/// processed normally, so the flag is fully backward compatible.
/// Remaining bits stay reserved (senders must leave them 0; receivers
/// ignore them).
inline constexpr std::uint16_t kFlagPipelineFollow = 0x1;
/// Checkpoint blobs ride in a single frame, so the bound is generous;
/// it exists to reject corrupt length prefixes, not to limit payloads.
inline constexpr std::uint32_t kMaxPayload = 32u << 20;

// Byte offsets of header fields, exported so the fault-injection suite
// can corrupt specific fields without re-deriving the layout.
inline constexpr std::size_t kLengthOffset = 20;
inline constexpr std::size_t kCrcOffset = 24;

/// Request types (client -> server) and response types (server ->
/// client). Response values have the top bit set.
enum class MessageType : std::uint8_t {
  // Requests.
  kSubmitRecord = 1,   ///< one record + raw entry text
  kSubmitBatch = 2,    ///< u32 count, then count records
  kPollWarnings = 3,   ///< drain the stream's pending warnings
  kCheckpoint = 4,     ///< serialize the whole shard set
  kRestore = 5,        ///< payload: a checkpoint blob
  kStats = 6,          ///< metrics registry as JSON
  kShutdown = 7,       ///< drain the server: stop accepting, flush, stop
  kStreamStatus = 8,   ///< lifetime accepted count for the stream id
  // Responses.
  kOk = 128,             ///< u64 accepted count (submits) or empty
  kWarnings = 129,       ///< u32 count, then count warnings
  kCheckpointBlob = 130, ///< raw checkpoint bytes
  kStatsJson = 131,      ///< raw JSON text
  kError = 132,          ///< u16 ErrorCode + string message
  kRejectedBusy = 133,   ///< u64 records accepted before the queue filled
  /// The server refused the request for overload-protection reasons
  /// (admission shed at the connection/memory ceiling, per-connection
  /// inbound budget exceeded, or a drain in progress) — as opposed to
  /// kRejectedBusy's shard-queue backpressure. Carries u64 accepted=0;
  /// the seq watermark is untouched and the session's busy latch is
  /// set, so the retransmit/resume discipline is identical to a fully
  /// rejected busy submit: back off, then retransmit verbatim.
  kRejectedOverloaded = 134,
};

/// True for values in the request range the server dispatches on.
bool is_request_type(std::uint8_t type);

/// Typed error codes carried by kError frames.
enum class ErrorCode : std::uint16_t {
  kBadMagic = 1,
  kBadVersion = 2,
  kBadType = 3,
  kOversizedFrame = 4,
  kBadCrc = 5,
  kBadPayload = 6,
  kDuplicateFrame = 7,
  kRestoreFailed = 8,
  kNotSupported = 9,
};

const char* to_string(ErrorCode code);

/// One decoded frame.
struct Frame {
  MessageType type = MessageType::kError;
  std::uint16_t flags = 0;  ///< kFlagPipelineFollow | reserved bits
  std::uint64_t stream_id = 0;
  std::uint32_t seq = 0;
  std::string payload;
};

/// What went wrong while framing, for building the typed error reply.
struct FrameError {
  ErrorCode code = ErrorCode::kBadMagic;
  std::string message;
  std::uint64_t stream_id = 0;  ///< best-effort echo from the header
  std::uint32_t seq = 0;        ///< best-effort echo from the header
};

/// Appends one serialized frame (header + CRC + payload) to `out`.
void append_frame(std::string& out, const Frame& frame);
/// The same bytes as a new string.
std::string encode_frame(const Frame& frame);

/// Incremental frame decoder over a byte stream. Feed bytes as they
/// arrive; pull frames until kNeedMore.
class FrameReader {
 public:
  enum class Status : std::uint8_t {
    kFrame,     ///< `frame` holds a validated frame
    kNeedMore,  ///< no complete frame buffered yet
    kBadFrame,  ///< damaged frame skipped; `error` filled; reader synced
    kDesync,    ///< framing unrecoverable; `error` filled; close the
                ///< connection after sending the error frame
  };

  void feed(std::string_view bytes);
  Status next(Frame& frame, FrameError& error);

  /// Bytes buffered but not yet consumed (0 after a clean EOF).
  std::size_t buffered() const { return buffer_.size() - pos_; }

 private:
  std::string buffer_;
  std::size_t pos_ = 0;
  bool desynced_ = false;
};

// ---- payload codecs ------------------------------------------------------
//
// Encoders append to a byte buffer; decoders read from a BytesReader and
// throw ParseError on malformed input (short payload, implausible
// lengths, trailing garbage is the caller's check via remaining()).

/// Bounded cursor over a payload. read<T> and read_string mirror the
/// stream helpers in common/binary.hpp for in-memory buffers.
class BytesReader {
 public:
  explicit BytesReader(std::string_view bytes) : bytes_(bytes) {}

  double read_double(const char* what);
  std::string read_string(const char* what,
                          std::size_t max_length = (1u << 16));

  /// Zero-copy form of read_string: the returned view aliases the
  /// reader's underlying buffer and is valid for that buffer's lifetime
  /// (for frames: until the Frame's payload is destroyed or mutated).
  std::string_view read_string_view(const char* what,
                                    std::size_t max_length = (1u << 16));

  std::size_t remaining() const { return bytes_.size() - pos_; }

  // bgl:hot-begin(frame-decode)
  // Per field of every decoded record: a bounds check inlined into the
  // decoder, then a little-endian load.
  template <typename T>
  T read(const char* what) {
    require(sizeof(T), what);
    const std::size_t off = pos_;
    pos_ += sizeof(T);
    std::uint64_t raw = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      raw |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes_[off + i]))
             << (8 * i);
    }
    return static_cast<T>(raw);
  }

 private:
  void require(std::size_t n, const char* what) const {
    if (bytes_.size() - pos_ < n) [[unlikely]] {
      truncated(what);
    }
  }
  // bgl:hot-end

  /// Throws ParseError("payload truncated reading <what>"); out of line,
  /// so each inlined check stays one compare and a branch.
  [[noreturn]] static void truncated(const char* what);

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// A record plus the raw ENTRY_DATA text the server classifies from,
/// owned: what clients submit.
struct WireRecord {
  RasRecord record;
  std::string entry;
};

/// A decoded record: `entry` aliases the payload (see
/// BytesReader::read_string_view), so the frame must outlive the view.
/// The session decodes a SUBMIT into a run of these, and the shard queue
/// copies each distinct text of the run once.
struct WireRecordView {
  RasRecord record;
  std::string_view entry;
};

void encode_record(std::string& out, const RasRecord& rec,
                   std::string_view entry);
WireRecordView decode_record_view(BytesReader& in);

void encode_warning(std::string& out, const Warning& warning);
Warning decode_warning(BytesReader& in);

/// Serializes a warning list exactly as a kWarnings payload; the
/// equivalence test compares served and in-process warnings through
/// this single encoding, making "byte-identical" precise.
std::string encode_warnings(const std::vector<Warning>& warnings);
std::vector<Warning> decode_warnings(std::string_view payload);

// ---- typed frame builders ------------------------------------------------

std::string encode_error_frame(const FrameError& error);
Frame make_error_frame(const FrameError& error);

/// Decodes a kError payload back into (code, message).
FrameError decode_error_payload(const Frame& frame);

}  // namespace bglpred::serve
