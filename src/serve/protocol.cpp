#include "serve/protocol.hpp"

#include <bit>

#include "common/binary.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"

namespace bglpred::serve {

bool is_request_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MessageType::kSubmitRecord) &&
         type <= static_cast<std::uint8_t>(MessageType::kStreamStatus);
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadMagic:
      return "bad magic";
    case ErrorCode::kBadVersion:
      return "bad version";
    case ErrorCode::kBadType:
      return "bad message type";
    case ErrorCode::kOversizedFrame:
      return "oversized frame";
    case ErrorCode::kBadCrc:
      return "payload CRC mismatch";
    case ErrorCode::kBadPayload:
      return "malformed payload";
    case ErrorCode::kDuplicateFrame:
      return "duplicate frame";
    case ErrorCode::kRestoreFailed:
      return "restore failed";
    case ErrorCode::kNotSupported:
      return "not supported";
  }
  return "unknown error";
}

std::string encode_frame(const Frame& frame) {
  std::string out;
  out.reserve(kFrameHeaderSize + frame.payload.size());
  append_frame(out, frame);
  return out;
}

void append_frame(std::string& out, const Frame& frame) {
  BGL_REQUIRE(frame.payload.size() <= kMaxPayload,
              "frame payload exceeds kMaxPayload");
  out += kFrameMagic;
  wire::append<std::uint8_t>(out, kProtocolVersion);
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(frame.type));
  wire::append<std::uint16_t>(out, frame.flags);
  wire::append<std::uint64_t>(out, frame.stream_id);
  wire::append<std::uint32_t>(out, frame.seq);
  wire::append<std::uint32_t>(out,
                              static_cast<std::uint32_t>(frame.payload.size()));
  wire::append<std::uint32_t>(out, crc32(frame.payload));
  out += frame.payload;
}

void FrameReader::feed(std::string_view bytes) {
  // Compact lazily: drop consumed bytes once they dominate the buffer.
  if (pos_ > 4096 && pos_ * 2 > buffer_.size()) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  buffer_.append(bytes);
}

namespace {

void append_string(std::string& out, std::string_view s) {
  wire::append<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

// FrameReader::next's numbered error messages and the decoders' throws,
// out of line, so the frame-decode region below builds no string and
// spells no throw.

FrameError bad_version_error(std::uint8_t version) {
  return FrameError{ErrorCode::kBadVersion,
                    "unsupported protocol version " +
                        std::to_string(static_cast<unsigned>(version)),
                    0, 0};
}

FrameError oversized_frame_error(std::uint32_t payload_size,
                                 std::uint64_t stream_id, std::uint32_t seq) {
  return FrameError{ErrorCode::kOversizedFrame,
                    "frame payload length " + std::to_string(payload_size) +
                        " exceeds limit",
                    stream_id, seq};
}

[[noreturn]] void implausibly_long(const char* what) {
  throw ParseError(std::string("payload string implausibly long reading ") +
                   what);
}

}  // namespace

void BytesReader::truncated(const char* what) {
  throw ParseError(std::string("payload truncated reading ") + what);
}

// bgl:hot-begin(frame-decode)
// Every SUBMIT byte: framing checks and the payload CRC in next(), then
// the session's decode of each record into its run. Errors leave as
// status values from next() and through the out-of-line throws above.
FrameReader::Status FrameReader::next(Frame& frame, FrameError& error) {
  if (desynced_) {
    error = FrameError{ErrorCode::kBadMagic,
                       "frame stream desynchronized; close the connection", 0,
                       0};
    return Status::kDesync;
  }
  const std::string_view view(buffer_.data() + pos_, buffer_.size() - pos_);
  // Validate what we can as early as we can: a wrong magic or version is
  // a desync regardless of how many bytes follow.
  if (view.size() >= kFrameMagic.size() &&
      view.substr(0, kFrameMagic.size()) != kFrameMagic) {
    desynced_ = true;
    error = FrameError{ErrorCode::kBadMagic, "frame magic mismatch", 0, 0};
    return Status::kDesync;
  }
  if (view.size() >= 5 &&
      static_cast<std::uint8_t>(view[4]) != kProtocolVersion) {
    desynced_ = true;
    error = bad_version_error(static_cast<std::uint8_t>(view[4]));
    return Status::kDesync;
  }
  if (view.size() < kFrameHeaderSize) {
    return Status::kNeedMore;
  }
  const auto stream_id = wire::decode<std::uint64_t>(view.data() + 8);
  const auto seq = wire::decode<std::uint32_t>(view.data() + 16);
  const auto payload_size =
      wire::decode<std::uint32_t>(view.data() + kLengthOffset);
  const auto crc = wire::decode<std::uint32_t>(view.data() + kCrcOffset);
  if (payload_size > kMaxPayload) {
    // The length prefix itself is implausible: nothing downstream of it
    // can be trusted, so this is a desync, not a skippable frame.
    desynced_ = true;
    error = oversized_frame_error(payload_size, stream_id, seq);
    return Status::kDesync;
  }
  if (view.size() < kFrameHeaderSize + payload_size) {
    return Status::kNeedMore;
  }
  const std::string_view payload = view.substr(kFrameHeaderSize, payload_size);
  pos_ += kFrameHeaderSize + payload_size;
  if (crc32(payload) != crc) {
    error = FrameError{ErrorCode::kBadCrc, "payload CRC mismatch", stream_id,
                       seq};
    return Status::kBadFrame;
  }
  frame.type = static_cast<MessageType>(static_cast<std::uint8_t>(view[5]));
  frame.flags = wire::decode<std::uint16_t>(view.data() + 6);
  frame.stream_id = stream_id;
  frame.seq = seq;
  frame.payload.assign(payload);
  return Status::kFrame;
}

double BytesReader::read_double(const char* what) {
  return std::bit_cast<double>(read<std::uint64_t>(what));
}

std::string_view BytesReader::read_string_view(const char* what,
                                               std::size_t max_length) {
  const auto len = read<std::uint32_t>(what);
  if (len > max_length) {
    implausibly_long(what);
  }
  require(len, what);
  const std::string_view s(bytes_.data() + pos_, len);
  pos_ += len;
  return s;
}

WireRecordView decode_record_view(BytesReader& in) {
  // Enum fields pass through as raw integers on purpose: the
  // OnlineEngine's validate() is the single range-checking authority, so
  // a served stream and an in-process stream degrade identically.
  WireRecordView wr;
  RasRecord& rec = wr.record;
  rec.time = in.read<std::int64_t>("record time");
  rec.entry_data = in.read<std::uint32_t>("record entry data");
  rec.job = in.read<std::uint32_t>("record job");
  rec.location.kind =
      static_cast<bgl::LocationKind>(in.read<std::uint8_t>("location kind"));
  rec.location.rack = in.read<std::uint16_t>("location rack");
  rec.location.midplane = in.read<std::uint8_t>("location midplane");
  rec.location.node_card = in.read<std::uint8_t>("location node card");
  rec.location.unit = in.read<std::uint8_t>("location unit");
  rec.event_type =
      static_cast<EventType>(in.read<std::uint8_t>("record event type"));
  rec.facility =
      static_cast<Facility>(in.read<std::uint8_t>("record facility"));
  rec.severity =
      static_cast<Severity>(in.read<std::uint8_t>("record severity"));
  rec.subcategory = in.read<std::uint16_t>("record subcategory");
  wr.entry = in.read_string_view("record entry text");
  return wr;
}
// bgl:hot-end

std::string BytesReader::read_string(const char* what,
                                     std::size_t max_length) {
  return std::string(read_string_view(what, max_length));
}

// ---- record / warning codecs ---------------------------------------------

void encode_record(std::string& out, const RasRecord& rec,
                   std::string_view entry) {
  wire::append<std::int64_t>(out, rec.time);
  wire::append<std::uint32_t>(out, rec.entry_data);
  wire::append<std::uint32_t>(out, rec.job);
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(rec.location.kind));
  wire::append<std::uint16_t>(out, rec.location.rack);
  wire::append<std::uint8_t>(out, rec.location.midplane);
  wire::append<std::uint8_t>(out, rec.location.node_card);
  wire::append<std::uint8_t>(out, rec.location.unit);
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(rec.event_type));
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(rec.facility));
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(rec.severity));
  wire::append<std::uint16_t>(out, rec.subcategory);
  append_string(out, entry);
}

void encode_warning(std::string& out, const Warning& warning) {
  wire::append<std::int64_t>(out, warning.issued_at);
  wire::append<std::int64_t>(out, warning.window_begin);
  wire::append<std::int64_t>(out, warning.window_end);
  wire::append<std::uint64_t>(out,
                              std::bit_cast<std::uint64_t>(warning.confidence));
  wire::append<std::uint8_t>(out, warning.mergeable ? 1 : 0);
  append_string(out, warning.source);
}

Warning decode_warning(BytesReader& in) {
  Warning w;
  w.issued_at = in.read<std::int64_t>("warning issued_at");
  w.window_begin = in.read<std::int64_t>("warning window begin");
  w.window_end = in.read<std::int64_t>("warning window end");
  w.confidence = in.read_double("warning confidence");
  const auto mergeable = in.read<std::uint8_t>("warning mergeable");
  if (mergeable > 1) {
    throw ParseError("warning mergeable flag out of range");
  }
  w.mergeable = mergeable == 1;
  w.source = in.read_string("warning source");
  return w;
}

std::string encode_warnings(const std::vector<Warning>& warnings) {
  std::string out;
  wire::append<std::uint32_t>(out,
                              static_cast<std::uint32_t>(warnings.size()));
  for (const Warning& w : warnings) {
    encode_warning(out, w);
  }
  return out;
}

std::vector<Warning> decode_warnings(std::string_view payload) {
  BytesReader in(payload);
  const auto count = in.read<std::uint32_t>("warning count");
  if (count > payload.size()) {
    // Each warning needs well over one byte; a count larger than the
    // payload is a corrupt length, not a big list.
    throw ParseError("warning count implausibly large");
  }
  std::vector<Warning> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.push_back(decode_warning(in));
  }
  if (in.remaining() != 0) {
    throw ParseError("trailing bytes after warning list");
  }
  return out;
}

// ---- typed frame builders ------------------------------------------------

Frame make_error_frame(const FrameError& error) {
  Frame frame;
  frame.type = MessageType::kError;
  frame.stream_id = error.stream_id;
  frame.seq = error.seq;
  wire::append<std::uint16_t>(frame.payload,
                              static_cast<std::uint16_t>(error.code));
  append_string(frame.payload, error.message);
  return frame;
}

std::string encode_error_frame(const FrameError& error) {
  return encode_frame(make_error_frame(error));
}

FrameError decode_error_payload(const Frame& frame) {
  BGL_REQUIRE(frame.type == MessageType::kError,
              "decode_error_payload needs a kError frame");
  BytesReader in(frame.payload);
  FrameError error;
  error.code = static_cast<ErrorCode>(in.read<std::uint16_t>("error code"));
  error.message = in.read_string("error message");
  error.stream_id = frame.stream_id;
  error.seq = frame.seq;
  return error;
}

}  // namespace bglpred::serve
