// Tests for the serve wire protocol (framing, payload codecs) and the
// common metrics registry it reports through.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "crc32_oracle.hpp"
#include "serve/protocol.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred::serve {
namespace {

// ---- CRC-32 --------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
}

TEST(Crc32Test, SeedChainsMultiPartComputations) {
  const std::uint32_t whole = crc32("123456789");
  const std::uint32_t part = crc32("6789", crc32("12345"));
  EXPECT_EQ(part, whole);
}

using Crc32Kernel = std::uint32_t (*)(std::string_view, std::uint32_t);

/// Runs `kernel` against the bytewise oracle at 8 start alignments over
/// every length 0..4096, then 64 KiB - 15 .. 64 KiB + 15 and 1 MiB + 7,
/// each CRC seeding the next, so a wrong table or constant, a mishandled
/// head or tail, or a slip in the folded kernel's lanes or its handover
/// to the slicing tail shows up.
void expect_kernel_equals_oracle(Crc32Kernel kernel) {
  constexpr std::size_t kMaxLength = (1u << 20) + 7;
  std::string bytes(kMaxLength + 8, '\0');
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (char& c : bytes) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    c = static_cast<char>(x);
  }
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 4096; ++length) {
    lengths.push_back(length);
  }
  for (std::size_t length = (64u << 10) - 15; length <= (64u << 10) + 15;
       ++length) {
    lengths.push_back(length);
  }
  lengths.push_back(kMaxLength);
  std::uint32_t fast = 0;
  std::uint32_t slow = 0;
  for (std::size_t align = 0; align < 8; ++align) {
    for (const std::size_t length : lengths) {
      const std::string_view data(bytes.data() + align, length);
      fast = kernel(data, fast);
      slow = oracle::crc32_bytewise(data, slow);
      ASSERT_EQ(fast, slow) << "length " << length << " alignment " << align;
    }
  }
}

TEST(Crc32Test, SlicingKernelEqualsBytewiseOracle) {
  expect_kernel_equals_oracle(&crc32_slicing);
  EXPECT_EQ(oracle::crc32_bytewise("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, FoldedKernelEqualsBytewiseOracle) {
  if (!crc32_folded_supported()) {
    GTEST_SKIP() << "no folded kernel here: this CPU lacks PCLMULQDQ and "
                    "SSE4.1, or the build is not x86-64";
  }
  expect_kernel_equals_oracle(&crc32_folded);
}

TEST(Crc32Test, SelectedKernelEqualsBytewiseOracle) {
  // Whichever kernel crc32() picked on this CPU.
  expect_kernel_equals_oracle([](std::string_view data, std::uint32_t seed) {
    return crc32(data, seed);
  });
}

// ---- framing -------------------------------------------------------------

Frame sample_frame(std::uint32_t seq = 7) {
  Frame f;
  f.type = MessageType::kSubmitRecord;
  f.stream_id = 0xDEADBEEFCAFEF00DULL;
  f.seq = seq;
  f.payload = "payload bytes";
  return f;
}

TEST(FrameTest, EncodeDecodeRoundtrip) {
  const Frame sent = sample_frame();
  FrameReader reader;
  reader.feed(encode_frame(sent));
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.stream_id, sent.stream_id);
  EXPECT_EQ(got.seq, sent.seq);
  EXPECT_EQ(got.payload, sent.payload);
  EXPECT_EQ(reader.next(got, error), FrameReader::Status::kNeedMore);
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(FrameTest, EncodedBytesArePinned) {
  // Wire protocol version 1, byte for byte (the CRC is zlib's crc32 of
  // "payload bytes"): a kernel or encoder change must not move a byte.
  const std::string want =
      "42474c53010100000df0fecaefbeadde070000000d000000aaa5b6d8"
      "7061796c6f6164206279746573";
  const std::string bytes = encode_frame(sample_frame());
  std::string hex;
  for (const char c : bytes) {
    constexpr char kDigits[] = "0123456789abcdef";
    hex += kDigits[static_cast<unsigned char>(c) >> 4];
    hex += kDigits[static_cast<unsigned char>(c) & 0xf];
  }
  EXPECT_EQ(hex, want);
  std::string appended = "prefix";
  append_frame(appended, sample_frame());
  EXPECT_EQ(appended, "prefix" + bytes);
}

TEST(FrameTest, IncrementalFeedNeedsEveryByte) {
  const std::string bytes = encode_frame(sample_frame());
  FrameReader reader;
  Frame got;
  FrameError error;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    reader.feed(std::string_view(bytes).substr(i, 1));
    ASSERT_EQ(reader.next(got, error), FrameReader::Status::kNeedMore)
        << "frame decoded after only " << i + 1 << " bytes";
  }
  reader.feed(std::string_view(bytes).substr(bytes.size() - 1));
  EXPECT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
}

TEST(FrameTest, MultipleFramesInOneFeed) {
  FrameReader reader;
  reader.feed(encode_frame(sample_frame(1)) + encode_frame(sample_frame(2)));
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.seq, 1u);
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.seq, 2u);
  EXPECT_EQ(reader.next(got, error), FrameReader::Status::kNeedMore);
}

TEST(FrameTest, BadCrcIsRecoverableAndReaderStaysSynced) {
  std::string damaged = encode_frame(sample_frame(1));
  damaged[kFrameHeaderSize] ^= 0x01;  // flip one payload bit
  FrameReader reader;
  reader.feed(damaged + encode_frame(sample_frame(2)));
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kBadFrame);
  EXPECT_EQ(error.code, ErrorCode::kBadCrc);
  EXPECT_EQ(error.seq, 1u);
  // The damaged frame's extent was trustworthy, so the next frame parses.
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame);
  EXPECT_EQ(got.seq, 2u);
}

TEST(FrameTest, BadMagicDesynchronizes) {
  std::string bytes = encode_frame(sample_frame());
  bytes[0] = 'X';
  FrameReader reader;
  reader.feed(bytes);
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kDesync);
  EXPECT_EQ(error.code, ErrorCode::kBadMagic);
  // A desynced reader never yields frames again, even for valid bytes.
  reader.feed(encode_frame(sample_frame()));
  EXPECT_EQ(reader.next(got, error), FrameReader::Status::kDesync);
}

TEST(FrameTest, BadVersionDesynchronizes) {
  std::string bytes = encode_frame(sample_frame());
  bytes[4] = static_cast<char>(kProtocolVersion + 1);
  FrameReader reader;
  reader.feed(bytes);
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kDesync);
  EXPECT_EQ(error.code, ErrorCode::kBadVersion);
}

TEST(FrameTest, OversizedLengthPrefixDesynchronizes) {
  std::string bytes = encode_frame(sample_frame());
  // Patch the little-endian payload-size field to kMaxPayload + 1.
  const std::uint32_t huge = kMaxPayload + 1;
  for (std::size_t b = 0; b < 4; ++b) {
    bytes[kLengthOffset + b] = static_cast<char>((huge >> (8 * b)) & 0xff);
  }
  FrameReader reader;
  reader.feed(bytes);
  Frame got;
  FrameError error;
  ASSERT_EQ(reader.next(got, error), FrameReader::Status::kDesync);
  EXPECT_EQ(error.code, ErrorCode::kOversizedFrame);
  EXPECT_EQ(error.stream_id, sample_frame().stream_id);
}

TEST(FrameTest, RejectsOversizedPayloadAtEncode) {
  Frame f = sample_frame();
  f.payload.assign(kMaxPayload + 1, 'x');
  EXPECT_THROW(encode_frame(f), Error);
}

// ---- payload codecs ------------------------------------------------------

RasRecord sample_record() {
  const SubcategoryInfo& torus = catalog().info(catalog().find("torusFailure"));
  RasRecord rec;
  rec.time = 123456;
  rec.job = 42;
  rec.location = bgl::Location::make_compute_chip(3, 1, 7, 2);
  rec.event_type = EventType::kRas;
  rec.facility = torus.facility;
  rec.severity = torus.severity;
  return rec;
}

TEST(CodecTest, RecordRoundtrip) {
  const RasRecord rec = sample_record();
  const std::string entry = "TORUS non-recoverable error seq=1";
  std::string bytes;
  encode_record(bytes, rec, entry);
  BytesReader in(bytes);
  const WireRecordView got = decode_record_view(in);
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(got.record.time, rec.time);
  EXPECT_EQ(got.record.job, rec.job);
  EXPECT_EQ(got.record.location.kind, rec.location.kind);
  EXPECT_EQ(got.record.location.rack, rec.location.rack);
  EXPECT_EQ(got.record.location.midplane, rec.location.midplane);
  EXPECT_EQ(got.record.location.node_card, rec.location.node_card);
  EXPECT_EQ(got.record.location.unit, rec.location.unit);
  EXPECT_EQ(got.record.event_type, rec.event_type);
  EXPECT_EQ(got.record.facility, rec.facility);
  EXPECT_EQ(got.record.severity, rec.severity);
  EXPECT_EQ(got.record.subcategory, rec.subcategory);
  EXPECT_EQ(got.entry, entry);
}

TEST(CodecTest, TruncatedRecordThrowsParseError) {
  // Every proper prefix: a cut inside any fixed field, the text length
  // or the text fails the decode with a ParseError, never a read past it.
  std::string bytes;
  encode_record(bytes, sample_record(), "entry");
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    BytesReader in(std::string_view(bytes).substr(0, keep));
    EXPECT_THROW(decode_record_view(in), ParseError) << "kept " << keep;
  }
  BytesReader whole(bytes);
  EXPECT_EQ(decode_record_view(whole).entry, "entry");
}

/// The ParseError message of decoding `bytes` as one record, or "" if
/// it decodes.
std::string record_decode_error(std::string_view bytes) {
  BytesReader in(bytes);
  try {
    decode_record_view(in);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(CodecTest, BadEntryTextLengthNamesTheField) {
  std::string bytes;
  encode_record(bytes, sample_record(), "entry");
  const std::size_t length_at = bytes.size() - 5 - 4;
  const auto with_length = [&](std::uint32_t length) {
    std::string out = bytes;
    for (int b = 0; b < 4; ++b) {
      out[length_at + b] = static_cast<char>((length >> (8 * b)) & 0xff);
    }
    return out;
  };
  // Above the 64 KiB bound, whatever follows.
  EXPECT_EQ(record_decode_error(with_length(65537) + std::string(70000, 'x')),
            "payload string implausibly long reading record entry text");
  // Within the bound, but longer than the bytes left.
  EXPECT_EQ(record_decode_error(with_length(6)),
            "payload truncated reading record entry text");
  EXPECT_EQ(record_decode_error(with_length(5)), "");
  // The bound itself is a legal length.
  std::string longest;
  encode_record(longest, sample_record(), std::string(65536, 't'));
  EXPECT_EQ(record_decode_error(longest), "");
}

TEST(CodecTest, WarningRoundtripPreservesEveryField) {
  Warning w;
  w.issued_at = -5;  // times may be negative (relative clocks)
  w.window_begin = 100;
  w.window_end = 1900;
  w.confidence = 0.8125;
  w.source = "meta";
  w.mergeable = true;
  std::string bytes;
  encode_warning(bytes, w);
  BytesReader in(bytes);
  const Warning got = decode_warning(in);
  EXPECT_EQ(got.issued_at, w.issued_at);
  EXPECT_EQ(got.window_begin, w.window_begin);
  EXPECT_EQ(got.window_end, w.window_end);
  EXPECT_EQ(got.confidence, w.confidence);
  EXPECT_EQ(got.source, w.source);
  EXPECT_EQ(got.mergeable, w.mergeable);
}

TEST(CodecTest, WarningListRoundtripIsByteStable) {
  std::vector<Warning> list(3);
  for (std::size_t i = 0; i < list.size(); ++i) {
    list[i].issued_at = static_cast<TimePoint>(i * 100);
    list[i].window_end = static_cast<TimePoint>(i * 100 + 1800);
    list[i].confidence = 0.25 * static_cast<double>(i);
    list[i].source = "rule";
  }
  const std::string bytes = encode_warnings(list);
  const std::vector<Warning> got = decode_warnings(bytes);
  ASSERT_EQ(got.size(), list.size());
  // Byte-identity through the codec: re-encoding the decoded list must
  // reproduce the exact payload (this is the equivalence test's measure).
  EXPECT_EQ(encode_warnings(got), bytes);
}

TEST(CodecTest, WarningListRejectsCorruptShapes) {
  const std::string bytes = encode_warnings({Warning{}});
  EXPECT_THROW(decode_warnings(bytes + "x"), ParseError);  // trailing bytes
  std::string huge_count = bytes;
  huge_count[0] = '\xff';
  huge_count[1] = '\xff';
  huge_count[2] = '\xff';
  huge_count[3] = '\xff';
  EXPECT_THROW(decode_warnings(huge_count), ParseError);
}

TEST(CodecTest, ErrorFrameRoundtrip) {
  const FrameError sent{ErrorCode::kBadPayload, "broken \"quoted\" field", 9,
                        31};
  FrameReader reader;
  reader.feed(encode_error_frame(sent));
  Frame frame;
  FrameError frame_error;
  ASSERT_EQ(reader.next(frame, frame_error), FrameReader::Status::kFrame);
  ASSERT_EQ(frame.type, MessageType::kError);
  const FrameError got = decode_error_payload(frame);
  EXPECT_EQ(got.code, sent.code);
  EXPECT_EQ(got.message, sent.message);
  EXPECT_EQ(got.stream_id, sent.stream_id);
  EXPECT_EQ(got.seq, sent.seq);
}

TEST(CodecTest, RequestTypePredicate) {
  EXPECT_TRUE(is_request_type(
      static_cast<std::uint8_t>(MessageType::kSubmitRecord)));
  EXPECT_TRUE(is_request_type(static_cast<std::uint8_t>(MessageType::kShutdown)));
  EXPECT_FALSE(is_request_type(0));
  EXPECT_FALSE(is_request_type(static_cast<std::uint8_t>(MessageType::kOk)));
  EXPECT_FALSE(is_request_type(255));
}

TEST(CodecTest, EveryWireOpcodeRoundtripsThroughTheFramer) {
  // The full MessageType inventory — adding an opcode without extending
  // this list trips the drift check in tools/repo_analyze.py.
  const MessageType requests[] = {
      MessageType::kSubmitRecord, MessageType::kSubmitBatch,
      MessageType::kPollWarnings, MessageType::kCheckpoint,
      MessageType::kRestore,      MessageType::kStats,
      MessageType::kShutdown,     MessageType::kStreamStatus,
  };
  const MessageType responses[] = {
      MessageType::kOk,        MessageType::kWarnings,
      MessageType::kCheckpointBlob, MessageType::kStatsJson,
      MessageType::kError,     MessageType::kRejectedBusy,
      MessageType::kRejectedOverloaded,
  };
  const auto roundtrip = [](MessageType type, bool request) {
    Frame f = sample_frame();
    f.type = type;
    FrameReader reader;
    reader.feed(encode_frame(f));
    Frame got;
    FrameError error;
    ASSERT_EQ(reader.next(got, error), FrameReader::Status::kFrame)
        << "opcode " << static_cast<unsigned>(type);
    EXPECT_EQ(got.type, type);
    EXPECT_EQ(is_request_type(static_cast<std::uint8_t>(type)), request)
        << "opcode " << static_cast<unsigned>(type);
  };
  for (const MessageType type : requests) {
    roundtrip(type, /*request=*/true);
  }
  for (const MessageType type : responses) {
    roundtrip(type, /*request=*/false);
  }
}

// ---- metrics registry ----------------------------------------------------

TEST(MetricsTest, SameNameReturnsSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("records");
  Counter& b = registry.counter("records");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST(MetricsTest, NameKindConflictThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), InvalidArgument);
  EXPECT_THROW(registry.histogram("x"), InvalidArgument);
  registry.gauge("y");
  EXPECT_THROW(registry.counter("y"), InvalidArgument);
}

TEST(MetricsTest, HistogramQuantilesBracketSamples) {
  MetricsRegistry registry;
  Histogram& h = registry.histogram("latency");
  for (std::uint64_t v = 0; v < 100; ++v) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 4950u);
  // Power-of-two resolution: the quantile is the holding bucket's upper
  // bound, so it can only overshoot the true value, never undershoot.
  EXPECT_GE(h.quantile(0.5), 49u);
  EXPECT_LE(h.quantile(0.5), 63u);
  EXPECT_GE(h.quantile(0.99), 99u);
  EXPECT_LE(h.quantile(0.99), 127u);
  EXPECT_GE(h.quantile(1.0), h.quantile(0.0));
}

TEST(MetricsTest, DumpJsonIsDeterministicAndSorted) {
  MetricsRegistry registry;
  // Register in unsorted order; the dump must not care.
  registry.counter("zeta").inc(2);
  registry.counter("alpha").inc(1);
  registry.gauge("depth").set(-4);
  registry.histogram("lat").record(7);
  const std::string a = registry.dump_json();
  const std::string b = registry.dump_json();
  EXPECT_EQ(a, b);
  EXPECT_LT(a.find("\"alpha\":1"), a.find("\"zeta\":2"));
  EXPECT_NE(a.find("\"depth\":-4"), std::string::npos);
  EXPECT_NE(a.find("\"lat\":{\"count\":1,\"sum\":7"), std::string::npos);
}

}  // namespace
}  // namespace bglpred::serve
