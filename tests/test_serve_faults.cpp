// Frame-level fault-injection property suite for the serve session
// layer (ISSUE 4 satellite; runs under the `faultinject` ctest label and
// the asan-ubsan CI job).
//
// For every seed, a valid request stream is damaged with the faultinject
// byte ops — truncated frame, corrupted length prefix, corrupted CRC
// field, corrupted payload, duplicated frame — and fed to a Session. The
// properties: on_bytes never throws, every damaged request is answered
// with a *typed* kError frame (never silence, never garbage), duplicate
// frames are not re-applied, and the service keeps serving valid
// requests afterwards (same session for recoverable damage, a fresh
// session — a new connection — after a framing desync). A live server
// must also answer a RESTORE of a checkpoint whose rules carry
// out-of-range confidences with RESTORE_FAILED and keep serving its
// streams unchanged.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/binary.hpp"
#include "common/rng.hpp"
#include "core/three_phase.hpp"
#include "faultinject/faults.hpp"
#include "serve/client.hpp"
#include "serve/outbox.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/shard_manager.hpp"
#include "simgen/generator.hpp"

namespace bglpred::serve {
namespace {

constexpr std::uint64_t kSeeds = 12;

struct Harness {
  explicit Harness(const ThreePhasePredictor& tpp) : registry() {
    ShardOptions options;
    options.shard_count = 2;
    options.queue_capacity = 64;
    options.predictor_factory = [&tpp] {
      return tpp.make_predictor(Method::kEveryFailure);
    };
    manager = std::make_unique<ShardManager>(options, registry);
    session = std::make_unique<Session>(*manager);
  }

  MetricsRegistry registry;
  std::unique_ptr<ShardManager> manager;
  std::unique_ptr<Session> session;
};

std::string submit_frame_bytes(const WireRecord& wr, std::uint32_t seq) {
  Frame frame;
  frame.type = MessageType::kSubmitRecord;
  frame.stream_id = 1;
  frame.seq = seq;
  encode_record(frame.payload, wr.record, wr.entry);
  return encode_frame(frame);
}

std::string poll_frame_bytes(std::uint32_t seq) {
  Frame frame;
  frame.type = MessageType::kPollWarnings;
  frame.stream_id = 1;
  frame.seq = seq;
  return encode_frame(frame);
}

std::vector<Frame> parse_frames(const std::string& bytes) {
  FrameReader reader;
  reader.feed(bytes);
  std::vector<Frame> frames;
  Frame frame;
  FrameError error;
  while (reader.next(frame, error) == FrameReader::Status::kFrame) {
    frames.push_back(frame);
  }
  return frames;
}

bool has_error_frame(const std::vector<Frame>& frames) {
  for (const Frame& f : frames) {
    if (f.type == MessageType::kError) {
      decode_error_payload(f);  // must itself be well-formed
      return true;
    }
  }
  return false;
}

/// A fresh session on the harness (a reconnecting client) must still be
/// served: a poll gets a kWarnings response.
void expect_still_serving(Harness& h, std::uint32_t seq) {
  Session fresh(*h.manager);
  std::string out;
  EXPECT_EQ(fresh.on_bytes(poll_frame_bytes(seq), out),
            Session::Status::kKeepOpen);
  const auto frames = parse_frames(out);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, MessageType::kWarnings);
}

const std::vector<WireRecord>& shared_records() {
  static const std::vector<WireRecord> records = [] {
    GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
    std::vector<WireRecord> out;
    const std::size_t n = std::min<std::size_t>(32, g.log.records().size());
    for (std::size_t i = 0; i < n; ++i) {
      const RasRecord& rec = g.log.records()[i];
      out.push_back(WireRecord{rec, g.log.text_of(rec)});
    }
    return out;
  }();
  return records;
}

TEST(ServeFaultsTest, TruncatedFrameNeverCrashesAndServiceSurvives) {
  const ThreePhasePredictor tpp;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    Harness h(tpp);
    const std::string whole = submit_frame_bytes(shared_records()[0], 1);
    // Cut strictly short so the frame can never complete.
    InjectionStats stats;
    std::string cut = truncate_blob(whole, rng, 0.0, &stats);
    if (cut.size() == whole.size()) {
      cut = whole.substr(0, whole.size() - 1);
    }
    std::string out;
    const auto status = h.session->on_bytes(cut, out);
    // A truncated frame is just an incomplete read: no response yet, the
    // session waits for the rest.
    EXPECT_EQ(status, Session::Status::kKeepOpen);
    EXPECT_TRUE(parse_frames(out).empty());
    // Feeding the missing tail completes the request normally.
    out.clear();
    h.session->on_bytes(std::string_view(whole).substr(cut.size()), out);
    const auto frames = parse_frames(out);
    ASSERT_EQ(frames.size(), 1u) << "seed " << seed;
    EXPECT_EQ(frames[0].type, MessageType::kOk);
    expect_still_serving(h, 2);
  }
}

TEST(ServeFaultsTest, CorruptedLengthPrefixGetsTypedErrorAndReconnectWorks) {
  const ThreePhasePredictor tpp;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    Harness h(tpp);
    const std::string damaged = corrupt_bytes_in_range(
        submit_frame_bytes(shared_records()[0], 1), kLengthOffset,
        kLengthOffset + 4, rng);
    std::string out;
    Session::Status status = h.session->on_bytes(damaged, out);
    if (status == Session::Status::kKeepOpen && parse_frames(out).empty()) {
      // A *larger* (but in-bounds) length makes the reader wait for the
      // phantom remainder; flush exactly that many zero bytes, which
      // must then fail the CRC and may desync the reader on the padding.
      const auto bad_len =
          wire::decode<std::uint32_t>(damaged.data() + kLengthOffset);
      status = h.session->on_bytes(std::string(bad_len, '\0'), out);
    }
    // Whatever the damage decoded as, the session answered with at least
    // one typed error frame and never threw.
    EXPECT_TRUE(has_error_frame(parse_frames(out))) << "seed " << seed;
    // No record from the damaged frame may have been applied cleanly
    // *and* silently: either it was rejected (no records_in) or the
    // length field happened to survive semantically (same value) — but a
    // changed byte guarantees it did not.
    EXPECT_EQ(h.manager->metrics().records_in.value(), 0u) << "seed " << seed;
    expect_still_serving(h, 2);
  }
}

TEST(ServeFaultsTest, CorruptedCrcFieldIsRecoverable) {
  const ThreePhasePredictor tpp;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    Harness h(tpp);
    const std::string damaged = corrupt_bytes_in_range(
        submit_frame_bytes(shared_records()[0], 1), kCrcOffset, kCrcOffset + 4,
        rng);
    std::string out;
    // CRC damage is recoverable: the frame extent is trustworthy, so the
    // session skips it, answers kBadCrc, and the SAME connection serves
    // the next request.
    EXPECT_EQ(h.session->on_bytes(damaged, out), Session::Status::kKeepOpen)
        << "seed " << seed;
    auto frames = parse_frames(out);
    ASSERT_EQ(frames.size(), 1u) << "seed " << seed;
    ASSERT_EQ(frames[0].type, MessageType::kError);
    EXPECT_EQ(decode_error_payload(frames[0]).code, ErrorCode::kBadCrc);
    EXPECT_EQ(h.manager->metrics().records_in.value(), 0u);

    out.clear();
    h.session->on_bytes(submit_frame_bytes(shared_records()[1], 2), out);
    frames = parse_frames(out);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, MessageType::kOk);
    EXPECT_EQ(h.manager->metrics().records_in.value(), 1u);
  }
}

TEST(ServeFaultsTest, CorruptedPayloadGetsTypedErrorNotGarbageRecords) {
  const ThreePhasePredictor tpp;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    Harness h(tpp);
    const std::string whole = submit_frame_bytes(shared_records()[0], 1);
    const std::string damaged = corrupt_bytes_in_range(
        whole, kFrameHeaderSize, whole.size(), rng);
    std::string out;
    EXPECT_EQ(h.session->on_bytes(damaged, out), Session::Status::kKeepOpen);
    const auto frames = parse_frames(out);
    ASSERT_EQ(frames.size(), 1u) << "seed " << seed;
    ASSERT_EQ(frames[0].type, MessageType::kError);
    // Any payload byte flip must trip the CRC before decoding starts.
    EXPECT_EQ(decode_error_payload(frames[0]).code, ErrorCode::kBadCrc);
    EXPECT_EQ(h.manager->metrics().records_in.value(), 0u);
    expect_still_serving(h, 2);
  }
}

TEST(ServeFaultsTest, DuplicatedFrameIsDetectedAndAppliedOnce) {
  const ThreePhasePredictor tpp;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Harness h(tpp);
    InjectionStats stats;
    const std::string doubled =
        duplicate_blob(submit_frame_bytes(shared_records()[0], 1), &stats);
    EXPECT_EQ(stats.duplicated_lines, 1u);
    std::string out;
    EXPECT_EQ(h.session->on_bytes(doubled, out), Session::Status::kKeepOpen);
    const auto frames = parse_frames(out);
    ASSERT_EQ(frames.size(), 2u) << "seed " << seed;
    EXPECT_EQ(frames[0].type, MessageType::kOk);
    ASSERT_EQ(frames[1].type, MessageType::kError);
    EXPECT_EQ(decode_error_payload(frames[1]).code,
              ErrorCode::kDuplicateFrame);
    // Applied exactly once: the engine saw one record, not two.
    EXPECT_EQ(h.manager->metrics().records_in.value(), 1u);
    EXPECT_EQ(h.manager->metrics().duplicate_frames.value(), 1u);
    expect_still_serving(h, 2);
  }
}

TEST(ServeFaultsTest, RandomByteSoupNeverEscapesTheSession) {
  const ThreePhasePredictor tpp;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    Harness h(tpp);
    std::string soup(512, '\0');
    for (char& c : soup) {
      c = static_cast<char>(rng.uniform_int(0, 255));
    }
    std::string out;
    // The only property: no throw, and any response bytes are themselves
    // well-formed frames.
    const auto status = h.session->on_bytes(soup, out);
    (void)status;
    for (const Frame& f : parse_frames(out)) {
      EXPECT_EQ(f.type, MessageType::kError);
    }
    expect_still_serving(h, 1);
  }
}

// ---- Corrupt rule models through RESTORE ---------------------------------

/// save_state of a meta-learner trained on a DC-Prophet history.
const std::string& dcp_model() {
  static const std::string model = [] {
    const ThreePhasePredictor tpp;
    RasLog history =
        LogGenerator(SystemProfile::dc_prophet()).generate(0.01, 0).log;
    tpp.run_phase1(history);
    PredictorPtr meta = tpp.make_predictor(Method::kMeta);
    meta->train(history);
    std::ostringstream os;
    meta->save_state(os);
    return os.str();
  }();
  return model;
}

/// `blob` with the confidence of every rule in every BGLRULE1 section
/// (mining/rules.hpp save_rules) set to `confidence`; counts the rules in
/// `patched`.
std::string with_rule_confidences(std::string blob, double confidence,
                                  std::size_t& patched) {
  const auto u32_at = [&blob](std::size_t at) -> std::size_t {
    if (at + 4 > blob.size()) {
      throw std::out_of_range("rule section runs past the checkpoint");
    }
    return wire::decode<std::uint32_t>(blob.data() + at);
  };
  std::string bits;
  wire::append<std::uint64_t>(bits, std::bit_cast<std::uint64_t>(confidence));
  const std::string_view tag = "BGLRULE1";
  for (std::size_t at = blob.find(tag); at != std::string::npos;
       at = blob.find(tag, at)) {
    at += tag.size();
    const std::size_t rules = u32_at(at);  // low half of the u64 count
    at += 8;
    for (std::size_t r = 0; r < rules; ++r) {
      at += 4 + 4 * u32_at(at);   // body items
      at += 4 + 2 * u32_at(at);   // heads
      blob.replace(at + 8, 8, bits);  // after the support
      at += 32;  // support, confidence, body count, hit count
      ++patched;
    }
  }
  return blob;
}

TEST(RestoreFaultTest, OutOfRangeRuleConfidenceGetsTypedErrorAndServerLives) {
  // A RESTORE whose rules carry a confidence of 2.0, NaN or -1 must cost a
  // RESTORE_FAILED reply and leave the live streams as they were. Loaded
  // as is, such a rule fails the matcher's confidence check on the next
  // drain, outside any handler, and that ends the server.
  const ThreePhasePredictor tpp;
  ServerOptions options;
  options.shards.shard_count = 2;
  options.shards.predictor_factory = [&tpp] {
    PredictorPtr meta = tpp.make_predictor(Method::kMeta);
    std::istringstream is(dcp_model());
    meta->load_state(is);
    return meta;
  };
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());

  constexpr std::uint64_t kStream = 3;
  GeneratedLog g =
      LogGenerator(SystemProfile::dc_prophet()).generate(0.002, 1);
  std::vector<WireRecord> records;
  for (std::size_t i = 0; i < 128 && i < g.log.size(); ++i) {
    records.push_back(
        WireRecord{g.log.records()[i], g.log.text_of(g.log.records()[i])});
  }
  ASSERT_EQ(records.size(), 128u);
  const std::vector<WireRecord> first(records.begin(), records.begin() + 64);
  const std::vector<WireRecord> second(records.begin() + 64, records.end());

  client.submit_all(kStream, first);
  const std::string checkpoint = client.checkpoint();
  for (const double bad : {2.0, std::nan(""), -1.0}) {
    std::size_t patched = 0;
    const std::string blob = with_rule_confidences(checkpoint, bad, patched);
    ASSERT_GT(patched, 0u);
    try {
      client.restore(blob);
      ADD_FAILURE() << "RESTORE of rules with confidence " << bad
                    << " succeeded";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(to_string(ErrorCode::kRestoreFailed)),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("confidence"), std::string::npos) << what;
    }
  }

  // Still serving, from the untouched live state: one engine fed both
  // halves in-process emits the same warnings.
  client.submit_all(kStream, second);
  const std::string served = encode_warnings(client.poll_warnings(kStream));
  OnlineEngine engine(options.shards.predictor_factory(),
                      options.shards.engine);
  std::vector<Warning> expected;
  for (const WireRecord& wr : records) {
    for (Warning& w : engine.feed(wr.record, wr.entry)) {
      expected.push_back(std::move(w));
    }
  }
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(served, encode_warnings(expected));
  client.shutdown_server();
  server.stop();
}

// ---- Outbox edge cases (the flush path's data structure) -----------------

/// Concatenates everything fill_iovecs exposes (with a max high enough
/// to see every chunk) — the bytes the next flush would hand the kernel.
std::string gather_all(const Outbox& box) {
  std::vector<iovec> iov(4096);
  const std::size_t count = box.fill_iovecs(iov.data(), iov.size());
  std::string out;
  for (std::size_t i = 0; i < count; ++i) {
    out.append(static_cast<const char*>(iov[i].iov_base), iov[i].iov_len);
  }
  return out;
}

// The event loop fills at most kMaxIov entries per flush: with more
// chunks queued than the limit, fill_iovecs must stop exactly at the
// limit, expose the FRONT of the queue, and honor a partial-write
// offset in the first entry.
TEST(OutboxEdgeTest, FillIovecsHonorsEntryLimitAcrossChunkBoundaries) {
  constexpr std::size_t kMaxIov = 64;
  Outbox box;
  for (std::size_t i = 0; i < kMaxIov + 6; ++i) {
    box.push(std::string(1, static_cast<char>('a' + i % 26)));
  }
  std::vector<iovec> iov(kMaxIov);
  ASSERT_EQ(box.fill_iovecs(iov.data(), kMaxIov), kMaxIov);
  std::size_t exposed = 0;
  for (std::size_t i = 0; i < kMaxIov; ++i) {
    exposed += iov[i].iov_len;
  }
  EXPECT_EQ(exposed, kMaxIov);              // one byte per chunk
  EXPECT_EQ(box.size(), kMaxIov + 6);       // limit hides, not drops

  // A partial write inside the first chunk: the next fill resumes at
  // the offset, and the entry count shrinks only by fully-popped chunks.
  box.consume(kMaxIov);  // pop exactly the exposed chunks
  EXPECT_EQ(box.fill_iovecs(iov.data(), kMaxIov), 6u);
  EXPECT_EQ(box.size(), 6u);
}

// consume() landing exactly on a chunk seam: the finished chunk pops,
// the offset resets, and the next fill starts cleanly at the seam.
TEST(OutboxEdgeTest, ConsumeLandingOnChunkSeamResetsOffset) {
  Outbox box;
  box.push(std::string(10, 'x'));
  box.push(std::string(20, 'y'));
  box.push(std::string(30, 'z'));

  box.consume(10);  // exactly the first chunk
  EXPECT_EQ(box.size(), 50u);
  EXPECT_EQ(gather_all(box), std::string(20, 'y') + std::string(30, 'z'));

  box.consume(25);  // finishes 'y' ON the seam, 5 bytes into 'z'
  EXPECT_EQ(box.size(), 25u);
  EXPECT_EQ(gather_all(box), std::string(25, 'z'));

  box.consume(25);
  EXPECT_TRUE(box.empty());
  EXPECT_EQ(box.size(), 0u);
}

// Byte-accounting property: across a random interleaving of push(),
// writable_tail()+sync_tail() appends, and partial consume()s, the
// outbox's exposed bytes must equal a flat reference string — same
// content, same order, size() always agreeing.
TEST(OutboxEdgeTest, RandomOpsPreserveByteAccounting) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    Outbox box;
    std::string model;
    std::uint64_t next_byte = 0;
    const auto fresh_blob = [&](std::size_t n) {
      std::string blob(n, '\0');
      for (char& c : blob) {
        c = static_cast<char>(next_byte++ % 251);  // non-repeating-ish
      }
      return blob;
    };
    for (int op = 0; op < 200; ++op) {
      switch (rng.uniform_int(0, 2)) {
        case 0: {
          const std::string blob =
              fresh_blob(static_cast<std::size_t>(rng.uniform_int(0, 700)));
          model += blob;
          box.push(blob);
          break;
        }
        case 1: {
          const std::string blob =
              fresh_blob(static_cast<std::size_t>(rng.uniform_int(1, 300)));
          model += blob;
          box.writable_tail() += blob;
          box.sync_tail();
          break;
        }
        default: {
          if (box.size() > 0) {
            const auto n = static_cast<std::size_t>(rng.uniform_int(
                1, static_cast<int>(std::min<std::size_t>(box.size(), 900))));
            box.consume(n);
            model.erase(0, n);
          }
          break;
        }
      }
      ASSERT_EQ(box.size(), model.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(box.empty(), model.empty());
    }
    EXPECT_EQ(gather_all(box), model) << "seed " << seed;
    box.consume(box.size());
    EXPECT_TRUE(box.empty());
  }
}

}  // namespace
}  // namespace bglpred::serve
