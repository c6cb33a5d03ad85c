// Tests for the sharded prediction service: shard routing, backpressure,
// the session layer, and the end-to-end served path — including the
// central equivalence claim that a served stream's warnings are
// byte-identical to a single in-process OnlineEngine per stream, across
// a mid-stream CHECKPOINT/RESTORE of the whole shard set.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/binary.hpp"
#include "core/three_phase.hpp"
#include "meta/meta_learner.hpp"
#include "predict/rule_predictor.hpp"
#include "predict/statistical_predictor.hpp"
#include "raslog/record_run.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/shard_manager.hpp"
#include "simgen/generator.hpp"

namespace bglpred::serve {
namespace {

/// Factory for the streams' engines: every-failure is deterministic,
/// needs no training, and is checkpointable — ideal for equivalence.
std::function<PredictorPtr()> every_failure_factory(
    const ThreePhasePredictor& tpp) {
  return [&tpp] { return tpp.make_predictor(Method::kEveryFailure); };
}

ShardOptions small_shard_options(const ThreePhasePredictor& tpp) {
  ShardOptions options;
  options.shard_count = 3;
  options.queue_capacity = 256;
  options.predictor_factory = every_failure_factory(tpp);
  return options;
}

/// Splits a generated log's raw records into `streams` interleaved
/// WireRecord sequences (entry text attached), mimicking independent
/// collectors feeding one service.
std::vector<std::vector<WireRecord>> split_streams(const GeneratedLog& g,
                                                   std::size_t streams,
                                                   std::size_t max_records) {
  std::vector<std::vector<WireRecord>> out(streams);
  const auto& records = g.log.records();
  const std::size_t n = std::min(max_records, records.size());
  for (std::size_t i = 0; i < n; ++i) {
    out[i % streams].push_back(
        WireRecord{records[i], g.log.text_of(records[i])});
  }
  return out;
}

/// Decodes every response frame out of a session output buffer.
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

std::uint64_t accepted_count(const Frame& reply) {
  BytesReader in(reply.payload);
  return in.read<std::uint64_t>("accepted count");
}

TEST(ShardRoutingTest, DeterministicAndSpread) {
  std::set<std::size_t> hit;
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::size_t shard = ShardManager::shard_of(id, 4);
    ASSERT_LT(shard, 4u);
    EXPECT_EQ(shard, ShardManager::shard_of(id, 4));  // stable
    hit.insert(shard);
  }
  // splitmix64 must spread even sequential ids across all shards.
  EXPECT_EQ(hit.size(), 4u);
  // A restored stream lives on the shard this picks, so the routing is
  // pinned, not just stable within one build.
  const std::size_t pinned[] = {3, 1, 2, 1, 2, 2, 0, 3};
  for (std::uint64_t id = 0; id < std::size(pinned); ++id) {
    EXPECT_EQ(ShardManager::shard_of(id, 4), pinned[id]) << "stream " << id;
  }
}

TEST(ShardManagerTest, BackpressureBoundsTheQueue) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  ShardOptions options = small_shard_options(tpp);
  options.shard_count = 1;
  options.queue_capacity = 2;
  ShardManager manager(options, registry);
  const RasRecord rec;
  EXPECT_EQ(manager.submit(1, rec, "a"), ShardManager::Submit::kAccepted);
  EXPECT_EQ(manager.submit(1, rec, "b"), ShardManager::Submit::kAccepted);
  EXPECT_EQ(manager.submit(1, rec, "c"), ShardManager::Submit::kBusy);
  EXPECT_EQ(manager.metrics().records_rejected.value(), 1u);
  manager.drain();
  EXPECT_EQ(manager.submit(1, rec, "d"), ShardManager::Submit::kAccepted);
}

TEST(SessionTest, BatchRejectedBusyCarriesAcceptedCount) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  ShardOptions options = small_shard_options(tpp);
  options.shard_count = 1;
  options.queue_capacity = 2;
  ShardManager manager(options, registry);
  Session session(manager);

  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 1, 5);
  ASSERT_EQ(streams[0].size(), 5u);
  Frame request;
  request.type = MessageType::kSubmitBatch;
  request.stream_id = 9;
  request.seq = 1;
  wire::append<std::uint32_t>(request.payload, 5);
  for (const WireRecord& wr : streams[0]) {
    encode_record(request.payload, wr.record, wr.entry);
  }
  std::string out;
  ASSERT_EQ(session.on_bytes(encode_frame(request), out),
            Session::Status::kKeepOpen);
  const auto replies = parse_frames(out);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, MessageType::kRejectedBusy);
  EXPECT_EQ(accepted_count(replies[0]), 2u);
  EXPECT_EQ(manager.metrics().records_in.value(), 2u);
  EXPECT_EQ(manager.metrics().records_rejected.value(), 1u);
}

TEST(SessionTest, DuplicateFrameIsNotReapplied) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  ShardManager manager(small_shard_options(tpp), registry);
  Session session(manager);

  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 1, 1);
  Frame request;
  request.type = MessageType::kSubmitRecord;
  request.stream_id = 1;
  request.seq = 5;
  encode_record(request.payload, streams[0][0].record, streams[0][0].entry);
  const std::string bytes = encode_frame(request);

  std::string out;
  session.on_bytes(bytes, out);
  ASSERT_EQ(parse_frames(out).front().type, MessageType::kOk);

  // The exact same frame again: rejected by sequence, engine untouched.
  out.clear();
  session.on_bytes(bytes, out);
  const auto replies = parse_frames(out);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, MessageType::kError);
  EXPECT_EQ(decode_error_payload(replies[0]).code,
            ErrorCode::kDuplicateFrame);
  EXPECT_EQ(manager.metrics().records_in.value(), 1u);
  EXPECT_EQ(manager.metrics().duplicate_frames.value(), 1u);
}

TEST(SessionTest, FullyRejectedSubmitCanBeRetransmittedVerbatim) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  ShardOptions options = small_shard_options(tpp);
  options.shard_count = 1;
  options.queue_capacity = 2;
  ShardManager manager(options, registry);
  Session session(manager);

  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 1, 1);
  // Fill the (single) shard's queue so the session's submit is rejected
  // with nothing applied.
  const RasRecord filler;
  ASSERT_EQ(manager.submit(7, filler, "a"), ShardManager::Submit::kAccepted);
  ASSERT_EQ(manager.submit(7, filler, "b"), ShardManager::Submit::kAccepted);

  Frame request;
  request.type = MessageType::kSubmitRecord;
  request.stream_id = 1;
  request.seq = 3;
  encode_record(request.payload, streams[0][0].record, streams[0][0].entry);
  const std::string bytes = encode_frame(request);

  std::string out;
  session.on_bytes(bytes, out);
  auto replies = parse_frames(out);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, MessageType::kRejectedBusy);
  EXPECT_EQ(accepted_count(replies[0]), 0u);

  // Backpressure clears; the verbatim retransmit (same seq) must be
  // applied, not rejected as a duplicate.
  manager.drain();
  out.clear();
  session.on_bytes(bytes, out);
  replies = parse_frames(out);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, MessageType::kOk);
  EXPECT_EQ(accepted_count(replies[0]), 1u);
  EXPECT_EQ(manager.metrics().duplicate_frames.value(), 0u);

  // But a frame that WAS applied still cannot be replayed.
  out.clear();
  session.on_bytes(bytes, out);
  replies = parse_frames(out);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, MessageType::kError);
  EXPECT_EQ(decode_error_payload(replies[0]).code,
            ErrorCode::kDuplicateFrame);
}

/// A SUBMIT_BATCH frame carrying `records`.
Frame batch_frame(const std::vector<WireRecord>& records,
                  std::uint64_t stream_id, std::uint32_t seq) {
  Frame request;
  request.type = MessageType::kSubmitBatch;
  request.stream_id = stream_id;
  request.seq = seq;
  wire::append<std::uint32_t>(request.payload,
                              static_cast<std::uint32_t>(records.size()));
  for (const WireRecord& wr : records) {
    encode_record(request.payload, wr.record, wr.entry);
  }
  return request;
}

std::string checkpoint_of(ShardManager& manager) {
  std::ostringstream os;
  manager.save(os);
  return os.str();
}

TEST(SessionTest, TruncatedLastRecordFailsTheFrameWithNothingEnqueued) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  ShardManager manager(small_shard_options(tpp), registry);
  Session session(manager);

  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 1, 5);
  Frame request = batch_frame(streams[0], 1, 1);
  request.payload.resize(request.payload.size() - 3);  // cut the last text
  std::string out;
  ASSERT_EQ(session.on_bytes(encode_frame(request), out),
            Session::Status::kKeepOpen);
  auto replies = parse_frames(out);
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type, MessageType::kError);
  EXPECT_EQ(decode_error_payload(replies[0]).code, ErrorCode::kBadPayload);
  EXPECT_EQ(manager.metrics().records_in.value(), 0u);
  EXPECT_EQ(manager.stream_accepted(1), 0u);
  manager.drain();
  EXPECT_EQ(manager.stream_count(), 0u) << "no record reached an engine";

  // The watermark did not move: the intact frame under the same seq
  // applies in full.
  out.clear();
  session.on_bytes(encode_frame(batch_frame(streams[0], 1, 1)), out);
  replies = parse_frames(out);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].type, MessageType::kOk);
  EXPECT_EQ(accepted_count(replies[0]), 5u);
}

TEST(ShardManagerTest, RunMeetingANearlyFullQueueAcceptsThePrefixThatFits) {
  const ThreePhasePredictor tpp;
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 1, 13);
  const auto run_of = [&streams](std::size_t begin, std::size_t end,
                                 RecordRunBuilder& builder) {
    builder.clear();
    for (std::size_t i = begin; i < end; ++i) {
      builder.add(streams[0][i].record, streams[0][i].entry);
    }
    return builder.run();
  };
  MetricsRegistry registry;
  ShardOptions options = small_shard_options(tpp);
  options.shard_count = 1;
  options.queue_capacity = 10;
  ShardManager manager(options, registry);
  RecordRunBuilder builder;
  EXPECT_EQ(manager.submit(2, run_of(0, 7, builder)), 7u);
  EXPECT_EQ(manager.metrics().records_rejected.value(), 0u);
  // 3 of the next 6 fit: exactly min(count, capacity - queued).
  EXPECT_EQ(manager.submit(2, run_of(7, 13, builder)), 3u);
  EXPECT_EQ(manager.metrics().records_rejected.value(), 1u);
  EXPECT_EQ(manager.metrics().records_in.value(), 10u);
  EXPECT_EQ(manager.stream_accepted(2), 10u);
  EXPECT_EQ(manager.submit(2, run_of(10, 13, builder)), 0u);
  EXPECT_EQ(manager.metrics().records_rejected.value(), 2u);

  // What was accepted is the first 10 records, in order.
  MetricsRegistry reference_registry;
  ShardManager reference(options, reference_registry);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_EQ(reference.submit(2, streams[0][i].record, streams[0][i].entry),
              ShardManager::Submit::kAccepted);
  }
  EXPECT_TRUE(checkpoint_of(manager) == checkpoint_of(reference));
}

TEST(ShardManagerTest, RunOfOneBehavesLikeSingleSubmit) {
  const ThreePhasePredictor tpp;
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 2, 300);
  ShardOptions options = small_shard_options(tpp);
  options.queue_capacity = 8;
  MetricsRegistry single_registry;
  MetricsRegistry run_registry;
  ShardManager single(options, single_registry);
  ShardManager runs(options, run_registry);
  RecordRunBuilder builder;
  std::size_t busy = 0;
  for (std::size_t i = 0; i < streams[0].size(); ++i) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      const WireRecord& wr = streams[s][i];
      builder.clear();
      builder.add(wr.record, wr.entry);
      const ShardManager::Submit got = single.submit(s, wr.record, wr.entry);
      ASSERT_EQ(runs.submit(s, builder.run()),
                got == ShardManager::Submit::kAccepted ? 1u : 0u);
      busy += got == ShardManager::Submit::kBusy;
    }
    if (i % 11 == 10) {
      single.drain();
      runs.drain();
    }
  }
  EXPECT_GT(busy, 0u) << "the queue bound was never reached";
  EXPECT_EQ(single.metrics().records_rejected.value(),
            runs.metrics().records_rejected.value());
  EXPECT_EQ(single.metrics().records_in.value(),
            runs.metrics().records_in.value());
  EXPECT_TRUE(checkpoint_of(single) == checkpoint_of(runs));
}

TEST(SessionTest, BatchFramesCheckpointLikeRecordFrames) {
  // A server fed 64-record SUBMIT_BATCH runs holds, byte for byte, the
  // shard state of one fed the same streams one SUBMIT_RECORD at a time.
  const ThreePhasePredictor tpp;
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.02);
  const auto streams = split_streams(g, 4, 4000);
  ShardOptions options = small_shard_options(tpp);
  options.queue_capacity = 1u << 12;
  MetricsRegistry batch_registry;
  MetricsRegistry record_registry;
  ShardManager batched(options, batch_registry);
  ShardManager single(options, record_registry);
  Session batch_session(batched);
  Session record_session(single);
  std::string out;
  std::uint32_t batch_seq = 0;
  std::uint32_t record_seq = 0;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (std::size_t begin = 0; begin < streams[s].size(); begin += 64) {
      const std::size_t end = std::min(begin + 64, streams[s].size());
      const std::vector<WireRecord> slice(
          streams[s].begin() + static_cast<std::ptrdiff_t>(begin),
          streams[s].begin() + static_cast<std::ptrdiff_t>(end));
      batch_session.on_bytes(encode_frame(batch_frame(slice, s, ++batch_seq)),
                             out);
      for (const WireRecord& wr : slice) {
        Frame request;
        request.type = MessageType::kSubmitRecord;
        request.stream_id = s;
        request.seq = ++record_seq;
        encode_record(request.payload, wr.record, wr.entry);
        record_session.on_bytes(encode_frame(request), out);
      }
      if (begin % 512 == 0) {
        batched.drain();
        single.drain();
      }
    }
  }
  for (const Frame& reply : parse_frames(out)) {
    ASSERT_EQ(reply.type, MessageType::kOk);
  }
  EXPECT_EQ(batched.metrics().records_in.value(), 4000u);
  EXPECT_EQ(single.metrics().records_in.value(), 4000u);
  EXPECT_TRUE(checkpoint_of(batched) == checkpoint_of(single));
}

TEST(ShardManagerTest, RestoreDoesNotDoubleEngineCounters) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  ShardOptions options = small_shard_options(tpp);
  options.shard_count = 1;
  ShardManager manager(options, registry);

  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 2, 40);
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const WireRecord& wr : streams[s]) {
      ASSERT_EQ(manager.submit(s, wr.record, wr.entry),
                ShardManager::Submit::kAccepted);
    }
  }
  manager.drain();
  const Counter& raw = registry.counter("shard0.engine.raw_records");
  const std::uint64_t before = raw.value();
  ASSERT_GT(before, 0u);

  // Restoring a server's own mid-stream checkpoint replaces the engines
  // with copies holding identical lifetime stats; the registry total
  // must stay equal to those stats, not double.
  std::stringstream blob;
  manager.save(blob);
  manager.restore(blob);
  EXPECT_EQ(raw.value(), before);
}

/// A 64-byte shard-set checkpoint whose one stream claims `pending`
/// pending warnings and carries none.
std::string restore_blob_claiming(std::uint32_t shards,
                                  std::uint32_t pending) {
  std::ostringstream os;
  wire::write_tag(os, "BGLSRV1\n");
  wire::write<std::uint32_t>(os, shards);
  wire::write<std::uint64_t>(os, 1);  // stream count
  wire::write<std::uint64_t>(os, 0);  // stream id
  wire::write<std::uint32_t>(os, pending);
  wire::write_string(os, "");  // the pending warnings' bytes
  std::string blob = os.str();
  blob.resize(64, '\0');
  return blob;
}

TEST(ShardManagerTest, RestoreRefusesPendingCountsLargerThanTheBlob) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  const ShardOptions options = small_shard_options(tpp);
  ShardManager manager(options, registry);
  RasRecord rec;
  rec.time = 1000;
  rec.facility = Facility::kKernel;
  rec.severity = Severity::kFatal;
  ASSERT_EQ(manager.submit(/*stream_id=*/4, rec, "kernel panic"),
            ShardManager::Submit::kAccepted);
  manager.drain();
  std::istringstream is(restore_blob_claiming(
      static_cast<std::uint32_t>(options.shard_count), 0xffffffffu));
  try {
    manager.restore(is);
    ADD_FAILURE() << "restore accepted a corrupt blob";
  } catch (const ParseError& e) {
    // Refused while decoding the claimed warnings, not earlier.
    EXPECT_NE(std::string(e.what()).find("warning"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(manager.stream_count(), 1u);  // live state untouched
}

/// make_predictor(Method::kMeta) loaded with `model`, built base by base
/// so the rule base can be recorded in `rule_bases`.
PredictorPtr load_meta(const ThreePhasePredictor& tpp, const std::string& model,
                       std::vector<const RulePredictor*>& rule_bases,
                       std::mutex& mutex) {
  const ThreePhaseOptions& o = tpp.options();
  auto meta = std::make_unique<MetaLearner>(o.prediction, o.meta);
  auto rule = std::make_unique<RulePredictor>(o.prediction, o.rule);
  {
    const std::lock_guard lock(mutex);
    rule_bases.push_back(rule.get());
  }
  meta->add_base(std::move(rule), /*treat_as_rule_like=*/true);
  PredictionConfig stat_config = o.prediction;
  stat_config.lead = 5 * kMinute;
  stat_config.window = kHour;
  meta->add_base(
      std::make_unique<StatisticalPredictor>(stat_config, o.statistical),
      /*treat_as_rule_like=*/false);
  std::istringstream is(model);
  meta->load_state(is);
  return meta;
}

// Eight streams on one trained DC-Prophet model, their predictors built
// concurrently on four drain threads and again at a restore: every
// stream's rule base matches against the one rule set, and the warnings
// equal an inline drain's, stream by stream.
TEST(ShardManagerTest, StreamsShareOneRuleModelAcrossWorkerThreads) {
  const ThreePhasePredictor tpp;
  RasLog history =
      LogGenerator(SystemProfile::dc_prophet()).generate(0.01, 0).log;
  tpp.run_phase1(history);
  PredictorPtr trained = tpp.make_predictor(Method::kMeta);
  trained->train(history);
  std::ostringstream os;
  trained->save_state(os);
  const std::string model = os.str();

  constexpr std::size_t kStreams = 8;
  GeneratedLog g = LogGenerator(SystemProfile::dc_prophet()).generate(0.002, 1);
  const auto streams = split_streams(g, kStreams, 8000);

  const auto serve = [&](std::size_t worker_threads) {
    std::mutex mutex;
    std::vector<const RulePredictor*> rule_bases;
    ShardOptions options;
    options.shard_count = 4;
    options.queue_capacity = 1u << 16;
    options.worker_threads = worker_threads;
    options.predictor_factory = [&] {
      return load_meta(tpp, model, rule_bases, mutex);
    };
    MetricsRegistry registry;
    ShardManager manager(options, registry);
    std::vector<std::string> warnings(kStreams);
    const auto submit = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t s = 0; s < kStreams; ++s) {
          if (i < streams[s].size()) {
            EXPECT_EQ(manager.submit(s, streams[s][i].record,
                                     streams[s][i].entry),
                      ShardManager::Submit::kAccepted);
          }
        }
      }
      manager.drain();
      for (std::size_t s = 0; s < kStreams; ++s) {
        warnings[s] += encode_warnings(manager.poll(s));
      }
    };
    const std::size_t half = streams[0].size() / 2;
    submit(0, half);
    EXPECT_EQ(rule_bases.size(), kStreams);
    const RuleSet* model_rules = &rule_bases.front()->rules();
    EXPECT_FALSE(model_rules->empty());
    for (const RulePredictor* rule : rule_bases) {
      EXPECT_EQ(&rule->rules(), model_rules);
    }
    // Restore builds every predictor again while the old ones still hold
    // the set, so the new ones find it.
    std::stringstream blob;
    manager.save(blob);
    rule_bases.clear();
    manager.restore(blob);
    EXPECT_EQ(rule_bases.size(), kStreams);
    for (const RulePredictor* rule : rule_bases) {
      EXPECT_EQ(&rule->rules(), model_rules);
    }
    std::stringstream again;
    manager.save(again);
    EXPECT_EQ(again.str(), blob.str());
    submit(half, streams[0].size());
    return warnings;
  };
  const std::vector<std::string> inline_warnings = serve(0);
  const std::vector<std::string> threaded_warnings = serve(4);
  for (std::size_t s = 0; s < kStreams; ++s) {
    EXPECT_FALSE(inline_warnings[s].empty()) << "stream " << s;
    EXPECT_EQ(threaded_warnings[s], inline_warnings[s]) << "stream " << s;
  }
}

TEST(ShardManagerTest, DumpJsonListsEveryRegisteredMetric) {
  // Inventory check paired with the drift-metric-unasserted rule in
  // tools/repo_analyze.py: every metric the serving plane registers must
  // surface in dump_json under its documented name. A renamed or dropped
  // registration fails here; a new registration missing from this list
  // fails the analyzer.
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  ShardOptions options = small_shard_options(tpp);
  options.shard_count = 1;
  ShardManager manager(options, registry);

  // One submitted record forces a stream — and its engine's counters —
  // into existence under shard0.engine.*.
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 1, 1);
  ASSERT_FALSE(streams[0].empty());
  ASSERT_EQ(manager.submit(0, streams[0][0].record, streams[0][0].entry),
            ShardManager::Submit::kAccepted);
  manager.drain();

  const std::string json = registry.dump_json();
  for (const char* name : {
           // session/server plane (ServeMetrics)
           "serve.frames_in", "serve.frames_out", "serve.decode_errors",
           "serve.duplicate_frames", "serve.records_in", "serve.batches_in",
           "serve.records_rejected", "serve.warnings_out",
           "serve.checkpoints", "serve.restores", "serve.connections",
           "serve.wakeups", "serve.submit_micros",
           "serve.warning_age_micros",
           // overload protection & lifecycle (DESIGN §8.5)
           "serve.accepts_shed", "serve.slow_readers_evicted",
           "serve.idle_timeouts", "serve.write_stall_timeouts",
           "serve.budget_rejected", "serve.drain_forced_closes",
           "serve.fd_limit", "serve.outbox_bytes",
           "serve.stats_wall_micros",
           // per-shard gauges
           "shard0.queue_depth", "shard0.streams",
           // per-stream engine counters (OnlineEngine::kCounterSlots)
           "shard0.engine.raw_records", "shard0.engine.deduplicated",
           "shard0.engine.forwarded", "shard0.engine.warnings",
           "shard0.engine.degraded", "shard0.engine.reordered",
           "shard0.engine.clamped"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << "metric missing from dump_json: " << name;
  }
}

/// Server tests that exercise the event loop run against both readiness
/// backends: edge-triggered epoll (production) and the poll() oracle.
class ServerBackendTest : public ::testing::TestWithParam<PollerBackend> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, ServerBackendTest,
    ::testing::Values(PollerBackend::kEpoll, PollerBackend::kPoll),
    [](const ::testing::TestParamInfo<PollerBackend>& info) {
      return std::string(to_string(info.param));
    });

TEST_P(ServerBackendTest, AbortiveClientDisconnectDoesNotKillServer) {
  const ThreePhasePredictor tpp;
  ServerOptions options;
  options.backend = GetParam();
  options.shards = small_shard_options(tpp);
  Server server(options);
  server.start();

  {
    // Send bytes, then RST the connection (SO_LINGER 0 close) so the
    // server's next recv on it fails with ECONNRESET.
    OwnedFd rude = connect_loopback(server.port());
    send_all(rude, "not a frame");
    const linger abort_now{1, 0};
    ::setsockopt(rude.get(), SOL_SOCKET, SO_LINGER, &abort_now,
                 sizeof(abort_now));
  }

  // One misbehaving client must cost only its own connection: a second
  // client still gets a full admin roundtrip.
  Client client = Client::connect(server.port());
  EXPECT_NE(client.stats_json().find("\"serve.frames_in\":"),
            std::string::npos);
  client.shutdown_server();
  server.stop();
}

TEST_P(ServerBackendTest, OversizedRestoreCountGetsTypedErrorAndServerLives) {
  // A RESTORE frame claiming 2^32-1 pending warnings in 64 bytes must
  // cost a RESTORE_FAILED reply, not the server.
  const ThreePhasePredictor tpp;
  ServerOptions options;
  options.backend = GetParam();
  options.shards = small_shard_options(tpp);
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());
  try {
    client.restore(restore_blob_claiming(
        static_cast<std::uint32_t>(options.shards.shard_count), 0xffffffffu));
    ADD_FAILURE() << "RESTORE of a corrupt blob succeeded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(to_string(ErrorCode::kRestoreFailed)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("warning"), std::string::npos) << what;
  }
  EXPECT_NE(client.stats_json().find("\"serve.frames_in\":"),
            std::string::npos);
  client.shutdown_server();
  server.stop();
}

TEST_P(ServerBackendTest, StopResetsConnectionsGauge) {
  const ThreePhasePredictor tpp;
  ServerOptions options;
  options.backend = GetParam();
  options.shards = small_shard_options(tpp);
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());
  // A completed roundtrip proves the server accepted the connection.
  client.stats_json();
  EXPECT_EQ(server.metrics().gauge("serve.connections").value(), 1);
  // Stop with the connection still open: the teardown path must release
  // the gauge, or a restarted server (same registry) reports a stale
  // count forever.
  server.stop();
  EXPECT_EQ(server.metrics().gauge("serve.connections").value(), 0);
}

TEST(OnlineEngineMetricsTest, AttachedCountersMirrorStats) {
  const ThreePhasePredictor tpp;
  MetricsRegistry registry;
  OnlineEngine engine(tpp.make_predictor(Method::kEveryFailure));
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto& records = g.log.records();
  const std::size_t half = std::min<std::size_t>(50, records.size() / 2);
  for (std::size_t i = 0; i < half; ++i) {
    engine.feed(records[i], g.log.text_of(records[i]));
  }
  // Attaching mid-stream adds the current totals, so the counters report
  // lifetime counts from here on.
  engine.attach_metrics(registry, "engine.");
  for (std::size_t i = half; i < 2 * half; ++i) {
    engine.feed(records[i], g.log.text_of(records[i]));
  }
  EXPECT_EQ(registry.counter("engine.raw_records").value(),
            engine.stats().raw_records);
  EXPECT_EQ(registry.counter("engine.deduplicated").value(),
            engine.stats().deduplicated);
  EXPECT_EQ(registry.counter("engine.forwarded").value(),
            engine.stats().forwarded);
  EXPECT_EQ(registry.counter("engine.warnings").value(),
            engine.stats().warnings);
  EXPECT_EQ(registry.counter("engine.degraded").value(),
            engine.stats().degraded);
  EXPECT_EQ(registry.counter("engine.reordered").value(),
            engine.stats().reordered);
  EXPECT_EQ(registry.counter("engine.clamped").value(),
            engine.stats().clamped);
  EXPECT_GT(engine.stats().raw_records, 0u);
}

// The tentpole acceptance test: warnings produced through the full
// client -> socket -> session -> shard -> engine path are byte-identical
// (through encode_warnings) to one in-process OnlineEngine per stream,
// including across a mid-stream CHECKPOINT + RESTORE of the shard set.
// Runs against both readiness backends (ServerBackendTest), which is the
// epoll rewrite's differential gate.
class ServedEquivalenceTest : public ::testing::TestWithParam<PollerBackend> {
};

INSTANTIATE_TEST_SUITE_P(
    Backends, ServedEquivalenceTest,
    ::testing::Values(PollerBackend::kEpoll, PollerBackend::kPoll),
    [](const ::testing::TestParamInfo<PollerBackend>& info) {
      return std::string(to_string(info.param));
    });

TEST_P(ServedEquivalenceTest, ByteIdenticalAcrossCheckpointRestore) {
  const ThreePhasePredictor tpp;
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.02);
  constexpr std::size_t kStreams = 3;
  const auto streams = split_streams(g, kStreams, 600);

  ServerOptions options;
  options.backend = GetParam();
  options.shards = small_shard_options(tpp);
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());

  // In-process oracle: one engine per stream, same options, same factory.
  // (deque: OnlineEngine is move-only with a non-noexcept move.)
  std::deque<OnlineEngine> oracle;
  std::vector<std::string> oracle_bytes(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    oracle.emplace_back(options.shards.predictor_factory(),
                        options.shards.engine);
  }
  const auto feed_oracle = [&oracle, &oracle_bytes](
                               std::size_t s,
                               const std::vector<WireRecord>& slice) {
    std::vector<Warning> warnings;
    for (const WireRecord& wr : slice) {
      for (Warning& w : oracle[s].feed(wr.record, wr.entry)) {
        warnings.push_back(std::move(w));
      }
    }
    oracle_bytes[s] += encode_warnings(warnings);
  };
  const auto slice_of = [&streams](std::size_t s, std::size_t begin,
                                   std::size_t end) {
    const auto& all = streams[s];
    begin = std::min(begin, all.size());
    end = std::min(end, all.size());
    return std::vector<WireRecord>(all.begin() + begin, all.begin() + end);
  };

  std::vector<std::string> served_bytes(kStreams);
  for (std::size_t s = 0; s < kStreams; ++s) {
    const std::size_t half = streams[s].size() / 2;
    const std::size_t doomed_end = half + streams[s].size() / 4;

    // First half, served and polled; oracle follows.
    client.submit_all(s, slice_of(s, 0, half));
    served_bytes[s] += encode_warnings(client.poll_warnings(s));
    feed_oracle(s, slice_of(s, 0, half));

    // Checkpoint, then submit a slice whose effects the RESTORE must
    // fully roll back (its warnings are never polled).
    const std::string blob = client.checkpoint();
    client.submit_all(s, slice_of(s, half, doomed_end));
    client.restore(blob);

    // Resume from the checkpointed state: re-submit the rolled-back
    // slice and the remainder. The oracle feeds them exactly once.
    client.submit_all(s, slice_of(s, half, streams[s].size()));
    served_bytes[s] += encode_warnings(client.poll_warnings(s));
    feed_oracle(s, slice_of(s, half, streams[s].size()));

    EXPECT_EQ(served_bytes[s], oracle_bytes[s]) << "stream " << s;
    EXPECT_FALSE(served_bytes[s].empty());
  }

  // The admin plane saw it all: stats JSON is parseable text with the
  // serve counters present and nonzero.
  const std::string stats = client.stats_json();
  EXPECT_NE(stats.find("\"serve.records_in\":"), std::string::npos);
  EXPECT_NE(stats.find("\"serve.checkpoints\":" + std::to_string(kStreams)),
            std::string::npos);
  // Some shard (stream ids hash, so not necessarily shard 0) aggregates
  // its engines' counters under the shardN.engine. prefix.
  EXPECT_NE(stats.find(".engine.raw_records\":"), std::string::npos);
  EXPECT_NE(stats.find("\"serve.warning_age_micros\":{"), std::string::npos);

  client.shutdown_server();
  server.stop();
  EXPECT_FALSE(server.running());
}

// Same service, shard-level worker threads: determinism must not depend
// on draining inline (shards are disjoint, streams stay ordered).
TEST_P(ServedEquivalenceTest, WorkerThreadsPreserveStreamOrder) {
  const ThreePhasePredictor tpp;
  GeneratedLog g = LogGenerator(SystemProfile::anl()).generate(0.01);
  const auto streams = split_streams(g, 2, 200);

  ServerOptions options;
  options.backend = GetParam();
  options.shards = small_shard_options(tpp);
  options.shards.worker_threads = 2;
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());

  for (std::size_t s = 0; s < streams.size(); ++s) {
    OnlineEngine engine(options.shards.predictor_factory(),
                        options.shards.engine);
    std::vector<Warning> expected;
    for (const WireRecord& wr : streams[s]) {
      for (Warning& w : engine.feed(wr.record, wr.entry)) {
        expected.push_back(std::move(w));
      }
    }
    client.submit_all(s, streams[s]);
    EXPECT_EQ(encode_warnings(client.poll_warnings(s)),
              encode_warnings(expected))
        << "stream " << s;
  }
  client.shutdown_server();
  server.stop();
}

TEST_P(ServerBackendTest, StopIsIdempotentAndPortIsEphemeral) {
  const ThreePhasePredictor tpp;
  ServerOptions options;
  options.backend = GetParam();
  options.shards = small_shard_options(tpp);
  Server server(options);
  server.start();
  EXPECT_NE(server.port(), 0);
  EXPECT_TRUE(server.running());
  server.stop();
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace bglpred::serve
