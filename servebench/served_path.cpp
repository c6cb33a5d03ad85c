// Served-path benchmark (README.md): trains the meta-learner on one
// installation's history, serves K other installations through a real
// loopback Server from a single client thread, and scores the warnings
// that come back. The whole process — client thread and the server's
// loop thread — runs pinned to one CPU.
//
//   served_path --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <file>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 adds an in-process
// replay of the same frames, at the server's drain cadence, through
// Session -> ShardManager -> OnlineEngine -> MetaLearner with spans around
// each public call, and prints the per-layer metrics. The last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"}; the
// exit status is non-zero when an operation failed or a correctness check
// did not hold.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_math.hpp"
#include "common/binary.hpp"
#include "common/rng.hpp"
#include "core/three_phase.hpp"
#include "serve/client.hpp"
#include "serve/net_util.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "simgen/stream.hpp"
#include "taxonomy/classifier.hpp"

namespace {

using namespace bglpred;
using namespace bglpred::serve;
using servebench::now_ns;
using servebench::Scope;
using servebench::Tracer;

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

/// One workload: K installations of one profile, flooded in a closed loop.
struct Workload {
  const char* name;
  bool dc_prophet;     ///< DC-Prophet fleets instead of ANL installations
  double train_scale;  ///< simgen scale of the training history
  double serve_scale;  ///< simgen scale of each served installation
};

// Why these two (README.md): ANL repeats entry texts and forwards few
// records, so its flood is bound by decode, classification and dedup;
// DC-Prophet forwards many and warns often, so its flood is bound by rule
// matching. ANL needs about 3M served records per pass before pooled
// precision stops swinging from seed to seed.
constexpr Workload kWorkloads[] = {
    {"anl_flood", false, 0.25, 0.1},
    {"dcp_flood", true, 0.04, 0.01},
};

constexpr std::size_t kInstallations = 8;
constexpr std::size_t kRecordsPerFrame = 64;
constexpr std::size_t kWindowFrames = 64;     ///< frames in flight
constexpr std::size_t kPollEveryRounds = 16;  ///< a POLL per stream this often
/// A pass is timed in this many consecutive segments, each ending with a
/// POLL round. Each segment's time is a median over the run's passes, so a
/// slow spell of the host that hits part of one pass drops out.
constexpr std::size_t kSegments = 16;
constexpr std::size_t kSetups = 6;
constexpr std::int64_t kStallNs = 20'000'000'000;  ///< give up on a pass
/// The server reads a connection in recvs of 64 KiB, up to 8 per wake-up,
/// and drains the shards once per wake-up. Under these floods a wake-up
/// finds 250-330 KiB of frames (wire bytes / STATS serve.wakeups, printed
/// by every run), so the in-process replay drains after each such share.
constexpr std::size_t kReplayDrainBytes = 256 * 1024;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// ---- input ---------------------------------------------------------------

struct Installation {
  RasLog raw;
  RasLog preprocessed;  ///< Phase 1 of `raw`, for scoring and the offline run
  std::vector<TimePoint> failures;  ///< fatal_times(preprocessed)
};

std::uint64_t seed_offset(std::uint64_t seed, std::uint64_t slot) {
  return mix64(mix64(seed) ^ slot);
}

RasLog generate(const Workload& w, double scale, std::uint64_t offset) {
  StreamConfig config;
  config.scale = scale;
  config.seed_offset = offset;
  StreamRecordSource source(
      w.dc_prophet ? SystemProfile::dc_prophet() : SystemProfile::anl(),
      config);
  RasLog log;
  RasLog batch;
  while (source.next_batch(batch)) {
    for (const RasRecord& rec : batch.records()) {
      log.append_with_text(rec, batch.text_of(rec));
    }
  }
  return log;
}

std::uint64_t stream_id_of(std::size_t installation) {
  return installation + 1;
}

/// Every frame of one pass, encoded before any timing starts.
struct Schedule {
  std::string wire;
  std::vector<std::size_t> end;          ///< end offset of each frame
  std::vector<std::uint32_t> records;    ///< records per frame; 0 = POLL
  std::vector<std::uint32_t> stream;     ///< installation of each frame
  std::vector<std::size_t> segment_end;  ///< frame index ending each segment
  std::size_t total_records = 0;
  std::size_t submit_frames = 0;

  std::size_t frames() const { return end.size(); }
  std::string_view frame(std::size_t i) const {
    const std::size_t begin = i == 0 ? 0 : end[i - 1];
    return std::string_view(wire).substr(begin, end[i] - begin);
  }
};

void append_frame(Schedule& s, Frame frame, std::size_t records,
                  std::size_t installation) {
  frame.stream_id = stream_id_of(installation);
  frame.seq = static_cast<std::uint32_t>(s.frames() + 1);
  s.wire += encode_frame(frame);
  s.end.push_back(s.wire.size());
  s.records.push_back(static_cast<std::uint32_t>(records));
  s.stream.push_back(static_cast<std::uint32_t>(installation));
}

/// Round-robin over installations, one SUBMIT_BATCH per installation per
/// round, and a POLL per stream every kPollEveryRounds rounds and at the
/// end. A segment ends after the POLL round that reaches its share of the
/// records.
Schedule build_schedule(const std::vector<Installation>& installations) {
  std::size_t records = 0;
  for (const Installation& inst : installations) {
    records += inst.raw.size();
  }
  Schedule s;
  std::vector<std::size_t> next(installations.size(), 0);
  std::vector<bool> unpolled(installations.size(), false);
  Frame poll;
  poll.type = MessageType::kPollWarnings;
  for (std::size_t round = 0;; ++round) {
    bool any = false;
    for (std::size_t i = 0; i < installations.size(); ++i) {
      const RasLog& log = installations[i].raw;
      if (next[i] == log.size()) {
        continue;
      }
      any = true;
      const std::size_t n = std::min(kRecordsPerFrame, log.size() - next[i]);
      Frame submit;
      submit.type = MessageType::kSubmitBatch;
      wire::append<std::uint32_t>(submit.payload,
                                  static_cast<std::uint32_t>(n));
      for (std::size_t k = 0; k < n; ++k) {
        const RasRecord& rec = log.records()[next[i] + k];
        encode_record(submit.payload, rec, log.text_of(rec));
      }
      append_frame(s, std::move(submit), n, i);
      next[i] += n;
      s.total_records += n;
      ++s.submit_frames;
      unpolled[i] = true;
    }
    if (!any || (round + 1) % kPollEveryRounds == 0) {
      for (std::size_t i = 0; i < installations.size(); ++i) {
        if (unpolled[i]) {
          append_frame(s, poll, 0, i);
          unpolled[i] = false;
        }
      }
      if (s.total_records * kSegments >=
          (s.segment_end.size() + 1) * records) {
        s.segment_end.push_back(s.frames());
      }
    }
    if (!any) {
      if (s.segment_end.empty() || s.segment_end.back() != s.frames()) {
        s.segment_end.push_back(s.frames());
      }
      return s;
    }
  }
}

/// True when `reply` is the well-formed answer to frame `i`: kOk with
/// every record accepted for a SUBMIT, kWarnings for a POLL. Anything
/// else — REJECTED_BUSY, ERROR, a wrong seq — is a failed operation.
bool reply_ok(const Schedule& s, std::size_t i, const Frame& reply) {
  if (reply.seq != i + 1) {
    return false;
  }
  if (s.records[i] == 0) {
    return reply.type == MessageType::kWarnings;
  }
  if (reply.type != MessageType::kOk) {
    return false;
  }
  BytesReader in(reply.payload);
  return in.read<std::uint64_t>("accepted") == s.records[i];
}

/// Per installation, the kWarnings payloads in arrival order.
using PollPayloads = std::vector<std::vector<std::string>>;
/// Per installation, servebench::fold_digest over those payloads.
using PollDigests = std::vector<std::uint64_t>;

std::vector<std::vector<Warning>> decode_polls(const PollPayloads& polls) {
  std::vector<std::vector<Warning>> out(polls.size());
  for (std::size_t i = 0; i < polls.size(); ++i) {
    for (const std::string& payload : polls[i]) {
      for (Warning& w : decode_warnings(payload)) {
        out[i].push_back(std::move(w));
      }
    }
  }
  return out;
}

// ---- the model and the server ---------------------------------------------

using Factory = std::function<PredictorPtr()>;

/// What the server runs for every new stream: make_predictor(kMeta)
/// loaded with the trained model.
Factory model_factory(const ThreePhasePredictor& tpp, std::string model) {
  return [&tpp, model = std::move(model)] {
    PredictorPtr predictor = tpp.make_predictor(Method::kMeta);
    std::istringstream is(model);
    predictor->load_state(is);
    return predictor;
  };
}

ServerOptions server_options(Factory factory) {
  ServerOptions options;
  options.backend = PollerBackend::kEpoll;
  // Every stream's share of a closed-loop POLL interval fits, so no
  // submit is answered REJECTED_BUSY by design.
  options.shards.queue_capacity = 1u << 16;
  options.shards.worker_threads = 0;
  options.shards.predictor_factory = std::move(factory);
  return options;
}

/// A started server and the client's connection to it. Members are
/// destroyed in reverse order: the connection closes, then the server
/// stops and joins its loop thread.
struct Service {
  std::string model;  ///< the trained meta-learner's save_state blob
  std::unique_ptr<Server> server;
  OwnedFd data;
};

/// Set-up as a deployment runs it: Phase 1 on the raw training history
/// (in place, so the caller passes a copy), meta-learner training,
/// save_state, Server::start, connect. Returns its seconds.
double set_up(RasLog history, const ThreePhasePredictor& tpp, Service& out) {
  const std::int64_t start = now_ns();
  tpp.run_phase1(history);
  PredictorPtr meta = tpp.make_predictor(Method::kMeta);
  meta->train(history);
  std::ostringstream os;
  meta->save_state(os);
  out.model = os.str();
  out.server =
      std::make_unique<Server>(server_options(model_factory(tpp, out.model)));
  out.server->start();
  out.data = connect_loopback(out.server->port());
  return seconds_since(start);
}

// ---- the socket run --------------------------------------------------------

struct PassResult {
  /// Per segment: first SUBMIT sent -> last reply received.
  std::vector<double> wall_s;
  /// Over all SUBMITs: last byte sent -> the reply to its stream's next POLL.
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  std::size_t failed = 0;
  PollDigests digests;

  double total_wall_s() const {
    double sum = 0.0;
    for (const double w : wall_s) {
      sum += w;
    }
    return sum;
  }
};

/// Serves one pass from this thread, segment by segment: writes
/// pre-encoded frames, at most kWindowFrames in flight and none past the
/// segment's end, and reads replies on a non-blocking socket, yielding the
/// CPU (never sleeping) whenever neither makes progress. POLL payloads are
/// folded into per-stream digests as they arrive, so no copy of them stays
/// in memory. A segment that breaks off leaves the rest unanswered.
PassResult serve_pass(const Schedule& s, const OwnedFd& fd,
                      std::size_t installations) {
  set_nonblocking(fd);
  const std::size_t n = s.frames();
  PassResult r;
  r.digests.assign(installations, servebench::kDigestSeed);
  std::vector<std::int64_t> sent_ns(n, 0);
  std::vector<double> latency_ms;
  latency_ms.reserve(s.submit_frames);
  std::vector<std::vector<std::size_t>> unpolled(installations);
  std::vector<char> buffer(256 * 1024);
  FrameReader reader;
  Frame reply;
  FrameError error;
  std::size_t sent = 0;     // frames fully handed to the kernel
  std::size_t written = 0;  // bytes of s.wire handed to the kernel
  std::size_t replies = 0;
  for (const std::size_t end : s.segment_end) {
    bool broken = false;
    const std::int64_t start = now_ns();
    std::int64_t last_progress = start;
    std::int64_t last_reply = start;
    while (replies < end && !broken) {
      bool progress = false;
      const std::size_t limit = std::min(end, replies + kWindowFrames);
      if (written < s.end[limit - 1]) {
        const std::size_t k = send_nonblocking(
            fd, std::string_view(s.wire).substr(written,
                                                s.end[limit - 1] - written));
        if (k != SIZE_MAX && k > 0) {
          written += k;
          progress = true;
          const std::int64_t t = now_ns();
          while (sent < n && s.end[sent] <= written) {
            sent_ns[sent++] = t;
          }
        }
      }
      const std::size_t got = recv_into(fd, buffer.data(), buffer.size());
      if (got == 0) {
        break;  // the server closed: what is left stays unanswered
      }
      if (got != SIZE_MAX) {
        progress = true;
        last_reply = now_ns();
        reader.feed(std::string_view(buffer.data(), got));
        for (;;) {
          const FrameReader::Status status = reader.next(reply, error);
          if (status == FrameReader::Status::kNeedMore) {
            break;
          }
          if (status != FrameReader::Status::kFrame) {
            broken = true;
            break;
          }
          const std::size_t i = replies++;
          if (!reply_ok(s, i, reply)) {
            ++r.failed;
            continue;
          }
          std::vector<std::size_t>& waiting = unpolled[s.stream[i]];
          if (s.records[i] > 0) {
            waiting.push_back(i);
            continue;
          }
          for (const std::size_t j : waiting) {
            latency_ms.push_back(
                static_cast<double>(last_reply - sent_ns[j]) * 1e-6);
          }
          waiting.clear();
          std::uint64_t& digest = r.digests[s.stream[i]];
          digest = servebench::fold_digest(digest, reply.payload);
        }
      }
      if (progress) {
        last_progress = now_ns();
      } else if (now_ns() - last_progress > kStallNs) {
        break;
      } else {
        sched_yield();
      }
    }
    if (replies < end) {
      break;
    }
    r.wall_s.push_back(static_cast<double>(last_reply - start) * 1e-9);
  }
  r.failed += n - replies;
  r.p50_ms = servebench::percentile(latency_ms, 0.5);
  r.p90_ms = servebench::percentile(latency_ms, 0.9);
  return r;
}

// ---- the in-process replay -------------------------------------------------

/// Delegates to a predictor and times its train() and observe() calls as
/// spans; warnings emitted are counted under the observe span's name.
class TracedPredictor final : public BasePredictor {
 public:
  TracedPredictor(PredictorPtr inner, std::string_view observe_span,
                  std::string_view train_span, Tracer* tracer)
      : inner_(std::move(inner)),
        observe_span_(observe_span),
        train_span_(train_span),
        tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void train(const LogView& training) override {
    Scope span(tracer_, train_span_);
    inner_->train(training);
  }
  void reset() override { inner_->reset(); }
  std::optional<Warning> observe(const RasRecord& rec) override {
    Scope span(tracer_, observe_span_);
    std::optional<Warning> warning = inner_->observe(rec);
    if (warning && tracer_ != nullptr) {
      tracer_->count(observe_span_);
    }
    return warning;
  }
  bool checkpointable() const override { return inner_->checkpointable(); }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  PredictorPtr inner_;
  std::string_view observe_span_;
  std::string_view train_span_;
  Tracer* tracer_;
};

/// make_predictor(Method::kMeta) rebuilt with the meta-learner and both
/// bases wrapped in TracedPredictor. If it drifts from the original, the
/// served-vs-replay warning check or the model-blob check fails.
PredictorPtr mirror_meta(const ThreePhasePredictor& tpp, Tracer* tracer,
                         const RulePredictor** rule_out = nullptr) {
  const ThreePhaseOptions& o = tpp.options();
  auto meta = std::make_unique<MetaLearner>(o.prediction, o.meta);
  auto rule = std::make_unique<RulePredictor>(o.prediction, o.rule);
  if (rule_out != nullptr) {
    *rule_out = rule.get();
  }
  meta->add_base(std::make_unique<TracedPredictor>(
                     std::move(rule), "predict.rule_observe",
                     "mining.rule_train", tracer),
                 /*treat_as_rule_like=*/true);
  PredictionConfig stat_config = o.prediction;
  stat_config.lead = 5 * kMinute;
  stat_config.window = kHour;
  meta->add_base(std::make_unique<TracedPredictor>(
                     std::make_unique<StatisticalPredictor>(stat_config,
                                                            o.statistical),
                     "predict.stat_observe", "predict.stat_train", tracer),
                 /*treat_as_rule_like=*/false);
  return std::make_unique<TracedPredictor>(std::move(meta), "meta.observe",
                                           "meta.train", tracer);
}

Factory mirror_factory(const ThreePhasePredictor& tpp, std::string model,
                       Tracer* tracer) {
  return [&tpp, model = std::move(model), tracer] {
    Scope span(tracer, "serve.model_load");
    PredictorPtr predictor = mirror_meta(tpp, tracer);
    std::istringstream is(model);
    predictor->load_state(is);
    return predictor;
  };
}

struct Replay {
  double wall_s = 0.0;
  std::size_t failed = 0;
  PollDigests digests;
  PollPayloads polls;             ///< kept only when asked for
  std::uint64_t raw_records = 0;  ///< engine counters, summed over shards
  std::uint64_t forwarded = 0;
};

/// Feeds the pass's frames to a Session over a ShardManager at the
/// server's cadence, with no socket. The server hands Session::on_bytes
/// whatever a wake-up reads and drains the shards after each wake-up; the
/// replay hands it one frame at a time, so SUBMIT and POLL spans stay
/// apart, and drains once kReplayDrainBytes of SUBMITs have gone in. It
/// also drains ahead of each POLL, so a POLL span holds only the poll and
/// the warning encode. Replies are checked and digested as the client
/// does, inside the timed wall. With `keep_polls` the POLL payloads are
/// kept too.
Replay replay(const Schedule& s, std::size_t installations, Factory factory,
              Tracer* tracer, bool keep_polls) {
  MetricsRegistry registry;
  const ShardOptions options = server_options(std::move(factory)).shards;
  ShardManager shards(options, registry);
  Session session(shards);
  Replay r;
  r.digests.assign(installations, servebench::kDigestSeed);
  if (keep_polls) {
    r.polls.resize(installations);
  }
  std::string out;
  FrameReader reader;
  Frame reply;
  FrameError error;
  std::size_t replies = 0;
  std::size_t undrained = 0;  // SUBMIT bytes handed over since the last drain
  const auto drain = [&] {
    Scope span(tracer, "core.drain");
    shards.drain();
    undrained = 0;
  };
  const auto take_replies = [&] {
    Scope span(tracer, "client.replies");
    reader.feed(out);
    out.clear();
    while (reader.next(reply, error) == FrameReader::Status::kFrame) {
      const std::size_t i = replies++;
      if (!reply_ok(s, i, reply)) {
        ++r.failed;
      } else if (s.records[i] == 0) {
        std::uint64_t& digest = r.digests[s.stream[i]];
        digest = servebench::fold_digest(digest, reply.payload);
        if (keep_polls) {
          r.polls[s.stream[i]].push_back(std::move(reply.payload));
        }
      }
    }
  };
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < s.frames(); ++i) {
    const std::string_view frame = s.frame(i);
    if (s.records[i] == 0) {
      if (undrained > 0) {
        drain();
      }
      Scope span(tracer, "serve.poll");
      session.on_bytes(frame, out);
      continue;
    }
    {
      Scope span(tracer, "serve.session");
      session.on_bytes(frame, out);
    }
    undrained += frame.size();
    if (undrained >= kReplayDrainBytes) {
      drain();
      take_replies();
    }
  }
  if (undrained > 0) {
    drain();
  }
  take_replies();
  r.wall_s = seconds_since(start);
  r.failed += s.frames() - replies;
  for (std::size_t k = 0; k < options.shard_count; ++k) {
    const std::string prefix = "shard" + std::to_string(k) + ".engine.";
    r.raw_records += registry.counter(prefix + "raw_records").value();
    r.forwarded += registry.counter(prefix + "forwarded").value();
  }
  return r;
}

// ---- host --------------------------------------------------------------

/// Pins the process to the last CPU it may run on; threads started later
/// (the server's loop) inherit the mask. Returns the CPU.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw Error("sched_getaffinity failed");
  }
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      cpu = c;
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (cpu < 0 || sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw Error("cannot pin to one CPU");
  }
  return cpu;
}

/// (steal, total) jiffies of one CPU from /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_jiffies(int cpu) {
  std::ifstream in("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu);
  std::string label;
  while (in >> label) {
    if (label == want) {
      std::uint64_t field[8] = {};
      std::uint64_t total = 0;
      for (std::uint64_t& f : field) {
        in >> f;
        total += f;
      }
      // Fields: user nice system idle iowait irq softirq steal.
      return {field[7], total};
    }
    in.ignore(1 << 12, '\n');
  }
  return {0, 0};
}

/// A "VmRSS"/"VmHWM" field of /proc/self/status, in MiB.
double status_mib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::stod(line.substr(n + 1)) / 1024.0;
    }
  }
  throw Error(std::string("no ") + field + " in /proc/self/status");
}

/// Resets VmHWM to the current RSS, so the peak measures what follows.
void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  if (!out.flush()) {
    throw Error("cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + format_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// ---- main ------------------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) {
          a.workload = &w;
        }
      }
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = a.seconds > 0;
    } else if (key == "--trace") {
      a.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw InvalidArgument("unknown option " + key);
    }
  }
  if (argc % 2 == 0 || a.workload == nullptr || !have_seed || !have_seconds ||
      !have_trace) {
    throw InvalidArgument(
        "usage: served_path --workload anl_flood|dcp_flood "
        "--seed N --seconds S --trace 0|1 [--trace-out FILE]");
  }
  return a;
}

void write_spans(std::ofstream& out, const char* phase, const Tracer& t) {
  for (const servebench::Span& span : t.spans()) {
    out << phase << '\t' << span.name << '\t' << span.start_ns << '\t'
        << span.end_ns << '\t' << span.parent << '\n';
  }
}

/// A counter from a STATS reply, e.g. "serve.records_in"; 0 if absent.
std::uint64_t stats_counter(const std::string& stats, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = stats.find(key);
  return at == std::string::npos ? 0
                                 : std::stoull(stats.substr(at + key.size()));
}

/// What the timed phase measured.
struct Measured {
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  std::vector<PassResult> passes;
  PollDigests digests;  ///< the first pass's
  std::string model;
  bool passes_agree = true;  ///< every pass polled the same payloads
  bool records_in_ok = true;
  std::vector<std::uint64_t> wakeups;  ///< STATS serve.wakeups, per pass
  double steal_frac = 0.0;
  /// With paired replays: each pass's untraced in-process replay wall,
  /// and whether every replay polled the served payloads.
  std::vector<double> replay_wall_s;
  bool replays_agree = true;
};

/// Sets up a service from a fresh copy of the history and returns the
/// seconds set_up took. The copy and a malloc_trim come first, untimed,
/// so each set-up starts as a fresh process would, with no freed memory
/// cached in the allocator: otherwise whether Phase 1 faulted its buffers
/// in depended on the heap's layout, and ANL set-ups took 0.13 or 0.17 s.
double timed_set_up(const RasLog& history, const ThreePhasePredictor& tpp,
                    Service& out) {
  RasLog log = history.subset(history.records());
  malloc_trim(0);
  return set_up(std::move(log), tpp, out);
}

/// The timed phase: cycles until `seconds` have passed (at least one),
/// each a set-up on a fresh service, then one pass on it, then STATS, then
/// the server stops. Set-up and pass samples thus spread over the same
/// host conditions. Set-ups follow until there are kSetups samples. With
/// `paired_replays`, each pass is followed by the same frames replayed
/// in-process, untraced, through make_predictor itself: the pair shares
/// host conditions, so its difference isolates the socket and event loop.
/// The peak RSS counts what set-up and serving add on top of the prepared
/// input, including the copies of the raw history that Phase 1 consumes in
/// place; of the replies, the client keeps only digests.
Measured measure(const RasLog& history, const ThreePhasePredictor& tpp,
                 const Schedule& schedule, double seconds, int cpu,
                 bool paired_replays) {
  Measured m;
  // Hand memory the input preparation freed back to the kernel first, so
  // set-up and serving cannot reuse it unseen.
  malloc_trim(0);
  const double rss_base = status_mib("VmRSS");
  reset_peak_rss();
  const auto [steal0, total0] = cpu_jiffies(cpu);
  const std::int64_t start = now_ns();
  while (m.passes.empty() || seconds_since(start) < seconds) {
    Service service;
    m.setup_s.push_back(timed_set_up(history, tpp, service));
    // Mining runs offline in a deployment, so its freed temporaries should
    // not sit under the server's memory either. Whether the allocator kept
    // them depended on the last allocation's place on the heap.
    malloc_trim(0);
    PassResult pass = serve_pass(schedule, service.data, kInstallations);
    const std::string stats =
        Client::connect(service.server->port()).stats_json();
    m.records_in_ok = m.records_in_ok &&
                      stats_counter(stats, "serve.records_in") ==
                          schedule.total_records;
    m.wakeups.push_back(stats_counter(stats, "serve.wakeups"));
    if (m.passes.empty()) {
      m.digests = pass.digests;
      m.model = service.model;
    } else {
      m.passes_agree = m.passes_agree && pass.digests == m.digests;
    }
    m.passes.push_back(std::move(pass));
    if (paired_replays) {
      const Replay plain = replay(schedule, kInstallations,
                                  model_factory(tpp, m.model), nullptr,
                                  /*keep_polls=*/false);
      m.replays_agree = m.replays_agree && plain.failed == 0 &&
                        plain.digests == m.digests;
      m.replay_wall_s.push_back(plain.wall_s);
    }
  }
  while (m.setup_s.size() < kSetups) {
    Service service;
    m.setup_s.push_back(timed_set_up(history, tpp, service));
  }
  const auto [steal1, total1] = cpu_jiffies(cpu);
  m.peak_rss_mb = status_mib("VmHWM") - rss_base;
  if (total1 > total0) {
    m.steal_frac = static_cast<double>(steal1 - steal0) /
                   static_cast<double>(total1 - total0);
  }
  return m;
}

/// The --trace 1 metrics: layer self times from the traced replay, a
/// traced set-up, a classification pass and the offline reference, with
/// the paired socket/replay walls of `m`. Clears `correct` when the
/// traced set-up's model differs from the served one.
std::vector<Metric> layer_metrics(
    const Schedule& schedule, const RasLog& history,
    const std::vector<Installation>& installations,
    const ThreePhasePredictor& tpp, const Measured& m, const Replay& traced,
    const Tracer& replay_tracer,
    const std::vector<std::vector<Warning>>& served, bool& correct,
    const std::string& trace_out) {
  // Set-up once more, traced through the mirrored meta-learner; its
  // model must be byte-equal to the one make_predictor trained.
  Tracer setup_tracer;
  std::size_t rules = 0;
  {
    RasLog log = history.subset(history.records());
    {
      Scope span(&setup_tracer, "preprocess.phase1");
      tpp.run_phase1(log);
    }
    const RulePredictor* rule = nullptr;
    PredictorPtr meta = mirror_meta(tpp, &setup_tracer, &rule);
    meta->train(log);
    rules = rule->rules().size();
    std::ostringstream os;
    meta->save_state(os);
    correct = correct && os.str() == m.model;
    Service service;
    Scope span(&setup_tracer, "serve.start");
    service.server =
        std::make_unique<Server>(server_options(model_factory(tpp, m.model)));
    service.server->start();
    service.data = connect_loopback(service.server->port());
  }

  // Classification alone, over every record of a pass.
  const EventClassifier classifier;
  std::uint64_t class_sum = 0;
  const std::int64_t classify_start = now_ns();
  for (const Installation& inst : installations) {
    for (const RasRecord& rec : inst.raw.records()) {
      class_sum += classifier.classify(inst.raw.text_of(rec), rec.facility,
                                       rec.severity);
    }
  }
  const double classify_s = seconds_since(classify_start);
  std::printf("classified: subcategory-id sum %llu\n",
              static_cast<unsigned long long>(class_sum));
  std::unordered_set<std::string_view> distinct;
  for (const Installation& inst : installations) {
    for (const RasRecord& rec : inst.raw.records()) {
      distinct.insert(inst.raw.text_of(rec));
    }
  }

  // Offline reference: the same model fed each Phase-1 stream in-process.
  std::vector<std::vector<Warning>> offline(kInstallations);
  std::vector<std::vector<TimePoint>> failures;
  const Factory load = model_factory(tpp, m.model);
  for (std::size_t i = 0; i < kInstallations; ++i) {
    PredictorPtr model = load();
    for (const RasRecord& rec : installations[i].preprocessed.records()) {
      if (auto warning = model->observe(rec)) {
        offline[i].push_back(std::move(*warning));
      }
    }
    failures.push_back(installations[i].failures);
  }
  const Confusion offline_score = servebench::score_streams(offline, failures);

  const servebench::LayerTotals layers =
      servebench::layer_totals(replay_tracer.spans());
  const servebench::LayerTotals setup_layers =
      servebench::layer_totals(setup_tracer.spans());
  auto self = [](const servebench::LayerTotals& t, std::string_view name) {
    const auto it = t.self_s.find(name);
    return it == t.self_s.end() ? 0.0 : it->second;
  };
  const auto observe_calls = static_cast<double>(
      layers.calls.count("meta.observe") ? layers.calls.at("meta.observe")
                                         : 0);
  const double records = static_cast<double>(schedule.total_records);
  std::size_t warnings = 0;
  for (const auto& stream : served) {
    warnings += stream.size();
  }
  std::vector<double> net_s;
  std::vector<double> walls;
  for (std::size_t i = 0; i < m.passes.size(); ++i) {
    net_s.push_back(m.passes[i].total_wall_s() - m.replay_wall_s[i]);
    walls.push_back(m.passes[i].total_wall_s());
  }
  const double plain_wall = servebench::median(m.replay_wall_s);
  std::printf("walls: socket pass %.4f s, untraced replay %.4f s, traced "
              "replay %.4f s (medians over %zu passes)\n",
              servebench::median(walls), plain_wall, traced.wall_s,
              walls.size());
  std::printf("offline precision %.4f recall %.4f\n",
              offline_score.precision(), offline_score.recall());
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << "phase\tname\tstart_ns\tend_ns\tparent\n";
    write_spans(out, "replay", replay_tracer);
    write_spans(out, "setup", setup_tracer);
    if (!out) {
      throw Error("cannot write " + trace_out);
    }
  }
  return {
      {"serve.net_s", servebench::median(net_s), "s"},
      {"serve.session_s", self(layers, "serve.session"), "s"},
      {"serve.poll_s", self(layers, "serve.poll"), "s"},
      {"serve.frames", static_cast<double>(schedule.frames()), "count"},
      {"serve.records_per_frame",
       records / static_cast<double>(schedule.submit_frames), "records/frame"},
      {"serve.warnings", static_cast<double>(warnings), "count"},
      {"core.engine_s", self(layers, "core.drain"), "s"},
      {"core.forwarded_ratio",
       static_cast<double>(traced.forwarded) /
           static_cast<double>(traced.raw_records),
       "ratio"},
      {"taxonomy.classify_s", classify_s, "s"},
      {"taxonomy.distinct_entry_ratio",
       static_cast<double>(distinct.size()) / records, "ratio"},
      {"meta.observe_s", self(layers, "meta.observe"), "s"},
      {"meta.observe_calls", observe_calls, "count"},
      {"meta.warning_ratio",
       static_cast<double>(replay_tracer.count_of("meta.observe")) /
           observe_calls,
       "ratio"},
      {"predict.rule_observe_s", self(layers, "predict.rule_observe"), "s"},
      {"predict.stat_observe_s", self(layers, "predict.stat_observe"), "s"},
      {"preprocess.phase1_s", self(setup_layers, "preprocess.phase1"), "s"},
      {"mining.rule_train_s", self(setup_layers, "mining.rule_train"), "s"},
      {"mining.rules", static_cast<double>(rules), "count"},
      {"predict.stat_train_s", self(setup_layers, "predict.stat_train"), "s"},
      {"serve.model_load_s", self(layers, "serve.model_load"), "s"},
      {"serve.start_s", self(setup_layers, "serve.start"), "s"},
      {"host.steal_frac", m.steal_frac, "ratio"},
      {"trace.overhead_frac", (traced.wall_s - plain_wall) / plain_wall,
       "ratio"},
      {"trace.coverage", layers.total_self_s / traced.wall_s, "ratio"},
      {"eval.offline_precision", offline_score.precision(), "ratio"},
      {"eval.offline_recall", offline_score.recall(), "ratio"},
  };
}

int run(const Args& args) {
  if (!kOptimizedBuild) {
    throw Error("refusing to time a build without NDEBUG");
  }
  const Workload& w = *args.workload;
  const int cpu = pin_to_one_cpu();
  std::printf("workload %s seed %llu: NDEBUG build, pinned to cpu %d of "
              "nproc %ld\n",
              w.name, static_cast<unsigned long long>(args.seed), cpu,
              sysconf(_SC_NPROCESSORS_ONLN));

  // Input, before any timing: the training history and K installations.
  // The training history is the profile's own log (seed offset 0), the
  // same in every run: DC-Prophet's mined model ranges over 5x in size
  // across history seeds, which would swamp every timing with the seed.
  const RasLog history = generate(w, w.train_scale, 0);
  const ThreePhasePredictor tpp;
  std::vector<Installation> installations(kInstallations);
  std::vector<std::vector<TimePoint>> failures;
  for (std::size_t i = 0; i < kInstallations; ++i) {
    Installation& inst = installations[i];
    inst.raw = generate(w, w.serve_scale, seed_offset(args.seed, i + 1));
    inst.preprocessed = inst.raw.subset(inst.raw.records());
    tpp.run_phase1(inst.preprocessed);
    inst.failures = fatal_times(inst.preprocessed);
    failures.push_back(inst.failures);
  }
  const Schedule schedule = build_schedule(installations);
  std::printf("input: %zu training records; %zu records in %zu SUBMIT + %zu "
              "POLL frames and %zu segments per pass\n",
              history.size(), schedule.total_records, schedule.submit_frames,
              schedule.frames() - schedule.submit_frames,
              schedule.segment_end.size());

  const Measured m =
      measure(history, tpp, schedule, args.seconds, cpu, args.trace);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> rate;
  std::vector<double> p50;
  std::vector<double> p90;
  for (const PassResult& pass : m.passes) {
    attempted += schedule.frames();
    failed += pass.failed;
    rate.push_back(static_cast<double>(schedule.total_records) /
                   pass.total_wall_s());
    p50.push_back(pass.p50_ms);
    p90.push_back(pass.p90_ms);
  }
  // records/s divides by the sum of the segments' median times over the
  // passes.
  double segment_wall_s = 0.0;
  for (std::size_t k = 0; k < schedule.segment_end.size(); ++k) {
    std::vector<double> wall;
    for (const PassResult& pass : m.passes) {
      if (k < pass.wall_s.size()) {
        wall.push_back(pass.wall_s[k]);
      }
    }
    segment_wall_s += servebench::median(wall);
  }

  // Correctness: an in-process replay through the mirrored meta-learner
  // must poll the same kWarnings payloads (encode_warnings of each poll's
  // batch), in the same order, on every stream; digests compare them.
  // With --trace 1 it is the traced replay. Its payloads, equal to the
  // served ones, are then scored.
  Tracer replay_tracer;
  Tracer* tracer = args.trace ? &replay_tracer : nullptr;
  const Replay mirror =
      replay(schedule, kInstallations, mirror_factory(tpp, m.model, tracer),
             tracer, /*keep_polls=*/true);
  const bool replay_equal =
      mirror.failed == 0 && mirror.digests == m.digests && m.replays_agree;
  bool correct =
      m.passes_agree && m.records_in_ok && replay_equal && failed == 0;
  const std::vector<std::vector<Warning>> served = decode_polls(mirror.polls);
  const Confusion score = servebench::score_streams(served, failures);
  std::printf("checks: passes agree %s; STATS records_in %s; served == "
              "replayed warnings %s; failed %zu of %zu\n",
              m.passes_agree ? "yes" : "NO", m.records_in_ok ? "yes" : "NO",
              replay_equal ? "yes" : "NO", failed, attempted);
  std::printf("validity: host.steal_frac %.4f over %zu passes; records/s per "
              "pass:",
              m.steal_frac, m.passes.size());
  for (const double r : rate) {
    std::printf(" %.0f", r);
  }
  std::printf("; set-up s:");
  for (const double t : m.setup_s) {
    std::printf(" %.4f", t);
  }
  std::printf("\n");
  const auto wakeups = static_cast<double>(m.wakeups.front());
  std::printf("validity: first pass: %.0f server wake-ups, %.0f KiB of "
              "frames per wake-up\n",
              wakeups, static_cast<double>(schedule.wire.size()) / 1024.0 /
                           wakeups);
  std::printf("served precision %.4f recall %.4f\n", score.precision(),
              score.recall());

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = layer_metrics(schedule, history, installations, tpp, m, mirror,
                            replay_tracer, served, correct, args.trace_out);
  } else {
    metrics.push_back({"setup_s", servebench::median(m.setup_s), "s"});
    metrics.push_back(
        {"records_per_s",
         static_cast<double>(schedule.total_records) / segment_wall_s,
         "records/s"});
    metrics.push_back({"latency_p50_ms", servebench::median(p50), "ms"});
    metrics.push_back({"latency_p90_ms", servebench::median(p90), "ms"});
    metrics.push_back({"precision", score.precision(), "ratio"});
    metrics.push_back({"recall", score.recall(), "ratio"});
    metrics.push_back({"peak_rss_mb", m.peak_rss_mb, "MiB"});
  }
  for (const Metric& metric : metrics) {
    std::printf("%-30s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics_json(metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "served_path: %s\n", e.what());
    return 2;
  }
}
