// Deterministic load generator for the sharded prediction service
// (EXPERIMENTS.md X9/X11).
//
// Two workloads share this binary:
//
//  * BM_ServeLoadgen — the original blocking-client replay: simgen logs
//    as interleaved streams through a real loopback server, reporting
//    records/s plus the p50/p99 warning age from the server's own
//    histogram.
//  * BM_ServeSweep — the 1→10k concurrent-connection latency sweep
//    (EXPERIMENTS.md X11). Every connection is a nonblocking state
//    machine driven by a client-side epoll EventPoller: pre-encoded
//    pipelined SUBMIT_BATCH windows go out, per-frame submit→reply
//    latency lands in an exact (sorted-sample) p50/p99/p999, and the
//    row reports throughput plus dropped/desynced/busy anomaly counts.
//
//   $ ./serve_loadgen                   # full google-benchmark sweep
//   $ ./serve_loadgen --smoke           # CI gate: correctness pass,
//                                       # then emits BENCH_serve.json
//                                       # (cheap row)
//   $ ./serve_loadgen --sweep-smoke     # CI gate: few-hundred-conn
//                                       # sweep, p99 bound, zero
//                                       # dropped/desynced frames
//   $ ./serve_loadgen --chaos           # network chaos survival run
//                                       # (EXPERIMENTS.md X12): six
//                                       # misbehaving personas against a
//                                       # limits-armed server while
//                                       # healthy pipelined lanes gate
//                                       # p99 / exactly-once / RSS ->
//                                       # BENCH_chaos.json
//   $ ./serve_loadgen --chaos-smoke     # same gates, CI-sized phases
#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/binary.hpp"
#include "core/three_phase.hpp"
#include "faultinject/chaos_clients.hpp"
#include "serve/client.hpp"
#include "serve/event_poller.hpp"
#include "serve/net_util.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "simgen/stream.hpp"

using namespace bglpred;
using namespace bglpred::serve;

namespace {

/// --smoke shrinks the workload; set in main() before benchmarks run.
bool g_smoke = false;

struct Workload {
  std::vector<std::vector<WireRecord>> streams;
  std::size_t total_records = 0;
};

/// Generated once per process: `streams` interleaved record sequences
/// with their raw entry text, byte-reproducible across runs. Built off
/// the streaming generator batch by batch — the global record index
/// keeps the round-robin interleave identical to a whole-log split, but
/// no full RasLog is ever resident.
const Workload& workload() {
  static const Workload w = [] {
    Workload out;
    StreamConfig config;
    config.scale = g_smoke ? 0.01 : 0.05;
    const std::size_t streams = g_smoke ? 2 : 8;
    StreamRecordSource source(SystemProfile::anl(), config);
    out.streams.resize(streams);
    RasLog batch;
    while (source.next_batch(batch)) {
      for (const RasRecord& rec : batch.records()) {
        out.streams[out.total_records % streams].push_back(
            WireRecord{rec, std::string(batch.text_of(rec))});
        ++out.total_records;
      }
    }
    return out;
  }();
  return w;
}

ServerOptions sweep_server_options(const ThreePhasePredictor& tpp) {
  ServerOptions options;
  options.listen_backlog = 4096;  // connection storms; kernel clamps
  options.shards.shard_count = 2;
  // Deep queues: the sweep measures latency/throughput, and a client
  // that never resubmits would silently lose REJECTED_BUSY records —
  // anomaly counters assert this stays zero instead.
  options.shards.queue_capacity = 1u << 20;
  options.shards.predictor_factory = [&tpp] {
    return tpp.make_predictor(Method::kEveryFailure);
  };
  return options;
}

// ---- fd budget -----------------------------------------------------------

/// Both ends of every loopback connection live in this process, so N
/// connections cost ~2N descriptors. The raise itself is the shared
/// serve::raise_fd_limit() the server also calls at startup; only the
/// both-ends-in-one-process budget math stays here.
std::size_t raise_fd_limit_and_cap() {
  const std::size_t soft = raise_fd_limit();
  // Headroom for the listener, pollers, eventfds, benchmark files, and
  // whatever the runtime already holds open.
  const std::size_t budget = soft > 256 ? soft - 256 : 0;
  return budget / 2;
}

std::size_t fd_capped_connections() {
  static const std::size_t cap = raise_fd_limit_and_cap();
  return cap;
}

// ---- the connection sweep ------------------------------------------------

struct SweepConfig {
  std::size_t connections = 1;
  std::size_t frames_per_conn = 4;
  std::size_t records_per_frame = 4;
};

struct SweepResult {
  std::size_t connections = 0;       ///< actually opened
  std::size_t records_submitted = 0;
  std::uint64_t records_accepted = 0;
  double elapsed_s = 0.0;
  std::uint64_t p50_us = 0;
  std::uint64_t p99_us = 0;
  std::uint64_t p999_us = 0;
  std::size_t busy_replies = 0;    ///< REJECTED_BUSY (queue too small)
  std::size_t dropped = 0;         ///< conns that died before all replies
  std::size_t desynced = 0;        ///< mismatched/error/undecodable frames
};

/// Per-connection client state machine (see file header).
struct SweepConn {
  OwnedFd fd;
  std::size_t write_off = 0;      ///< into the shared wire image
  std::string wire;               ///< patched copy of the frame template
  std::size_t next_stamp = 0;     ///< frames fully handed to the kernel
  std::size_t replies = 0;
  bool want_write = false;
  bool done = false;
  FrameReader reader;
  std::vector<std::chrono::steady_clock::time_point> sent_at;
};

/// Pre-encodes one connection's frames: a single pipelined window —
/// head unflagged, followers kFlagPipelineFollow — with stream_id 0 to
/// be patched per connection (the CRC covers only the payload, so
/// header patching is free). Returns the byte image plus each frame's
/// end offset (for send-completion stamping) and start offset (for
/// stream-id patching).
struct FrameTemplate {
  std::string wire;
  std::vector<std::size_t> frame_starts;
  std::vector<std::size_t> frame_ends;
  std::size_t records = 0;
};

FrameTemplate build_template(const SweepConfig& cfg) {
  // Flattened record pool, tiled when a config needs more than the
  // generated log holds.
  const Workload& load = workload();
  std::vector<const WireRecord*> pool;
  for (const auto& stream : load.streams) {
    for (const WireRecord& wr : stream) {
      pool.push_back(&wr);
    }
  }
  FrameTemplate tpl;
  std::size_t next = 0;
  for (std::size_t f = 0; f < cfg.frames_per_conn; ++f) {
    Frame frame;
    frame.type = MessageType::kSubmitBatch;
    frame.stream_id = 0;  // patched per connection
    frame.seq = static_cast<std::uint32_t>(f + 1);
    if (f > 0) {
      frame.flags = kFlagPipelineFollow;
    }
    wire::append<std::uint32_t>(
        frame.payload, static_cast<std::uint32_t>(cfg.records_per_frame));
    for (std::size_t r = 0; r < cfg.records_per_frame; ++r) {
      const WireRecord& wr = *pool[next++ % pool.size()];
      encode_record(frame.payload, wr.record, wr.entry);
      ++tpl.records;
    }
    tpl.frame_starts.push_back(tpl.wire.size());
    tpl.wire += encode_frame(frame);
    tpl.frame_ends.push_back(tpl.wire.size());
  }
  return tpl;
}

void patch_stream_id(std::string& wire,
                     const std::vector<std::size_t>& frame_starts,
                     std::uint64_t stream_id) {
  for (const std::size_t start : frame_starts) {
    for (std::size_t b = 0; b < 8; ++b) {
      wire[start + 8 + b] =
          static_cast<char>((stream_id >> (8 * b)) & 0xff);
    }
  }
}

/// Writes as much of the connection's remaining bytes as the kernel
/// accepts, stamping each frame the moment its last byte is handed
/// over. Returns false when the connection failed.
bool pump_writes(SweepConn& conn, const FrameTemplate& tpl) {
  try {
    while (conn.write_off < conn.wire.size()) {
      const std::size_t n = send_nonblocking(
          conn.fd, std::string_view(conn.wire).substr(conn.write_off));
      if (n == SIZE_MAX) {
        break;
      }
      conn.write_off += n;
      const auto now = std::chrono::steady_clock::now();
      while (conn.next_stamp < tpl.frame_ends.size() &&
             conn.write_off >= tpl.frame_ends[conn.next_stamp]) {
        conn.sent_at[conn.next_stamp] = now;
        ++conn.next_stamp;
      }
    }
  } catch (const Error&) {
    return false;
  }
  return true;
}

SweepResult run_sweep(const SweepConfig& cfg, const ThreePhasePredictor& tpp) {
  SweepResult result;
  const FrameTemplate tpl = build_template(cfg);

  ServerOptions options = sweep_server_options(tpp);
  Server server(options);
  server.start();

  // Phase 1 (untimed): open the connection population. Blocking
  // connects pace themselves against the server's accept loop.
  std::vector<std::unique_ptr<SweepConn>> conns;
  conns.reserve(cfg.connections);
  for (std::size_t c = 0; c < cfg.connections; ++c) {
    auto conn = std::make_unique<SweepConn>();
    conn->fd = connect_loopback(server.port());
    set_nonblocking(conn->fd);
    conn->wire = tpl.wire;
    patch_stream_id(conn->wire, tpl.frame_starts,
                    /*stream_id=*/c + 1);
    conn->sent_at.resize(cfg.frames_per_conn);
    conns.push_back(std::move(conn));
  }
  result.connections = conns.size();
  result.records_submitted = tpl.records * conns.size();

  // Phase 2 (timed): drive every connection to completion off a
  // client-side epoll poller.
  std::vector<std::uint64_t> latencies_us;
  latencies_us.reserve(conns.size() * cfg.frames_per_conn);
  EventPoller poller;
  std::vector<SweepConn*> by_fd(65536, nullptr);
  std::size_t done_count = 0;
  std::vector<char> scratch(64 * 1024);
  std::vector<ReadyEvent> events;

  const auto handle_reply = [&](SweepConn& conn, const Frame& frame) {
    const std::size_t idx = frame.seq == 0 ? SIZE_MAX : frame.seq - 1;
    if (idx >= cfg.frames_per_conn) {
      ++result.desynced;
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    latencies_us.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            now - conn.sent_at[idx])
            .count()));
    if (frame.type == MessageType::kOk ||
        frame.type == MessageType::kRejectedBusy) {
      BytesReader in(frame.payload);
      result.records_accepted += in.read<std::uint64_t>("accepted count");
      if (frame.type == MessageType::kRejectedBusy) {
        ++result.busy_replies;
      }
    } else {
      ++result.desynced;
    }
    ++conn.replies;
  };

  const auto start = std::chrono::steady_clock::now();
  for (auto& conn : conns) {
    by_fd[static_cast<std::size_t>(conn->fd.get())] = conn.get();
    poller.add(conn->fd.get(), /*want_write=*/false);
    if (!pump_writes(*conn, tpl)) {
      conn->done = true;
      ++done_count;
      ++result.dropped;
      poller.remove(conn->fd.get());
      continue;
    }
    if (conn->write_off < conn->wire.size()) {
      conn->want_write = true;
      poller.set_want_write(conn->fd.get(), true);
    }
  }
  const auto deadline = start + std::chrono::seconds(120);
  while (done_count < conns.size() &&
         std::chrono::steady_clock::now() < deadline) {
    const std::size_t n = poller.wait(1000, events);
    for (std::size_t i = 0; i < n; ++i) {
      SweepConn* conn = by_fd[static_cast<std::size_t>(events[i].fd)];
      if (conn == nullptr || conn->done) {
        continue;
      }
      bool failed = false;
      if (events[i].writable && conn->write_off < conn->wire.size()) {
        failed = !pump_writes(*conn, tpl);
        if (!failed && conn->write_off == conn->wire.size() &&
            conn->want_write) {
          conn->want_write = false;
          poller.set_want_write(conn->fd.get(), false);
        }
      }
      if (!failed && events[i].readable) {
        try {
          for (;;) {
            const std::size_t r =
                recv_into(conn->fd, scratch.data(), scratch.size());
            if (r == SIZE_MAX) {
              break;
            }
            if (r == 0) {
              failed = conn->replies < cfg.frames_per_conn;
              break;
            }
            conn->reader.feed(std::string_view(scratch.data(), r));
            Frame frame;
            FrameError error;
            for (;;) {
              const FrameReader::Status st = conn->reader.next(frame, error);
              if (st == FrameReader::Status::kNeedMore) {
                break;
              }
              if (st != FrameReader::Status::kFrame) {
                ++result.desynced;
                failed = true;
                break;
              }
              handle_reply(*conn, frame);
            }
            if (failed || conn->replies == cfg.frames_per_conn) {
              break;
            }
          }
        } catch (const Error&) {
          failed = true;
        }
      }
      if (!conn->done &&
          (failed || conn->replies == cfg.frames_per_conn)) {
        if (failed) {
          ++result.dropped;
        }
        conn->done = true;
        ++done_count;
        poller.remove(conn->fd.get());
        by_fd[static_cast<std::size_t>(conn->fd.get())] = nullptr;
        conn->fd.reset();
      }
    }
  }
  result.dropped += conns.size() - done_count;
  result.elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  conns.clear();
  server.stop();

  if (!latencies_us.empty()) {
    std::sort(latencies_us.begin(), latencies_us.end());
    const auto at = [&](double q) {
      const std::size_t i = std::min(
          latencies_us.size() - 1,
          static_cast<std::size_t>(q * static_cast<double>(latencies_us.size())));
      return latencies_us[i];
    };
    result.p50_us = at(0.50);
    result.p99_us = at(0.99);
    result.p999_us = at(0.999);
  }
  return result;
}

void BM_ServeSweep(benchmark::State& state) {
  const auto requested = static_cast<std::size_t>(state.range(0));
  const std::size_t cap = fd_capped_connections();
  SweepConfig cfg;
  cfg.connections = std::min(requested, cap);
  if (cfg.connections < requested) {
    std::fprintf(stderr,
                 "sweep: fd limit caps %zu requested connections at %zu\n",
                 requested, cfg.connections);
  }
  // Scale per-connection work down as the population grows so every row
  // finishes in comparable wall time (floor of 2 windows' worth).
  cfg.records_per_frame = 4;
  cfg.frames_per_conn = std::max<std::size_t>(
      2, 65536 / (cfg.connections * cfg.records_per_frame));
  const ThreePhasePredictor tpp;

  SweepResult r;
  for (auto _ : state) {
    r = run_sweep(cfg, tpp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(r.records_submitted));
  state.counters["connections"] = static_cast<double>(r.connections);
  state.counters["records"] = static_cast<double>(r.records_submitted);
  state.counters["rps"] =
      static_cast<double>(r.records_accepted) / std::max(r.elapsed_s, 1e-9);
  state.counters["p50_us"] = static_cast<double>(r.p50_us);
  state.counters["p99_us"] = static_cast<double>(r.p99_us);
  state.counters["p999_us"] = static_cast<double>(r.p999_us);
  state.counters["busy"] = static_cast<double>(r.busy_replies);
  state.counters["dropped"] = static_cast<double>(r.dropped);
  state.counters["desynced"] = static_cast<double>(r.desynced);
}

// ---- CI gates ------------------------------------------------------------

/// One end-to-end pass with correctness checks — the CI smoke gate.
int run_smoke() {
  const ThreePhasePredictor tpp;
  const Workload& load = workload();
  ServerOptions options;
  options.shards.shard_count = 2;
  options.shards.queue_capacity = 512;
  options.shards.predictor_factory = [&tpp] {
    return tpp.make_predictor(Method::kEveryFailure);
  };
  Server server(options);
  server.start();
  Client client = Client::connect(server.port());
  std::size_t warnings = 0;
  for (std::size_t s = 0; s < load.streams.size(); ++s) {
    client.submit_all(s, load.streams[s]);
    warnings += client.poll_warnings(s).size();
  }
  const std::string stats = client.stats_json();
  client.shutdown_server();
  server.stop();
  if (warnings == 0) {
    std::fprintf(stderr, "smoke: no warnings delivered\n");
    return 1;
  }
  const std::string want =
      "\"serve.records_in\":" + std::to_string(load.total_records);
  if (stats.find(want) == std::string::npos) {
    std::fprintf(stderr, "smoke: records_in mismatch (wanted %s) in %s\n",
                 want.c_str(), stats.c_str());
    return 1;
  }
  std::printf("smoke: %zu records, %zu warnings served OK\n",
              load.total_records, warnings);
  return 0;
}

/// The sweep's own CI gate: a few hundred concurrent connections must
/// complete with zero dropped/desynced/busy frames and a sane p99.
int run_sweep_smoke() {
  const ThreePhasePredictor tpp;
  SweepConfig cfg;
  cfg.connections = std::min<std::size_t>(256, fd_capped_connections());
  cfg.frames_per_conn = 4;
  cfg.records_per_frame = 4;
  const SweepResult r = run_sweep(cfg, tpp);
  std::printf(
      "sweep-smoke: %zu conns, %zu records, %.2fs, p50=%luus "
      "p99=%luus p999=%luus, busy=%zu dropped=%zu desynced=%zu\n",
      r.connections, r.records_submitted, r.elapsed_s,
      static_cast<unsigned long>(r.p50_us),
      static_cast<unsigned long>(r.p99_us),
      static_cast<unsigned long>(r.p999_us), r.busy_replies, r.dropped,
      r.desynced);
  int rc = 0;
  if (r.dropped != 0 || r.desynced != 0 || r.busy_replies != 0) {
    std::fprintf(stderr, "sweep-smoke: frame anomalies detected\n");
    rc = 1;
  }
  if (r.records_accepted != r.records_submitted) {
    std::fprintf(stderr, "sweep-smoke: accepted %llu != submitted %zu\n",
                 static_cast<unsigned long long>(r.records_accepted),
                 r.records_submitted);
    rc = 1;
  }
  // Generous: loopback p99 is single-digit milliseconds even on a busy
  // 1-CPU CI box; half a second means the loop starved someone.
  if (r.p99_us > 500000) {
    std::fprintf(stderr, "sweep-smoke: p99 %lu us exceeds 500ms bound\n",
                 static_cast<unsigned long>(r.p99_us));
    rc = 1;
  }
  return rc;
}

// ---- chaos survival run (EXPERIMENTS.md X12) -----------------------------

/// Resident-set sample from /proc/self/status, in KiB (0 if unreadable).
std::size_t vm_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(
          std::strtoull(line.c_str() + 6, nullptr, 10));
    }
  }
  return 0;
}

/// Limits tight enough that every persona trips its own defense within
/// one short run, loose enough that the paced healthy lanes never do.
ServerOptions chaos_server_options(const ThreePhasePredictor& tpp) {
  ServerOptions options;
  options.listen_backlog = 1024;
  options.shards.shard_count = 2;
  options.shards.queue_capacity = 1u << 16;
  options.shards.predictor_factory = [&tpp] {
    return tpp.make_predictor(Method::kEveryFailure);
  };
  ServerLimits& lim = options.limits;
  lim.max_connections = 64;
  lim.max_total_outbox_bytes = 8u << 20;
  lim.max_connection_outbox_bytes = 256u << 10;
  // Stall strictly shorter than idle: a stalled reader stops completing
  // frames too, so both timers arm together — the stall timeout must win
  // that race or every stalled connection is misdiagnosed as idle.
  lim.idle_timeout_micros = 500'000;
  lim.write_stall_timeout_micros = 200'000;
  lim.drain_deadline_micros = 2'000'000;
  lim.sndbuf_bytes = 16 * 1024;
  lim.session.max_submit_frames_per_window = 96;
  lim.session.window_micros = 100'000;
  return options;
}

/// What one healthy lane lived through. Written by the lane thread,
/// read by the driver only after join.
struct LaneReport {
  std::vector<std::uint64_t> clean_us;  ///< per-slice latency, clean phase
  std::vector<std::uint64_t> chaos_us;  ///< per-slice latency, storm phase
  std::uint64_t submitted = 0;          ///< records fully acknowledged
  std::size_t reconnects = 0;
  bool failed = false;
  std::string error;
};

/// One healthy pipelined client: a persistent connection opened BEFORE
/// the storm (admission shedding only affects new arrivals), submitting
/// paced slices small enough to stay under the per-connection inbound
/// budget. If the connection dies as storm collateral, the lane
/// reconnects and resumes the slice from the server's STREAM_STATUS
/// watermark — its exactly-once accounting is re-derived, never guessed.
void run_latency_lane(std::uint16_t port, std::uint64_t stream_id,
                      const std::vector<WireRecord>& pool,
                      const std::atomic<int>& phase, LaneReport& report) {
  constexpr std::size_t kSlice = 64;
  ClientOptions copts;
  copts.connect_timeout_micros = 2'000'000;
  copts.io_timeout_micros = 5'000'000;
  try {
    auto client = std::make_unique<Client>(Client::connect(port, copts));
    std::size_t cursor = 0;
    while (phase.load() != 2) {
      std::vector<WireRecord> slice;
      slice.reserve(kSlice);
      for (std::size_t i = 0; i < kSlice; ++i) {
        slice.push_back(pool[(cursor + i) % pool.size()]);
      }
      cursor += kSlice;
      const auto t0 = std::chrono::steady_clock::now();
      std::uint64_t slice_done = 0;  // records of THIS slice already landed
      std::size_t attempts = 0;
      while (!slice.empty()) {
        try {
          client->submit_all_pipelined(stream_id, slice, /*batch_size=*/16,
                                       /*window=*/4);
          slice.clear();
        } catch (const Error&) {
          ++report.reconnects;
          if (++attempts > 100) {
            throw;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          std::uint64_t mark = 0;
          try {
            client = std::make_unique<Client>(Client::connect(port, copts));
            mark = client->stream_accepted(stream_id);
          } catch (const Error&) {
            // Shed at accept, or reset before the watermark came back:
            // back off and try again.
            continue;
          }
          const std::uint64_t landed = mark - report.submitted;
          slice.erase(slice.begin(),
                      slice.begin() +
                          static_cast<std::ptrdiff_t>(landed - slice_done));
          slice_done = landed;
        }
      }
      report.submitted += kSlice;
      const auto us = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      if (phase.load() == 0) {
        report.clean_us.push_back(us);
      } else {
        report.chaos_us.push_back(us);
      }
      // ~4 pipelined frames per 8ms slice ≈ 50 submit frames per 100ms
      // window — under the 96-frame budget with room for both lanes.
      std::this_thread::sleep_for(std::chrono::milliseconds(8));
    }
  } catch (const Error& e) {
    report.failed = true;
    report.error = e.what();
  }
}

std::uint64_t percentile_us(std::vector<std::uint64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[i];
}

/// The chaos gate: clean phase (overload counters must stay zero) →
/// storm phase (six personas + a resilient bulk submitter racing them)
/// → survival probe + exactly-once verification + p99/RSS bounds.
/// Emits BENCH_chaos.json either way; returns nonzero if any gate fails.
int run_chaos() {
  const ThreePhasePredictor tpp;
  const Workload& load = workload();
  std::vector<WireRecord> pool;
  for (const auto& stream : load.streams) {
    pool.insert(pool.end(), stream.begin(), stream.end());
  }
  if (pool.empty()) {
    std::fprintf(stderr, "chaos: empty workload\n");
    return 1;
  }
  const std::uint64_t clean_micros = g_smoke ? 1'000'000 : 2'500'000;
  const std::uint64_t chaos_micros = g_smoke ? 1'200'000 : 3'000'000;

  ServerOptions options = chaos_server_options(tpp);
  Server server(options);
  server.start();
  MetricsRegistry& reg = server.metrics();
  static const char* const kOverloadCounters[] = {
      "serve.accepts_shed",        "serve.slow_readers_evicted",
      "serve.idle_timeouts",       "serve.write_stall_timeouts",
      "serve.budget_rejected",
  };
  constexpr std::size_t kCounterCount = std::size(kOverloadCounters);

  const std::size_t rss_before_kb = vm_rss_kb();

  std::atomic<int> phase{0};  // 0 clean, 1 storm, 2 stop
  constexpr std::size_t kLaneCount = 2;
  LaneReport lanes[kLaneCount];
  std::vector<std::thread> lane_threads;
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    lane_threads.emplace_back(run_latency_lane, server.port(),
                              static_cast<std::uint64_t>(i + 1),
                              std::cref(pool), std::cref(phase),
                              std::ref(lanes[i]));
  }

  // Phase 1: clean. Only well-behaved clients — every overload counter
  // must still read zero when the phase ends.
  std::this_thread::sleep_for(std::chrono::microseconds(clean_micros));
  std::uint64_t clean_counts[kCounterCount];
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    clean_counts[i] = reg.counter(kOverloadCounters[i]).value();
  }
  phase.store(1);

  // Phase 2: the storm, with a resilient bulk submitter racing it.
  const std::size_t resilient_count = g_smoke ? 1536 : 4096;
  std::vector<WireRecord> rrecords;
  rrecords.reserve(resilient_count);
  for (std::size_t i = 0; i < resilient_count; ++i) {
    rrecords.push_back(pool[i % pool.size()]);
  }
  constexpr std::uint64_t kResilientStream = 91;
  ResilientStats rstats;
  bool resilient_failed = false;
  std::string resilient_error;
  std::thread resilient([&] {
    try {
      ResilientOptions ropts;
      ropts.batch_size = 16;
      ropts.window = 4;
      ropts.max_attempts = 40;
      ropts.initial_backoff_micros = 5'000;
      ropts.max_backoff_micros = 200'000;
      ropts.backoff_seed = 17;
      rstats =
          submit_all_resilient(server.port(), kResilientStream, rrecords,
                               ropts);
    } catch (const Error& e) {
      resilient_failed = true;
      resilient_error = e.what();
    }
  });

  ChaosOptions chaos;
  chaos.port = server.port();
  chaos.duration_micros = chaos_micros;
  ChaosStats persona_stats[6];
  const char* const persona_names[6] = {
      "slowloris",        "stalled_reader", "rst_storm",
      "connection_storm", "garbage_flooder", "greedy_submitter",
  };
  std::vector<std::thread> personas;
  personas.emplace_back([&] {
    ChaosOptions o = chaos;
    o.connections = 4;
    o.seed = 101;
    persona_stats[0] = run_slowloris(o);
  });
  personas.emplace_back([&] {
    ChaosOptions o = chaos;
    o.connections = 6;
    o.requests_per_connection = 128;
    o.seed = 102;
    persona_stats[1] = run_stalled_reader(o);
  });
  // The storm personas start late: they exist to exhaust the admission
  // ceiling, and if they win the connect race the slowloris/stalled/
  // greedy personas get shed at accept instead of tripping the defense
  // each one is designed to trigger.
  constexpr std::uint64_t kStormDelayMicros = 250'000;
  personas.emplace_back([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(kStormDelayMicros));
    ChaosOptions o = chaos;
    o.connections = 24;
    o.seed = 103;
    persona_stats[2] = run_rst_storm(o);
  });
  personas.emplace_back([&] {
    std::this_thread::sleep_for(std::chrono::microseconds(kStormDelayMicros));
    ChaosOptions o = chaos;
    o.connections = 160;
    o.seed = 104;
    persona_stats[3] = run_connection_storm(o);
  });
  personas.emplace_back([&] {
    ChaosOptions o = chaos;
    o.connections = 6;
    o.requests_per_connection = 4;
    o.seed = 105;
    persona_stats[4] = run_garbage_flooder(o);
  });
  personas.emplace_back([&] {
    ChaosOptions o = chaos;
    o.connections = 2;
    // Bursts past the 96-frame budget trip it at any round-trip time.
    o.requests_per_connection = 128;
    o.seed = 106;
    o.stream_id_base = std::uint64_t{2} << 32;
    persona_stats[5] = run_greedy_submitter(o);
  });
  for (std::thread& t : personas) {
    t.join();
  }
  resilient.join();
  phase.store(2);
  for (std::thread& t : lane_threads) {
    t.join();
  }

  std::uint64_t chaos_counts[kCounterCount];
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    chaos_counts[i] = reg.counter(kOverloadCounters[i]).value();
  }

  // Survival probe: a fresh client must get full service after the
  // storm, the lanes' and the resilient stream's lifetime accepted
  // counts must equal what was submitted (zero drops, zero dups), and
  // the graceful drain path (SHUTDOWN) must still work.
  bool survived = true;
  std::uint64_t lane_marks[kLaneCount] = {};
  std::uint64_t resilient_mark = 0;
  try {
    ClientOptions vopts;
    vopts.connect_timeout_micros = 2'000'000;
    vopts.io_timeout_micros = 5'000'000;
    Client verifier = Client::connect(server.port(), vopts);
    survived = !verifier.stats_json().empty();
    for (std::size_t i = 0; i < kLaneCount; ++i) {
      lane_marks[i] = verifier.stream_accepted(i + 1);
    }
    resilient_mark = verifier.stream_accepted(kResilientStream);
    verifier.shutdown_server();
  } catch (const Error& e) {
    survived = false;
    std::fprintf(stderr, "chaos: survival probe failed: %s\n", e.what());
  }
  server.stop();
  const std::size_t rss_after_kb = vm_rss_kb();

  // ---- gates ----
  int rc = 0;
  std::uint64_t healthy_records = 0;
  std::size_t healthy_reconnects = 0;
  std::vector<std::uint64_t> clean_lat;
  std::vector<std::uint64_t> chaos_lat;
  for (std::size_t i = 0; i < kLaneCount; ++i) {
    healthy_records += lanes[i].submitted;
    healthy_reconnects += lanes[i].reconnects;
    clean_lat.insert(clean_lat.end(), lanes[i].clean_us.begin(),
                     lanes[i].clean_us.end());
    chaos_lat.insert(chaos_lat.end(), lanes[i].chaos_us.begin(),
                     lanes[i].chaos_us.end());
    if (lanes[i].failed) {
      std::fprintf(stderr, "chaos: healthy lane %zu died: %s\n", i,
                   lanes[i].error.c_str());
      rc = 1;
    } else if (lane_marks[i] != lanes[i].submitted) {
      std::fprintf(stderr,
                   "chaos: lane %zu accepted %llu != submitted %llu "
                   "(drop or duplicate)\n",
                   i, static_cast<unsigned long long>(lane_marks[i]),
                   static_cast<unsigned long long>(lanes[i].submitted));
      rc = 1;
    }
  }
  if (resilient_failed) {
    std::fprintf(stderr, "chaos: resilient submitter gave up: %s\n",
                 resilient_error.c_str());
    rc = 1;
  } else if (resilient_mark != rrecords.size()) {
    std::fprintf(stderr,
                 "chaos: resilient stream accepted %llu != submitted %zu\n",
                 static_cast<unsigned long long>(resilient_mark),
                 rrecords.size());
    rc = 1;
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (clean_counts[i] != 0) {
      std::fprintf(stderr, "chaos: %s = %llu during the CLEAN phase\n",
                   kOverloadCounters[i],
                   static_cast<unsigned long long>(clean_counts[i]));
      rc = 1;
    }
    if (chaos_counts[i] - clean_counts[i] == 0) {
      std::fprintf(stderr,
                   "chaos: %s never fired — its persona left no trace\n",
                   kOverloadCounters[i]);
      rc = 1;
    }
  }
  const std::uint64_t clean_p50 = percentile_us(clean_lat, 0.50);
  const std::uint64_t clean_p99 = percentile_us(clean_lat, 0.99);
  const std::uint64_t chaos_p50 = percentile_us(chaos_lat, 0.50);
  const std::uint64_t chaos_p99 = percentile_us(chaos_lat, 0.99);
  // The two *performance* gates (p99 bound, RSS ceiling) only bind in
  // uninstrumented builds: ASan's shadow/quarantine makes VmRSS track
  // the sanitizer rather than server buffering, and TSan's ~10×
  // serialization turns storm latency into a measurement of the
  // instrumentation. The sanitizer CI jobs still run every functional
  // gate (counters, exactly-once, survival) — the release job owns the
  // perf bounds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  constexpr bool kPerfGatesBind = false;
#else
  constexpr bool kPerfGatesBind = true;
#endif
  // 5× the clean baseline, with an absolute floor so a microsecond-fast
  // clean phase on an idle box doesn't turn scheduler noise into a
  // failure.
  const std::uint64_t p99_bound = std::max<std::uint64_t>(5 * clean_p99,
                                                          250'000);
  if (chaos_lat.empty() || chaos_p99 > p99_bound) {
    std::fprintf(stderr,
                 "chaos: healthy p99 %llu us breaches bound %llu us%s\n",
                 static_cast<unsigned long long>(chaos_p99),
                 static_cast<unsigned long long>(p99_bound),
                 kPerfGatesBind ? "" : " [ignored: sanitizer build]");
    if (chaos_lat.empty() || kPerfGatesBind) {
      rc = 1;
    }
  }
  // The outbox ceilings bound what the server may buffer (8 MiB total);
  // the allowance on top covers the harness's own record pools and
  // allocator retention, not server growth.
  const std::size_t rss_allowance_kb = 64 * 1024;
  if (rss_after_kb > rss_before_kb + rss_allowance_kb) {
    std::fprintf(stderr, "chaos: RSS grew %zu KiB -> %zu KiB (> %zu KiB)%s\n",
                 rss_before_kb, rss_after_kb, rss_allowance_kb,
                 kPerfGatesBind ? "" : " [ignored: sanitizer build]");
    if (kPerfGatesBind) {
      rc = 1;
    }
  }
  if (!survived) {
    rc = 1;
  }

  for (std::size_t i = 0; i < 6; ++i) {
    const ChaosStats& s = persona_stats[i];
    std::printf(
        "chaos: persona %-16s opened=%zu refused=%zu typed_rejections=%zu "
        "server_closes=%zu frames=%zu bytes=%zu\n",
        persona_names[i], s.connections_opened, s.connections_refused,
        s.typed_rejections, s.server_closes, s.frames_sent, s.bytes_sent);
  }
  std::printf(
      "chaos: healthy=%llu records (%zu reconnects) "
      "clean p50/p99=%llu/%llu us, storm p50/p99=%llu/%llu us; "
      "shed=%llu evicted=%llu idle=%llu stalled=%llu budget=%llu; "
      "resilient reconnects=%zu resumed=%llu; rss %zu->%zu KiB: %s\n",
      static_cast<unsigned long long>(healthy_records), healthy_reconnects,
      static_cast<unsigned long long>(clean_p50),
      static_cast<unsigned long long>(clean_p99),
      static_cast<unsigned long long>(chaos_p50),
      static_cast<unsigned long long>(chaos_p99),
      static_cast<unsigned long long>(chaos_counts[0]),
      static_cast<unsigned long long>(chaos_counts[1]),
      static_cast<unsigned long long>(chaos_counts[2]),
      static_cast<unsigned long long>(chaos_counts[3]),
      static_cast<unsigned long long>(chaos_counts[4]),
      rstats.reconnects,
      static_cast<unsigned long long>(rstats.resumed_records), rss_before_kb,
      rss_after_kb, rc == 0 ? "PASS" : "FAIL");

  std::ofstream out("BENCH_chaos.json");
  out << "{\n"
      << "  \"name\": \"serve_chaos\",\n"
      << "  \"workload\": \"" << (g_smoke ? "smoke" : "full") << "\",\n"
      << "  \"healthy_records\": " << healthy_records << ",\n"
      << "  \"healthy_reconnects\": " << healthy_reconnects << ",\n"
      << "  \"clean_p50_us\": " << clean_p50 << ",\n"
      << "  \"clean_p99_us\": " << clean_p99 << ",\n"
      << "  \"chaos_p50_us\": " << chaos_p50 << ",\n"
      << "  \"chaos_p99_us\": " << chaos_p99 << ",\n"
      << "  \"accepts_shed\": " << chaos_counts[0] << ",\n"
      << "  \"slow_readers_evicted\": " << chaos_counts[1] << ",\n"
      << "  \"idle_timeouts\": " << chaos_counts[2] << ",\n"
      << "  \"write_stall_timeouts\": " << chaos_counts[3] << ",\n"
      << "  \"budget_rejected\": " << chaos_counts[4] << ",\n"
      << "  \"resilient_records\": " << rrecords.size() << ",\n"
      << "  \"resilient_reconnects\": " << rstats.reconnects << ",\n"
      << "  \"resilient_failed_attempts\": " << rstats.failed_attempts
      << ",\n"
      << "  \"resilient_busy_rounds\": " << rstats.busy_rounds << ",\n"
      << "  \"resilient_resumed_records\": " << rstats.resumed_records
      << ",\n"
      << "  \"rss_before_kb\": " << rss_before_kb << ",\n"
      << "  \"rss_after_kb\": " << rss_after_kb << ",\n"
      << "  \"pass\": " << (rc == 0 ? "true" : "false") << "\n"
      << "}\n";
  return rc;
}

}  // namespace

void BM_ServeLoadgen(benchmark::State& state) {
  const auto shard_count = static_cast<std::size_t>(state.range(0));
  const auto worker_threads = static_cast<std::size_t>(state.range(1));
  const ThreePhasePredictor tpp;
  const Workload& load = workload();

  std::size_t warnings = 0;
  std::size_t busy_rounds = 0;
  std::uint64_t p50 = 0;
  std::uint64_t p99 = 0;
  for (auto _ : state) {
    ServerOptions options;
    options.shards.shard_count = shard_count;
    options.shards.worker_threads = worker_threads;
    options.shards.queue_capacity = 2048;
    options.shards.predictor_factory = [&tpp] {
      return tpp.make_predictor(Method::kEveryFailure);
    };
    Server server(options);
    server.start();
    Client client = Client::connect(server.port());
    warnings = 0;
    busy_rounds = 0;
    for (std::size_t s = 0; s < load.streams.size(); ++s) {
      busy_rounds += client.submit_all(s, load.streams[s]);
    }
    for (std::size_t s = 0; s < load.streams.size(); ++s) {
      warnings += client.poll_warnings(s).size();
    }
    // Same process as the server: read the latency distribution straight
    // from its registry (lookup by name returns the live instrument).
    Histogram& age = server.metrics().histogram("serve.warning_age_micros");
    p50 = age.quantile(0.5);
    p99 = age.quantile(0.99);
    client.shutdown_server();
    server.stop();
    benchmark::DoNotOptimize(warnings);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(load.total_records));
  state.counters["records"] = static_cast<double>(load.total_records);
  state.counters["streams"] = static_cast<double>(load.streams.size());
  state.counters["warnings"] = static_cast<double>(warnings);
  state.counters["busy_rounds"] = static_cast<double>(busy_rounds);
  state.counters["p50_warning_age_us"] = static_cast<double>(p50);
  state.counters["p99_warning_age_us"] = static_cast<double>(p99);
}

// Args: {shard_count, worker_threads}. The 1-shard/0-worker row is the
// single-threaded floor; extra shards measure routing overhead and, with
// workers, shard-parallel drains.
BENCHMARK(BM_ServeLoadgen)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({4, 2})
    ->Unit(benchmark::kMillisecond);

// The 1→10k concurrent-connection latency sweep (EXPERIMENTS.md X11).
// One iteration per row: a row IS a full population lifecycle, and
// run_sweep already reports exact quantiles from every sample.
BENCHMARK(BM_ServeSweep)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  // Old google-benchmark wants a plain double for min_time.
  static char min_time[] = "--benchmark_min_time=0.05";
  static char filter[] = "--benchmark_filter=BM_ServeLoadgen/1/0$";
  bool sweep_smoke = false;
  bool chaos = false;
  bool chaos_smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
      continue;
    }
    if (std::strcmp(argv[i], "--sweep-smoke") == 0) {
      sweep_smoke = true;
      continue;
    }
    if (std::strcmp(argv[i], "--chaos") == 0) {
      chaos = true;
      continue;
    }
    if (std::strcmp(argv[i], "--chaos-smoke") == 0) {
      chaos_smoke = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (chaos || chaos_smoke) {
    if (chaos_smoke) {
      g_smoke = true;  // CI-sized phases and workload
    }
    return run_chaos();
  }
  if (sweep_smoke) {
    // Cheap workload for the gate; the full sweep scales itself.
    g_smoke = true;
    return run_sweep_smoke();
  }
  if (g_smoke) {
    const int rc = run_smoke();
    if (rc != 0) {
      return rc;
    }
    // Still emit BENCH_serve.json, from the cheapest config only.
    args.push_back(min_time);
    args.push_back(filter);
  }
  return bglpred::bench::run_benchmark_driver(
      "serve", static_cast<int>(args.size()), args.data());
}
