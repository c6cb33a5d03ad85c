#include "serve/shard_manager.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/atomic_io.hpp"
#include "common/binary.hpp"
#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "serve/clock.hpp"
#include "serve/protocol.hpp"

namespace bglpred::serve {

namespace {
constexpr std::string_view kShardSetTag = "BGLSRV1\n";
// Directory-checkpoint formats (save_dir/restore_dir): one per-shard
// stream file plus a CHECKPOINT manifest pinning each file's size and
// CRC. Tags are pinned by tests/test_checkpoint_tags.cpp.
constexpr std::string_view kShardFileTag = "BGLSHD01";
constexpr std::string_view kCheckpointDirTag = "BGLCKD01";

std::string checkpoint_manifest_path(const std::string& dir) {
  return dir + "/CHECKPOINT";
}

std::string shard_file_path(const std::string& dir, std::size_t index) {
  return dir + "/shard-" + std::to_string(index) + ".ckpt";
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open for reading: " + path);
  }
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

ShardManager::ShardManager(const ShardOptions& options,
                           MetricsRegistry& registry)
    : options_(options), registry_(&registry), metrics_(registry) {
  BGL_REQUIRE(options_.shard_count > 0, "shard count must be positive");
  BGL_REQUIRE(options_.queue_capacity > 0, "queue capacity must be positive");
  BGL_REQUIRE(options_.predictor_factory != nullptr,
              "shard manager needs a predictor factory");
  for (std::size_t i = 0; i < options_.shard_count; ++i) {
    Shard& shard = shards_.emplace_back();
    const std::string prefix = "shard" + std::to_string(i) + ".";
    shard.queue_depth = &registry.gauge(prefix + "queue_depth");
    shard.stream_count = &registry.gauge(prefix + "streams");
  }
  if (options_.worker_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.worker_threads);
  }
}

std::size_t ShardManager::shard_of(std::uint64_t stream_id,
                                   std::size_t shard_count) {
  // The splitmix64 finalizer decorrelates adjacent stream ids, so shard
  // load stays balanced even when clients number streams 0, 1, 2, ...
  return static_cast<std::size_t>(mix64(stream_id) % shard_count);
}

std::string ShardManager::engine_prefix(std::size_t shard_index) const {
  return "shard" + std::to_string(shard_index) + ".engine.";
}

OnlineEngine ShardManager::make_engine() const {
  PredictorPtr predictor = options_.predictor_factory();
  BGL_REQUIRE(predictor != nullptr, "predictor factory returned null");
  return OnlineEngine(std::move(predictor), options_.engine);
}

ShardManager::Stream& ShardManager::stream_for(Shard& shard,
                                               std::size_t shard_index,
                                               std::uint64_t stream_id) {
  auto it = shard.streams.find(stream_id);
  if (it == shard.streams.end()) {
    it = shard.streams.emplace(stream_id, Stream(make_engine())).first;
    it->second.engine.attach_metrics(*registry_, engine_prefix(shard_index));
    shard.stream_count->set(static_cast<std::int64_t>(shard.streams.size()));
  }
  return it->second;
}

// bgl:hot-begin(shard-run-queue)
// Once per SUBMIT frame: one capacity check, flat appends into buffers
// that keep their capacity across drains, one accounting step. The
// drain loop below is once per queued run.
void ShardManager::RunQueue::clear() {
  runs.clear();
  records.clear();
  text_ids.clear();
  texts.clear();
  text_offsets.clear();
  bytes.clear();
}

void ShardManager::RunQueue::append(std::uint64_t stream_id,
                                    const RecordRun& run, std::size_t n) {
  runs.push_back(Run{stream_id, records.size(), texts.size()});
  records.insert(records.end(), run.records.begin(),
                 run.records.begin() + static_cast<std::ptrdiff_t>(n));
  // Text ids number texts by first use, so a prefix of the records uses
  // a prefix of the texts.
  std::uint32_t used = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = run.text_ids[i];
    text_ids.push_back(id);
    used = std::max(used, id + 1);
  }
  for (std::uint32_t id = 0; id < used; ++id) {
    const RunText& text = run.texts[id];
    text_offsets.push_back(bytes.size());
    bytes.append(text.text);
    texts.push_back(RunText{std::string_view(), text.hash});
  }
}

void ShardManager::RunQueue::settle() {
  for (std::size_t k = 0; k < texts.size(); ++k) {
    const std::size_t end =
        k + 1 < texts.size() ? text_offsets[k + 1] : bytes.size();
    texts[k].text = std::string_view(bytes).substr(text_offsets[k],
                                                   end - text_offsets[k]);
  }
}

RecordRun ShardManager::RunQueue::run(std::size_t k) const {
  const Run& r = runs[k];
  const bool last = k + 1 == runs.size();
  const std::size_t record_end =
      last ? records.size() : runs[k + 1].first_record;
  const std::size_t text_end = last ? texts.size() : runs[k + 1].first_text;
  return RecordRun{
      std::span(records).subspan(r.first_record,
                                 record_end - r.first_record),
      std::span(text_ids).subspan(r.first_record,
                                  record_end - r.first_record),
      std::span(texts).subspan(r.first_text, text_end - r.first_text)};
}

std::size_t ShardManager::submit(std::uint64_t stream_id,
                                 const RecordRun& run) {
  Shard& shard = shards_[shard_of(stream_id, shards_.size())];
  const std::size_t queued = shard.queue.records.size();
  const std::size_t room =
      options_.queue_capacity > queued ? options_.queue_capacity - queued : 0;
  const std::size_t n = std::min(run.records.size(), room);
  if (n < run.records.size()) {
    metrics_.records_rejected.inc();
  }
  if (n == 0) {
    return 0;
  }
  shard.queue.append(stream_id, run, n);
  shard.queue_depth->set(static_cast<std::int64_t>(queued + n));
  metrics_.records_in.inc(n);
  accepted_totals_[stream_id] += n;
  return n;
}

void ShardManager::drain_shard(std::size_t index) {
  Shard& shard = shards_[index];
  // Emptied on every exit: runs fed before an engine threw must not be
  // fed again by the next drain.
  struct Emptied {
    Shard& shard;
    ~Emptied() {
      shard.queue.clear();
      shard.queue_depth->set(0);
    }
  } emptied{shard};
  RunQueue& queue = shard.queue;
  queue.settle();
  for (std::size_t k = 0; k < queue.runs.size(); ++k) {
    Stream& stream = stream_for(shard, index, queue.runs[k].stream_id);
    const std::size_t warned = stream.pending.size();
    stream.engine.feed(queue.run(k), stream.pending);
    // One clock read per run that warned stamps all of its warnings.
    if (stream.pending.size() > warned) {
      stream.pending_born_micros.resize(stream.pending.size(),
                                        monotonic_micros());
    }
  }
}
// bgl:hot-end

ShardManager::Submit ShardManager::submit(std::uint64_t stream_id,
                                          const RasRecord& record,
                                          std::string_view entry) {
  const RunText text{entry, stable_hash64(entry)};
  const std::uint32_t text_id = 0;
  return submit(stream_id, RecordRun{{&record, 1}, {&text_id, 1}, {&text, 1}})
             ? Submit::kAccepted
             : Submit::kBusy;
}

std::uint64_t ShardManager::stream_accepted(std::uint64_t stream_id) const {
  const auto it = accepted_totals_.find(stream_id);
  return it == accepted_totals_.end() ? 0 : it->second;
}

void ShardManager::drain() {
  if (pool_ == nullptr) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      drain_shard(i);
    }
    return;
  }
  std::vector<std::future<void>> done;
  done.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].queue.empty()) {
      continue;
    }
    // Explicit capture (repo-lint submit-ref-capture): one task per
    // shard; shards are disjoint, so tasks share no mutable state.
    done.push_back(pool_->submit([this, i] { drain_shard(i); }));
  }
  for (std::future<void>& f : done) {
    f.get();
  }
}

void ShardManager::drain_stream(std::uint64_t stream_id) {
  drain_shard(shard_of(stream_id, shards_.size()));
}

std::vector<Warning> ShardManager::poll(std::uint64_t stream_id) {
  const std::size_t index = shard_of(stream_id, shards_.size());
  drain_shard(index);
  Shard& shard = shards_[index];
  const auto it = shard.streams.find(stream_id);
  if (it == shard.streams.end()) {
    return {};
  }
  const std::uint64_t now = monotonic_micros();
  for (const std::uint64_t born : it->second.pending_born_micros) {
    metrics_.warning_age_micros.record(now >= born ? now - born : 0);
  }
  it->second.pending_born_micros.clear();
  std::vector<Warning> out = std::move(it->second.pending);
  it->second.pending.clear();
  metrics_.warnings_out.inc(out.size());
  return out;
}

std::size_t ShardManager::stream_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    n += shard.streams.size();
  }
  return n;
}

void ShardManager::save(std::ostream& os) {
  drain();
  wire::write_tag(os, kShardSetTag);
  wire::write<std::uint32_t>(os,
                             static_cast<std::uint32_t>(shards_.size()));
  wire::write<std::uint64_t>(os, stream_count());
  // std::map iteration per shard gives sorted stream ids, so checkpoint
  // bytes are a pure function of the served state.
  for (const Shard& shard : shards_) {
    for (const auto& [stream_id, stream] : shard.streams) {
      encode_stream_state(os, stream_id, stream);
    }
  }
}

void ShardManager::encode_stream_state(std::ostream& os,
                                       std::uint64_t stream_id,
                                       const Stream& stream) const {
  wire::write<std::uint64_t>(os, stream_id);
  wire::write<std::uint32_t>(
      os, static_cast<std::uint32_t>(stream.pending.size()));
  std::string warnings;
  for (const Warning& w : stream.pending) {
    encode_warning(warnings, w);
  }
  wire::write_string(os, warnings);
  stream.engine.save(os);
}

ShardManager::Stream ShardManager::decode_stream_state(
    std::istream& is, std::uint64_t& stream_id) {
  stream_id = wire::read<std::uint64_t>(is, "stream id");
  const auto pending_count =
      wire::read<std::uint32_t>(is, "pending warning count");
  const std::string warning_bytes =
      wire::read_string(is, "pending warnings", kMaxPayload);
  BytesReader reader(warning_bytes);
  std::vector<Warning> pending;  // no reserve: the count is unchecked input
  for (std::uint32_t w = 0; w < pending_count; ++w) {
    pending.push_back(decode_warning(reader));
  }
  if (reader.remaining() != 0) {
    throw ParseError("trailing bytes after pending warnings");
  }
  PredictorPtr fresh = options_.predictor_factory();
  BGL_REQUIRE(fresh != nullptr, "predictor factory returned null");
  Stream stream(OnlineEngine::restore(is, std::move(fresh)));
  stream.pending = std::move(pending);
  stream.pending_born_micros.assign(stream.pending.size(),
                                    monotonic_micros());
  return stream;
}

void ShardManager::restore(std::istream& is) {
  wire::expect_tag(is, kShardSetTag);
  const auto saved_shards = wire::read<std::uint32_t>(is, "shard count");
  if (saved_shards != shards_.size()) {
    throw ParseError("checkpoint has " + std::to_string(saved_shards) +
                     " shards, this server has " +
                     std::to_string(shards_.size()));
  }
  const auto stream_total = wire::read<std::uint64_t>(is, "stream count");
  // Build the replacement state fully before touching the live shards:
  // a truncated or mismatched blob must not leave a half-restored set.
  std::vector<std::map<std::uint64_t, Stream>> replacement(shards_.size());
  for (std::uint64_t i = 0; i < stream_total; ++i) {
    std::uint64_t stream_id = 0;
    Stream stream = decode_stream_state(is, stream_id);
    const std::size_t index = shard_of(stream_id, shards_.size());
    if (!replacement[index].emplace(stream_id, std::move(stream)).second) {
      throw ParseError("duplicate stream id in checkpoint");
    }
  }
  adopt_streams(std::move(replacement));
}

void ShardManager::adopt_streams(
    std::vector<std::map<std::uint64_t, Stream>> replacement) {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].queue.clear();
    shards_[i].streams = std::move(replacement[i]);
    shards_[i].queue_depth->set(0);
    shards_[i].stream_count->set(
        static_cast<std::int64_t>(shards_[i].streams.size()));
    // The replaced engines' live increments are already in the shard
    // counters; zero them so re-attaching adds exactly the restored
    // lifetime totals instead of stacking on top.
    OnlineEngine::reset_metrics(*registry_, engine_prefix(i));
    for (auto& [stream_id, stream] : shards_[i].streams) {
      stream.engine.attach_metrics(*registry_, engine_prefix(i));
    }
  }
}

ShardManager::SaveDirStats ShardManager::save_dir(const std::string& dir) {
  drain();
  std::filesystem::create_directories(dir);

  // Previous manifest, if readable, supplies the per-shard CRCs that
  // make checkpoints incremental; any damage just forces a full write.
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint32_t>> previous;
  try {
    const std::string bytes =
        read_file_bytes(checkpoint_manifest_path(dir));
    if (bytes.size() >= kCheckpointDirTag.size() + 8 &&
        std::string_view(bytes).substr(0, kCheckpointDirTag.size()) ==
            kCheckpointDirTag &&
        crc32(std::string_view(bytes).substr(0, bytes.size() - 4)) ==
            wire::decode<std::uint32_t>(bytes.data() + bytes.size() - 4)) {
      const char* p = bytes.data() + kCheckpointDirTag.size();
      const auto count = wire::decode<std::uint32_t>(p);
      p += 4;
      for (std::uint32_t i = 0;
           i < count && p + 16 <= bytes.data() + bytes.size() - 4; ++i) {
        const auto index = wire::decode<std::uint32_t>(p);
        const auto size = wire::decode<std::uint64_t>(p + 4);
        const auto crc = wire::decode<std::uint32_t>(p + 12);
        p += 16;
        previous[index] = {size, crc};
      }
    }
  } catch (const Error&) {
    // Missing or unreadable: first checkpoint into this directory.
  }

  SaveDirStats stats;
  std::string manifest(kCheckpointDirTag);
  wire::append<std::uint32_t>(manifest,
                              static_cast<std::uint32_t>(shards_.size()));
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::ostringstream blob;
    wire::write_tag(blob, kShardFileTag);
    wire::write<std::uint32_t>(blob, static_cast<std::uint32_t>(i));
    wire::write<std::uint64_t>(blob, shards_[i].streams.size());
    for (const auto& [stream_id, stream] : shards_[i].streams) {
      encode_stream_state(blob, stream_id, stream);
    }
    const std::string bytes = blob.str();
    const std::uint32_t crc = crc32(bytes);
    const std::string path = shard_file_path(dir, i);
    const auto prev = previous.find(static_cast<std::uint32_t>(i));
    if (prev != previous.end() && prev->second.first == bytes.size() &&
        prev->second.second == crc && std::filesystem::exists(path) &&
        std::filesystem::file_size(path) == bytes.size()) {
      ++stats.shards_skipped;
    } else {
      atomic_write_file(path, bytes);
      ++stats.shards_written;
    }
    wire::append<std::uint32_t>(manifest, static_cast<std::uint32_t>(i));
    wire::append<std::uint64_t>(manifest, bytes.size());
    wire::append<std::uint32_t>(manifest, crc);
  }
  wire::append<std::uint32_t>(manifest, crc32(manifest));
  // Shard files first, manifest last: a crash mid-checkpoint leaves the
  // previous manifest pointing at the previous (still present) files.
  atomic_write_file(checkpoint_manifest_path(dir), manifest);
  return stats;
}

void ShardManager::restore_dir(const std::string& dir) {
  const std::string bytes = read_file_bytes(checkpoint_manifest_path(dir));
  if (bytes.size() < kCheckpointDirTag.size() + 8 ||
      std::string_view(bytes).substr(0, kCheckpointDirTag.size()) !=
          kCheckpointDirTag) {
    throw ParseError("not a checkpoint directory manifest: " + dir);
  }
  if (crc32(std::string_view(bytes).substr(0, bytes.size() - 4)) !=
      wire::decode<std::uint32_t>(bytes.data() + bytes.size() - 4)) {
    throw ParseError("checkpoint manifest CRC mismatch: " + dir);
  }
  const char* p = bytes.data() + kCheckpointDirTag.size();
  const char* end = bytes.data() + bytes.size() - 4;
  const auto saved_shards = wire::decode<std::uint32_t>(p);
  p += 4;
  if (saved_shards != shards_.size()) {
    throw ParseError("checkpoint has " + std::to_string(saved_shards) +
                     " shards, this server has " +
                     std::to_string(shards_.size()));
  }

  // Build the full replacement before touching live state, exactly as
  // restore() does (strong guarantee).
  std::vector<std::map<std::uint64_t, Stream>> replacement(shards_.size());
  for (std::uint32_t i = 0; i < saved_shards; ++i) {
    if (end - p < 16) {
      throw ParseError("checkpoint manifest truncated");
    }
    const auto index = wire::decode<std::uint32_t>(p);
    const auto size = wire::decode<std::uint64_t>(p + 4);
    const auto crc = wire::decode<std::uint32_t>(p + 12);
    p += 16;
    if (index != i) {
      throw ParseError("checkpoint manifest shard entries disordered");
    }
    const std::string shard_bytes =
        read_file_bytes(shard_file_path(dir, index));
    if (shard_bytes.size() != size || crc32(shard_bytes) != crc) {
      throw ParseError("checkpoint shard file disagrees with manifest: " +
                       shard_file_path(dir, index));
    }
    std::istringstream is(shard_bytes);
    wire::expect_tag(is, kShardFileTag);
    const auto stored_index = wire::read<std::uint32_t>(is, "shard index");
    if (stored_index != index) {
      throw ParseError("checkpoint shard file claims index " +
                       std::to_string(stored_index));
    }
    const auto stream_total =
        wire::read<std::uint64_t>(is, "shard stream count");
    for (std::uint64_t s = 0; s < stream_total; ++s) {
      std::uint64_t stream_id = 0;
      Stream stream = decode_stream_state(is, stream_id);
      const std::size_t owner = shard_of(stream_id, shards_.size());
      if (owner != index) {
        throw ParseError("stream routed to the wrong checkpoint shard");
      }
      if (!replacement[owner].emplace(stream_id, std::move(stream)).second) {
        throw ParseError("duplicate stream id in checkpoint");
      }
    }
  }
  if (p != end) {
    throw ParseError("trailing bytes in checkpoint manifest");
  }
  adopt_streams(std::move(replacement));
}

}  // namespace bglpred::serve
