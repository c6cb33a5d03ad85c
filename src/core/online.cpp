#include "core/online.hpp"

#include <algorithm>
#include <tuple>

#include "common/binary.hpp"
#include "common/error.hpp"
#include "raslog/binary_io.hpp"
#include "taxonomy/catalog.hpp"

namespace bglpred {

bool OnlineEngine::BufferedLater::operator()(const Buffered& a,
                                             const Buffered& b) const {
  // Inverted RecordTimeOrder (std::push_heap builds a max-heap, we pop
  // the earliest) extended to *every* record field plus the arrival
  // sequence, so the release order is a total order: an engine fed a
  // skewed stream and one fed the sorted stream release identically.
  const auto key = [](const Buffered& x) {
    return std::tuple(x.rec.time, x.rec.location, x.rec.severity,
                      x.rec.entry_data, x.rec.job, x.rec.facility,
                      x.rec.event_type, x.seq);
  };
  return key(b) < key(a);
}

OnlineEngine::OnlineEngine(PredictorPtr predictor,
                           const OnlineOptions& options)
    : predictor_(std::move(predictor)),
      options_(options),
      phase1_(options.dedup_threshold) {
  BGL_REQUIRE(predictor_ != nullptr, "online engine needs a predictor");
  BGL_REQUIRE(options_.reorder_horizon >= 0,
              "reorder horizon must be non-negative");
}

// bgl:hot-begin(online-submit)
// The per-record path every served stream funnels through: validate ->
// classify (once per distinct text of the run) -> Phase 1 -> predictor
// observe, with the reorder heap in between. The only allocations are
// container growth (heap, Phase-1 maps, the caller's warning vector) —
// amortized, not per record.
bool OnlineEngine::validate(const RasRecord& record) const {
  // Enum fields straight off the wire index fixed tables downstream
  // (the classifier's by-facility phrase index, the catalog); reject
  // anything outside the enum ranges instead of risking OOB access.
  if (static_cast<std::uint8_t>(record.event_type) >
      static_cast<std::uint8_t>(EventType::kControl)) {
    return false;
  }
  if (static_cast<std::uint8_t>(record.facility) >=
      static_cast<std::uint8_t>(kFacilityCount)) {
    return false;
  }
  if (static_cast<std::uint8_t>(record.severity) >=
      static_cast<std::uint8_t>(kSeverityCount)) {
    return false;
  }
  if (static_cast<std::uint8_t>(record.location.kind) >
      static_cast<std::uint8_t>(bgl::LocationKind::kServiceCard)) {
    return false;
  }
  return true;
}

void OnlineEngine::deliver(const RasRecord& rec, Phase1Verdict verdict,
                           std::vector<Warning>& out) {
  if (verdict != Phase1Verdict::kKept) {
    ++stats_.deduplicated;
    return;
  }
  ++stats_.forwarded;
  if (auto warning = predictor_->observe(rec)) {
    ++stats_.warnings;
    out.push_back(std::move(*warning));
  }
}

void OnlineEngine::release_until(TimePoint limit, std::vector<Warning>& out) {
  while (!buffer_.empty() && buffer_.front().rec.time <= limit) {
    std::pop_heap(buffer_.begin(), buffer_.end(), BufferedLater{});
    const Buffered b = buffer_.back();
    buffer_.pop_back();
    deliver(b.rec, phase1_.push_hashed(b.rec, b.entry_hash), out);
  }
}

void OnlineEngine::admit(const RecordRun& run, std::size_t i,
                         std::vector<Warning>& out) {
  ++stats_.raw_records;
  const RasRecord& record = run.records[i];
  if (!validate(record)) {
    ++stats_.degraded;
    return;
  }
  const std::uint32_t text_id = run.text_ids[i];
  const RunText& text = run.texts[text_id];
  RasRecord rec = record;
  rec.subcategory = classes_.classify(classifier_, text_id, text.text,
                                      rec.facility, rec.severity);
  if (rec.subcategory != kUnclassified &&
      rec.subcategory >= catalog().size()) {
    // The classifier fell through every table — a record the taxonomy
    // cannot place. Count it and keep the stream alive.
    ++stats_.degraded;
    return;
  }

  if (rec.time < high_water_) {
    ++stats_.reordered;
    // A record later than the horizon can repair is clamped, so Phase 1
    // and the predictors (whose windows assume monotone time) never see
    // time reverse. With horizon 0 that is every late record.
    if (high_water_ >= kMinTime + options_.reorder_horizon &&
        rec.time < high_water_ - options_.reorder_horizon) {
      rec.time = high_water_;
      ++stats_.clamped;
    }
  } else {
    high_water_ = rec.time;
  }

  if (options_.reorder_horizon == 0) {
    deliver(rec, phase1_.push_hashed(rec, text.hash), out);
    return;
  }
  buffer_.push_back(Buffered{rec, text.hash, seq_++});
  std::push_heap(buffer_.begin(), buffer_.end(), BufferedLater{});
  // Release everything the horizon proves settled: no record older than
  // high_water - horizon can still arrive unclamped.
  if (high_water_ >= kMinTime + options_.reorder_horizon) {
    release_until(high_water_ - options_.reorder_horizon, out);
  }
}

void OnlineEngine::feed(const RecordRun& run, std::vector<Warning>& out) {
  const OnlineStats before = stats_;
  classes_.reset(run.texts.size());
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    admit(run, i, out);
  }
  publish(before);
}

void OnlineEngine::publish(const OnlineStats& before) {
  for (const CounterSlot& slot : kCounterSlots) {
    Counter* counter = counters_.*slot.bound;
    if (counter != nullptr && stats_.*slot.stat != before.*slot.stat) {
      counter->inc(stats_.*slot.stat - before.*slot.stat);
    }
  }
}
// bgl:hot-end

std::vector<Warning> OnlineEngine::feed(const RasRecord& record,
                                        std::string_view entry_data) {
  const RunText text{entry_data, Phase1Compressor::entry_hash(entry_data)};
  const std::uint32_t text_id = 0;
  std::vector<Warning> out;
  feed(RecordRun{{&record, 1}, {&text_id, 1}, {&text, 1}}, out);
  return out;
}

std::vector<Warning> OnlineEngine::flush() {
  const OnlineStats before = stats_;
  std::vector<Warning> out;
  release_until(INT64_MAX, out);
  publish(before);
  return out;
}

std::vector<Warning> OnlineEngine::feed_source(RecordBatchSource& source) {
  std::vector<Warning> out;
  RasLog batch;
  std::vector<RunText> texts;
  std::vector<std::uint32_t> text_ids;
  while (source.next_batch(batch)) {
    const StringPool& pool = batch.pool();
    texts.clear();
    for (StringId id = 0; id < pool.size(); ++id) {
      const std::string_view text = pool.str(id);
      texts.push_back(RunText{text, Phase1Compressor::entry_hash(text)});
    }
    text_ids.clear();
    for (const RasRecord& rec : batch.records()) {
      text_ids.push_back(rec.entry_data);
    }
    feed(RecordRun{batch.records(), text_ids, texts}, out);
  }
  std::vector<Warning> tail = flush();
  out.insert(out.end(), std::make_move_iterator(tail.begin()),
             std::make_move_iterator(tail.end()));
  return out;
}

// bgl:metric-names-begin
const OnlineEngine::CounterSlot OnlineEngine::kCounterSlots[7] = {
    {"raw_records", &OnlineStats::raw_records, &BoundCounters::raw_records},
    {"deduplicated", &OnlineStats::deduplicated, &BoundCounters::deduplicated},
    {"forwarded", &OnlineStats::forwarded, &BoundCounters::forwarded},
    {"warnings", &OnlineStats::warnings, &BoundCounters::warnings},
    {"degraded", &OnlineStats::degraded, &BoundCounters::degraded},
    {"reordered", &OnlineStats::reordered, &BoundCounters::reordered},
    {"clamped", &OnlineStats::clamped, &BoundCounters::clamped},
};
// bgl:metric-names-end

void OnlineEngine::attach_metrics(MetricsRegistry& registry,
                                  const std::string& prefix) {
  for (const CounterSlot& slot : kCounterSlots) {
    Counter& c = registry.counter(prefix + slot.name);
    c.inc(stats_.*slot.stat);
    counters_.*slot.bound = &c;
  }
}

void OnlineEngine::reset_metrics(MetricsRegistry& registry,
                                 const std::string& prefix) {
  for (const CounterSlot& slot : kCounterSlots) {
    registry.counter(prefix + slot.name).reset();
  }
}

namespace {
// A layout change needs a new tag, so older blobs are refused by it.
constexpr std::string_view kEngineTag = "BGLCKPT2";

}  // namespace

void OnlineEngine::save(std::ostream& os) const {
  BGL_REQUIRE(predictor_->checkpointable(),
              "online engine's predictor does not support checkpointing");
  wire::write_tag(os, kEngineTag);
  wire::write<std::int64_t>(os, options_.dedup_threshold);
  wire::write<std::int64_t>(os, options_.reorder_horizon);
  for (const CounterSlot& slot : kCounterSlots) {
    wire::write<std::uint64_t>(os, stats_.*slot.stat);
  }
  wire::write<std::int64_t>(os, high_water_);
  wire::write<std::uint64_t>(os, seq_);
  wire::write<std::uint64_t>(os, buffer_.size());
  for (const Buffered& b : buffer_) {
    std::string bytes;
    append_record_tuple(bytes, b.rec);
    wire::append<std::uint64_t>(bytes, b.entry_hash);
    wire::append<std::uint64_t>(bytes, b.seq);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  phase1_.save(os);
  wire::write_string(os, predictor_->name());
  predictor_->save_state(os);
}

OnlineEngine OnlineEngine::restore(std::istream& is, PredictorPtr fresh) {
  BGL_REQUIRE(fresh != nullptr, "restore needs a predictor instance");
  wire::expect_tag(is, kEngineTag);
  OnlineOptions options;
  options.dedup_threshold =
      wire::read<std::int64_t>(is, "dedup threshold");
  options.reorder_horizon =
      wire::read<std::int64_t>(is, "reorder horizon");
  OnlineEngine engine(std::move(fresh), options);
  for (const CounterSlot& slot : kCounterSlots) {
    engine.stats_.*slot.stat = wire::read<std::uint64_t>(is, slot.name);
  }
  engine.high_water_ = wire::read<std::int64_t>(is, "high water");
  engine.seq_ = wire::read<std::uint64_t>(is, "sequence counter");
  // No reserve: the count is unchecked input.
  const auto buffered = wire::read<std::uint64_t>(is, "buffer size");
  for (std::uint64_t i = 0; i < buffered; ++i) {
    char tuple[kRecordTupleSize] = {};
    wire::read_exact(is, tuple, kRecordTupleSize, "buffered record");
    Buffered b;
    b.rec = decode_record_tuple(tuple);
    b.entry_hash = wire::read<std::uint64_t>(is, "buffered entry hash");
    b.seq = wire::read<std::uint64_t>(is, "buffered sequence");
    engine.buffer_.push_back(b);
  }
  // save() wrote the heap's underlying vector; the heap property is a
  // function of the contents, so re-heapify rather than trust the bytes.
  std::make_heap(engine.buffer_.begin(), engine.buffer_.end(),
                 BufferedLater{});
  engine.phase1_.load(is);
  const std::string stored_name = wire::read_string(is, "predictor name");
  if (stored_name != engine.predictor_->name()) {
    throw ParseError("checkpoint predictor '" + stored_name +
                     "' does not match supplied predictor '" +
                     engine.predictor_->name() + "'");
  }
  engine.predictor_->load_state(is);
  return engine;
}

}  // namespace bglpred
