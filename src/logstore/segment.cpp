#include "logstore/segment.hpp"

#include <algorithm>
#include <cstring>

#include "common/binary.hpp"
#include "common/check.hpp"
#include "common/crc32.hpp"
#include "logstore/report.hpp"

namespace bglpred::logstore {
namespace {

/// Packs a location into one u64 for dictionary keying.
std::uint64_t pack_location(const bgl::Location& loc) {
  return static_cast<std::uint64_t>(loc.kind) |
         (static_cast<std::uint64_t>(loc.rack) << 8) |
         (static_cast<std::uint64_t>(loc.midplane) << 24) |
         (static_cast<std::uint64_t>(loc.node_card) << 32) |
         (static_cast<std::uint64_t>(loc.unit) << 40);
}

[[noreturn]] void fail_open(StoreFaultClass cls, const std::string& path,
                            const std::string& what) {
  throw StoreCorruption(cls, "segment " + path + ": " + what);
}

}  // namespace

SegmentBuilder::SegmentBuilder(std::uint32_t block_records)
    : block_records_(block_records) {
  BGL_CHECK(block_records_ > 0, "segment block size must be positive");
}

void SegmentBuilder::add(const RasRecord& rec, std::string_view entry,
                         std::uint64_t stream) {
  if (count_ == 0) {
    min_time_ = rec.time;
    prev_time_ = rec.time;
  }
  BGL_CHECK(rec.time >= prev_time_, "segment records must be time-sorted");

  if (count_ % block_records_ == 0) {
    // Block boundary: record the first record's absolute time and its
    // byte offset in every varint column, before appending it.
    wire::append<std::int64_t>(block_index_, rec.time);
    wire::append<std::uint32_t>(block_index_,
                                static_cast<std::uint32_t>(ts_.size()));
    wire::append<std::uint32_t>(block_index_,
                                static_cast<std::uint32_t>(streams_.size()));
    wire::append<std::uint32_t>(block_index_,
                                static_cast<std::uint32_t>(entries_.size()));
    wire::append<std::uint32_t>(block_index_,
                                static_cast<std::uint32_t>(locs_.size()));
    wire::append<std::uint32_t>(block_index_,
                                static_cast<std::uint32_t>(jobs_.size()));
    wire::append<std::uint32_t>(block_index_,
                                static_cast<std::uint32_t>(subcats_.size()));
  }

  put_varint(ts_, static_cast<std::uint64_t>(rec.time - prev_time_));
  prev_time_ = rec.time;
  max_time_ = rec.time;

  put_varint(streams_, stream);
  put_varint(entries_, entry_pool_.intern(entry));

  const std::uint64_t loc_key = pack_location(rec.location);
  const auto [loc_it, loc_new] = loc_ids_.try_emplace(
      loc_key, static_cast<std::uint32_t>(loc_ids_.size()));
  if (loc_new) {
    bgl::append_location(loc_dict_, rec.location);
  }
  put_varint(locs_, loc_it->second);

  put_varint(jobs_, rec.job);
  put_varint(subcats_, rec.subcategory);

  event_types_.push_back(static_cast<char>(rec.event_type));
  facilities_.push_back(static_cast<char>(rec.facility));
  severities_.push_back(static_cast<char>(rec.severity));

  const auto [stream_it, stream_new] =
      stream_slot_.try_emplace(stream, stream_counts_.size());
  if (stream_new) {
    stream_counts_.emplace_back(stream, 0);
  }
  ++stream_counts_[stream_it->second].second;
  ++count_;
}

std::string SegmentBuilder::finish() {
  BGL_CHECK(count_ > 0, "cannot finish an empty segment");

  std::string entry_dict;
  wire::append<std::uint32_t>(entry_dict,
                              static_cast<std::uint32_t>(entry_pool_.size()));
  for (StringId id = 0; id < entry_pool_.size(); ++id) {
    const std::string& s = entry_pool_.str(id);
    wire::append<std::uint32_t>(entry_dict,
                                static_cast<std::uint32_t>(s.size()));
    entry_dict += s;
  }
  std::string loc_dict_full;
  wire::append<std::uint32_t>(loc_dict_full,
                              static_cast<std::uint32_t>(loc_ids_.size()));
  loc_dict_full += loc_dict_;

  const std::string* cols[kColumnCount] = {
      &ts_,          &streams_,    &entries_,    &locs_,
      &jobs_,        &subcats_,    &event_types_, &facilities_,
      &severities_,  &entry_dict,  &loc_dict_full, &block_index_};

  std::string out(kSegmentMagicTag);
  std::uint64_t offsets[kColumnCount];
  for (std::uint32_t i = 0; i < kColumnCount; ++i) {
    offsets[i] = out.size();
    out += *cols[i];
  }

  std::string footer(kSegmentFooterTag);
  wire::append<std::uint32_t>(footer, kSegmentVersion);
  wire::append<std::uint64_t>(footer, count_);
  wire::append<std::int64_t>(footer, min_time_);
  wire::append<std::int64_t>(footer, max_time_);
  wire::append<std::uint32_t>(footer, block_records_);
  wire::append<std::uint32_t>(footer, kColumnCount);
  for (std::uint32_t i = 0; i < kColumnCount; ++i) {
    wire::append<std::uint32_t>(footer, i);
    wire::append<std::uint64_t>(footer, offsets[i]);
    wire::append<std::uint64_t>(footer, cols[i]->size());
    wire::append<std::uint32_t>(footer, crc32(*cols[i]));
  }
  wire::append<std::uint32_t>(
      footer, static_cast<std::uint32_t>(stream_counts_.size()));
  for (const auto& [stream, n] : stream_counts_) {
    wire::append<std::uint64_t>(footer, stream);
    wire::append<std::uint64_t>(footer, n);
  }

  out += footer;
  wire::append<std::uint32_t>(out, crc32(footer));
  wire::append<std::uint32_t>(out, static_cast<std::uint32_t>(footer.size()));
  out += kSegmentEndTag;

  reset();
  return out;
}

void SegmentBuilder::reset() {
  count_ = 0;
  min_time_ = 0;
  max_time_ = 0;
  prev_time_ = 0;
  ts_.clear();
  streams_.clear();
  entries_.clear();
  locs_.clear();
  jobs_.clear();
  subcats_.clear();
  event_types_.clear();
  facilities_.clear();
  severities_.clear();
  entry_pool_ = StringPool{};
  loc_ids_.clear();
  loc_dict_.clear();
  block_index_.clear();
  stream_counts_.clear();
  stream_slot_.clear();
}

std::shared_ptr<const Segment> Segment::open(const std::string& path) {
  // make_shared cannot reach the private constructor; the pointer is
  // owned by the shared_ptr on the same line.
  // repo-lint: allow(naked-new)
  std::shared_ptr<Segment> seg(new Segment());
  seg->file_ = MappedFile::open(path);
  const char* base = seg->file_.data();
  const std::size_t size = seg->file_.size();

  if (size < kSegmentMagicTag.size() + kTrailerSize) {
    fail_open(StoreFaultClass::kBadMagic, path, "file too small");
  }
  if (std::memcmp(base, kSegmentMagicTag.data(), kSegmentMagicTag.size()) !=
      0) {
    fail_open(StoreFaultClass::kBadMagic, path, "bad head magic");
  }
  if (std::memcmp(base + size - kSegmentEndTag.size(), kSegmentEndTag.data(),
                  kSegmentEndTag.size()) != 0) {
    fail_open(StoreFaultClass::kBadFooter, path,
              "end magic missing (truncated?)");
  }
  const auto footer_crc = wire::decode<std::uint32_t>(base + size - 16);
  const auto footer_size = wire::decode<std::uint32_t>(base + size - 12);
  if (footer_size >
      size - kSegmentMagicTag.size() - kTrailerSize) {
    fail_open(StoreFaultClass::kBadFooter, path, "footer size out of range");
  }
  const char* footer = base + size - kTrailerSize - footer_size;
  if (crc32(std::string_view(footer, footer_size)) != footer_crc) {
    fail_open(StoreFaultClass::kBadFooter, path, "footer CRC mismatch");
  }
  seg->footer_crc_ = footer_crc;

  const char* p = footer;
  const char* fend = footer + footer_size;
  const auto need = [&](std::size_t n) {
    if (static_cast<std::size_t>(fend - p) < n) {
      fail_open(StoreFaultClass::kBadFooter, path, "footer truncated");
    }
  };
  need(kSegmentFooterTag.size());
  if (std::memcmp(p, kSegmentFooterTag.data(), kSegmentFooterTag.size()) !=
      0) {
    fail_open(StoreFaultClass::kBadFooter, path, "bad footer tag");
  }
  p += kSegmentFooterTag.size();
  need(4 + 8 + 8 + 8 + 4 + 4);
  const auto version = wire::decode<std::uint32_t>(p);
  p += 4;
  if (version != kSegmentVersion) {
    fail_open(StoreFaultClass::kBadFooter, path,
              "unsupported segment version");
  }
  seg->record_count_ = wire::decode<std::uint64_t>(p);
  p += 8;
  seg->min_time_ = wire::decode<std::int64_t>(p);
  p += 8;
  seg->max_time_ = wire::decode<std::int64_t>(p);
  p += 8;
  seg->block_records_ = wire::decode<std::uint32_t>(p);
  p += 4;
  const auto column_count = wire::decode<std::uint32_t>(p);
  p += 4;
  if (seg->record_count_ == 0 || seg->block_records_ == 0 ||
      seg->min_time_ > seg->max_time_ || column_count != kColumnCount) {
    fail_open(StoreFaultClass::kBadFooter, path, "implausible footer header");
  }

  const std::size_t data_end = size - kTrailerSize - footer_size;
  for (std::uint32_t i = 0; i < kColumnCount; ++i) {
    need(4 + 8 + 8 + 4);
    const auto id = wire::decode<std::uint32_t>(p);
    const auto offset = wire::decode<std::uint64_t>(p + 4);
    const auto col_size = wire::decode<std::uint64_t>(p + 12);
    const auto col_crc = wire::decode<std::uint32_t>(p + 20);
    p += 24;
    if (id != i) {
      fail_open(StoreFaultClass::kBadColumn, path, "column table disordered");
    }
    if (offset < kSegmentMagicTag.size() || offset > data_end ||
        col_size > data_end - offset) {
      fail_open(StoreFaultClass::kBadColumn, path,
                "column extends past segment data (truncated column?)");
    }
    const std::string_view col(base + offset, col_size);
    if (crc32(col) != col_crc) {
      fail_open(StoreFaultClass::kBadColumn, path, "column CRC mismatch");
    }
    seg->columns_[i] = col;
  }

  need(4);
  const auto stream_count = wire::decode<std::uint32_t>(p);
  p += 4;
  std::uint64_t stream_total = 0;
  for (std::uint32_t i = 0; i < stream_count; ++i) {
    need(16);
    const auto stream = wire::decode<std::uint64_t>(p);
    const auto n = wire::decode<std::uint64_t>(p + 8);
    p += 16;
    seg->stream_counts_.emplace_back(stream, n);
    stream_total += n;
  }
  if (p != fend || stream_total != seg->record_count_) {
    fail_open(StoreFaultClass::kBadFooter, path,
              "stream counts disagree with record count");
  }

  // Fixed-width enum columns: exactly one valid byte per record, so the
  // cursor can cast without range checks.
  for (const ColumnId id :
       {kColEventTypes, kColFacilities, kColSeverities}) {
    if (seg->column(id).size() != seg->record_count_) {
      fail_open(StoreFaultClass::kBadColumn, path,
                "enum column size mismatch");
    }
  }
  for (const char c : seg->column(kColEventTypes)) {
    if (static_cast<std::uint8_t>(c) > 2) {
      fail_open(StoreFaultClass::kBadColumn, path, "invalid event type");
    }
  }
  for (const char c : seg->column(kColFacilities)) {
    if (static_cast<std::uint8_t>(c) >= kFacilityCount) {
      fail_open(StoreFaultClass::kBadColumn, path, "invalid facility");
    }
  }
  for (const char c : seg->column(kColSeverities)) {
    if (static_cast<std::uint8_t>(c) >= kSeverityCount) {
      fail_open(StoreFaultClass::kBadColumn, path, "invalid severity");
    }
  }

  // Block index: one entry per block, first times consistent with the
  // footer and sorted, offsets inside their columns.
  seg->block_count_ = static_cast<std::size_t>(
      (seg->record_count_ + seg->block_records_ - 1) / seg->block_records_);
  const std::string_view bi = seg->column(kColBlockIndex);
  if (bi.size() != seg->block_count_ * kBlockIndexEntrySize) {
    fail_open(StoreFaultClass::kBadColumn, path, "block index size mismatch");
  }
  TimePoint prev_first = seg->min_time_;
  for (std::size_t b = 0; b < seg->block_count_; ++b) {
    const TimePoint first = seg->block_first_time(b);
    if ((b == 0 && first != seg->min_time_) || first < prev_first ||
        first > seg->max_time_) {
      fail_open(StoreFaultClass::kBadColumn, path,
                "block index times inconsistent");
    }
    prev_first = first;
    std::uint32_t offs[6];
    seg->block_offsets(b, offs);
    const ColumnId varint_cols[6] = {kColTimestamps, kColStreams,
                                     kColEntries,    kColLocations,
                                     kColJobs,       kColSubcats};
    for (int c = 0; c < 6; ++c) {
      if (offs[c] > seg->column(varint_cols[c]).size()) {
        fail_open(StoreFaultClass::kBadColumn, path,
                  "block index offsets out of range");
      }
    }
  }

  // Entry dictionary: u32 count, then length-prefixed strings.
  {
    const std::string_view dict = seg->column(kColEntryDict);
    const char* dp = dict.data();
    const char* dend = dict.data() + dict.size();
    const auto dneed = [&](std::size_t n) {
      if (static_cast<std::size_t>(dend - dp) < n) {
        fail_open(StoreFaultClass::kBadDictionary, path,
                  "entry dictionary truncated");
      }
    };
    dneed(4);
    const auto count = wire::decode<std::uint32_t>(dp);
    dp += 4;
    // Each entry takes at least its 4-byte length.
    if (count > static_cast<std::size_t>(dend - dp) / 4) {
      fail_open(StoreFaultClass::kBadDictionary, path,
                "entry dictionary count exceeds its bytes");
    }
    seg->entry_dict_.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      dneed(4);
      const auto len = wire::decode<std::uint32_t>(dp);
      dp += 4;
      dneed(len);
      seg->entry_dict_.emplace_back(dp, len);
      dp += len;
    }
    if (dp != dend) {
      fail_open(StoreFaultClass::kBadDictionary, path,
                "entry dictionary has trailing bytes");
    }
  }

  // Location dictionary: u32 count, then fixed 6-byte encodings.
  {
    const std::string_view dict = seg->column(kColLocDict);
    if (dict.size() < 4) {
      fail_open(StoreFaultClass::kBadDictionary, path,
                "location dictionary truncated");
    }
    const auto count = wire::decode<std::uint32_t>(dict.data());
    if (dict.size() != 4 + count * bgl::kLocationWireSize) {
      fail_open(StoreFaultClass::kBadDictionary, path,
                "location dictionary size mismatch");
    }
    seg->loc_dict_.reserve(count);
    const char* dp = dict.data() + 4;
    for (std::uint32_t i = 0; i < count; ++i, dp += bgl::kLocationWireSize) {
      bgl::Location loc;
      if (!bgl::decode_location(dp, loc)) {
        fail_open(StoreFaultClass::kBadDictionary, path,
                  "invalid location kind");
      }
      seg->loc_dict_.push_back(loc);
    }
  }

  return seg;
}

TimePoint Segment::block_first_time(std::size_t block) const {
  const std::string_view bi = column(kColBlockIndex);
  return wire::decode<std::int64_t>(bi.data() + block * kBlockIndexEntrySize);
}

void Segment::block_offsets(std::size_t block, std::uint32_t out[6]) const {
  const std::string_view bi = column(kColBlockIndex);
  const char* p = bi.data() + block * kBlockIndexEntrySize + 8;
  for (int c = 0; c < 6; ++c) {
    out[c] = wire::decode<std::uint32_t>(p + 4 * c);
  }
}

std::size_t Segment::seek_block(TimePoint t) const {
  // Greatest block whose first_time is strictly < t; block 0 when t
  // precedes (or ties) all. Strict: a run of records tied at exactly t
  // can span block boundaries, and `<= t` would land on the *last*
  // block opening with t, silently skipping the tied records before it.
  std::size_t lo = 0;
  std::size_t hi = block_count_;
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (block_first_time(mid) < t) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace bglpred::logstore
