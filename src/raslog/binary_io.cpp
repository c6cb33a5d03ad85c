#include "raslog/binary_io.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/atomic_io.hpp"
#include "common/binary.hpp"
#include "common/error.hpp"

namespace bglpred {
namespace {

constexpr char kMagic[] = "BGLRAS1\n";
constexpr std::size_t kMagicSize = sizeof(kMagic) - 1;

}  // namespace

void append_record_tuple(std::string& out, const RasRecord& rec) {
  wire::append<std::int64_t>(out, rec.time);
  wire::append<std::uint32_t>(out, rec.entry_data);
  wire::append<std::uint32_t>(out, rec.job);
  bgl::append_location(out, rec.location);
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(rec.event_type));
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(rec.facility));
  wire::append<std::uint8_t>(out, static_cast<std::uint8_t>(rec.severity));
  wire::append<std::uint16_t>(out, rec.subcategory);
  wire::append<std::uint8_t>(out, 0);  // pad to 28 bytes
}

RasRecord decode_record_tuple(const char* p) {
  RasRecord rec;
  rec.time = wire::decode<std::int64_t>(p);
  rec.entry_data = wire::decode<std::uint32_t>(p + 8);
  rec.job = wire::decode<std::uint32_t>(p + 12);
  if (!bgl::decode_location(p + 16, rec.location)) {
    throw ParseError("binary log record has invalid location kind");
  }
  const auto event_type = wire::decode<std::uint8_t>(p + 22);
  const auto facility = wire::decode<std::uint8_t>(p + 23);
  const auto severity = wire::decode<std::uint8_t>(p + 24);
  if (event_type > 2 || facility >= kFacilityCount ||
      severity >= kSeverityCount) {
    throw ParseError("binary log record has out-of-range enums");
  }
  rec.event_type = static_cast<EventType>(event_type);
  rec.facility = static_cast<Facility>(facility);
  rec.severity = static_cast<Severity>(severity);
  rec.subcategory = wire::decode<std::uint16_t>(p + 25);
  return rec;
}

std::string encode_log_binary(const RasLog& log) {
  std::string out;
  out.append(kMagic, kMagicSize);
  wire::append<std::uint64_t>(out, log.size());
  wire::append<std::uint32_t>(out, static_cast<std::uint32_t>(
                                       log.pool().size()));
  for (StringId id = 0; id < log.pool().size(); ++id) {
    const std::string& s = log.pool().str(id);
    wire::append<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
    out += s;
  }
  for (const RasRecord& rec : log.records()) {
    append_record_tuple(out, rec);
  }
  return out;
}

void write_log_binary(std::ostream& os, const RasLog& log) {
  const std::string out = encode_log_binary(log);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

RasLog read_log_binary(std::istream& is) {
  return read_log_binary(is, ReadOptions::strict());
}

RasLog read_log_binary(std::istream& is, const ReadOptions& options,
                       IngestReport* report) {
  IngestReport local;
  IngestReport& rep = report != nullptr ? *report : local;
  rep = IngestReport{};
  const bool lenient = options.mode == IngestMode::kLenient;

  // A malformed magic means "wrong file", not "damaged file": reject it
  // even in lenient mode rather than salvage zero records silently.
  char magic[kMagicSize];
  wire::read_exact(is, magic, kMagicSize, "magic");
  if (std::memcmp(magic, kMagic, kMagicSize) != 0) {
    throw ParseError("not a BGLRAS1 binary log");
  }

  RasLog log;
  std::uint64_t record_count = 0;
  try {
    char header[12];
    wire::read_exact(is, header, sizeof(header), "header");
    record_count = wire::decode<std::uint64_t>(header);
    const auto string_count = wire::decode<std::uint32_t>(header + 8);
    rep.records_attempted = record_count;

    std::string scratch;
    for (std::uint32_t i = 0; i < string_count; ++i) {
      char len_bytes[4];
      wire::read_exact(is, len_bytes, 4, "string length");
      const auto len = wire::decode<std::uint32_t>(len_bytes);
      if (len > (1u << 20)) {
        throw ParseError("binary log string implausibly long");
      }
      scratch.resize(len);
      if (len > 0) {
        wire::read_exact(is, scratch.data(), len, "string bytes");
      }
      const StringId id = log.pool().intern(scratch);
      if (id != i) {
        throw ParseError("binary log contains duplicate strings");
      }
    }

    char tuple[kRecordTupleSize] = {};
    for (std::uint64_t r = 0; r < record_count; ++r) {
      wire::read_exact(is, tuple, kRecordTupleSize, "record");
      try {
        const RasRecord rec = decode_record_tuple(tuple);
        if (rec.entry_data >= string_count) {
          throw ParseError("binary log record references unknown string");
        }
        log.append(rec);
        ++rep.records_kept;
      } catch (const ParseError&) {
        // A record that decodes but fails validation occupies its full
        // 28 bytes, so lenient mode can skip it and stay in sync.
        if (!lenient) {
          throw;
        }
        ++rep.records_dropped;
        ++rep.by_class[static_cast<std::size_t>(IngestError::kCorruptRecord)];
        if (rep.samples.size() < options.max_samples) {
          rep.samples.push_back("record " + std::to_string(r) +
                                ": failed validation, skipped");
        }
      }
    }
  } catch (const ParseError&) {
    if (!lenient) {
      throw;
    }
    // Truncation mid-structure: keep every fully-read record, charge the
    // missing remainder to the truncated class.
    rep.truncated = true;
    const std::size_t missing =
        rep.records_attempted - rep.records_kept - rep.records_dropped;
    rep.records_dropped += missing;
    rep.by_class[static_cast<std::size_t>(IngestError::kTruncated)] +=
        missing;
    if (rep.samples.size() < options.max_samples) {
      rep.samples.push_back(
          "binary input truncated after " +
          std::to_string(rep.records_kept) + " of " +
          std::to_string(rep.records_attempted) + " records");
    }
  }
  if (lenient && record_count > 0) {
    const double fraction = static_cast<double>(rep.records_dropped) /
                            static_cast<double>(record_count);
    if (fraction > options.max_error_fraction) {
      throw ParseError("lenient binary ingest gave up: " +
                       std::to_string(rep.records_dropped) + " of " +
                       std::to_string(record_count) +
                       " records unusable (max_error_fraction " +
                       std::to_string(options.max_error_fraction) + ")");
    }
  }
  return log;
}

void save_log_binary(const std::string& path, const RasLog& log) {
  // Crash-safe publish: a kill at any point leaves either the previous
  // log or the complete new one, never a torn file.
  atomic_write_file(path, encode_log_binary(log));
}

RasLog load_log_binary(const std::string& path) {
  return load_log_binary(path, ReadOptions::strict());
}

RasLog load_log_binary(const std::string& path, const ReadOptions& options,
                       IngestReport* report) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw Error("cannot open for reading: " + path);
  }
  return read_log_binary(in, options, report);
}

}  // namespace bglpred
