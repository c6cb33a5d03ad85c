// Binary log serialization.
//
// The text format (io.hpp) is greppable but ~100 bytes/record; a
// 15-month raw log round-trips much faster through this compact binary
// form (~28 bytes/record plus one copy of each distinct ENTRY_DATA
// string). Layout, all little-endian:
//
//   magic   "BGLRAS1\n"
//   u64     record count
//   u32     string count
//   strings u32 length + raw bytes, in StringId order
//   records fixed 28-byte tuples:
//           i64 time, u32 entry_data, u32 job,
//           u8 loc.kind, u16 loc.rack, u8 loc.midplane, u8 loc.node_card,
//           u8 loc.unit, u8 event_type, u8 facility, u8 severity,
//           u16 subcategory (0xffff = unclassified), u8 pad
//
// The format is versioned by the magic; readers reject anything else.
//
// Lenient reads (ReadOptions::lenient) tolerate damage short of a bad
// magic: records failing validation are skipped (the tuples are fixed
// size, so the reader stays in sync), and a stream truncated
// mid-structure yields every fully-read record with the missing tail
// tallied as IngestError::kTruncated.
#pragma once

#include <iosfwd>
#include <string>

#include "raslog/io.hpp"
#include "raslog/log.hpp"

namespace bglpred {

/// One record as the fixed 28-byte tuple above — also the online engine's
/// checkpoint form of a buffered record. decode_record_tuple throws
/// ParseError on out-of-range enum fields; entry_data is not checked.
inline constexpr std::size_t kRecordTupleSize = 28;
void append_record_tuple(std::string& out, const RasRecord& rec);
RasRecord decode_record_tuple(const char* p);

/// Serializes the whole log to the binary wire form.
std::string encode_log_binary(const RasLog& log);

/// Writes the whole log in binary form.
void write_log_binary(std::ostream& os, const RasLog& log);

/// Reads a binary log. Strict mode throws ParseError on any malformed
/// input; lenient mode salvages what it can (see file comment).
RasLog read_log_binary(std::istream& is);
RasLog read_log_binary(std::istream& is, const ReadOptions& options,
                       IngestReport* report = nullptr);

/// File convenience wrappers; throw Error on I/O failure. Saving is
/// crash-safe: the log is published via common/atomic_io (tmp + fsync
/// + rename), so a crash mid-save leaves any previous file intact.
void save_log_binary(const std::string& path, const RasLog& log);
RasLog load_log_binary(const std::string& path);
RasLog load_log_binary(const std::string& path, const ReadOptions& options,
                       IngestReport* report = nullptr);

}  // namespace bglpred
