// Fused Phase-1 ingest: parse + classify + compress in one streaming
// pass (DESIGN §6).
//
// The three-step pipeline (read_log_fast, then preprocess) materializes
// the full uncompressed record vector — tens of millions of records for
// an ANL-scale log — only for Phase 1 to immediately discard most of it.
// ingest_classified streams instead: each parsed record is interned,
// classified, and pushed through the same Phase1Compressor that
// preprocess() runs, as it leaves the scanner, so only the survivors are
// ever stored.
//
// Observable equivalence with the three-step path (pinned by
// tests/test_fast_io.cpp):
//   * same RasLog — records AND string-pool ids, because every parsed
//     record's entry is interned (in arrival order) even when Phase 1
//     drops the record, exactly as read_log would;
//   * same PreprocessStats and IngestReport, field for field;
//   * same strict/lenient error behaviour (the loop is the shared
//     ingest_records driver from raslog/fast_io.hpp).
//
// One precondition the batch path does not have: preprocess() sorts an
// unsorted log before classifying, which a single streaming pass cannot
// do. ingest_classified therefore requires non-decreasing record times
// and throws InvalidArgument on the first violation.
#pragma once

#include <iosfwd>
#include <string>

#include "preprocess/pipeline.hpp"
#include "raslog/io.hpp"
#include "raslog/log.hpp"
#include "raslog/source.hpp"

namespace bglpred {

/// Streams `is` through parse -> classify -> Phase 1 without
/// materializing the uncompressed log (see file comment). Returns the
/// unique-event stream; `stats` and `report` (both optional) receive
/// exactly what the three-step path would have produced.
RasLog ingest_classified(std::istream& is, const ReadOptions& read_options,
                         const PreprocessOptions& options = {},
                         PreprocessStats* stats = nullptr,
                         IngestReport* report = nullptr);

/// Same fused classify -> Phase-1 pass over a record-batch
/// source (e.g. the streaming generator): one batch resident at a time,
/// so a log of any length preprocesses in O(batch) memory. The source's
/// records skip the text parse, so there is no IngestReport; the same
/// non-decreasing-time precondition applies across and within batches.
RasLog ingest_classified(RecordBatchSource& source,
                         const PreprocessOptions& options = {},
                         PreprocessStats* stats = nullptr);

/// File convenience wrapper; throws Error on I/O failure.
RasLog load_classified(const std::string& path,
                       const ReadOptions& read_options,
                       const PreprocessOptions& options = {},
                       PreprocessStats* stats = nullptr,
                       IngestReport* report = nullptr);

}  // namespace bglpred
