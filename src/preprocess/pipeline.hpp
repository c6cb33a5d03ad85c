// The Phase-1 pipeline: categorize -> temporal compress -> spatial
// compress. Produces the unique-event stream consumed by Phases 2/3 plus
// the summary statistics reported in Tables 1 and 4.
#pragma once

#include <array>
#include <vector>

#include "preprocess/phase1.hpp"
#include "raslog/log.hpp"
#include "taxonomy/classifier.hpp"

namespace bglpred {

/// Tunables for the preprocessing pipeline.
struct PreprocessOptions {
  /// Gap threshold of both compression passes (§3.1).
  Duration threshold = kDefaultCompressionThreshold;
};

/// End-to-end Phase-1 statistics.
struct PreprocessStats {
  std::size_t raw_records = 0;
  ClassificationStats classification;
  CompressionResult temporal;
  CompressionResult spatial;
  std::size_t unique_events = 0;
  std::size_t unique_fatal_events = 0;

  /// Compressed FATAL/FAILURE counts per main category (Table 4 rows).
  std::vector<std::size_t> fatal_per_main =
      std::vector<std::size_t>(kMainCategoryCount, 0);

  /// Verdict tallies of one Phase-1 run, indexed by Phase1Verdict
  /// (kept, temporal duplicates, spatial duplicates).
  using Verdicts = std::array<std::size_t, 3>;

  /// Fills every count but `classification` from a run's verdict tallies
  /// and the records it kept.
  void count(const Verdicts& verdicts, const std::vector<RasRecord>& kept);
};

/// Runs Phase 1 in place on `log` (must be or will be time-sorted) and
/// returns the statistics. After the call, `log` holds the unique-event
/// stream with subcategories assigned.
PreprocessStats preprocess(RasLog& log,
                           const PreprocessOptions& options = {});

}  // namespace bglpred
