// Differential oracle for the Phase-1 operator (preprocess/phase1.hpp):
// the original two whole-log passes, each with its own last-seen map,
// keyed the way the batch pipeline keyed them — the spatial pass on the
// string pool's StringId rather than a text hash. Test-only: the
// product runs Phase1Compressor everywhere, and these passes pin what it
// must keep.
#pragma once

#include "preprocess/phase1.hpp"
#include "raslog/log.hpp"

namespace bglpred::oracle {

/// Temporal compression at a single location. `log` must be time-sorted
/// and categorized (subcategory filled). Returns the pass statistics and
/// rewrites the log in place.
CompressionResult compress_temporal(
    RasLog& log, Duration threshold = kDefaultCompressionThreshold);

/// Spatial compression across locations. Same preconditions.
CompressionResult compress_spatial(
    RasLog& log, Duration threshold = kDefaultCompressionThreshold);

}  // namespace bglpred::oracle
