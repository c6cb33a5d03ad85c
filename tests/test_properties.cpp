// Parameterized property sweeps across scales, seeds, and thresholds —
// invariants that must hold for every configuration, not just the
// defaults the unit tests pin down.
#include <gtest/gtest.h>

#include "eval/matcher.hpp"
#include "phase1_oracle.hpp"
#include "preprocess/pipeline.hpp"
#include "simgen/generator.hpp"

namespace bglpred {
namespace {

// ---- generator invariants over (profile, scale, seed) -------------------

struct GenParam {
  const char* profile;
  double scale;
  std::uint64_t seed_offset;
};

class GeneratorPropertyTest : public ::testing::TestWithParam<GenParam> {
 protected:
  static GeneratedLog make(const GenParam& p) {
    const SystemProfile profile = std::string(p.profile) == "ANL"
                                      ? SystemProfile::anl()
                                      : SystemProfile::sdsc();
    return LogGenerator(profile).generate(p.scale, p.seed_offset);
  }
};

TEST_P(GeneratorPropertyTest, StructuralInvariants) {
  const GeneratedLog g = make(GetParam());
  // Sorted, non-empty, truth consistent.
  EXPECT_TRUE(g.log.is_time_sorted());
  EXPECT_GT(g.log.size(), 0u);
  EXPECT_EQ(g.truth.fatal_occurrences.size(),
            [&] {
              std::size_t n = 0;
              for (const auto c : g.truth.fatal_per_category) {
                n += c;
              }
              return n;
            }());
  // Ground-truth occurrences are time-sorted and inside the span.
  TimePoint prev = g.span.begin;
  for (const FaultOccurrence& occ : g.truth.fatal_occurrences) {
    EXPECT_GE(occ.time, prev);
    EXPECT_LT(occ.time, g.span.end);
    prev = occ.time;
  }
  // Raw volume dominates unique events (duplication present).
  EXPECT_GT(g.log.size(), g.truth.unique_events);
}

TEST_P(GeneratorPropertyTest, PreprocessRecoversFatalsWithin15Percent) {
  GeneratedLog g = make(GetParam());
  const std::size_t truth = g.truth.fatal_occurrences.size();
  const PreprocessStats stats = preprocess(g.log);
  EXPECT_GT(stats.unique_fatal_events,
            static_cast<std::size_t>(0.85 * static_cast<double>(truth)));
  EXPECT_LT(stats.unique_fatal_events,
            static_cast<std::size_t>(1.15 * static_cast<double>(truth)) + 2);
}

INSTANTIATE_TEST_SUITE_P(
    ScalesAndSeeds, GeneratorPropertyTest,
    ::testing::Values(GenParam{"ANL", 0.02, 0}, GenParam{"ANL", 0.05, 1},
                      GenParam{"ANL", 0.08, 2}, GenParam{"SDSC", 0.02, 0},
                      GenParam{"SDSC", 0.05, 3},
                      GenParam{"SDSC", 0.08, 1}),
    [](const ::testing::TestParamInfo<GenParam>& info) {
      return std::string(info.param.profile) + "_scale" +
             std::to_string(static_cast<int>(info.param.scale * 100)) +
             "_seed" + std::to_string(info.param.seed_offset);
    });

// ---- compression invariants over thresholds --------------------------------

class CompressionPropertyTest : public ::testing::TestWithParam<Duration> {};

TEST_P(CompressionPropertyTest, MonotoneAndIdempotent) {
  const Duration threshold = GetParam();
  GeneratedLog g = LogGenerator(SystemProfile::sdsc()).generate(0.02);
  PreprocessOptions opt;
  opt.threshold = threshold;
  const std::size_t raw = g.log.size();
  const PreprocessStats first = preprocess(g.log, opt);
  EXPECT_LE(first.unique_events, raw);
  // Re-running the compressors is a no-op (fixpoint).
  const CompressionResult t2 = oracle::compress_temporal(g.log, threshold);
  const CompressionResult s2 = oracle::compress_spatial(g.log, threshold);
  EXPECT_EQ(t2.removed, 0u);
  EXPECT_EQ(s2.removed, 0u);
}

TEST_P(CompressionPropertyTest, LargerThresholdNeverKeepsMore) {
  const Duration threshold = GetParam();
  GeneratedLog a = LogGenerator(SystemProfile::sdsc()).generate(0.02);
  GeneratedLog b = LogGenerator(SystemProfile::sdsc()).generate(0.02);
  PreprocessOptions small;
  small.threshold = threshold;
  PreprocessOptions big;
  big.threshold = threshold * 2;
  const PreprocessStats at_small = preprocess(a.log, small);
  const PreprocessStats at_big = preprocess(b.log, big);
  EXPECT_GE(at_small.unique_events, at_big.unique_events);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, CompressionPropertyTest,
                         ::testing::Values(30, 60, 150, 300, 900, 3600));

// ---- matcher properties vs a brute-force oracle ------------------------------

struct MatcherParam {
  std::uint64_t seed;
  std::size_t warnings;
  std::size_t failures;
};

class MatcherPropertyTest : public ::testing::TestWithParam<MatcherParam> {};

TEST_P(MatcherPropertyTest, AgreesWithBruteForce) {
  const MatcherParam p = GetParam();
  Rng rng(p.seed);
  std::vector<Warning> warnings;
  for (std::size_t i = 0; i < p.warnings; ++i) {
    Warning w;
    w.issued_at = rng.uniform_int(0, 10000);
    w.window_begin = w.issued_at + 1;
    w.window_end = w.window_begin + rng.uniform_int(10, 2000);
    w.source = "p";
    warnings.push_back(w);
  }
  std::sort(warnings.begin(), warnings.end(),
            [](const Warning& a, const Warning& b) {
              return a.window_begin < b.window_begin;
            });
  std::vector<TimePoint> failures;
  for (std::size_t i = 0; i < p.failures; ++i) {
    failures.push_back(rng.uniform_int(0, 12000));
  }
  std::sort(failures.begin(), failures.end());

  const Confusion fast = match_warnings(warnings, failures);

  // Brute force.
  Confusion slow;
  for (const TimePoint t : failures) {
    bool covered = false;
    for (const Warning& w : warnings) {
      covered |= w.covers(t);
    }
    if (covered) {
      ++slow.covered_failures;
    } else {
      ++slow.missed_failures;
    }
  }
  for (const Warning& w : warnings) {
    bool hit = false;
    for (const TimePoint t : failures) {
      hit |= w.covers(t);
    }
    if (hit) {
      ++slow.true_warnings;
    } else {
      ++slow.false_warnings;
    }
  }
  EXPECT_EQ(fast.covered_failures, slow.covered_failures);
  EXPECT_EQ(fast.missed_failures, slow.missed_failures);
  EXPECT_EQ(fast.true_warnings, slow.true_warnings);
  EXPECT_EQ(fast.false_warnings, slow.false_warnings);
}

INSTANTIATE_TEST_SUITE_P(
    RandomCases, MatcherPropertyTest,
    ::testing::Values(MatcherParam{1, 0, 10}, MatcherParam{2, 10, 0},
                      MatcherParam{3, 50, 50}, MatcherParam{4, 200, 30},
                      MatcherParam{5, 30, 200}, MatcherParam{6, 500, 500},
                      MatcherParam{7, 1, 1}, MatcherParam{8, 100, 100}));

// ---- episode-merge properties -------------------------------------------------

TEST(MergePropertyTest, CoverageIsPreserved) {
  // Merging mergeable warnings must never change which instants are
  // covered (union of intervals is invariant).
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<Warning> warnings;
    for (int i = 0; i < 40; ++i) {
      Warning w;
      w.issued_at = rng.uniform_int(0, 5000);
      w.window_begin = w.issued_at + 1;
      w.window_end = w.window_begin + rng.uniform_int(5, 500);
      // String rvalues sidestep gcc-12's -Wrestrict false positive on
      // char*-ternary assignment (GCC PR105329).
      w.source = rng.bernoulli(0.5) ? std::string("a") : std::string("b");
      w.mergeable = rng.bernoulli(0.7);
      warnings.push_back(w);
    }
    const std::vector<Warning> merged = merge_episodes(warnings);
    EXPECT_LE(merged.size(), warnings.size());
    for (TimePoint t = 0; t <= 6000; t += 13) {
      bool before = false;
      for (const Warning& w : warnings) {
        before |= w.covers(t);
      }
      bool after = false;
      for (const Warning& w : merged) {
        after |= w.covers(t);
      }
      EXPECT_EQ(before, after) << "t=" << t;
    }
  }
}

}  // namespace
}  // namespace bglpred
