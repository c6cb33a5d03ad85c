#include "bench_math.hpp"

#include <gtest/gtest.h>

namespace servebench {
namespace {

Span make_span(std::int64_t start, std::int64_t end, std::int32_t parent) {
  return Span{"s", start, end, parent};
}

TEST(SelfTimeTest, NestedTraceSubtractsOnlyDirectChildren) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,70).
  const std::vector<Span> spans = {make_span(0, 100, -1),
                                   make_span(10, 40, 0),
                                   make_span(15, 25, 1),
                                   make_span(50, 70, 0)};
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{50, 20, 10, 20}));
}

TEST(SelfTimeTest, OverlappingAndOverhangingChildrenCountOnce) {
  // Children [10,40) and [30,60) overlap; [90,120) runs past the parent.
  const std::vector<Span> spans = {make_span(0, 100, -1),
                                   make_span(10, 40, 0),
                                   make_span(30, 60, 0),
                                   make_span(90, 120, 0)};
  EXPECT_EQ(self_times(spans)[0], 100 - 50 - 10);
}

TEST(SelfTimeTest, LayerTotalsSumSelfTimePerName) {
  const std::vector<Span> spans = {Span{"drain", 0, 1000, -1},
                                   Span{"observe", 100, 400, 0},
                                   Span{"observe", 500, 600, 0}};
  const LayerTotals totals = layer_totals(spans);
  EXPECT_DOUBLE_EQ(totals.self_s.at("drain"), 600e-9);
  EXPECT_DOUBLE_EQ(totals.self_s.at("observe"), 400e-9);
  EXPECT_EQ(totals.calls.at("observe"), 2u);
  EXPECT_DOUBLE_EQ(totals.total_self_s, 1000e-9);
}

TEST(SelfTimeTest, TracerRecordsParentsInCallOrder) {
  Tracer tracer;
  {
    Scope outer(&tracer, "outer");
    Scope inner(&tracer, "inner");
  }
  Scope after(&tracer, "after");
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, -1);
  EXPECT_LE(tracer.spans()[0].start_ns, tracer.spans()[1].start_ns);
  EXPECT_LE(tracer.spans()[1].end_ns, tracer.spans()[0].end_ns);
}

TEST(PercentileTest, NearestRank) {
  const std::vector<double> v = {7, 3, 10, 1, 9, 2, 8, 4, 6, 5};
  EXPECT_EQ(percentile(v, 0.5), 5);
  EXPECT_EQ(percentile(v, 0.9), 9);
  EXPECT_EQ(percentile(v, 0.1), 1);
  EXPECT_EQ(percentile(v, 1.0), 10);
  EXPECT_EQ(percentile(v, 0.01), 1);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(PercentileTest, MedianAveragesTheMiddlePairOfAnEvenCount) {
  EXPECT_EQ(median({4.0}), 4);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(PercentileTest, ExactRankSurvivesBinaryFractions) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(percentile(v, 0.29), 29);
  EXPECT_EQ(percentile(v, 0.9), 90);
}

TEST(DigestTest, EqualSequencesAgreeAndOrderOrSplitDoNot) {
  const auto digest = [](std::vector<std::string_view> parts) {
    std::uint64_t d = kDigestSeed;
    for (const std::string_view part : parts) {
      d = fold_digest(d, part);
    }
    return d;
  };
  EXPECT_EQ(digest({"ab", "c"}), digest({"ab", "c"}));
  EXPECT_NE(digest({"ab", "c"}), digest({"a", "bc"}));
  EXPECT_NE(digest({"ab", "c"}), digest({"c", "ab"}));
  EXPECT_NE(digest({"ab"}), digest({"ab", ""}));
  EXPECT_EQ(digest({""}), fold_digest(kDigestSeed, ""));
  EXPECT_NE(digest({}), digest({""}));
}

TEST(ScoringTest, MergesEpisodesThenPoolsOverStreams) {
  bglpred::Warning first;
  first.window_begin = 100;
  first.window_end = 200;
  first.source = "meta/rule";
  first.mergeable = true;
  bglpred::Warning refire = first;  // overlaps: one episode [100, 300]
  refire.window_begin = 150;
  refire.window_end = 300;
  bglpred::Warning lone;
  lone.window_begin = 0;
  lone.window_end = 10;
  lone.source = "meta/statistical";

  const bglpred::Confusion c =
      score_streams({{first, refire}, {lone}}, {{250, 1000}, {}});
  EXPECT_EQ(c.true_warnings, 1u);   // the merged episode covers 250
  EXPECT_EQ(c.false_warnings, 1u);  // stream 2 has no failure
  EXPECT_EQ(c.covered_failures, 1u);
  EXPECT_EQ(c.missed_failures, 1u);  // nothing covers 1000
  EXPECT_DOUBLE_EQ(c.precision(), 0.5);
  EXPECT_DOUBLE_EQ(c.recall(), 0.5);
}

}  // namespace
}  // namespace servebench
