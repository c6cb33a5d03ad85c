// Ablation for the §3.1 threshold choice: the paper uses 300 s for both
// temporal and spatial compression, noting that larger thresholds do not
// significantly increase FAILURE-event compression while risking
// distinct events being merged. This sweep reproduces that analysis.
//
// Usage: ablation_compression_threshold [--scale=0.5]

#include "bench_common.hpp"
#include "preprocess/pipeline.hpp"
#include "simgen/generator.hpp"

using namespace bglpred;
using namespace bglpred::bench;

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.5);
  print_header("Ablation (§3.1)", "Compression-threshold sweep", scale);

  const Duration thresholds[] = {30,   60,   150,  300,
                                 600,  1200, 3600};
  for (const char* profile : {"ANL", "SDSC"}) {
    std::printf("%s:\n", profile);
    TextTable table;
    table.set_header({"threshold", "unique events", "unique fatal",
                      "compression", "fatal merged vs 300s"});
    // Baseline fatal count at the paper's 300 s threshold.
    std::size_t fatal_at_300 = 0;
    std::vector<std::pair<Duration, PreprocessStats>> results;
    for (const Duration threshold : thresholds) {
      GeneratedLog g =  // repo-lint: allow(simgen-materialize)
          LogGenerator(profile_by_name(profile)).generate(scale);
      PreprocessOptions opt;
      opt.threshold = threshold;
      const PreprocessStats stats = preprocess(g.log, opt);
      if (threshold == 300) {
        fatal_at_300 = stats.unique_fatal_events;
      }
      results.emplace_back(threshold, stats);
    }
    for (const auto& [threshold, stats] : results) {
      const double delta =
          fatal_at_300 == 0
              ? 0.0
              : 100.0 *
                    (static_cast<double>(stats.unique_fatal_events) -
                     static_cast<double>(fatal_at_300)) /
                    static_cast<double>(fatal_at_300);
      table.add_row(
          {format_duration(threshold),
           TextTable::count(static_cast<std::int64_t>(stats.unique_events)),
           TextTable::count(
               static_cast<std::int64_t>(stats.unique_fatal_events)),
           TextTable::num(100.0 * (1.0 -
                                   static_cast<double>(stats.unique_events) /
                                       static_cast<double>(
                                           stats.raw_records)),
                          2) +
               "%",
           TextTable::num(delta, 2) + "%"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("  paper choice: 5m (300 s) — fatal-event compression "
                "saturates beyond it\n\n");
  }
  return 0;
}
