// Online prediction engine demo (§3.3: "it is practical to deploy the
// meta-learner as an online prediction engine").
//
// Trains the meta-learner on the first 80% of a log, then replays the
// remaining 20% *raw* records through the OnlineEngine — streaming
// classification + the offline Phase-1 compression + live prediction —
// printing each emitted warning with its eventual outcome and the
// achieved lead time.
//
//   $ ./online_prediction [--scale=0.1] [--window-minutes=30] [--max-print=12]

#include <cstdio>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "core/online.hpp"
#include "core/three_phase.hpp"
#include "simgen/generator.hpp"

using namespace bglpred;

namespace {

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const double scale = args.get_double("scale", 0.1);
  const Duration window = args.get_int("window-minutes", 30) * kMinute;
  const auto max_print =
      static_cast<std::size_t>(args.get_int("max-print", 12));

  // Generate a raw log and split it 80/20 chronologically.
  GeneratedLog generated = LogGenerator(SystemProfile::anl()).generate(scale);
  const RasLog& raw = generated.log;
  const std::size_t cut = raw.size() * 8 / 10;
  std::printf("replaying %zu raw records (after training on %zu)...\n\n",
              raw.size() - cut, cut);

  // Offline: preprocess the training slice and train a meta predictor.
  RasLog training = raw.subset(
      {raw.records().begin(),
       raw.records().begin() + static_cast<std::ptrdiff_t>(cut)});
  ThreePhaseOptions options;
  options.prediction.window = window;
  ThreePhasePredictor pipeline(options);
  pipeline.run_phase1(training);
  PredictorPtr meta = pipeline.make_predictor(Method::kMeta);
  meta->train(training);
  meta->reset();

  // Online: feed the raw tail one record at a time.
  OnlineEngine engine(std::move(meta));
  std::vector<Warning> warnings;
  std::vector<TimePoint> failures;  // ground truth, for scoring afterwards
  for (std::size_t i = cut; i < raw.size(); ++i) {
    const RasRecord& rec = raw.records()[i];
    for (Warning& w : engine.feed(rec, raw.text_of(rec))) {
      warnings.push_back(std::move(w));
    }
  }
  for (Warning& w : engine.flush()) {
    warnings.push_back(std::move(w));
  }
  // Score against the *unique* fatal occurrences in the replayed slice.
  const TimePoint split_time = raw.records()[cut].time;
  for (const FaultOccurrence& occ : generated.truth.fatal_occurrences) {
    if (occ.time >= split_time) {
      failures.push_back(occ.time);
    }
  }

  std::printf("engine stats: %zu raw fed, %zu deduplicated, %zu forwarded, "
              "%zu warnings, %zu degraded, %zu reordered, %zu clamped\n\n",
              engine.stats().raw_records, engine.stats().deduplicated,
              engine.stats().forwarded, engine.stats().warnings,
              engine.stats().degraded, engine.stats().reordered,
              engine.stats().clamped);

  // Print the first warnings with their outcome.
  std::size_t printed = 0;
  std::size_t next_failure = 0;
  for (const Warning& w : warnings) {
    if (printed >= max_print) {
      std::printf("  ... (%zu more warnings)\n", warnings.size() - printed);
      break;
    }
    while (next_failure < failures.size() &&
           failures[next_failure] < w.window_begin) {
      ++next_failure;
    }
    const bool hit = next_failure < failures.size() &&
                     failures[next_failure] <= w.window_end;
    std::printf("  [%s] %-18s conf %.2f -> %s", format_time(w.issued_at).c_str(),
                w.source.c_str(), w.confidence,
                hit ? "failure" : "no failure");
    if (hit) {
      std::printf(" (lead %s)",
                  format_duration(failures[next_failure] - w.issued_at)
                      .c_str());
    }
    std::printf("\n");
    ++printed;
  }

  // Aggregate outcome.
  std::size_t covered = 0;
  for (const TimePoint t : failures) {
    for (const Warning& w : warnings) {
      if (w.covers(t)) {
        ++covered;
        break;
      }
    }
  }
  std::printf("\n%zu of %zu unique failures in the replayed window were "
              "preceded by a live warning (%.1f%%)\n",
              covered, failures.size(),
              failures.empty() ? 0.0
                               : 100.0 * static_cast<double>(covered) /
                                     static_cast<double>(failures.size()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "online_prediction: %s\n", e.what());
    return 1;
  }
}
