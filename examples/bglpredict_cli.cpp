// bglpredict — a command-line front end to the whole library.
//
// Subcommands:
//   generate   --profile=ANL|SDSC [--scale=0.1] [--seed-offset=0]
//              --out=raw.log [--binary]
//       Write a calibrated synthetic raw RAS log.
//   preprocess --in=raw.log [--binary] --out=clean.log
//              [--threshold=300]
//       Run Phase 1 and write the unique-event stream (text format).
//   analyze    --in=clean.log [--binary]
//       Category/severity breakdown, clustering, precursor coverage.
//   evaluate   --in=clean.log [--binary] [--method=meta]
//              [--window-minutes=30] [--folds=10]
//       Cross-validated precision/recall of a method.
//   rules      --in=clean.log [--binary] [--rulegen-minutes=15] [--top=20]
//       Mine and print association rules.
//
// Input files may be the library's text format or (with --binary) the
// compact binary format.

#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/three_phase.hpp"
#include "mining/event_sets.hpp"
#include "raslog/binary_io.hpp"
#include "raslog/io.hpp"
#include "simgen/generator.hpp"
#include "stats/interarrival.hpp"

using namespace bglpred;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bglpredict <generate|preprocess|analyze|evaluate|"
               "rules> [flags]\n(see the header comment of "
               "examples/bglpredict_cli.cpp)\n");
  return 2;
}

RasLog load(const CliArgs& args) {
  const std::string path = args.get("in", "");
  if (path.empty()) {
    throw InvalidArgument("--in=<file> is required");
  }
  return args.get_bool("binary", false) ? load_log_binary(path)
                                        : load_log(path);
}

int cmd_generate(const CliArgs& args) {
  const std::string profile_name = args.get("profile", "ANL");
  const SystemProfile profile = profile_name == "SDSC"
                                    ? SystemProfile::sdsc()
                                    : SystemProfile::anl();
  const double scale = args.get_double("scale", 0.1);
  const auto offset =
      static_cast<std::uint64_t>(args.get_int("seed-offset", 0));
  const std::string out = args.get("out", "raw.log");
  GeneratedLog g = LogGenerator(profile).generate(scale, offset);
  if (args.get_bool("binary", false)) {
    save_log_binary(out, g.log);
  } else {
    save_log(out, g.log);
  }
  std::printf("wrote %zu raw records (%s profile, scale %.2f) to %s\n",
              g.log.size(), profile_name.c_str(), scale, out.c_str());
  return 0;
}

int cmd_preprocess(const CliArgs& args) {
  RasLog log = load(args);
  PreprocessOptions opt;
  opt.threshold = args.get_int("threshold", 300);
  const PreprocessStats stats = preprocess(log, opt);
  const std::string out = args.get("out", "clean.log");
  save_log(out, log);
  std::printf("%zu raw -> %zu unique events (%zu fatal); wrote %s\n",
              stats.raw_records, stats.unique_events,
              stats.unique_fatal_events, out.c_str());
  return 0;
}

int cmd_analyze(const CliArgs& args) {
  RasLog log = load(args);
  if (!log.is_time_sorted()) {
    log.sort_by_time();
  }
  // Ensure categorized (no-op when already preprocessed).
  const EventClassifier classifier;
  classifier.classify_all(log);

  TextTable severities;
  severities.set_header({"severity", "records"});
  const auto hist = log.severity_histogram();
  for (int s = 0; s < kSeverityCount; ++s) {
    severities.add_row(
        {to_string(static_cast<Severity>(s)),
         TextTable::count(static_cast<std::int64_t>(
             hist[static_cast<std::size_t>(s)]))});
  }
  std::fputs(severities.render().c_str(), stdout);

  const Ecdf cdf = fatal_gap_cdf(log);
  if (cdf.sample_size() > 0) {
    std::printf("\nfatal events: %zu; P(next failure within 1h) = %.3f, "
                "median gap %s\n",
                log.fatal_count(), cdf.eval(kHour),
                format_duration(static_cast<Duration>(cdf.quantile(0.5)))
                    .c_str());
  }
  for (const Duration w : {5 * kMinute, 60 * kMinute}) {
    EventSetStats es;
    extract_event_sets(log, w, &es);
    std::printf("failures without precursors within %s: %.1f%%\n",
                format_duration(w).c_str(),
                100.0 * es.no_precursor_fraction());
  }
  return 0;
}

int cmd_evaluate(const CliArgs& args) {
  RasLog log = load(args);
  const std::string method_name = args.get("method", "meta");
  Method method = Method::kMeta;
  if (method_name == "statistical") {
    method = Method::kStatistical;
  } else if (method_name == "rule") {
    method = Method::kRule;
  } else if (method_name == "periodic") {
    method = Method::kPeriodic;
  } else if (method_name != "meta") {
    throw InvalidArgument("unknown --method: " + method_name);
  }
  ThreePhaseOptions opt;
  opt.prediction.window = args.get_int("window-minutes", 30) * kMinute;
  opt.rule.rule_generation_window =
      args.get_int("rulegen-minutes", 15) * kMinute;
  opt.cv_folds = static_cast<std::size_t>(args.get_int("folds", 10));
  const ThreePhasePredictor tpp(opt);
  // The input is expected to be preprocessed; re-run Phase 1 defensively
  // (idempotent on an already-clean log).
  tpp.run_phase1(log);
  const CvResult cv = tpp.evaluate(log, method);
  std::printf("%s, %lld-minute window, %zu-fold CV:\n", method_name.c_str(),
              static_cast<long long>(opt.prediction.window / kMinute),
              opt.cv_folds);
  std::printf("  precision %.4f  recall %.4f  F1 %.4f\n",
              cv.macro_precision, cv.macro_recall, cv.macro_f1());
  return 0;
}

int cmd_rules(const CliArgs& args) {
  RasLog log = load(args);
  ThreePhasePredictor tpp;
  tpp.run_phase1(log);
  const Duration window = args.get_int("rulegen-minutes", 15) * kMinute;
  EventSetStats stats;
  const TransactionDb db =
      extract_event_sets(log, window, &stats, /*negative_ratio=*/4.0);
  const RuleSet rules = mine_rules(db, RuleOptions{});
  const auto top = static_cast<std::size_t>(args.get_int("top", 20));
  std::printf("%zu rules from %zu event-sets (%.1f%% without "
              "precursors):\n",
              rules.size(), stats.fatal_events,
              100.0 * stats.no_precursor_fraction());
  for (std::size_t i = 0; i < std::min(top, rules.size()); ++i) {
    std::printf("  %s\n", rules.rules()[i].to_string().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage();
  }
  const std::string command = argv[1];
  const CliArgs args(argc - 1, argv + 1);
  try {
    if (command == "generate") {
      return cmd_generate(args);
    }
    if (command == "preprocess") {
      return cmd_preprocess(args);
    }
    if (command == "analyze") {
      return cmd_analyze(args);
    }
    if (command == "evaluate") {
      return cmd_evaluate(args);
    }
    if (command == "rules") {
      return cmd_rules(args);
    }
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "bglpredict: %s\n", e.what());
    return 1;
  }
}
