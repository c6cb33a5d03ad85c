// Shared helpers for the per-table/figure bench drivers.
//
// Every driver reproduces one published artifact. The helpers here
// standardize: profile selection, scaled log generation + Phase-1
// preprocessing (cached per process), the paper-vs-measured table
// footer, and CSV export for external plotting. (The JSON-emitting
// google-benchmark main lives in bench_json.hpp — it must not be pulled
// into drivers that do not link google-benchmark.)
#pragma once

#include <cstdio>
#include <map>
#include <string>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "core/three_phase.hpp"
#include "simgen/generator.hpp"

namespace bglpred::bench {

/// The rule-generation window the paper selected per system (§3.2.2).
inline Duration rulegen_window_for(const std::string& profile_name) {
  return profile_name == "SDSC" ? 25 * kMinute : 15 * kMinute;
}

inline SystemProfile profile_by_name(const std::string& name) {
  if (name == "ANL") {
    return SystemProfile::anl();
  }
  if (name == "SDSC") {
    return SystemProfile::sdsc();
  }
  if (name == "DCP") {
    return SystemProfile::dc_prophet();
  }
  throw InvalidArgument("unknown profile: " + name +
                        " (expected ANL, SDSC or DCP)");
}

/// A generated-and-preprocessed log plus its bookkeeping.
struct PreparedLog {
  RasLog log;  // preprocessed unique-event stream
  GroundTruth truth;
  TimeSpan span;
  PreprocessStats phase1;
  std::size_t raw_records = 0;
};

/// Generates and preprocesses a profile at the given scale, caching per
/// (profile, scale) so multi-section benches pay once.
inline const PreparedLog& prepared_log(const std::string& profile_name,
                                       double scale) {
  static std::map<std::string, PreparedLog> cache;
  const std::string key = profile_name + "@" + std::to_string(scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    GeneratedLog g =  // repo-lint: allow(simgen-materialize)
        LogGenerator(profile_by_name(profile_name)).generate(scale);
    PreparedLog prepared;
    prepared.raw_records = g.log.size();
    prepared.truth = std::move(g.truth);
    prepared.span = g.span;
    ThreePhaseOptions opt;
    prepared.phase1 = ThreePhasePredictor(opt).run_phase1(g.log);
    prepared.log = std::move(g.log);
    it = cache.emplace(key, std::move(prepared)).first;
  }
  return it->second;
}

/// Standard bench header naming the artifact reproduced.
inline void print_header(const char* artifact, const char* description,
                         double scale) {
  std::printf("=== %s — %s ===\n", artifact, description);
  std::printf("(synthetic calibrated logs, scale %.2f of the published "
              "collection period; see DESIGN.md §2)\n\n",
              scale);
}

/// Builds the ThreePhaseOptions used by the paper's evaluation for a
/// given profile and prediction window.
inline ThreePhaseOptions paper_options(const std::string& profile_name,
                                       Duration prediction_window,
                                       Duration lead = 0) {
  ThreePhaseOptions opt;
  opt.prediction.window = prediction_window;
  opt.prediction.lead = lead;
  opt.rule.rule_generation_window = rulegen_window_for(profile_name);
  opt.cv_folds = 10;
  return opt;
}

}  // namespace bglpred::bench
