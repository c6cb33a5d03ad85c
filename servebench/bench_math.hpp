// Arithmetic of the served-path benchmark: in-memory spans and their
// self times, nearest-rank percentiles, payload digests, and the pooled
// warning score.
// Header-only so served_path.cpp and its tests share one definition.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "eval/confusion.hpp"
#include "eval/matcher.hpp"

namespace servebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call into a layer: [start_ns, end_ns) on the steady clock,
/// and the index of the span that was open when it began (-1: a root).
struct Span {
  std::string_view name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// Keeps spans and named counts in memory for one thread. Spans close in
/// the reverse order they open (Scope enforces it).
class Tracer {
 public:
  std::int32_t open(std::string_view name) {
    spans_.push_back(Span{name, now_ns(), 0, current_});
    current_ = static_cast<std::int32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::int32_t id) {
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end_ns = now_ns();
    current_ = span.parent;
  }
  void count(std::string_view name, std::uint64_t n = 1) { counts_[name] += n; }

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t count_of(std::string_view name) const {
    const auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

 private:
  std::vector<Span> spans_;
  std::map<std::string_view, std::uint64_t> counts_;
  std::int32_t current_ = -1;
};

/// A span around one call; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->close(id_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t id_;
};

/// Self time of every span, in ns: its duration minus the part of its
/// interval that its direct children cover (the union of the children's
/// intervals, clipped to the parent).
inline std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t begin = spans[i].start_ns;
    const std::int64_t end = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = begin;  // covered time is counted up to here
    for (const auto& [kid_begin, kid_end] : kids) {
      const std::int64_t from = std::max(kid_begin, reach);
      const std::int64_t to = std::min(kid_end, end);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    out[i] = (end - begin) - covered;
  }
  return out;
}

/// Summed self time in seconds and span count, per span name.
struct LayerTotals {
  std::map<std::string_view, double> self_s;
  std::map<std::string_view, std::size_t> calls;
  double total_self_s = 0.0;
};

inline LayerTotals layer_totals(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  LayerTotals out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double s = static_cast<double>(self[i]) * 1e-9;
    out.self_s[spans[i].name] += s;
    out.calls[spans[i].name] += 1;
    out.total_self_s += s;
  }
  return out;
}

/// Nearest-rank percentile: the smallest sample with at least a share
/// `q` in (0, 1] of all samples at or below it. 0 for no samples.
inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps exact ranks exact despite binary fractions
  // (0.29 * 100 is 28.999999999999996).
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * n - 1e-9)));
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

/// The middle sample, or the mean of the two middle ones. 0 for none.
inline double median(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n == 0) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

/// Start value of a fold_digest chain (the FNV-1a 64 offset basis).
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Folds one byte string into a running FNV-1a 64 digest of a sequence of
/// byte strings. The length goes in before the bytes, so equal sequences
/// give equal digests and a different split of the same bytes does not.
inline std::uint64_t fold_digest(std::uint64_t digest, std::string_view bytes) {
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  for (std::size_t n = bytes.size(), k = 0; k < sizeof(n); ++k, n >>= 8) {
    digest = (digest ^ (n & 0xff)) * kPrime;
  }
  for (const char c : bytes) {
    digest = (digest ^ static_cast<unsigned char>(c)) * kPrime;
  }
  return digest;
}

/// Scores each stream as evaluate_split scores a fold — warnings merged
/// into episodes, then matched against that stream's failure times —
/// and pools the counts over streams.
inline bglpred::Confusion score_streams(
    const std::vector<std::vector<bglpred::Warning>>& warnings,
    const std::vector<std::vector<bglpred::TimePoint>>& failures) {
  bglpred::Confusion pooled;
  for (std::size_t i = 0; i < warnings.size(); ++i) {
    pooled += bglpred::match_warnings(bglpred::merge_episodes(warnings[i]),
                                      failures[i]);
  }
  return pooled;
}

}  // namespace servebench
