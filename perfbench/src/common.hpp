#pragma once

// Shared building blocks of the benchmark program: the seeded generator,
// clocks and percentiles, the span recorder of traced runs, and the metric
// records a run reports.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64: a small, fully specified generator, so the same seed yields
/// the same inputs on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) std::swap((*items)[i - 1], (*items)[Below(i)]);
  }

 private:
  uint64_t state_;
};

/// An independent stream derived from the workload seed and a stream tag.
inline Rng StreamRng(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x100000001b3ull + stream);
  return Rng(mix.Next());
}

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples; 0 when
/// there are none.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// A traced interval: one call into a layer's public entry point. Spans of
/// one statement share `stmt`; `parent` is the span that caused this one
/// (0 = a root). Counts observed at the boundary ride along as attributes.
struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t stmt = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<const char*, double>> attrs;

  double Attr(const char* key) const {
    for (const auto& [k, v] : attrs) {
      if (std::string_view(k) == key) return v;
    }
    return 0;
  }
};

/// Per-thread span buffer: spans stay in memory until the run ends.
class Tracer {
 public:
  static uint64_t NewId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  Span& Add(const char* name, uint64_t parent, uint64_t stmt, int64_t start_ns,
            int64_t end_ns) {
    Span span;
    span.name = name;
    span.id = NewId();
    span.parent = parent;
    span.stmt = stmt;
    span.start_ns = start_ns;
    span.end_ns = end_ns;
    spans_.push_back(std::move(span));
    return spans_.back();
  }
  std::vector<Span>& spans() { return spans_; }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
