#pragma once

// Turns measured phases into the reported metrics and prints the result.

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

/// The end-to-end metrics of an untraced run (names as in BENCHMARK.json).
std::vector<Metric> EndToEndMetrics(const PhaseResult& phase, double setup_s,
                                    double peak_rss_mb);

/// Numbers an end-to-end run prints besides its metrics: the percentiles and
/// shares that exist only on some workloads, and the cache shares README.md
/// records per workload.
std::vector<Metric> EndToEndDetails(const PhaseResult& phase,
                                    const std::vector<double>& setup_times);

/// The per-layer metrics, computed from the traced phase's spans and the
/// Database counters around it; `untraced` is the same workload's untraced
/// phase of the same run, for the tracing overhead.
std::vector<Metric> PerLayerMetrics(const PhaseResult& traced, const PhaseResult& untraced);

/// Writes every span as one JSON object per line.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

/// Appends `value` as a JSON number with every digit kept.
void AppendNumber(std::string* out, double value);

/// Escapes `s` as a JSON string literal.
std::string JsonString(const std::string& s);

}  // namespace perfbench
