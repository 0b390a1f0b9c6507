#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

uint64_t Delta(size_t after, size_t before) { return after >= before ? after - before : 0; }

double Ratio(double part, double whole) { return whole > 0 ? part / whole : 0; }

double Sum(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return sum;
}

/// Plan-cache and recycler hit shares of the lookups made during a phase.
std::pair<double, double> CacheShares(const PhaseResult& phase) {
  const auto& b = phase.before;
  const auto& a = phase.after;
  const double cache_hits = static_cast<double>(Delta(a.plan_cache.hits, b.plan_cache.hits));
  const double cache_misses =
      static_cast<double>(Delta(a.plan_cache.misses, b.plan_cache.misses));
  const double rec_hits = static_cast<double>(Delta(a.recycler.hits, b.recycler.hits));
  const double rec_misses = static_cast<double>(Delta(a.recycler.misses, b.recycler.misses));
  return {Ratio(cache_hits, cache_hits + cache_misses), Ratio(rec_hits, rec_hits + rec_misses)};
}

}  // namespace

std::vector<Metric> EndToEndMetrics(const PhaseResult& phase, double setup_s,
                                    double peak_rss_mb) {
  const ClientStats& s = phase.stats;
  const double attempted = static_cast<double>(s.statements);
  return {
      {"setup_s", setup_s, "s"},
      {"throughput_stmt_s", Ratio(attempted - static_cast<double>(s.failed), phase.wall_s),
       "stmt/s"},
      {"read_p50_ms", Percentile(s.read_ms, 0.50), "ms"},
      {"read_p90_ms", Percentile(s.read_ms, 0.90), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
      {"ok_frac", Ratio(attempted - static_cast<double>(s.failed), attempted), "ratio"},
  };
}

std::vector<Metric> EndToEndDetails(const PhaseResult& phase,
                                    const std::vector<double>& setup_times) {
  const ClientStats& s = phase.stats;
  std::vector<Metric> out;
  // The highest percentile with at least ten samples beyond it.
  if (s.read_ms.size() >= 1000) out.push_back({"read_p99_ms", Percentile(s.read_ms, 0.99), "ms"});
  if (!s.write_ms.empty()) {
    out.push_back({"write_p50_ms", Percentile(s.write_ms, 0.50), "ms"});
    out.push_back({"write_p90_ms", Percentile(s.write_ms, 0.90), "ms"});
  }
  out.push_back({"error_frac", Ratio(static_cast<double>(s.failed),
                                     static_cast<double>(s.statements)),
                 "ratio"});
  out.push_back({"reads", static_cast<double>(s.read_ms.size()), "count"});
  out.push_back({"writes", static_cast<double>(s.write_ms.size()), "count"});
  out.push_back({"statements", static_cast<double>(s.statements), "count"});
  const double ops = static_cast<double>(s.read_ms.size() + s.write_ms.size());
  out.push_back({"read_share", Ratio(static_cast<double>(s.read_ms.size()), ops), "ratio"});
  out.push_back({"write_share", Ratio(static_cast<double>(s.write_ms.size()), ops), "ratio"});
  const auto [cache_share, recycler_share] = CacheShares(phase);
  out.push_back({"plan_cache_hit_share", cache_share, "ratio"});
  out.push_back({"recycler_hit_share", recycler_share, "ratio"});
  out.push_back({"measured_s", phase.wall_s, "s"});
  for (size_t i = 0; i < setup_times.size(); ++i) {
    out.push_back({"setup_s." + std::to_string(i), setup_times[i], "s"});
  }
  return out;
}

std::vector<Metric> PerLayerMetrics(const PhaseResult& traced, const PhaseResult& untraced) {
  // Self time: a span's duration minus its children's durations. The layer
  // spans under an api span are replays that ran after it (client.hpp), so
  // their durations are subtracted whole rather than by overlap.
  std::unordered_map<uint64_t, int64_t> child_ns;
  for (const Span& span : traced.spans) {
    if (span.parent != 0) child_ns[span.parent] += span.end_ns - span.start_ns;
  }
  std::map<std::string_view, std::vector<double>> self_us;
  std::map<std::string_view, std::vector<double>> duration_us;
  std::map<std::string_view, std::vector<const Span*>> by_name;
  for (const Span& span : traced.spans) {
    const int64_t duration = span.end_ns - span.start_ns;
    const int64_t children = child_ns.count(span.id) ? child_ns[span.id] : 0;
    self_us[span.name].push_back(static_cast<double>(std::max<int64_t>(0, duration - children)) /
                                 1e3);
    duration_us[span.name].push_back(static_cast<double>(duration) / 1e3);
    by_name[span.name].push_back(&span);
  }
  auto p50_self = [&](const char* name) { return Percentile(self_us[name], 0.5); };
  auto attrs = [&](const char* name, const char* key) {
    std::vector<double> out;
    for (const Span* span : by_name[name]) out.push_back(span->Attr(key));
    return out;
  };

  const std::vector<double> candidates = attrs("opt.optimize", "candidates");
  const std::vector<double> memo_hits = attrs("opt.optimize", "memo_hits");
  const std::vector<double> rows_produced = attrs("exec.drain", "rows_produced");
  const double recycler_hits = Sum(attrs("api.execute", "recycler_hits"));
  const double recycler_misses = Sum(attrs("api.execute", "recycler_misses"));

  // q-error of the root estimate, per statement: max(est/act, act/est),
  // both floored at one row.
  std::unordered_map<uint64_t, double> estimated;
  for (const Span* span : by_name["opt.plan_build"]) {
    estimated[span->stmt] = span->Attr("estimated_rows");
  }
  std::vector<double> qerrors;
  for (const Span* span : by_name["exec.drain"]) {
    auto it = estimated.find(span->stmt);
    if (it == estimated.end()) continue;
    const double est = std::max(1.0, it->second);
    const double act = std::max(1.0, span->Attr("result_rows"));
    qerrors.push_back(std::max(est / act, act / est));
  }

  const auto& b = traced.before.plan_cache;
  const auto& a = traced.after.plan_cache;
  const double cache_hits = static_cast<double>(Delta(a.hits, b.hits));
  const double cache_misses = static_cast<double>(Delta(a.misses, b.misses));
  const double compiles = static_cast<double>(Delta(a.compiles, b.compiles));
  const double writes = static_cast<double>(traced.stats.write_ms.size());

  // Read p50 times the public call alone; the layer replays run after it.
  // Wall time per statement covers the call and its replays.
  const double untraced_p50 = Percentile(untraced.stats.read_ms, 0.5);
  const double overhead = Percentile(traced.stats.read_ms, 0.5) - untraced_p50;
  auto wall_per_stmt = [](const PhaseResult& phase) {
    return Ratio(phase.wall_s, static_cast<double>(phase.stats.statements));
  };
  const double wall_ratio = Ratio(wall_per_stmt(traced), wall_per_stmt(untraced));

  return {
      {"sql.parse_us", p50_self("sql.parse"), "us"},
      {"sql.lower_us", p50_self("sql.lower"), "us"},
      {"opt.optimize_us", p50_self("opt.optimize"), "us"},
      {"opt.search_candidates", Mean(candidates), "count"},
      {"opt.memo_hit_ratio", Ratio(Sum(memo_hits), Sum(memo_hits) + Sum(candidates)), "ratio"},
      {"opt.plan_build_us", p50_self("opt.plan_build"), "us"},
      {"opt.root_qerror", Percentile(qerrors, 0.5), "ratio"},
      {"exec.open_us", p50_self("exec.open"), "us"},
      {"exec.drain_us", p50_self("exec.drain"), "us"},
      {"exec.rows_per_stmt", Mean(rows_produced), "rows"},
      {"exec.max_dop", Percentile(attrs("exec.drain", "max_dop"), 0.5), "count"},
      {"exec.recycler_hit_ratio", Ratio(recycler_hits, recycler_hits + recycler_misses), "ratio"},
      {"exec.charged_bytes_per_stmt", Mean(attrs("api.execute", "charged_bytes")), "bytes"},
      {"exec.spill_partitions_per_stmt", Mean(attrs("api.execute", "spill_partitions")),
       "count"},
      {"exec.spill_bytes_per_row",
       Ratio(Sum(attrs("api.execute", "spill_bytes")), Sum(rows_produced)), "bytes/row"},
      {"api.execute_us", Percentile(duration_us["api.execute"], 0.5), "us"},
      {"api.self_us", p50_self("api.execute"), "us"},
      {"api.plan_cache_hit_ratio", Ratio(cache_hits, cache_hits + cache_misses), "ratio"},
      {"api.compiles_per_write", Ratio(compiles, writes), "count"},
      {"api.write_us", Percentile(duration_us["api.write"], 0.5), "us"},
      {"api.commit_us", Percentile(duration_us["api.commit"], 0.5), "us"},
      {"trace.read_p50_overhead_ms", overhead, "ms"},
      {"trace.read_p50_overhead_frac", Ratio(overhead, untraced_p50), "ratio"},
      {"trace.stmt_wall_overhead_frac", wall_ratio > 0 ? wall_ratio - 1 : 0, "ratio"},
  };
}

void AppendNumber(std::string* out, double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out->append(buf);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  std::string line;
  for (const Span& span : spans) {
    line.clear();
    line.append("{\"name\":").append(JsonString(span.name));
    for (const auto& [key, value] : {std::pair<const char*, int64_t>{"id", span.id},
                                     {"parent", span.parent},
                                     {"stmt", span.stmt},
                                     {"start_ns", span.start_ns},
                                     {"end_ns", span.end_ns}}) {
      line.append(",\"").append(key).append("\":").append(std::to_string(value));
    }
    for (const auto& [key, value] : span.attrs) {
      line.append(",").append(JsonString(key)).append(":");
      AppendNumber(&line, value);
    }
    line.append("}\n");
    file << line;
  }
  return static_cast<bool>(file);
}

}  // namespace perfbench
