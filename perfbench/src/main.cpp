// The repository benchmark program (README.md in this directory).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--work-dir <dir>]
//
// Untraced (--trace 0) it sets the workload up repeatedly, runs the closed
// loop for the given seconds, checks every output it kept, sets up
// repeatedly once more, and prints the end-to-end metrics, setup_s being the
// median of both windows of set-ups. Traced (--trace 1) it sets up once,
// runs half the time untraced and half traced, checks the outputs, and
// prints the per-layer metrics; the spans go to
// <work-dir>/traces/<workload>.jsonl. Either way the last line is one JSON
// object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "exec/scheduler.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

// Each window of set-ups runs at least kMinSetups set-ups taking at least
// kMinSetupSeconds in all (README.md, "Workloads").
constexpr size_t kMinSetups = 2;
constexpr double kMinSetupSeconds = 1.5;
constexpr size_t kMaxSetups = 5000;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  std::string work_dir = ".";
};

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--work-dir <dir>]\nworkloads:",
               message);
  for (const std::string& name : WorkloadNames()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_seed && !args->workload.empty() && args->seconds > 0 && args->trace >= 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintMetrics(const char* kind, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-32s %.6g %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": ";
    AppendNumber(&out, metrics[i].value);
    out += ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string InfoJson(const Args& args, const Workload& workload) {
  std::string tables = "{";
  for (const auto& [name, rows] : workload.TableRows()) {
    if (tables.size() > 1) tables += ", ";
    tables += JsonString(name) + ": " + std::to_string(rows);
  }
  tables += "}";
  return "{\"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) + ", \"trace\": " +
         std::to_string(args.trace) + ", \"smoke\": " + (args.smoke ? "true" : "false") +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"worker_pool\": " + std::to_string(quotient::GetExecThreads()) +
         ", \"clients\": " + std::to_string(workload.clients()) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"optimized\": " + (kOptimized ? "true" : "false") + ", \"tables\": " + tables + "}";
}

/// One window of set-ups; appends each set-up's time. A set-up of a
/// millisecond is thus sampled as long as one of a second. The last set-up
/// stays in place for Run().
void SetUpRepeatedly(Workload& workload, bool smoke, std::vector<double>* times,
                     std::vector<std::string>* problems) {
  const size_t min_setups = smoke ? 1 : kMinSetups;
  const double min_seconds = smoke ? 0 : kMinSetupSeconds;
  double total_s = 0;
  for (size_t n = 0; n < kMaxSetups && (n < min_setups || total_s < min_seconds); ++n) {
    workload.Stage();
    const Clock::time_point start = Clock::now();
    workload.Setup(problems);
    times->push_back(SecondsSince(start));
    total_s += times->back();
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage("bad or missing arguments");
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.smoke, args.work_dir);
  if (workload == nullptr) return Usage(("unknown workload '" + args.workload + "'").c_str());
  if (!kOptimized) {
    std::fprintf(stderr,
                 "WARNING: perfbench was built without optimisation (build type %s); its "
                 "timings are not comparable with an optimised build\n",
                 PERFBENCH_BUILD_TYPE);
  }

  workload->Generate(args.seed);
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<Metric> details;
  PhaseResult measured;
  if (args.trace == 0) {
    std::vector<double> setup_times;
    SetUpRepeatedly(*workload, args.smoke, &setup_times, &problems);
    measured = workload->Run(args.seconds, /*traced=*/false);
    // Read before verification: the oracle interpreter's working memory is
    // the harness's, not the engine's.
    const double peak_rss_mb = PeakRssMb();
    workload->Verify(&problems);
    // The second window comes a whole measured phase after the first, so
    // the median follows the host over the run rather than over one moment.
    SetUpRepeatedly(*workload, args.smoke, &setup_times, &problems);
    metrics = EndToEndMetrics(measured, Percentile(setup_times, 0.5), peak_rss_mb);
    details = EndToEndDetails(measured, setup_times);
  } else {
    workload->Stage();
    workload->Setup(&problems);
    PhaseResult untraced = workload->Run(args.seconds / 2, /*traced=*/false);
    measured = workload->Run(args.seconds / 2, /*traced=*/true);
    metrics = PerLayerMetrics(measured, untraced);
    details = EndToEndDetails(measured, {});
    const std::filesystem::path dir = std::filesystem::path(args.work_dir) / "traces";
    std::filesystem::create_directories(dir);
    // One file per workload: the latest traced run's spans.
    const std::string path = (dir / (args.workload + ".jsonl")).string();
    if (WriteSpans(measured.spans, path)) {
      std::printf("spans %zu written to %s\n", measured.spans.size(), path.c_str());
    }
    // Untraced statements count too: attempted/failed cover the whole run.
    measured.stats.statements += untraced.stats.statements;
    measured.stats.failed += untraced.stats.failed;
    for (const std::string& e : untraced.stats.errors) measured.stats.errors.push_back(e);
    workload->Verify(&problems);
  }

  if (measured.replay_mismatches > 0) {
    problems.push_back(std::to_string(measured.replay_mismatches) +
                       " traced layer replays disagreed with their statement's result");
  }
  for (const std::string& e : measured.stats.errors) {
    std::fprintf(stderr, "statement error: %s\n", e.c_str());
  }
  for (const std::string& p : problems) std::fprintf(stderr, "WRONG: %s\n", p.c_str());

  std::printf("info %s\n", InfoJson(args, *workload).c_str());
  PrintMetrics("detail", details);
  PrintMetrics("metric", metrics);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              problems.empty() ? "true" : "false",
              static_cast<unsigned long long>(measured.stats.statements),
              static_cast<unsigned long long>(measured.stats.failed),
              MetricsJson(metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
