#pragma once

// The three workloads (README.md explains why each was chosen). A workload
// generates its inputs from the seed, sets up a fresh Database, runs closed
// loops for a measured phase, and afterwards checks every output it kept.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/database.hpp"
#include "client.hpp"
#include "common.hpp"

namespace perfbench {

/// Everything one measured phase produced, summed over the clients.
struct PhaseResult {
  ClientStats stats;
  double wall_s = 0;
  quotient::DatabaseStats before;
  quotient::DatabaseStats after;
  std::vector<Span> spans;  // empty unless traced
  uint64_t replay_mismatches = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from the seed alone (not timed).
  virtual void Generate(uint64_t seed) = 0;
  /// Releases the previous set-up's Database and sessions, then builds the
  /// rows for the next Setup() from the generated inputs (not timed).
  virtual void Stage() = 0;
  /// The timed set-up: hands the staged rows to a fresh Database, opens the
  /// sessions and runs each distinct statement once, so the first timed
  /// statement meets warm caches. Appends one line per failure.
  virtual void Setup(std::vector<std::string>* problems) = 0;
  /// Runs the closed loop(s) for `seconds`; records spans when `traced`.
  virtual PhaseResult Run(double seconds, bool traced) = 0;
  /// Checks every output the last Run() kept; appends one line per problem.
  virtual void Verify(std::vector<std::string>* problems) = 0;
  /// Row counts of the tables as generated.
  virtual std::vector<std::pair<std::string, size_t>> TableRows() const = 0;
  /// Client sessions the measured phase runs.
  virtual int clients() const { return 1; }
};

/// nullptr for an unknown name. `smoke` shrinks every input for a quick
/// check of the harness; `work_dir` holds spill files.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke,
                                       const std::string& work_dir);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench
