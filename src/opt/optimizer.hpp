#pragma once

#include "core/engine.hpp"
#include "opt/cost.hpp"
#include "opt/planner.hpp"
#include "opt/stats.hpp"

namespace quotient {

/// End-to-end optimizer configuration. The law-based rewrites always run;
/// these bound how far.
struct OptimizerOptions {
  PlannerOptions planner;
  /// Permit rules to evaluate subplans for data-dependent preconditions
  /// (the expensive-c1 trade-off of §5.1.1).
  bool allow_runtime_checks = false;
  /// Rewrite-step budget, for the greedy fixpoint and for each search path.
  size_t max_rewrite_steps = 64;
  /// Candidate-plan budget for the search (plans costed; memo hits free).
  size_t max_search_candidates = 256;
};

/// "%.1f" of a cost into a std::string, sized exactly — no fixed buffer to
/// overflow (large estimates print all their digits). Shared by every
/// EXPLAIN rendering of costs.
std::string FormatCost(double cost);

/// What the optimizer did to a query, for EXPLAIN output.
struct OptimizationReport {
  PlanPtr original;
  PlanPtr chosen;
  double original_cost = 0;
  double chosen_cost = 0;
  /// Cost of the greedy fixpoint plan — the reference the search must not
  /// lose to. Equals original_cost when no rule fired.
  double greedy_cost = 0;
  std::vector<RewriteStep> steps;  // applied law rewrites, in order
  /// Candidate plans costed by the search (the original counts as one).
  size_t search_candidates = 0;
  /// Duplicate states the memo pruned by fingerprint.
  size_t memo_hits = 0;
  /// A rewrite or search budget ran out before the space was exhausted.
  bool budget_exhausted = false;

  /// Human-readable summary: costs, search totals, applied laws with
  /// per-step cost deltas, final plan.
  std::string Explain() const;
};

/// The optimizer: law-based rewriting (src/core) driven by the cost model,
/// then lowering to the execution engine. Optimize has one path: the greedy
/// fixpoint of the default rule set, then the memoized best-first search
/// (opt/memo.hpp), then the cheapest of {original, greedy, searched} — never
/// worse than the original or the greedy fixpoint, even when a budget cut
/// the search short. Rewrites are never blindly trusted.
class Optimizer {
 public:
  /// `stats` feeds the cost model; pass the snapshot's cache
  /// (CatalogSnapshot::stats() in api/database.hpp) so harvests are shared
  /// across compiles. When null the optimizer owns a transient cache (used
  /// for transaction overlay catalogs, whose dirty contents have no
  /// published snapshot).
  explicit Optimizer(const Catalog& catalog, OptimizerOptions options = {},
                     const StatsCache* stats = nullptr);

  /// Rewrites and costs `plan` without executing it.
  OptimizationReport Optimize(const PlanPtr& plan) const;

  /// Optimizes, lowers, executes; fills `profile`/`report` when provided.
  Relation Run(const PlanPtr& plan, ExecProfile* profile = nullptr,
               OptimizationReport* report = nullptr) const;

 private:
  const StatsCache& stats() const { return stats_ != nullptr ? *stats_ : owned_stats_; }

  const Catalog& catalog_;
  OptimizerOptions options_;
  RewriteEngine engine_;         // greedy fixpoint: DefaultRuleSet()
  RewriteEngine search_engine_;  // search space: SearchRuleSet()
  const StatsCache* stats_;
  StatsCache owned_stats_;
};

}  // namespace quotient
