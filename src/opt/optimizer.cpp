#include "opt/optimizer.hpp"

#include <cstdio>
#include <utility>

#include "opt/memo.hpp"

namespace quotient {

std::string FormatCost(double cost) {
  int needed = std::snprintf(nullptr, 0, "%.1f", cost);
  if (needed < 0) return "?";
  std::string out(static_cast<size_t>(needed) + 1, '\0');
  std::snprintf(out.data(), out.size(), "%.1f", cost);
  out.resize(static_cast<size_t>(needed));
  return out;
}

std::string OptimizationReport::Explain() const {
  std::string out;
  out += "original cost: " + FormatCost(original_cost) +
         ", greedy cost: " + FormatCost(greedy_cost) +
         ", chosen cost: " + FormatCost(chosen_cost) + "\n";
  out += "search: " + std::to_string(search_candidates) + " candidates, " +
         std::to_string(memo_hits) + " memo hits";
  if (budget_exhausted) out += " (budget exhausted)";
  out += "\n";
  if (steps.empty()) {
    out += "no rewrites applied\n";
  } else {
    out += "applied rewrites:\n";
    double running = original_cost;
    for (const RewriteStep& step : steps) {
      out += "  - " + step.rule;
      if (step.cost_after > 0 || step.rule != kRewriteBudgetExhausted) {
        out += " (cost " + FormatCost(running) + " -> " + FormatCost(step.cost_after) + ")";
        running = step.cost_after;
      }
      out += "\n";
    }
  }
  out += "final plan:\n" + chosen->ToString();
  return out;
}

Optimizer::Optimizer(const Catalog& catalog, OptimizerOptions options, const StatsCache* stats)
    : catalog_(catalog),
      options_(std::move(options)),
      engine_(RewriteEngine::Default()),
      search_engine_(RewriteEngine(SearchRuleSet())),
      stats_(stats) {}

OptimizationReport Optimizer::Optimize(const PlanPtr& plan) const {
  OptimizationReport report;
  report.original = plan;
  report.original_cost = EstimateCost(plan, catalog_, stats());
  RewriteContext context{&catalog_, options_.allow_runtime_checks};

  // The greedy fixpoint: a candidate the search must not lose to. Driven
  // step-by-step here (instead of engine_.Rewrite) so every step records
  // the whole-plan cost after it applied.
  std::vector<RewriteStep> greedy_steps;
  bool greedy_budget_exhausted = false;
  PlanPtr greedy = plan;
  for (size_t i = 0;; ++i) {
    RewriteStep step;
    PlanPtr next = engine_.RewriteOnce(greedy, context, &step);
    if (next == nullptr) break;  // converged
    if (i >= options_.max_rewrite_steps) {
      greedy_budget_exhausted = true;
      greedy_steps.push_back({kRewriteBudgetExhausted, "", "", 0});
      break;
    }
    step.cost_after = EstimateCost(next, catalog_, stats());
    greedy = std::move(next);
    greedy_steps.push_back(std::move(step));
  }
  double greedy_cost = greedy_steps.empty() ? report.original_cost
                                            : EstimateCost(greedy, catalog_, stats());
  report.greedy_cost = greedy_cost;

  MemoSearchOptions memo_options;
  memo_options.max_steps = options_.max_rewrite_steps;
  memo_options.max_candidates = options_.max_search_candidates;
  MemoSearchResult searched =
      MemoSearch(plan, search_engine_, context, catalog_, stats(), memo_options);
  report.search_candidates = searched.candidates;
  report.memo_hits = searched.memo_hits;
  report.budget_exhausted = searched.budget_exhausted || greedy_budget_exhausted;

  // Chosen = argmin over {original, greedy fixpoint, search best}. The
  // searched best is never worse than the original by construction;
  // comparing the greedy plan too keeps the guarantee "search is never
  // worse than greedy" even when the candidate budget stopped exploration
  // short of the greedy fixpoint's path.
  report.chosen = searched.best;
  report.chosen_cost = searched.best_cost;
  report.steps = std::move(searched.steps);
  if (!greedy_steps.empty() && greedy_cost < report.chosen_cost) {
    report.chosen = greedy;
    report.chosen_cost = greedy_cost;
    report.steps = std::move(greedy_steps);
  }
  return report;
}

Relation Optimizer::Run(const PlanPtr& plan, ExecProfile* profile,
                        OptimizationReport* report) const {
  OptimizationReport local = Optimize(plan);
  Relation result = ExecutePlan(local.chosen, catalog_, options_.planner, profile,
                                /*context=*/nullptr, &stats());
  if (profile != nullptr) {
    profile->search_candidates = local.search_candidates;
    profile->memo_hits = local.memo_hits;
  }
  if (report != nullptr) *report = std::move(local);
  return result;
}

}  // namespace quotient
