// Cost-guided rewrite search (opt/memo.hpp, docs/optimizer.md): what the
// memoized exploration costs at compile time, and what it buys at run time.
//
//   Optimize/greedy vs Optimize/search  — the greedy fixpoint alone
//       (RewriteEngine::Default().Rewrite plus EstimateCost of its result)
//       vs Optimizer::Optimize, which runs that fixpoint AND the best-first
//       exploration, on a law-rich plan (the search visits every
//       alternative the greedy path skips).
//   LawChoice/greedy vs LawChoice/search — execution of the greedy
//       fixpoint plan vs the plan Optimize picks for a union-divisor query.
//       Law 1 lives only in the search rule set, so greedy runs the
//       original r1 ÷ (r2' ∪ r2'') while the search may adopt the semi-join
//       form when the model scores it cheaper: the gap is what cost-driven
//       choice is worth end to end.

#include "bench_common.hpp"
#include "opt/optimizer.hpp"

namespace quotient {
namespace {

/// σ over ÷ over ×: selection pushdown, product laws, and their orderings
/// all compete — a dense search space from a small plan.
PlanPtr LawRichPlan(const Catalog& catalog) {
  PlanPtr divide = LogicalOp::Divide(
      LogicalOp::Product(LogicalOp::Values(Relation::Parse("z", "1; 2"), "star"),
                         LogicalOp::Scan(catalog, "r1")),
      LogicalOp::Scan(catalog, "r2"));
  return LogicalOp::Select(divide, Expr::ColCmp("a", CmpOp::kLt, V(64)));
}

void BM_Optimize(benchmark::State& state, bool search) {
  auto workload = bench::MakeDivisionWorkload(/*groups=*/2048, /*domain=*/64,
                                              /*divisor_size=*/16);
  Catalog catalog;
  catalog.Put("r1", workload.dividend);
  catalog.Put("r2", workload.divisor);
  // One long-lived stats cache, like a snapshot's: harvests are warm, the
  // loop measures pure exploration + costing.
  StatsCache stats;
  Optimizer optimizer(catalog, {}, &stats);
  RewriteEngine greedy = RewriteEngine::Default();
  RewriteContext context{&catalog, /*allow_runtime_checks=*/false};
  PlanPtr plan = LawRichPlan(catalog);
  (void)optimizer.Optimize(plan);  // warm the stats harvests
  size_t candidates = 0;
  for (auto _ : state) {
    if (search) {
      OptimizationReport report = optimizer.Optimize(plan);
      candidates = report.search_candidates;
      benchmark::DoNotOptimize(report.chosen_cost);
    } else {
      benchmark::DoNotOptimize(EstimateCost(greedy.Rewrite(plan, context), catalog, stats));
    }
  }
  state.counters["candidates"] = static_cast<double>(candidates);
}

void BM_LawChoice(benchmark::State& state, bool search) {
  // Union divisor: only the search rule set carries Law 1, so greedy and
  // search can genuinely pick different plans for the same query. The shape
  // is tuned so Law 1 wins the cost race: many near-singleton groups make
  // the divide's per-group bitmap work dominate the scans, and the thin
  // first divisor slice prunes nearly every candidate before the wide
  // second slice ever gets checked.
  DataGen gen(42);
  Relation full_divisor = gen.Divisor(/*size=*/4096, /*domain=*/8192);
  Relation dividend = gen.DividendWithHits(/*groups=*/16384, /*hit_groups=*/4,
                                           full_divisor, /*domain=*/8192,
                                           /*density=*/0.001);
  Catalog catalog;
  catalog.Put("r1", dividend);
  // Split the divisor into a thin prefix and a wide tail united in the plan.
  std::vector<Tuple> first(full_divisor.tuples().begin(),
                           full_divisor.tuples().begin() + 64);
  std::vector<Tuple> second(full_divisor.tuples().begin() + 64,
                            full_divisor.tuples().end());
  catalog.Put("r2a", Relation(full_divisor.schema(), std::move(first)));
  catalog.Put("r2b", Relation(full_divisor.schema(), std::move(second)));

  StatsCache stats;
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Scan(catalog, "r1"),
      LogicalOp::Union(LogicalOp::Scan(catalog, "r2a"), LogicalOp::Scan(catalog, "r2b")));
  PlanPtr chosen;
  std::vector<RewriteStep> steps;
  if (search) {
    OptimizationReport report = Optimizer(catalog, {}, &stats).Optimize(plan);
    chosen = report.chosen;
    steps = std::move(report.steps);
  } else {
    RewriteContext context{&catalog, /*allow_runtime_checks=*/false};
    chosen = RewriteEngine::Default().Rewrite(plan, context, &steps);
  }
  for (auto _ : state) {
    Relation q = ExecutePlan(chosen, catalog, {}, nullptr, nullptr, &stats);
    benchmark::DoNotOptimize(q);
  }
  state.counters["chosen_cost"] = EstimateCost(chosen, catalog, stats);
  state.counters["rewrites"] = static_cast<double>(steps.size());
}

}  // namespace
}  // namespace quotient

int main(int argc, char** argv) {
  using namespace quotient;
  for (bool search : {false, true}) {
    benchmark::RegisterBenchmark(search ? "Optimize/search" : "Optimize/greedy",
                                 [search](benchmark::State& s) { BM_Optimize(s, search); })
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(search ? "LawChoice/search" : "LawChoice/greedy",
                                 [search](benchmark::State& s) { BM_LawChoice(s, search); })
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
