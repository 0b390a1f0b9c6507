// Cost-guided rewrite search (opt/memo.hpp, docs/optimizer.md): the
// memoized best-first exploration must never pick a plan the cost model
// scores worse than the original OR the greedy fixpoint, must stay
// bit-identical to the reference evaluator whatever it picks (rewrites are
// equivalences, search only reorders them), and must surface its budget
// truncation instead of silently reading as convergence.

#include <gtest/gtest.h>

#include <vector>

#include "api/session.hpp"
#include "core/engine.hpp"
#include "exec/batch.hpp"
#include "exec/pipeline.hpp"
#include "exec/scheduler.hpp"
#include "opt/memo.hpp"
#include "opt/optimizer.hpp"
#include "paper_fixtures.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

class OptimizerSearchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.Put("r1", paper::Fig4Dividend());
    catalog_.Put("r2", paper::Fig4Divisor());
    catalog_.Put("gd_divisor", paper::Fig2Divisor());
    catalog_.Put("fig1_r1", paper::Fig1Dividend());
    catalog_.Put("fig1_r2", paper::Fig1Divisor());
  }

  PlanPtr Scan(const std::string& name) { return LogicalOp::Scan(catalog_, name); }

  /// Law-shaped corpus: every plan offers at least one rewrite, several
  /// offer alternatives at more than one site (where greedy commits and
  /// search explores).
  std::vector<PlanPtr> Corpus() {
    std::vector<PlanPtr> corpus;
    // Law 3: selection over a division.
    corpus.push_back(LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                       Expr::ColCmp("a", CmpOp::kGe, V(2))));
    // Laws 8/9: product dividend.
    corpus.push_back(LogicalOp::Divide(
        LogicalOp::Product(LogicalOp::Values(Relation::Parse("z", "1; 2"), "star"),
                           Scan("r1")),
        Scan("r2")));
    // Law 1 (search-only rule): union divisor.
    corpus.push_back(LogicalOp::Divide(
        Scan("r1"), LogicalOp::Union(LogicalOp::Values(paper::Fig4DivisorPrime()),
                                     LogicalOp::Values(paper::Fig4DivisorPrimePrime()))));
    // Two independent rewrite sites: orders converge on one fixpoint (memo
    // deduplicates the middle states).
    PlanPtr inner = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                      Expr::ColCmp("a", CmpOp::kGe, V(2)));
    corpus.push_back(LogicalOp::Union(inner, inner));
    // Law 5 shape: division by an intersection.
    corpus.push_back(LogicalOp::Divide(
        Scan("r1"), LogicalOp::Intersect(Scan("r2"), LogicalOp::Values(paper::Fig4DivisorPrime()))));
    // Stacked opportunities: selection over a product dividend.
    corpus.push_back(LogicalOp::Select(
        LogicalOp::Divide(LogicalOp::Product(LogicalOp::Values(
                                                 Relation::Parse("z", "1; 2"), "star"),
                                             Scan("r1")),
                          Scan("r2")),
        Expr::ColCmp("a", CmpOp::kGe, V(3))));
    return corpus;
  }

  Catalog catalog_;
};

TEST_F(OptimizerSearchTest, SearchedCostNeverWorseThanOriginalOrGreedy) {
  OptimizerOptions search_on;
  OptimizerOptions search_off;
  search_off.search = false;
  Optimizer searched(catalog_, search_on);
  Optimizer greedy(catalog_, search_off);
  for (const PlanPtr& plan : Corpus()) {
    OptimizationReport with = searched.Optimize(plan);
    OptimizationReport without = greedy.Optimize(plan);
    EXPECT_LE(with.chosen_cost, with.original_cost) << plan->ToString();
    EXPECT_LE(with.chosen_cost, with.greedy_cost) << plan->ToString();
    // The greedy path's own chosen plan is also in the searched space.
    EXPECT_LE(with.chosen_cost, without.chosen_cost) << plan->ToString();
  }
}

TEST_F(OptimizerSearchTest, SearchOnOffDifferentialAcrossThreadCounts) {
  OptimizerOptions search_on;
  OptimizerOptions search_off;
  search_off.search = false;
  Optimizer searched(catalog_, search_on);
  Optimizer greedy(catalog_, search_off);
  ScopedUncappedPipelines uncapped;
  ScopedBatchRows batches(64);
  for (const PlanPtr& plan : Corpus()) {
    Relation reference = Evaluate(plan, catalog_);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      ScopedExecThreads scoped(threads);
      EXPECT_EQ(searched.Run(plan), reference)
          << "search=on diverged at threads=" << threads << "\n" << plan->ToString();
      EXPECT_EQ(greedy.Run(plan), reference)
          << "search=off diverged at threads=" << threads << "\n" << plan->ToString();
    }
  }
}

TEST_F(OptimizerSearchTest, MemoDeduplicatesConvergingRewriteOrders) {
  // Two independent Law 3 sites: applying them in either order reaches the
  // same plan, which the memo must recognize instead of re-exploring.
  PlanPtr inner = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                    Expr::ColCmp("a", CmpOp::kGe, V(2)));
  PlanPtr plan = LogicalOp::Union(inner->WithChildren({inner->child(0)}), inner);
  Optimizer optimizer(catalog_);
  OptimizationReport report = optimizer.Optimize(plan);
  EXPECT_GT(report.search_candidates, 1u);
  EXPECT_GT(report.memo_hits, 0u) << "converging orders were not deduplicated";
}

TEST_F(OptimizerSearchTest, ExhaustedRewriteBudgetIsSurfacedNotSilent) {
  OptimizerOptions options;
  options.search = false;
  options.max_rewrite_steps = 0;
  Optimizer optimizer(catalog_, options);
  PlanPtr plan = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                   Expr::ColCmp("a", CmpOp::kGe, V(2)));
  OptimizationReport report = optimizer.Optimize(plan);
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_NE(report.Explain().find("budget exhausted"), std::string::npos);
}

TEST_F(OptimizerSearchTest, ExhaustedCandidateBudgetIsSurfaced) {
  OptimizerOptions options;
  options.max_search_candidates = 2;  // original + one alternative
  Optimizer optimizer(catalog_, options);
  PlanPtr plan = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                   Expr::ColCmp("a", CmpOp::kGe, V(2)));
  OptimizationReport report = optimizer.Optimize(plan);
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_LE(report.search_candidates, 2u);
  // Budget or not, the chosen plan still computes the right answer.
  EXPECT_EQ(Evaluate(report.chosen, catalog_), Evaluate(plan, catalog_));
}

TEST_F(OptimizerSearchTest, ExplainReportsPerStepCostDeltas) {
  Optimizer optimizer(catalog_);
  PlanPtr plan = LogicalOp::Select(LogicalOp::Divide(Scan("r1"), Scan("r2")),
                                   Expr::ColCmp("a", CmpOp::kGe, V(2)));
  OptimizationReport report = optimizer.Optimize(plan);
  ASSERT_FALSE(report.steps.empty());
  std::string text = report.Explain();
  EXPECT_NE(text.find("original cost:"), std::string::npos);
  EXPECT_NE(text.find("greedy cost:"), std::string::npos);
  EXPECT_NE(text.find("chosen cost:"), std::string::npos);
  EXPECT_NE(text.find("candidates"), std::string::npos);
  EXPECT_NE(text.find(" -> "), std::string::npos) << "no per-step cost delta:\n" << text;
  for (const RewriteStep& step : report.steps) {
    if (step.rule == kRewriteBudgetExhausted) continue;
    EXPECT_NE(text.find(step.rule), std::string::npos);
  }
}

TEST_F(OptimizerSearchTest, SearchFindsRewriteGreedyCannotReach) {
  // Law 1 lives only in the search rule set (its semi-join form lost the
  // default-set bake-off), so a union-divisor plan is invisible to the
  // greedy fixpoint. The search may only adopt it when the model scores it
  // cheaper — and whatever it picks must stay correct.
  PlanPtr plan = LogicalOp::Divide(
      Scan("r1"), LogicalOp::Union(LogicalOp::Values(paper::Fig4DivisorPrime()),
                                   LogicalOp::Values(paper::Fig4DivisorPrimePrime())));
  OptimizerOptions search_off;
  search_off.search = false;
  OptimizationReport greedy = Optimizer(catalog_, search_off).Optimize(plan);
  EXPECT_TRUE(greedy.steps.empty()) << "greedy unexpectedly rewrote the union divisor";
  OptimizationReport searched = Optimizer(catalog_).Optimize(plan);
  EXPECT_GT(searched.search_candidates, 1u) << "search never explored the Law 1 rewrite";
  EXPECT_LE(searched.chosen_cost, greedy.chosen_cost);
  EXPECT_EQ(Evaluate(searched.chosen, catalog_), Evaluate(plan, catalog_));
}

// ------------------------------------------------- database observability

TEST(OptimizerStatsTest, LawFiresAndSearchTalliesAggregateAcrossCompiles) {
  Session session;
  ASSERT_TRUE(session.CreateTable("supplies", paper::SuppliesTable()).ok());
  ASSERT_TRUE(session.CreateTable("parts", paper::PartsTable()).ok());
  // σ over a great divide: Laws 14/15 push the selection through, so the
  // chosen plan's trace is non-empty.
  const char* divide_sql =
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p# "
      "WHERE color = 'red'";
  ASSERT_TRUE(session.Execute(divide_sql).ok());
  ASSERT_TRUE(session.Execute(divide_sql).ok());  // cache hit: no re-count
  DatabaseStats stats = session.database()->Stats();
  uint64_t total_fires = 0;
  for (const auto& [rule, fires] : stats.optimizer.law_fires) {
    EXPECT_FALSE(rule.empty());
    EXPECT_NE(rule.front(), '(') << "trace markers must not be counted as laws";
    total_fires += fires;
  }
  EXPECT_GT(total_fires, 0u);
  EXPECT_GE(stats.optimizer.searched_compiles, 1u);
  // One compile, one cache hit: the tallies measure optimizer work, so the
  // second execution must not have doubled them.
  uint64_t after_first = total_fires;
  ASSERT_TRUE(session.Execute(divide_sql).ok());
  DatabaseStats again = session.database()->Stats();
  uint64_t total_again = 0;
  for (const auto& [rule, fires] : again.optimizer.law_fires) total_again += fires;
  EXPECT_EQ(total_again, after_first);
}

TEST(OptimizerStatsTest, FallbackExecutionsTallyByReason) {
  Session session;
  ASSERT_TRUE(session.CreateTable("supplies", paper::SuppliesTable()).ok());
  ASSERT_TRUE(session.CreateTable("parts", paper::PartsTable()).ok());
  // Correlated NOT EXISTS has no plan lowering; the oracle interpreter runs.
  const char* oracle_sql =
      "SELECT DISTINCT s#, color "
      "FROM supplies AS s1, parts AS p1 "
      "WHERE NOT EXISTS ("
      "  SELECT * FROM parts AS p2 "
      "  WHERE p2.color = p1.color AND NOT EXISTS ("
      "    SELECT * FROM supplies AS s2 "
      "    WHERE s2.p# = p2.p# AND s2.s# = s1.s#))";
  ASSERT_TRUE(session.Execute(oracle_sql).ok());
  ASSERT_TRUE(session.Execute(oracle_sql).ok());
  DatabaseStats stats = session.database()->Stats();
  uint64_t fallback_runs = 0;
  for (const auto& [reason, runs] : stats.optimizer.fallback_reasons) {
    EXPECT_FALSE(reason.empty());
    fallback_runs += runs;
  }
  // Unlike compile tallies these count EXECUTIONS: both runs tally even
  // though the second was a plan-cache hit.
  EXPECT_EQ(fallback_runs, 2u);
}

TEST(OptimizerStatsTest, ProfileReportsSearchWorkOnlyOnCompileMiss) {
  Session session;
  ASSERT_TRUE(session.CreateTable("supplies", paper::SuppliesTable()).ok());
  ASSERT_TRUE(session.CreateTable("parts", paper::PartsTable()).ok());
  const char* divide_sql =
      "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#";
  Result<QueryResult> first = session.Execute(divide_sql);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first.value().profile.search_candidates, 0u);
  EXPECT_EQ(first.value().compile.search_candidates,
            first.value().profile.search_candidates);
  Result<QueryResult> second = session.Execute(divide_sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().profile.plan_cache_hit);
  EXPECT_EQ(second.value().profile.search_candidates, 0u)
      << "a cache hit performed no search, its profile must not claim one";
}

}  // namespace
}  // namespace quotient
