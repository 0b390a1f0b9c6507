// Morsel-driven parallel execution (docs/parallel_execution.md) must be
// indistinguishable from serial execution: these property tests run the
// same physical plans at threads ∈ {1, 2, 3, 8} — with the estimate-driven
// worker cap disabled, so morsels shrink to one batch and even the paper's
// fixtures split into many chunks — and require relations identical to the
// oracle (plan/evaluate) AND relations plus per-operator row accounting
// identical to a default one-worker run. The chunk-ordered merge makes this
// exact, not just set-equal: Relation equality is tuple-order-sensitive.

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "algebra/generator.hpp"
#include "algebra/ops.hpp"
#include "exec/batch.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_divide.hpp"
#include "exec/exec_great_divide.hpp"
#include "exec/pipeline.hpp"
#include "exec/scheduler.hpp"
#include "opt/planner.hpp"
#include "paper_fixtures.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

const size_t kThreadCounts[] = {1, 2, 3, 8};

/// Runs `plan` at one worker in the default configuration (the serial
/// reference), then at every thread count with the pipeline path forced on
/// (uncapped: one-batch morsels). Relations must match the oracle and the
/// serial run exactly; plan-wide row accounting must match the serial run.
void ExpectParallelAgreement(const PlanPtr& plan, const Catalog& catalog,
                             const PlannerOptions& options = {}, size_t batch_rows = 128) {
  const Relation oracle = Evaluate(plan, catalog);
  Relation reference;
  ExecProfile reference_profile;
  {
    ScopedExecThreads serial(1);
    reference = ExecutePlan(plan, catalog, options, &reference_profile);
  }
  EXPECT_EQ(reference, oracle) << "serial run diverged from the oracle";

  ScopedUncappedPipelines uncapped;
  ScopedBatchRows batches(batch_rows);
  for (size_t threads : kThreadCounts) {
    ScopedExecThreads scoped(threads);
    ExecProfile profile;
    Relation result = ExecutePlan(plan, catalog, options, &profile);
    EXPECT_EQ(result, oracle) << "threads=" << threads;
    EXPECT_EQ(result, reference) << "threads=" << threads;
    EXPECT_EQ(profile.total_rows, reference_profile.total_rows)
        << "rows_produced accounting diverged at threads=" << threads << "\nserial:\n"
        << reference_profile.explain << "parallel:\n"
        << profile.explain;
    EXPECT_EQ(profile.max_rows, reference_profile.max_rows) << "threads=" << threads;
  }
}

Catalog WorkloadCatalog() {
  Catalog catalog;
  // Paper fixtures (Laws 1-16 operate over these shapes).
  catalog.Put("fig1_r1", paper::Fig1Dividend());
  catalog.Put("fig1_r2", paper::Fig1Divisor());
  catalog.Put("fig4_r1", paper::Fig4Dividend());
  catalog.Put("fig4_r2", paper::Fig4Divisor());
  catalog.Put("fig2_r2", paper::Fig2Divisor());
  // Generated workloads large enough to split into many morsels.
  DataGen gen(0x9A7A11E1);
  catalog.Put("r1", gen.Dividend(/*groups=*/60, /*domain=*/32, /*density=*/0.4));
  catalog.Put("r2", gen.Divisor(/*size=*/10, /*domain=*/32));
  catalog.Put("gd", gen.GreatDivisor(/*groups=*/7, /*domain=*/32, /*density=*/0.25));
  catalog.Put("spj", Relation::Parse("s, p", "1,1; 1,2; 1,3; 2,1; 2,3; 3,2; 3,3; 4,1"));
  return catalog;
}

TEST(ParallelExecProperty, DivisionAllAlgorithmsAllThreadCounts) {
  Catalog catalog = WorkloadCatalog();
  for (const char* dividend : {"fig1_r1", "r1"}) {
    for (const char* divisor : {"fig1_r2", "r2"}) {
      PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, dividend),
                                       LogicalOp::Scan(catalog, divisor));
      for (DivisionAlgorithm algorithm :
           {DivisionAlgorithm::kHash, DivisionAlgorithm::kHashTransposed,
            DivisionAlgorithm::kMergeSort, DivisionAlgorithm::kHashCount,
            DivisionAlgorithm::kSortCount, DivisionAlgorithm::kNestedLoop}) {
        PlannerOptions options;
        options.division = algorithm;
        ExpectParallelAgreement(plan, catalog, options, /*batch_rows=*/3);
      }
    }
  }
}

TEST(ParallelExecProperty, GreatDivideBothAlgorithms) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::GreatDivide(LogicalOp::Scan(catalog, "r1"),
                                        LogicalOp::Scan(catalog, "gd"));
  for (GreatDivideAlgorithm algorithm :
       {GreatDivideAlgorithm::kHash, GreatDivideAlgorithm::kGroup}) {
    PlannerOptions options;
    options.great_divide = algorithm;
    ExpectParallelAgreement(plan, catalog, options, /*batch_rows=*/7);
  }
}

TEST(ParallelExecProperty, FilterFeedsBufferedParallelPipeline) {
  // A filter between scan and division makes the pipeline source
  // non-splittable: the executor buffers the filtered batches and
  // parallelizes the sink kernels over chunk groups of them.
  Catalog catalog = WorkloadCatalog();
  ExprPtr predicate = Expr::And(Expr::ColCmp("b", CmpOp::kLt, V(24)),
                                Expr::Compare(CmpOp::kNe, Expr::Column("a"), Expr::Column("b")));
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Select(LogicalOp::Scan(catalog, "r1"), predicate),
      LogicalOp::Scan(catalog, "r2"));
  ExpectParallelAgreement(plan, catalog, {}, /*batch_rows=*/5);
}

TEST(ParallelExecProperty, RenameChainStaysSplittable) {
  // ρ over a scan is morsel-splittable; the bypassed chain must still be
  // credited with exact row counts.
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::NaturalJoin(
      LogicalOp::Scan(catalog, "r1"),
      LogicalOp::Rename(LogicalOp::Scan(catalog, "spj"), {{"s", "a"}, {"p", "x"}}));
  ExpectParallelAgreement(plan, catalog, {}, /*batch_rows=*/3);
}

TEST(ParallelExecProperty, JoinsAllThreadCounts) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr spj = LogicalOp::Scan(catalog, "spj");
  ExpectParallelAgreement(
      LogicalOp::ThetaJoin(spj, LogicalOp::Rename(spj, {{"s", "s2"}, {"p", "p2"}}),
                           Expr::ColEqCol("p", "p2")),
      catalog, {}, /*batch_rows=*/3);
  // × and a non-equi θ-join: the right side is one bucket, so output
  // batches split inside a left row's run of right rows.
  PlanPtr spj2 = LogicalOp::Rename(spj, {{"s", "s2"}, {"p", "p2"}});
  ExprPtr b_lt_p2 = Expr::Compare(CmpOp::kLt, Expr::Column("b"), Expr::Column("p2"));
  ExpectParallelAgreement(LogicalOp::Product(r1, spj2), catalog, {}, /*batch_rows=*/3);
  ExpectParallelAgreement(LogicalOp::ThetaJoin(r1, spj2, b_lt_p2), catalog, {}, /*batch_rows=*/3);
  ExpectParallelAgreement(LogicalOp::SemiJoin(r1, LogicalOp::Scan(catalog, "r2")), catalog, {},
                          /*batch_rows=*/16);
  ExpectParallelAgreement(LogicalOp::AntiJoin(r1, LogicalOp::Scan(catalog, "r2")), catalog, {},
                          /*batch_rows=*/16);
}

TEST(ParallelExecProperty, GroupByAggregates) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::GroupBy(
      LogicalOp::Scan(catalog, "r1"), {"a"},
      {{AggFunc::kCount, "", "n"},
       {AggFunc::kSum, "b", "sum_b"},
       {AggFunc::kMin, "b", "min_b"},
       {AggFunc::kMax, "b", "max_b"},
       {AggFunc::kAvg, "b", "avg_b"}});
  ExpectParallelAgreement(plan, catalog, {}, /*batch_rows=*/9);
  // Global aggregate: one output row regardless of chunking.
  ExpectParallelAgreement(
      LogicalOp::GroupBy(LogicalOp::Scan(catalog, "r1"), {}, {{AggFunc::kCount, "", "n"}}),
      catalog, {}, /*batch_rows=*/9);
}

TEST(ParallelExecProperty, SetOperationsAndHealyExpansion) {
  Catalog catalog = WorkloadCatalog();
  DataGen gen(0x5E7);
  catalog.Put("r1b", gen.Dividend(30, 32, 0.3));
  PlanPtr left = LogicalOp::Scan(catalog, "r1");
  PlanPtr right = LogicalOp::Project(LogicalOp::Scan(catalog, "r1b"), {"b", "a"});
  ExpectParallelAgreement(LogicalOp::Union(left, right), catalog);
  ExpectParallelAgreement(LogicalOp::Intersect(left, right), catalog);
  ExpectParallelAgreement(LogicalOp::Difference(left, right), catalog);
  // Healy's basic-algebra expansion stacks ×, − and π over the pipelines.
  PlannerOptions options;
  options.expand_divide = true;
  ExpectParallelAgreement(LogicalOp::Divide(LogicalOp::Scan(catalog, "fig1_r1"),
                                            LogicalOp::Scan(catalog, "fig1_r2")),
                          catalog, options, /*batch_rows=*/3);
}

TEST(ParallelExecProperty, EmptyInputsEverywhere) {
  Catalog catalog;
  catalog.Put("empty_ab", Relation(Schema::Parse("a, b")));
  catalog.Put("empty_b", Relation(Schema::Parse("b")));
  catalog.Put("r1", Relation::Parse("a, b", "1,1; 1,2; 2,1"));
  catalog.Put("r2", Relation::Parse("b", "1; 2"));
  PlanPtr empty_ab = LogicalOp::Scan(catalog, "empty_ab");
  PlanPtr empty_b = LogicalOp::Scan(catalog, "empty_b");
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr r2 = LogicalOp::Scan(catalog, "r2");
  ExpectParallelAgreement(LogicalOp::Divide(empty_ab, r2), catalog, {}, 2);
  ExpectParallelAgreement(LogicalOp::Divide(r1, empty_b), catalog, {}, 2);
  ExpectParallelAgreement(LogicalOp::NaturalJoin(r1, empty_ab), catalog, {}, 2);
  ExpectParallelAgreement(LogicalOp::GroupBy(empty_ab, {"a"}, {{AggFunc::kCount, "", "n"}}),
                          catalog, {}, 2);
}

TEST(ParallelExecProperty, StringKeysAndSpillPath) {
  DataGen gen(0xABCD);
  Catalog catalog;
  catalog.Put("r1s", StringifyAttribute(gen.Dividend(40, 16, 0.4), "b"));
  catalog.Put("r2s", StringifyAttribute(gen.Divisor(5, 16), "b"));
  ExpectParallelAgreement(LogicalOp::Divide(LogicalOp::Scan(catalog, "r1s"),
                                            LogicalOp::Scan(catalog, "r2s")),
                          catalog, {}, /*batch_rows=*/7);

  // 18 wide B columns force the divisor codec past 64 bits into
  // SmallByteKey spill keys; the chunk merges must translate those too.
  DataGen wide_gen(0x5B111);
  constexpr size_t kNumB = 18;
  Relation wide = wide_gen.DividendWide(/*groups=*/8, /*num_a=*/1, kNumB,
                                        /*domain=*/300, /*density=*/0.2);
  std::vector<size_t> b_idx;
  for (size_t i = 1; i <= kNumB; ++i) b_idx.push_back(i);
  std::vector<Tuple> divisor_rows;
  for (const Tuple& t : wide.tuples()) {
    if (wide_gen.Chance(0.2)) divisor_rows.push_back(ProjectTuple(t, b_idx));
  }
  std::vector<std::string> b_names;
  for (size_t i = 1; i <= kNumB; ++i) b_names.push_back("b" + std::to_string(i));
  catalog.Put("wide", wide);
  catalog.Put("wide_divisor", Relation(wide.schema().Project(b_names), std::move(divisor_rows)));
  ExpectParallelAgreement(LogicalOp::Divide(LogicalOp::Scan(catalog, "wide"),
                                            LogicalOp::Scan(catalog, "wide_divisor")),
                          catalog, {}, /*batch_rows=*/7);
}

TEST(ParallelExecProperty, RandomizedPlansAgainstOracle) {
  DataGen gen(0xF00D);
  ScopedUncappedPipelines uncapped;
  for (int round = 0; round < 12; ++round) {
    Catalog catalog;
    catalog.Put("r1", gen.Dividend(gen.UniformInt(0, 16), gen.UniformInt(1, 10), 0.4));
    catalog.Put("r2", gen.Divisor(gen.UniformInt(0, 6), 10));
    PlanPtr plan = LogicalOp::Divide(
        LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                          Expr::ColCmp("a", CmpOp::kGe, V(gen.UniformInt(0, 3)))),
        LogicalOp::Scan(catalog, "r2"));
    ScopedBatchRows batches(static_cast<size_t>(gen.UniformInt(1, 32)));
    gen.UniformInt(2, 32);  // unused draw: keeps every later round's data stable
    ScopedExecThreads threads(kThreadCounts[round % 4]);
    EXPECT_EQ(ExecutePlan(plan, catalog), Evaluate(plan, catalog)) << "round " << round;
  }
}

TEST(ParallelExecProperty, PartitionedGreatDivideMatchesSingleThread) {
  // Law 13 as a strategy, now scheduled on the shared worker pool: the
  // partition count and the pool's thread count vary independently and the
  // result never changes.
  DataGen gen(0x1A13);
  Relation dividend = gen.Dividend(50, 24, 0.4);
  Relation divisor = gen.GreatDivisor(6, 24, 0.3);
  Relation reference = ExecGreatDivide(dividend, divisor, GreatDivideAlgorithm::kHash);
  for (size_t partitions : {1, 2, 3, 5}) {
    for (size_t threads : kThreadCounts) {
      ScopedExecThreads scoped(threads);
      EXPECT_EQ(GreatDividePartitioned(dividend, divisor, partitions), reference)
          << "partitions=" << partitions << " threads=" << threads;
    }
  }
}

// --- executor unit tests ----------------------------------------------------

TEST(ParallelExecUnit, ExplainReportsDegreeOfParallelism) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"),
                                   LogicalOp::Scan(catalog, "r2"));
  ScopedUncappedPipelines uncapped;
  ScopedBatchRows batches(8);
  ScopedExecThreads threads(4);
  ExecProfile profile;
  ExecutePlan(plan, catalog, {}, &profile);
  EXPECT_GE(profile.max_dop, 2u) << profile.explain;
  EXPECT_NE(profile.explain.find("dop="), std::string::npos) << profile.explain;
  EXPECT_NE(profile.pipelines.find("pipeline 0"), std::string::npos) << profile.pipelines;
  EXPECT_NE(profile.pipelines.find("dop="), std::string::npos) << profile.pipelines;
}

TEST(ParallelExecUnit, TinyInputsDrainAtDopOne) {
  // The estimate-driven worker cap gives inputs under two morsels one
  // worker: at 4 threads every drain of the paper's fixture runs serially.
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "fig1_r1"),
                                   LogicalOp::Scan(catalog, "fig1_r2"));
  ScopedExecThreads threads(4);
  ExecProfile profile;
  Relation result = ExecutePlan(plan, catalog, {}, &profile);
  EXPECT_EQ(result, paper::Fig1Quotient());
  EXPECT_EQ(profile.max_dop, 1u) << profile.explain;
  EXPECT_NE(profile.explain.find("dop=1"), std::string::npos) << profile.explain;
  EXPECT_EQ(profile.explain.find("dop=4"), std::string::npos) << profile.explain;
}

TEST(ParallelExecUnit, PipelineDecompositionSplitsAtBreakers) {
  Catalog catalog = WorkloadCatalog();
  PlanPtr plan = LogicalOp::Divide(
      LogicalOp::Select(LogicalOp::Scan(catalog, "r1"), Expr::ColCmp("b", CmpOp::kLt, V(20))),
      LogicalOp::Scan(catalog, "r2"));
  IterPtr root = BuildPhysicalPlan(plan, catalog);
  std::vector<PipelineDesc> pipelines = DecomposePipelines(*root);
  // Dividend drain, divisor drain, and the root's own output pipeline.
  ASSERT_EQ(pipelines.size(), 3u);
  EXPECT_EQ(pipelines[0].sink, root.get());
  EXPECT_EQ(pipelines[1].sink, root.get());
  EXPECT_EQ(pipelines[2].sink, root.get());
  EXPECT_EQ(pipelines[2].ops.back(), root.get());  // output pipeline contains the root
}

TEST(ParallelExecUnit, AppendTranslatedReproducesSerialIdAssignment) {
  // Two chunk-local codecs over disjoint-ish value ranges merge into the
  // exact row/id layout a serial scan would have produced.
  std::vector<size_t> indices = {0, 1};
  Relation rows = Relation::Parse("a, b", "10,1; 20,1; 10,2; 30,1; 20,2; 40,3");
  KeyCodec serial(2);
  for (const Tuple& t : rows.tuples()) serial.Add(t, indices);

  KeyCodec merged(2);
  KeyCodec part1(2), part2(2);
  for (size_t i = 0; i < 3; ++i) part1.Add(rows.tuples()[i], indices);
  for (size_t i = 3; i < 6; ++i) part2.Add(rows.tuples()[i], indices);
  merged.AppendTranslated(part1);
  merged.AppendTranslated(part2);

  ASSERT_EQ(merged.rows(), serial.rows());
  serial.Seal();
  merged.Seal();
  for (size_t i = 0; i < serial.rows(); ++i) {
    EXPECT_EQ(merged.PackedKey(i), serial.PackedKey(i)) << "row " << i;
  }
}

TEST(ParallelExecUnit, CatalogEncodingSharedUnderConcurrentRequests) {
  Catalog catalog;
  DataGen gen(0xCAFE);
  catalog.Put("t", gen.Dividend(200, 64, 0.3));
  constexpr size_t kRequesters = 8;
  std::vector<TableEncodingPtr> seen(kRequesters);
  std::vector<std::thread> threads;
  threads.reserve(kRequesters);
  for (size_t i = 0; i < kRequesters; ++i) {
    threads.emplace_back([&, i] { seen[i] = catalog.Encoding("t"); });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 1; i < kRequesters; ++i) {
    EXPECT_EQ(seen[i].get(), seen[0].get()) << "request " << i << " built a duplicate encoding";
  }
  EXPECT_EQ(seen[0]->rows, catalog.Get("t").size());
}

TEST(ParallelExecUnit, NestedParallelForRunsInline) {
  // A task may itself start a parallel region (GreatDividePartitioned's
  // partitions contain divisions with their own pipelines). Nested regions
  // must run inline — both on pool workers and on the draining owner
  // thread, where re-acquiring the region mutex would deadlock.
  ScopedExecThreads threads(4);
  std::atomic<size_t> inner_runs{0};
  ParallelFor(8, [&](size_t) {
    ParallelFor(8, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 64u);
}

TEST(ParallelExecProperty, PartitionedGreatDivideWithNestedParallelDrains) {
  // Large dividend + one-batch morsels: the per-partition divisions want
  // parallel drains while the partitions themselves occupy the pool.
  DataGen gen(0xD1B);
  Relation dividend = gen.Dividend(120, 24, 0.4);
  Relation divisor = gen.GreatDivisor(5, 24, 0.3);
  ScopedUncappedPipelines uncapped;
  ScopedBatchRows batches(16);
  Relation reference;
  {
    ScopedExecThreads one(1);
    reference = GreatDividePartitioned(dividend, divisor, /*threads=*/3);
  }
  for (size_t threads : kThreadCounts) {
    ScopedExecThreads scoped(threads);
    EXPECT_EQ(GreatDividePartitioned(dividend, divisor, /*threads=*/3), reference)
        << "threads=" << threads;
  }
}

TEST(ParallelExecUnit, SchedulerRunsEveryTaskExactlyOnceAndPropagatesErrors) {
  for (size_t threads : kThreadCounts) {
    ScopedExecThreads scoped(threads);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
  ScopedExecThreads scoped(4);
  EXPECT_THROW(
      ParallelFor(64, [](size_t i) { if (i == 13) throw std::runtime_error("boom"); }),
      std::runtime_error);
  // The pool survives a throwing region.
  std::atomic<size_t> ran{0};
  ParallelFor(32, [&](size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 32u);
}

TEST(ParallelExecUnit, BackToBackRegionsNeverLeakTasksAcrossRegions) {
  // Rapid consecutive regions: a worker waking late off an old region's
  // generation bump must find an invalidated job slot, never a dangling
  // function or the next region's counters.
  ScopedExecThreads threads(8);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> hits{0};
    size_t tasks = 2 + static_cast<size_t>(round % 7);
    ParallelFor(tasks, [&](size_t) { hits.fetch_add(1); });
    ASSERT_EQ(hits.load(), tasks) << "round " << round;
  }
}

}  // namespace
}  // namespace quotient
