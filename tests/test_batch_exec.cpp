// Batched columnar execution (docs/batched_execution.md) must be
// indistinguishable from the relational-algebra oracle (plan/evaluate):
// these property tests run the same physical plans at one worker across
// batch sizes that straddle every boundary (1, 1023, 1024, 1025), empty
// inputs, string keys, and keys wide enough to take the SmallByteKey spill
// path, and require relations identical to the oracle AND per-operator row
// counts identical to the default 1024-row batch size.

#include <gtest/gtest.h>

#include <functional>

#include "algebra/divide.hpp"
#include "algebra/generator.hpp"
#include "algebra/ops.hpp"
#include "exec/batch.hpp"
#include "exec/exec_basic.hpp"
#include "exec/exec_divide.hpp"
#include "exec/exec_great_divide.hpp"
#include "exec/exec_join.hpp"
#include "exec/scheduler.hpp"
#include "opt/planner.hpp"
#include "paper_fixtures.hpp"
#include "plan/evaluate.hpp"

namespace quotient {
namespace {

const size_t kBoundarySizes[] = {1, 3, 1023, 1024, 1025};

/// Runs `plan` serially at each boundary batch size; every relation must
/// equal the semantics oracle, and the plan-wide row accounting must match
/// the default 1024-row run exactly.
void ExpectBatchSizeAgreement(const PlanPtr& plan, const Catalog& catalog,
                              const PlannerOptions& options = {}) {
  const Relation oracle = Evaluate(plan, catalog);
  ScopedExecThreads serial(1);
  ExecProfile reference_profile;
  {
    ScopedBatchRows scoped(1024);
    EXPECT_EQ(ExecutePlan(plan, catalog, options, &reference_profile), oracle);
  }
  for (size_t batch_rows : kBoundarySizes) {
    ScopedBatchRows scoped(batch_rows);
    ExecProfile profile;
    Relation result = ExecutePlan(plan, catalog, options, &profile);
    EXPECT_EQ(result, oracle) << "batch_rows=" << batch_rows;
    EXPECT_EQ(profile.total_rows, reference_profile.total_rows)
        << "rows_produced accounting diverged at batch_rows=" << batch_rows << "\n1024:\n"
        << reference_profile.explain << "batch:\n"
        << profile.explain;
    EXPECT_EQ(profile.max_rows, reference_profile.max_rows) << "batch_rows=" << batch_rows;
  }
}

Catalog SuppliersCatalog() {
  Catalog catalog;
  catalog.Put("spj", Relation::Parse("s, p", "1,1; 1,2; 1,3; 2,1; 2,3; 3,2; 3,3; 4,1"));
  catalog.Put("parts", Relation::Parse("p", "1; 3"));
  DataGen gen(0xBA7C4);
  catalog.Put("r1", gen.Dividend(/*groups=*/40, /*domain=*/24, /*density=*/0.4));
  catalog.Put("r2", gen.Divisor(/*size=*/8, /*domain=*/24));
  catalog.Put("gd", gen.GreatDivisor(/*groups=*/6, /*domain=*/24, /*density=*/0.25));
  return catalog;
}

TEST(BatchExecProperty, DivisionAllAlgorithmsAllBatchSizes) {
  Catalog catalog = SuppliersCatalog();
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"),
                                   LogicalOp::Scan(catalog, "r2"));
  for (DivisionAlgorithm algorithm :
       {DivisionAlgorithm::kHash, DivisionAlgorithm::kHashTransposed,
        DivisionAlgorithm::kMergeSort, DivisionAlgorithm::kHashCount,
        DivisionAlgorithm::kSortCount, DivisionAlgorithm::kNestedLoop}) {
    PlannerOptions options;
    options.division = algorithm;
    ExpectBatchSizeAgreement(plan, catalog, options);
  }
}

TEST(BatchExecProperty, GreatDivideBothAlgorithms) {
  Catalog catalog = SuppliersCatalog();
  PlanPtr plan = LogicalOp::GreatDivide(LogicalOp::Scan(catalog, "r1"),
                                        LogicalOp::Scan(catalog, "gd"));
  for (GreatDivideAlgorithm algorithm :
       {GreatDivideAlgorithm::kHash, GreatDivideAlgorithm::kGroup}) {
    PlannerOptions options;
    options.great_divide = algorithm;
    ExpectBatchSizeAgreement(plan, catalog, options);
  }
}

TEST(BatchExecProperty, FilterProjectPipeline) {
  Catalog catalog = SuppliersCatalog();
  // Selection with a dictionary-cacheable conjunct (b < 12) AND a residual
  // multi-column conjunct (a != b), under a deduplicating projection.
  ExprPtr predicate = Expr::And(Expr::ColCmp("b", CmpOp::kLt, V(12)),
                                Expr::Compare(CmpOp::kNe, Expr::Column("a"), Expr::Column("b")));
  PlanPtr plan = LogicalOp::Project(
      LogicalOp::Select(LogicalOp::Scan(catalog, "r1"), predicate), {"a"});
  ExpectBatchSizeAgreement(plan, catalog);
}

TEST(BatchExecProperty, FilterKeepsNothingAndEverything) {
  Catalog catalog = SuppliersCatalog();
  ExpectBatchSizeAgreement(LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                                        Expr::ColCmp("a", CmpOp::kLt, V(-1))),
                      catalog);
  ExpectBatchSizeAgreement(LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                                        Expr::ColCmp("a", CmpOp::kGe, V(0))),
                      catalog);
}

TEST(BatchExecProperty, JoinsAcrossBatchSizes) {
  Catalog catalog = SuppliersCatalog();
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr spj = LogicalOp::Scan(catalog, "spj");
  // Natural join on the shared attribute names.
  ExpectBatchSizeAgreement(
      LogicalOp::NaturalJoin(r1, LogicalOp::Rename(spj, {{"s", "a"}, {"p", "x"}})), catalog);
  // Theta equi-join keeps both key columns.
  ExpectBatchSizeAgreement(LogicalOp::ThetaJoin(spj, LogicalOp::Rename(spj, {{"s", "s2"}, {"p", "p2"}}),
                                           Expr::ColEqCol("p", "p2")),
                      catalog);
  // × and a non-equi θ-join: the whole right side is one bucket, so output
  // batches split inside a left row's run of right rows.
  PlanPtr spj2 = LogicalOp::Rename(spj, {{"s", "s2"}, {"p", "p2"}});
  ExprPtr b_lt_p2 = Expr::Compare(CmpOp::kLt, Expr::Column("b"), Expr::Column("p2"));
  ExpectBatchSizeAgreement(LogicalOp::Product(r1, spj2), catalog);
  ExpectBatchSizeAgreement(LogicalOp::ThetaJoin(r1, spj2, b_lt_p2), catalog);
  // Semi and anti joins.
  ExpectBatchSizeAgreement(LogicalOp::SemiJoin(r1, LogicalOp::Scan(catalog, "r2")), catalog);
  ExpectBatchSizeAgreement(LogicalOp::AntiJoin(r1, LogicalOp::Scan(catalog, "r2")), catalog);
}

TEST(BatchExecProperty, SetContainmentJoinAcrossBatchSizes) {
  // The set containment join has no logical operator; sweep the iterator
  // directly. Open() drains both inputs by batches, and the left input is
  // longer than every boundary size.
  DataGen gen(0x5C7);
  Relation r1 = Nest(gen.Dividend(/*groups=*/1100, /*domain=*/6, /*density=*/0.5), "b", "s1");
  Relation r2 = Rename(
      Nest(gen.GreatDivisor(/*groups=*/4, /*domain=*/6, /*density=*/0.3), "b", "s2"), {{"c", "g"}});
  ASSERT_GT(r1.size(), 1025u);
  const Relation expected = SetContainmentJoin(r1, "s1", r2, "s2");
  ASSERT_FALSE(expected.empty());
  for (size_t batch_rows : kBoundarySizes) {
    ScopedBatchRows scoped(batch_rows);
    SetContainmentJoinIterator it(std::make_unique<RelationScan>(BorrowRelation(r1)), "s1",
                                  std::make_unique<RelationScan>(BorrowRelation(r2)), "s2");
    EXPECT_EQ(ExecuteToRelation(it), expected) << "batch_rows=" << batch_rows;
    EXPECT_EQ(it.rows_produced(), expected.size()) << "batch_rows=" << batch_rows;
  }
}

TEST(BatchExecProperty, SetOperationsWithReorderedSchemas) {
  Catalog catalog = SuppliersCatalog();
  DataGen gen(0x5E7);
  catalog.Put("r1b", gen.Dividend(30, 24, 0.3));
  // Swap attribute order on one side so the reorder path is exercised.
  PlanPtr left = LogicalOp::Scan(catalog, "r1");
  PlanPtr right = LogicalOp::Project(
      LogicalOp::Rename(LogicalOp::Scan(catalog, "r1b"), {}), {"b", "a"});
  ExpectBatchSizeAgreement(LogicalOp::Union(left, right), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Intersect(left, right), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Difference(left, right), catalog);
}

TEST(BatchExecProperty, GroupByAggregates) {
  Catalog catalog = SuppliersCatalog();
  PlanPtr plan = LogicalOp::GroupBy(
      LogicalOp::Scan(catalog, "r1"), {"a"},
      {{AggFunc::kCount, "", "n"}, {AggFunc::kMax, "b", "max_b"}, {AggFunc::kAvg, "b", "avg_b"}});
  ExpectBatchSizeAgreement(plan, catalog);
  // Global aggregate (no group attributes) over a nonempty and empty input.
  PlanPtr global = LogicalOp::GroupBy(LogicalOp::Scan(catalog, "r1"), {},
                                      {{AggFunc::kCount, "", "n"}});
  ExpectBatchSizeAgreement(global, catalog);
}

TEST(BatchExecProperty, EmptyInputsEverywhere) {
  Catalog catalog;
  catalog.Put("empty_ab", Relation(Schema::Parse("a, b")));
  catalog.Put("empty_b", Relation(Schema::Parse("b")));
  catalog.Put("r1", Relation::Parse("a, b", "1,1; 1,2; 2,1"));
  catalog.Put("r2", Relation::Parse("b", "1; 2"));
  PlanPtr empty_ab = LogicalOp::Scan(catalog, "empty_ab");
  PlanPtr empty_b = LogicalOp::Scan(catalog, "empty_b");
  PlanPtr r1 = LogicalOp::Scan(catalog, "r1");
  PlanPtr r2 = LogicalOp::Scan(catalog, "r2");
  ExpectBatchSizeAgreement(LogicalOp::Divide(empty_ab, r2), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Divide(r1, empty_b), catalog);  // r1 ÷ ∅ = πA(r1)
  ExpectBatchSizeAgreement(LogicalOp::NaturalJoin(r1, empty_ab), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Union(r1, empty_ab), catalog);
  ExpectBatchSizeAgreement(LogicalOp::Difference(empty_ab, r1), catalog);
  ExpectBatchSizeAgreement(LogicalOp::GroupBy(empty_ab, {"a"}, {{AggFunc::kCount, "", "n"}}),
                      catalog);
}

TEST(BatchExecProperty, StringKeysAndMixedTypes) {
  DataGen gen(0xABCD);
  Catalog catalog;
  catalog.Put("r1", StringifyAttribute(gen.Dividend(25, 16, 0.4), "b"));
  catalog.Put("r2", StringifyAttribute(gen.Divisor(5, 16), "b"));
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"),
                                   LogicalOp::Scan(catalog, "r2"));
  ExpectBatchSizeAgreement(plan, catalog);
  // String-valued filter through the verdict cache.
  ExpectBatchSizeAgreement(LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                                        Expr::ColCmp("b", CmpOp::kEq, V("v3"))),
                      catalog);
}

TEST(BatchExecProperty, WideKeysHitSpillPath) {
  // 18 B columns with large per-column domains force the divisor codec past
  // 64 bits into SmallByteKey spill keys — in both modes, at odd batch sizes.
  DataGen gen(0x5B111);
  constexpr size_t kNumB = 18;
  Relation r1 = gen.DividendWide(/*groups=*/6, /*num_a=*/1, kNumB,
                                 /*domain=*/300, /*density=*/0.2);
  std::vector<size_t> b_idx;
  for (size_t i = 1; i <= kNumB; ++i) b_idx.push_back(i);
  std::vector<Tuple> divisor_rows;
  for (const Tuple& t : r1.tuples()) {
    if (gen.Chance(0.2)) divisor_rows.push_back(ProjectTuple(t, b_idx));
  }
  std::vector<std::string> b_names;
  for (size_t i = 1; i <= kNumB; ++i) b_names.push_back("b" + std::to_string(i));
  Catalog catalog;
  catalog.Put("wide", r1);
  catalog.Put("wide_divisor", Relation(r1.schema().Project(b_names), std::move(divisor_rows)));
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "wide"),
                                   LogicalOp::Scan(catalog, "wide_divisor"));
  ExpectBatchSizeAgreement(plan, catalog);
  // Wide projection dedup takes the encoder's spill representation too.
  ExpectBatchSizeAgreement(LogicalOp::Project(LogicalOp::Scan(catalog, "wide"), b_names), catalog);
}

TEST(BatchExecProperty, RandomizedPlansAgainstOracle) {
  DataGen gen(0xF00D);
  for (int round = 0; round < 25; ++round) {
    Catalog catalog;
    catalog.Put("r1", gen.Dividend(gen.UniformInt(0, 16), gen.UniformInt(1, 10), 0.4));
    catalog.Put("r2", gen.Divisor(gen.UniformInt(0, 6), 10));
    PlanPtr plan = LogicalOp::Divide(
        LogicalOp::Select(LogicalOp::Scan(catalog, "r1"),
                          Expr::ColCmp("a", CmpOp::kGe, V(gen.UniformInt(0, 3)))),
        LogicalOp::Scan(catalog, "r2"));
    ScopedBatchRows scoped(static_cast<size_t>(gen.UniformInt(1, 64)));
    EXPECT_EQ(ExecutePlan(plan, catalog), Evaluate(plan, catalog)) << "round " << round;
  }
}

TEST(BatchExecProperty, HealyExpansionAgreesAcrossModes) {
  // The basic-algebra simulation exercises ×, − and π together.
  Catalog catalog = SuppliersCatalog();
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "spj"),
                                   LogicalOp::Scan(catalog, "parts"));
  PlannerOptions options;
  options.expand_divide = true;
  ExpectBatchSizeAgreement(plan, catalog, options);
}

// --- batch plumbing unit tests ---------------------------------------------

TEST(BatchUnit, ScanEmitsEncodedBatchesFromCatalogEncoding) {
  Relation r = Relation::Parse("a, b", "1,10; 2,20; 3,30; 4,40; 5,50");
  Catalog catalog;
  catalog.Put("t", r);
  TableEncodingPtr encoding = catalog.Encoding("t");
  ASSERT_NE(encoding, nullptr);
  EXPECT_EQ(encoding->rows, r.size());

  ScopedBatchRows two(2);
  RelationScan scan(BorrowRelation(catalog.Get("t")), encoding);
  scan.Open();
  Batch batch;
  size_t total = 0;
  while (scan.NextBatch(&batch)) {
    EXPECT_FALSE(batch.row_mode());
    ASSERT_EQ(batch.num_columns(), 2u);
    EXPECT_NE(batch.EncodedColumn(0), nullptr);
    EXPECT_LE(batch.ActiveRows(), 2u);
    for (size_t i = 0; i < batch.ActiveRows(); ++i) {
      uint32_t row = batch.RowAt(i);
      EXPECT_EQ(batch.At(row, 0), r.tuples()[total + row][0]);
    }
    total += batch.ActiveRows();
  }
  scan.Close();
  EXPECT_EQ(total, r.size());
  EXPECT_EQ(scan.rows_produced(), r.size());
}

TEST(BatchUnit, CatalogEncodingIsCachedAndInvalidatedByPut) {
  Catalog catalog;
  catalog.Put("t", Relation::Parse("a", "1; 2; 3"));
  TableEncodingPtr first = catalog.Encoding("t");
  EXPECT_EQ(catalog.Encoding("t").get(), first.get()) << "second request must hit the cache";
  catalog.Put("t", Relation::Parse("a", "4; 5"));
  TableEncodingPtr second = catalog.Encoding("t");
  EXPECT_NE(second.get(), first.get()) << "Put must invalidate the cached encoding";
  EXPECT_EQ(second->rows, 2u);
  EXPECT_EQ(first->rows, 3u) << "old encoding stays valid for holders of the shared_ptr";
}

TEST(BatchUnit, CrossProductHonoursTheBatchContract) {
  // Every NextBatch carries 1..GetBatchRows() active rows in left-order ×
  // right-order, and rows_produced counts rows, not batches.
  Relation left = Relation::Parse("a", "1; 2; 3");
  Relation right = Relation::Parse("x", "7; 8");
  const std::vector<Tuple> expected =
      Relation::Parse("a, x", "1,7; 1,8; 2,7; 2,8; 3,7; 3,8").tuples();
  for (size_t batch_rows : {1, 3, 4, 1024}) {
    ScopedBatchRows scoped(batch_rows);
    CrossProductIterator it(std::make_unique<RelationScan>(BorrowRelation(left)),
                            std::make_unique<RelationScan>(BorrowRelation(right)));
    it.Open();
    Batch batch;
    std::vector<Tuple> rows;
    Tuple t;
    while (it.NextBatch(&batch)) {
      EXPECT_GE(batch.ActiveRows(), 1u) << "batch_rows=" << batch_rows;
      EXPECT_LE(batch.ActiveRows(), batch_rows);
      for (size_t i = 0; i < batch.ActiveRows(); ++i) {
        batch.ToTuple(batch.RowAt(i), &t);
        rows.push_back(t);
      }
    }
    it.Close();
    EXPECT_EQ(rows, expected) << "batch_rows=" << batch_rows;
    EXPECT_EQ(it.rows_produced(), expected.size()) << "batch_rows=" << batch_rows;
  }

  // An empty right side ends the stream without pulling the left child.
  auto left_scan = std::make_unique<RelationScan>(BorrowRelation(left));
  RelationScan* left_ptr = left_scan.get();
  Relation empty(Schema::Parse("x"));
  CrossProductIterator it(std::move(left_scan),
                          std::make_unique<RelationScan>(BorrowRelation(empty)));
  EXPECT_TRUE(ExecuteToRelation(it).empty());
  EXPECT_EQ(it.rows_produced(), 0u);
  EXPECT_EQ(left_ptr->rows_produced(), 0u);
}

TEST(BatchUnit, SelectionVectorSurvivesPassThroughOperators) {
  // Filter marks survivors via selection; Rename forwards the batch as-is.
  Catalog catalog;
  catalog.Put("t", Relation::Parse("a, b", "1,1; 2,2; 3,3; 4,4"));
  PlanPtr plan = LogicalOp::Rename(
      LogicalOp::Select(LogicalOp::Scan(catalog, "t"), Expr::ColCmp("a", CmpOp::kGt, V(2))),
      {{"a", "a2"}});
  Relation result = ExecutePlan(plan, catalog);
  EXPECT_EQ(result, Relation::Parse("a2, b", "3,3; 4,4"));
}

TEST(BatchUnit, ExplainTreeCountsRowsNotBatches) {
  Catalog catalog = SuppliersCatalog();
  PlanPtr plan = LogicalOp::Divide(LogicalOp::Scan(catalog, "r1"),
                                   LogicalOp::Scan(catalog, "r2"));
  ScopedBatchRows seven(7);
  ExecProfile profile;
  Relation result = ExecutePlan(plan, catalog, {}, &profile);
  size_t scans_total = catalog.Get("r1").size() + catalog.Get("r2").size();
  EXPECT_EQ(profile.total_rows, scans_total + result.size())
      << profile.explain;
}

}  // namespace
}  // namespace quotient
