// Cross-query artifact recycler (exec/recycler.hpp, docs/recycler.md):
// recycling on/off differential (bit-identical at 1 and 8 threads), DDL
// invalidation, build-once under concurrent sessions, LRU eviction under a
// byte budget, EXPLAIN ANALYZE surfacing, and the recycler.* fault sites
// proving a faulted publish never poisons the cache.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algebra/generator.hpp"
#include "api/database.hpp"
#include "api/session.hpp"
#include "exec/batch.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "opt/planner.hpp"

namespace quotient {
namespace {

constexpr const char* kDivideSql =
    "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";

/// The statement corpus the differential sweeps: the operator families the
/// planner attaches RecycleSpecs to that SQL can reach — division, grouping,
/// and the semi join an IN subquery lowers to. (Comma joins stay a Select
/// over Product and carry no build state; hash-join recycling is covered at
/// the plan level by JoinBuildSidesRecycleAcrossPlanExecutions below.)
const std::vector<const char*> kCorpus = {
    kDivideSql,
    "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a",
    "SELECT DISTINCT a FROM r1 WHERE b IN (SELECT b FROM r2)",
};

std::shared_ptr<Database> MakeDatabase(size_t recycler_bytes) {
  DatabaseOptions options;
  options.recycler_memory_bytes = recycler_bytes;
  auto db = std::make_shared<Database>(options);
  DataGen gen(23);
  Relation divisor = gen.Divisor(24, /*domain=*/48);
  Relation dividend =
      gen.DividendWithHits(160, 17, divisor, /*domain=*/48, /*density=*/0.4);
  Relation lookup = gen.RandomRelation(Schema::Parse("b:int, c:int"), 96, 48);
  EXPECT_TRUE(db->CreateTable("r1", std::move(dividend)).ok());
  EXPECT_TRUE(db->CreateTable("r2", std::move(divisor)).ok());
  EXPECT_TRUE(db->CreateTable("r3", std::move(lookup)).ok());
  return db;
}

TEST(RecyclerTest, OnOffDifferentialBitIdenticalAcrossThreadCounts) {
  ScopedUncappedPipelines uncapped;  // exercise the pipelined sinks
  ScopedBatchRows batches(32);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    std::shared_ptr<Database> off = MakeDatabase(0);
    std::shared_ptr<Database> on = MakeDatabase(64ull << 20);
    ASSERT_EQ(off->recycler(), nullptr);
    ASSERT_NE(on->recycler(), nullptr);
    Session plain(off);
    Session recycled(on);
    for (const char* sql : kCorpus) {
      SCOPED_TRACE(sql);
      Result<QueryResult> baseline = plain.Execute(sql);
      ASSERT_TRUE(baseline.ok()) << baseline.error();
      EXPECT_EQ(baseline.value().profile.recycler_hits, 0u);
      EXPECT_EQ(baseline.value().profile.recycler_misses, 0u);
      Result<QueryResult> cold = recycled.Execute(sql);
      ASSERT_TRUE(cold.ok()) << cold.error();
      Result<QueryResult> warm = recycled.Execute(sql);
      ASSERT_TRUE(warm.ok()) << warm.error();
      // Bit-identical: same rows in the same order, cold, warm, and with
      // recycling disabled.
      EXPECT_TRUE(cold.value().rows.tuples() == baseline.value().rows.tuples());
      EXPECT_TRUE(warm.value().rows.tuples() == baseline.value().rows.tuples());
      EXPECT_GT(cold.value().profile.recycler_misses, 0u);
      EXPECT_GT(warm.value().profile.recycler_hits, 0u);
      EXPECT_EQ(warm.value().profile.recycler_misses, 0u);
    }
    EXPECT_GT(on->recycler_stats().published, 0u);
    EXPECT_EQ(off->recycler_stats().published, 0u);
  }
}

TEST(RecyclerTest, JoinBuildSidesRecycleAcrossPlanExecutions) {
  // SQL never reaches kThetaJoin/kNaturalJoin directly (comma joins lower to
  // Select over Product), so exercise the hash-join build-side recycling at
  // the plan level: the same catalog + recycler across ExecutePlan calls.
  Catalog catalog;
  DataGen gen(23);
  catalog.Put("r1", gen.DividendWithHits(160, 17, gen.Divisor(24, 48), 48, 0.4));
  catalog.Put("r3", gen.RandomRelation(Schema::Parse("b:int, c:int"), 96, 48));
  PlannerOptions off;
  PlannerOptions on;
  on.recycler = std::make_shared<ArtifactRecycler>(64ull << 20);
  const std::vector<PlanPtr> plans = {
      // Equi theta join -> EquiJoinIterator ("join.equi" build key).
      LogicalOp::ThetaJoin(LogicalOp::Scan(catalog, "r1"),
                           LogicalOp::Rename(LogicalOp::Scan(catalog, "r3"),
                                             {{"b", "b2"}, {"c", "c2"}}),
                           Expr::ColEqCol("b", "b2")),
      // Natural join on the shared attribute -> HashJoinIterator
      // ("join.natural" build key).
      LogicalOp::NaturalJoin(LogicalOp::Scan(catalog, "r1"),
                             LogicalOp::Scan(catalog, "r3")),
  };
  // Plan-level executions carry no QueryContext, so the per-query profile
  // counters stay zero; assert through the recycler's own stats deltas.
  for (const PlanPtr& plan : plans) {
    RecyclerStats before = on.recycler->stats();
    Relation baseline = ExecutePlan(plan, catalog, off);
    Relation cold = ExecutePlan(plan, catalog, on);
    RecyclerStats after_cold = on.recycler->stats();
    Relation warm = ExecutePlan(plan, catalog, on);
    RecyclerStats after_warm = on.recycler->stats();
    EXPECT_GT(after_cold.misses, before.misses);
    EXPECT_GT(after_warm.hits, after_cold.hits);
    EXPECT_EQ(after_warm.misses, after_cold.misses);  // warm run missed nothing
    EXPECT_TRUE(cold.tuples() == baseline.tuples());
    EXPECT_TRUE(warm.tuples() == baseline.tuples());
  }
  EXPECT_EQ(on.recycler->stats().published, plans.size());
}

TEST(RecyclerTest, DdlInvalidatesCachedArtifacts) {
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  Session session(db);
  ASSERT_TRUE(session.Execute(kDivideSql).ok());
  Result<QueryResult> warm = session.Execute(kDivideSql);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm.value().profile.recycler_hits, 0u);

  // Growing the divisor changes the quotient; the old artifacts must not
  // serve the new statement (their keys carry the old data version, and
  // the DDL reclaims their memory eagerly).
  size_t invalidated_before = db->recycler_stats().invalidated;
  ASSERT_TRUE(db->InsertRows("r2", {{Value::Int(47)}}).ok());
  EXPECT_GT(db->recycler_stats().invalidated, invalidated_before);

  Result<QueryResult> after = session.Execute(kDivideSql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().profile.recycler_hits, 0u);  // cold again
  EXPECT_GT(after.value().profile.recycler_misses, 0u);
  // And the fresh artifacts match a recycling-free execution exactly.
  std::shared_ptr<Database> off = MakeDatabase(0);
  ASSERT_TRUE(off->InsertRows("r2", {{Value::Int(47)}}).ok());
  Session plain(off);
  Result<QueryResult> baseline = plain.Execute(kDivideSql);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(after.value().rows.tuples() == baseline.value().rows.tuples());
}

TEST(RecyclerTest, ConcurrentSessionsBuildOnce) {
  // Eight sessions race the same grouping statement; the aggregation
  // artifact must be built exactly once (one miss), with every other
  // session adopting it (seven hits) — the promise/shared_future discipline
  // under real concurrency.
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  const char* sql = "SELECT a, COUNT(b) AS n FROM r1 GROUP BY a";
  constexpr size_t kSessions = 8;
  std::vector<Relation> results(kSessions);
  std::vector<Status> statuses(kSessions, Status::Ok());
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kSessions; ++i) {
      threads.emplace_back([&, i] {
        Session session(db);
        Result<QueryResult> result = session.Execute(sql);
        if (!result.ok()) {
          statuses[i] = result.status();
          return;
        }
        results[i] = std::move(result.value().rows);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (size_t i = 0; i < kSessions; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].message();
    EXPECT_TRUE(results[i].tuples() == results[0].tuples());
  }
  RecyclerStats stats = db->recycler_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kSessions - 1);
  EXPECT_EQ(stats.published, 1u);
}

TEST(RecyclerTest, EvictionKeepsResidentBytesUnderBudget) {
  // A budget big enough for a few grouping artifacts but not for all eight
  // tables' worth: the LRU must evict, the byte account must stay under
  // budget, and every query must stay correct while it happens.
  DatabaseOptions options;
  options.recycler_memory_bytes = 48 * 1024;
  auto db = std::make_shared<Database>(options);
  DataGen gen(31);
  Schema schema = Schema::Parse("a:int, b:int");
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(db->CreateTable("t" + std::to_string(i),
                                gen.RandomRelation(schema, 400, 200))
                    .ok());
  }
  Session session(db);
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 8; ++i) {
      std::string sql =
          "SELECT a, COUNT(b) AS n FROM t" + std::to_string(i) + " GROUP BY a";
      Result<QueryResult> result = session.Execute(sql);
      ASSERT_TRUE(result.ok()) << result.error();
      RecyclerStats stats = db->recycler_stats();
      EXPECT_LE(stats.bytes, options.recycler_memory_bytes);
    }
  }
  RecyclerStats stats = db->recycler_stats();
  EXPECT_GT(stats.published, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 8u);
  // Spot-check correctness against a recycling-free run after the churn.
  DatabaseOptions off_options;
  off_options.recycler_memory_bytes = 0;
  auto off = std::make_shared<Database>(off_options);
  DataGen gen2(31);
  ASSERT_TRUE(off->CreateTable("t0", gen2.RandomRelation(schema, 400, 200)).ok());
  Session plain(off);
  Result<QueryResult> expect = plain.Execute("SELECT a, COUNT(b) AS n FROM t0 GROUP BY a");
  Result<QueryResult> got = session.Execute("SELECT a, COUNT(b) AS n FROM t0 GROUP BY a");
  ASSERT_TRUE(expect.ok() && got.ok());
  EXPECT_TRUE(got.value().rows.tuples() == expect.value().rows.tuples());
}

TEST(RecyclerTest, ExplainAnalyzeSurfacesRecyclerCounters) {
  std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
  Session session(db);
  ASSERT_TRUE(session.Execute(kDivideSql).ok());
  Result<QueryResult> analyzed =
      session.Execute(std::string("EXPLAIN ANALYZE ") + kDivideSql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.error();
  std::string text;
  for (const Tuple& t : analyzed.value().rows.tuples()) text += t[1].ToString() + "\n";
  EXPECT_NE(text.find("recycler="), std::string::npos) << text;
  EXPECT_NE(text.find("hits"), std::string::npos) << text;
}

struct ScopedDisarm {
  explicit ScopedDisarm(FaultInjector* injector) : injector_(injector) {}
  ~ScopedDisarm() { injector_->Disarm(); }
  FaultInjector* injector_;
};

// A fault at either recycler site must unwind with the deterministic
// message, leave the cache unpoisoned (the next execution succeeds, builds
// fresh, and publishes), and behave identically at 1, 2, and 8 workers.
TEST(RecyclerFaultTest, FaultedPublishNeverPoisonsTheCache) {
  ScopedUncappedPipelines uncapped;
  ScopedBatchRows batches(32);
  for (const char* site : {"recycler.lookup", "recycler.publish"}) {
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(std::string(site) + " at threads=" + std::to_string(threads));
      ScopedExecThreads scoped_threads(threads);
      std::shared_ptr<Database> db = MakeDatabase(64ull << 20);
      FaultInjector injector;
      ScopedDisarm disarm(&injector);
      SessionOptions options;
      options.fault_injector = &injector;
      Session session(db, options);

      injector.Arm(site, 1);
      Result<QueryResult> faulted = session.Execute(kDivideSql);
      ASSERT_FALSE(faulted.ok());
      EXPECT_EQ(faulted.status().message(), std::string("injected fault at ") + site);
      // Nothing half-built may be visible.
      EXPECT_EQ(db->recycler_stats().entries, 0u);
      EXPECT_EQ(db->recycler_stats().published, 0u);

      // Disarmed, the same statement rebuilds and publishes...
      injector.Disarm();
      Result<QueryResult> rebuilt = session.Execute(kDivideSql);
      ASSERT_TRUE(rebuilt.ok()) << rebuilt.error();
      EXPECT_GT(db->recycler_stats().published, 0u);
      // ...and the published artifacts serve the next execution.
      Result<QueryResult> warm = session.Execute(kDivideSql);
      ASSERT_TRUE(warm.ok());
      EXPECT_GT(warm.value().profile.recycler_hits, 0u);
      EXPECT_TRUE(warm.value().rows.tuples() == rebuilt.value().rows.tuples());
    }
  }
}

}  // namespace
}  // namespace quotient
