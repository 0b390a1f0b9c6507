// Query lifecycle governor tests (docs/robustness.md): cross-thread
// cancellation, deadlines, memory budgets, scoped-knob unwinding, and the
// deterministic fault-injection sweep over every registered site.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algebra/generator.hpp"
#include "api/session.hpp"
#include "exec/batch.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"
#include "paper_fixtures.hpp"
#include "util/status.hpp"

namespace quotient {
namespace {

constexpr const char* kDivideSql =
    "SELECT a FROM r1 AS x DIVIDE BY r2 AS y ON x.b = y.b";

/// A session loaded with a division workload big enough that its execution
/// spans many morsel batches (so polls actually interleave with work).
Session MakeDivisionSession(SessionOptions options, size_t groups,
                            size_t divisor_size) {
  DataGen gen(7);
  Relation divisor = gen.Divisor(divisor_size, /*domain=*/64);
  Relation dividend = gen.DividendWithHits(groups, groups / 8 + 1, divisor,
                                           /*domain=*/64, /*density=*/0.5);
  Session session(options);
  EXPECT_TRUE(session.CreateTable("r1", std::move(dividend)).ok());
  EXPECT_TRUE(session.CreateTable("r2", std::move(divisor)).ok());
  return session;
}

/// Disarms an injector on scope exit, so a failing assertion can't leak an
/// armed site into later tests.
struct ScopedDisarm {
  explicit ScopedDisarm(FaultInjector* injector) : injector_(injector) {}
  ~ScopedDisarm() { injector_->Disarm(); }
  FaultInjector* injector_;
};

// ---------------------------------------------------------------------------
// GovernorTest: cancellation, deadlines, budgets, reporting, guards.
// ---------------------------------------------------------------------------

TEST(GovernorTest, CancelFromAnotherThreadDeliversCancelledAndPoolSurvives) {
  ScopedExecThreads threads(8);
  ScopedUncappedPipelines uncapped;  // force the parallel morsel path
  ScopedBatchRows batches(64);
  Session session = MakeDivisionSession({}, /*groups=*/4000, /*divisor=*/48);

  // Spin Cancel() from another thread: the statement's context registers
  // before execution starts, so some Cancel() call lands while the 8-thread
  // drain is in flight and the next batch-granularity poll unwinds it.
  std::atomic<bool> done{false};
  std::thread canceller([&] {
    while (!done.load(std::memory_order_relaxed)) session.Cancel();
  });
  Result<QueryResult> cancelled = session.Execute(kDivideSql);
  done.store(true);
  canceller.join();

  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);

  // The pool stopped admitting the cancelled region's morsels but stayed
  // reusable: the same statement, uncancelled, runs to completion.
  Result<QueryResult> again = session.Execute(kDivideSql);
  ASSERT_TRUE(again.ok()) << again.error();
  EXPECT_GT(again.value().rows.size(), 0u);
}

TEST(GovernorTest, CancelUnwindsAnOpenCursorToTerminalState) {
  ScopedBatchRows batches(1);
  Session session = MakeDivisionSession({}, /*groups=*/64, /*divisor=*/8);

  Result<ResultCursor> opened = session.Query(kDivideSql);
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();

  Tuple row;
  ASSERT_TRUE(cursor.Next(&row));  // stream is live
  session.Cancel();

  // The next pull observes the trip: end-of-stream, typed status, and the
  // cursor is terminally closed (further pulls stay at end-of-stream).
  EXPECT_FALSE(cursor.Next(&row));
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(cursor.status().code(), StatusCode::kCancelled);
  EXPECT_FALSE(cursor.Next(&row));
  EXPECT_EQ(cursor.NextBatch(), nullptr);
  EXPECT_TRUE(cursor.Profile().cancelled);

  // Cancel() only targets in-flight statements: a new one is unaffected.
  Result<QueryResult> fresh = session.Execute(kDivideSql);
  ASSERT_TRUE(fresh.ok()) << fresh.error();
}

TEST(GovernorTest, DeadlineTripsAsDeadlineExceeded) {
  ScopedBatchRows batches(16);
  SessionOptions options;
  options.deadline = std::chrono::milliseconds(1);
  Session session =
      MakeDivisionSession(options, /*groups=*/20000, /*divisor=*/48);

  Result<QueryResult> result = session.Execute(kDivideSql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(GovernorTest, MemoryBudgetTripsAsResourceExhausted) {
  SessionOptions options;
  options.memory_budget_bytes = 4096;  // far below the build-state footprint
  Session session =
      MakeDivisionSession(options, /*groups=*/4000, /*divisor=*/48);

  Result<QueryResult> result = session.Execute(kDivideSql);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(GovernorTest, ProfileAndExplainAnalyzeReportGovernorAccounting) {
  Session session = MakeDivisionSession({}, /*groups=*/512, /*divisor=*/16);

  Result<QueryResult> result = session.Execute(kDivideSql);
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_GT(result.value().profile.rows_charged_bytes, 0u);
  EXPECT_FALSE(result.value().profile.cancelled);
  EXPECT_TRUE(result.value().profile.fault_site.empty());

  Result<QueryResult> analyzed =
      session.Execute(std::string("EXPLAIN ANALYZE ") + kDivideSql);
  ASSERT_TRUE(analyzed.ok()) << analyzed.error();
  bool found = false;
  for (const Tuple& row : analyzed.value().rows.tuples()) {
    for (const Value& value : row) {
      if (value.type() == ValueType::kString &&
          value.as_str().find("governor: charged=") != std::string::npos) {
        found = true;
      }
    }
  }
  EXPECT_TRUE(found) << "EXPLAIN ANALYZE output lacks a governor line";
}

TEST(GovernorTest, ScopedKnobGuardsRestoreOnUnwind) {
  const size_t threads0 = GetExecThreads();
  const size_t batch0 = GetBatchRows();
  ASSERT_FALSE(PipelinesUncapped());
  try {
    ScopedExecThreads threads(threads0 + 3);
    ScopedBatchRows batches(batch0 + 7);
    ScopedUncappedPipelines uncapped;
    EXPECT_EQ(GetExecThreads(), threads0 + 3);
    EXPECT_EQ(GetBatchRows(), batch0 + 7);
    EXPECT_TRUE(PipelinesUncapped());
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(GetExecThreads(), threads0);
  EXPECT_EQ(GetBatchRows(), batch0);
  EXPECT_FALSE(PipelinesUncapped());
}

TEST(GovernorTest, LoadCsvFileFailureNamesPathAndReason) {
  Session session;
  const std::string path = "/nonexistent-quotient-dir/missing.csv";
  Status status = session.LoadCsvFile("t", path);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find(path), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("No such file"), std::string::npos)
      << status.message();
}

// ---------------------------------------------------------------------------
// FaultInjectionTest: deterministic injection at every registered site.
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, NthHitSemantics) {
  FaultInjector injector;
  injector.Arm("pipeline.drain", 3);
  EXPECT_FALSE(injector.Hit("pipeline.drain"));
  EXPECT_FALSE(injector.Hit("pipeline.drain"));
  EXPECT_TRUE(injector.Hit("pipeline.drain"));   // the armed nth hit
  EXPECT_FALSE(injector.Hit("pipeline.drain"));  // fires once, not forever
  EXPECT_FALSE(injector.Hit("pipeline.merge"));  // other sites unaffected

  injector.Arm("pipeline.drain", 1);  // re-arming resets the hit counter
  EXPECT_TRUE(injector.Hit("pipeline.drain"));

  injector.Arm("pipeline.drain", 1);
  injector.Disarm();
  EXPECT_FALSE(injector.Hit("pipeline.drain"));
}

// Sweep every registered site at 1, 2, and 8 workers: an injected fault must
// unwind to the exact deterministic message (never a crash, hang, or partial
// result), and after disarming, the same session and pool must run the same
// statements to completion — proof that no trip point leaks pool or session
// state. Sites off this workload's path simply never fire (the statement
// succeeds), which the assertions below allow.
TEST(FaultInjectionTest, SweepAllSitesUnwindsCleanAcrossThreadCounts) {
  ScopedUncappedPipelines uncapped;  // exercise the parallel sinks
  ScopedBatchRows batches(32);

  DataGen gen(11);
  Relation divisor = gen.Divisor(48, /*domain=*/64);
  Relation dividend = gen.DividendWithHits(512, 65, divisor, /*domain=*/64,
                                           /*density=*/0.5);
  // Sites guaranteed on this statement's path at EVERY thread count; the
  // sweep additionally asserts these fire with statuses identical across
  // thread counts (determinism is what makes fault reproductions portable).
  const std::vector<std::string> always_fires = {
      "divide.bitmap_fill", "sink.codec_append", "sink.probe_append",
      "cursor.pull", "catalog.encoding"};

  for (const std::string& site : FaultInjector::KnownSites()) {
    const std::string expected = "injected fault at " + site;
    for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
      SCOPED_TRACE(site + " at threads=" + std::to_string(threads));
      ScopedExecThreads scoped_threads(threads);

      FaultInjector injector;
      ScopedDisarm disarm(&injector);
      SessionOptions options;
      options.fault_injector = &injector;
      Session session(options);
      ASSERT_TRUE(session.CreateTable("r1", dividend).ok());
      ASSERT_TRUE(session.CreateTable("r2", divisor).ok());

      injector.Arm(site, 1);
      Result<QueryResult> result = session.Execute(kDivideSql);
      if (!result.ok()) {
        EXPECT_EQ(result.status().message(), expected);
      }
      bool fired = !result.ok();

      // The cursor path must unwind just as cleanly.
      injector.Arm(site, 1);
      Result<ResultCursor> opened = session.Query(kDivideSql);
      if (opened.ok()) {
        ResultCursor cursor = std::move(opened).value();
        Relation drained = cursor.Drain();
        if (!cursor.status().ok()) {
          EXPECT_EQ(cursor.status().message(), expected);
          fired = true;
        }
      } else {
        EXPECT_EQ(opened.status().message(), expected);
        fired = true;
      }

      bool must_fire = false;
      for (const std::string& required : always_fires) {
        must_fire = must_fire || required == site;
      }
      if (must_fire) EXPECT_TRUE(fired) << "armed site never consulted";

      // No leaked pool or session state: disarmed, everything succeeds.
      injector.Disarm();
      Result<QueryResult> again = session.Execute(kDivideSql);
      ASSERT_TRUE(again.ok()) << again.error();
      EXPECT_GT(again.value().rows.size(), 0u);
    }
  }
}

// Tiny drains are the one-chunk case of the batch pipeline, so the pipeline
// fault sites sit on their path too. Default configuration on purpose: no
// uncap guard, default morsel and batch rows — a divisor and dividend of a
// few rows each, estimated far under two morsels, drain at dop 1.
TEST(FaultInjectionTest, TinyDivisorDrainReachesPipelineSites) {
  ScopedExecThreads threads(4);
  const char* query =
      "SELECT s# FROM supplies AS s DIVIDE BY ("
      "SELECT p# FROM parts WHERE color = 'blue') AS p ON s.p# = p.p#";
  for (const std::string site : {"pipeline.drain", "sink.codec_append"}) {
    SCOPED_TRACE(site);
    FaultInjector injector;
    ScopedDisarm disarm(&injector);
    SessionOptions options;
    options.fault_injector = &injector;
    Session session(options);
    ASSERT_TRUE(session.CreateTable("supplies", paper::SuppliesTable()).ok());
    ASSERT_TRUE(session.CreateTable("parts", paper::PartsTable()).ok());

    injector.Arm(site, 1);
    Result<QueryResult> faulted = session.Execute(query);
    ASSERT_FALSE(faulted.ok()) << "armed site never consulted";
    EXPECT_EQ(faulted.status().message(), "injected fault at " + site);

    injector.Disarm();
    Result<QueryResult> again = session.Execute(query);
    ASSERT_TRUE(again.ok()) << again.error();
    EXPECT_EQ(again.value().rows, paper::Q2Answer());
    EXPECT_EQ(again.value().profile.max_dop, 1u) << again.value().profile.explain;
  }
}

TEST(FaultInjectionTest, CursorPullFaultDrainsPreFailureRows) {
  ScopedBatchRows batches(1);  // one row per pull, so the 3rd pull = 3rd row
  FaultInjector injector;
  ScopedDisarm disarm(&injector);
  SessionOptions options;
  options.fault_injector = &injector;
  Session session(options);
  ASSERT_TRUE(
      session.CreateTable("t", Relation::Parse("a", "1; 2; 3; 4; 5")).ok());

  injector.Arm("cursor.pull", 3);
  Result<ResultCursor> opened = session.Query("SELECT a FROM t");
  ASSERT_TRUE(opened.ok()) << opened.error();
  ResultCursor cursor = std::move(opened).value();
  Relation partial = cursor.Drain();
  EXPECT_EQ(partial.size(), 2u);  // rows produced before the failing pull
  EXPECT_TRUE(cursor.done());
  EXPECT_EQ(cursor.status().message(), "injected fault at cursor.pull");
  EXPECT_EQ(cursor.Profile().fault_site, "cursor.pull");

  injector.Disarm();
  Result<ResultCursor> retry = session.Query("SELECT a FROM t");
  ASSERT_TRUE(retry.ok()) << retry.error();
  ResultCursor cursor2 = std::move(retry).value();
  EXPECT_EQ(cursor2.Drain().size(), 5u);
  EXPECT_TRUE(cursor2.status().ok()) << cursor2.status().message();
}

TEST(FaultInjectionTest, SnapshotPublishFaultLeavesPreviousCatalogLive) {
  // DDL runs outside a governed statement, so the publish site is consulted
  // through the process-global injector.
  FaultInjector* global = FaultInjector::Global();
  ScopedDisarm disarm(global);

  Session session;
  ASSERT_TRUE(session.CreateTable("t", Relation::Parse("a", "1; 2")).ok());

  global->Arm("snapshot.publish", 1);
  Status ddl = session.CreateTable("u", Relation::Parse("a", "3"));
  global->Disarm();
  ASSERT_FALSE(ddl.ok());
  EXPECT_EQ(ddl.message(), "injected fault at snapshot.publish");

  // Publication is atomic: the failed DDL left the previous snapshot live —
  // 't' still answers, 'u' was never published.
  Result<QueryResult> t = session.Execute("SELECT a FROM t");
  ASSERT_TRUE(t.ok()) << t.error();
  EXPECT_EQ(t.value().rows.size(), 2u);
  EXPECT_FALSE(session.Execute("SELECT a FROM u").ok());

  // And the same DDL succeeds once disarmed.
  ASSERT_TRUE(session.CreateTable("u", Relation::Parse("a", "3")).ok());
  EXPECT_TRUE(session.Execute("SELECT a FROM u").ok());
}

TEST(FaultInjectionTest, AggregateSinkSiteFiresOnGroupByStatements) {
  ScopedUncappedPipelines uncapped;
  ScopedBatchRows batches(32);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedExecThreads scoped_threads(threads);
    FaultInjector injector;
    ScopedDisarm disarm(&injector);
    SessionOptions options;
    options.fault_injector = &injector;
    Session session = [&] {
      DataGen gen(13);
      Relation rows = gen.Dividend(256, /*domain=*/64, /*density=*/0.5);
      Session s(options);
      EXPECT_TRUE(s.CreateTable("r", std::move(rows)).ok());
      return s;
    }();

    injector.Arm("sink.aggregate", 1);
    Result<QueryResult> result =
        session.Execute("SELECT a, COUNT(*) FROM r GROUP BY a");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().message(), "injected fault at sink.aggregate");

    injector.Disarm();
    Result<QueryResult> again =
        session.Execute("SELECT a, COUNT(*) FROM r GROUP BY a");
    ASSERT_TRUE(again.ok()) << again.error();
  }
}

}  // namespace
}  // namespace quotient
