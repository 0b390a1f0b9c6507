#include "client.hpp"

#include <utility>

#include "exec/query_context.hpp"
#include "opt/cost.hpp"
#include "opt/optimizer.hpp"
#include "opt/planner.hpp"
#include "sql/lower.hpp"
#include "sql/parser.hpp"

namespace perfbench {

using quotient::Relation;
using quotient::Result;
using quotient::Status;
using quotient::Value;

namespace {

double Ms(int64_t start_ns, int64_t end_ns) { return static_cast<double>(end_ns - start_ns) / 1e6; }

double D(size_t v) { return static_cast<double>(v); }

}  // namespace

void ClientStats::Merge(const ClientStats& other) {
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
  write_ms.insert(write_ms.end(), other.write_ms.begin(), other.write_ms.end());
  statements += other.statements;
  failed += other.failed;
  for (const std::string& e : other.errors) {
    if (errors.size() < 5) errors.push_back(e);
  }
}

Client::Client(std::shared_ptr<quotient::Database> db, quotient::SessionOptions options)
    : db_(std::move(db)),
      options_(std::move(options)),
      session_(std::make_unique<quotient::Session>(db_, options_)) {}

int Client::Prepare(const std::string& sql) {
  Result<quotient::PreparedStatement> prepared = session_->Prepare(sql);
  if (!prepared.ok()) {
    NoteError(prepared.error());
    return -1;
  }
  prepared_.push_back(
      std::make_unique<PreparedEntry>(PreparedEntry{sql, std::move(prepared).value()}));
  return static_cast<int>(prepared_.size() - 1);
}

void Client::NoteError(const std::string& message) {
  ++stats_.failed;
  if (stats_.errors.size() < 5) stats_.errors.push_back(message);
}

ClientStats Client::TakeStats() { return std::exchange(stats_, ClientStats{}); }

std::optional<quotient::QueryResult> Client::Read(const std::string& sql) {
  quotient::SnapshotPtr pinned = tracer_ != nullptr ? db_->snapshot() : nullptr;
  const int64_t start = NowNs();
  Result<quotient::QueryResult> result = session_->Execute(sql);
  const int64_t end = NowNs();
  ++stats_.statements;
  if (!result.ok()) {
    NoteError(result.error());
    return std::nullopt;
  }
  stats_.read_ms.push_back(Ms(start, end));
  if (tracer_ != nullptr) {
    TraceRead(start, end, sql, {}, /*parsed_by_call=*/true, pinned, result.value());
  }
  return std::move(result).value();
}

std::optional<quotient::QueryResult> Client::ReadPrepared(int handle,
                                                          const std::vector<Value>& params) {
  PreparedEntry& entry = *prepared_.at(static_cast<size_t>(handle));
  quotient::SnapshotPtr pinned = tracer_ != nullptr ? db_->snapshot() : nullptr;
  const int64_t start = NowNs();
  Result<quotient::QueryResult> result = entry.statement.Execute(params);
  const int64_t end = NowNs();
  ++stats_.statements;
  if (!result.ok()) {
    NoteError(result.error());
    return std::nullopt;
  }
  stats_.read_ms.push_back(Ms(start, end));
  if (tracer_ != nullptr) {
    TraceRead(start, end, entry.sql, params, /*parsed_by_call=*/false, pinned, result.value());
  }
  return std::move(result).value();
}

bool Client::Write(const std::string& dml) {
  const int64_t start = NowNs();
  Result<quotient::QueryResult> result = session_->Execute(dml);
  const int64_t end = NowNs();
  ++stats_.statements;
  if (!result.ok()) {
    NoteError(result.error());
    return false;
  }
  stats_.write_ms.push_back(Ms(start, end));
  if (tracer_ != nullptr) {
    const uint64_t stmt = Tracer::NewId();
    const uint64_t parent = tracer_->Add("api.write", 0, stmt, start, end).id;
    const int64_t parse_start = NowNs();
    (void)quotient::sql::ParseStatement(dml);
    tracer_->Add("sql.parse", parent, stmt, parse_start, NowNs());
  }
  return true;
}

bool Client::Transaction(const std::string& insert, const std::string& select, Relation* rows) {
  const int64_t start = NowNs();
  const uint64_t stmt = tracer_ != nullptr ? Tracer::NewId() : 0;
  auto fail = [&](const std::string& message) {
    NoteError(message);
    if (session_->in_transaction()) (void)session_->Rollback();
    return false;
  };

  ++stats_.statements;
  Status begun = session_->Begin();
  if (!begun.ok()) return fail(begun.message());

  ++stats_.statements;
  Result<quotient::QueryResult> inserted = session_->Execute(insert);
  if (!inserted.ok()) return fail(inserted.error());

  ++stats_.statements;
  const int64_t read_start = NowNs();
  Result<quotient::QueryResult> selected = session_->Execute(select);
  const int64_t read_end = NowNs();
  if (!selected.ok()) return fail(selected.error());
  if (tracer_ != nullptr) {
    // Inside a dirty transaction the replay reads the session's overlay
    // catalog, exactly as the statement did.
    const uint64_t parent = tracer_->Add("api.execute", 0, stmt, read_start, read_end).id;
    Replay(stmt, parent, select, {}, /*parsed_by_call=*/true, nullptr, selected.value());
  }
  *rows = std::move(selected.value().rows);

  ++stats_.statements;
  const int64_t commit_start = NowNs();
  Status committed = session_->Commit();
  const int64_t end = NowNs();
  if (!committed.ok()) return fail(committed.message());
  if (tracer_ != nullptr) tracer_->Add("api.commit", 0, stmt, commit_start, end);
  stats_.write_ms.push_back(Ms(start, end));
  return true;
}

void Client::TraceRead(int64_t start_ns, int64_t end_ns, const std::string& sql,
                       const std::vector<Value>& params, bool parsed_by_call,
                       const quotient::SnapshotPtr& pinned, const quotient::QueryResult& result) {
  const uint64_t stmt = Tracer::NewId();
  Span& span = tracer_->Add("api.execute", 0, stmt, start_ns, end_ns);
  const quotient::ExecProfile& profile = result.profile;
  span.attrs = {{"cache_hit", profile.plan_cache_hit ? 1.0 : 0.0},
                {"fallback", profile.fallback_reason.empty() ? 0.0 : 1.0},
                {"recycler_hits", D(profile.recycler_hits)},
                {"recycler_misses", D(profile.recycler_misses)},
                {"charged_bytes", D(profile.rows_charged_bytes)},
                {"spill_partitions", D(profile.spill_partitions)},
                {"spill_bytes", D(profile.spill_bytes_written)},
                {"result_rows", D(result.rows.size())}};
  const uint64_t parent = span.id;
  Replay(stmt, parent, sql, params, parsed_by_call, pinned, result);
}

void Client::Replay(uint64_t stmt, uint64_t parent, const std::string& sql,
                    const std::vector<Value>& params, bool parsed_by_call,
                    const quotient::SnapshotPtr& pinned, const quotient::QueryResult& result) {
  // A dirty transaction reads its private overlay; everything else reads
  // the snapshot pinned just before the API call.
  const bool dirty = session_->in_transaction();
  const quotient::Catalog& catalog = dirty ? session_->catalog() : pinned->catalog();
  const quotient::StatsCache* stats = dirty ? nullptr : &pinned->stats();
  // The replayed result is comparable only when no commit landed between
  // the pin and the API call's own pin.
  const bool comparable = dirty || db_->snapshot()->version() == pinned->version();

  if (parsed_by_call) {
    const int64_t t0 = NowNs();
    (void)quotient::sql::ParseStatement(sql);
    tracer_->Add("sql.parse", parent, stmt, t0, NowNs());
  }
  const quotient::CompileInfo& info = result.compile;
  if (!info.compiled) return;  // the oracle interpreter ran; no plan to replay

  if (!info.cache_hit) {
    Result<std::shared_ptr<quotient::sql::SqlQuery>> query = quotient::sql::ParseQuery(sql);
    if (!query.ok()) {
      ++replay_mismatches_;
      return;
    }
    int64_t t0 = NowNs();
    Result<quotient::PlanPtr> lowered = quotient::sql::LowerQuery(*query.value(), catalog);
    tracer_->Add("sql.lower", parent, stmt, t0, NowNs());
    if (!lowered.ok()) {
      ++replay_mismatches_;
      return;
    }
    quotient::OptimizerOptions optimizer_options = options_.optimizer;
    if (!params.empty()) optimizer_options.allow_runtime_checks = false;
    t0 = NowNs();
    quotient::Optimizer optimizer(catalog, optimizer_options, stats);
    quotient::OptimizationReport report = optimizer.Optimize(lowered.value());
    Span& span = tracer_->Add("opt.optimize", parent, stmt, t0, NowNs());
    span.attrs = {{"candidates", D(report.search_candidates)},
                  {"memo_hits", D(report.memo_hits)}};
  }

  quotient::PlanPtr plan =
      params.empty() ? info.optimized : quotient::BindPlanParameters(info.optimized, params);
  quotient::PlannerOptions planner = options_.optimizer.planner;
  planner.recycler = dirty ? nullptr : db_->recycler();
  const double estimated = stats != nullptr
                               ? quotient::EstimatePlan(plan, catalog, *stats).cardinality
                               : quotient::EstimatePlan(plan, catalog).cardinality;
  int64_t t0 = NowNs();
  quotient::IterPtr root = quotient::BuildPhysicalPlan(plan, catalog, planner, stats);
  tracer_->Add("opt.plan_build", parent, stmt, t0, NowNs()).attrs = {
      {"estimated_rows", estimated}};

  // The same governor configuration Session gives each statement.
  quotient::QueryContext context(Clock::time_point{}, options_.memory_budget_bytes, nullptr);
  if (options_.spill_watermark_bytes > 0) {
    context.EnableSpill(options_.spill_watermark_bytes, options_.spill_dir);
  }
  quotient::ScopedQueryContext scope(&context);
  try {
    t0 = NowNs();
    root->Open();
    tracer_->Add("exec.open", parent, stmt, t0, NowNs());
    t0 = NowNs();
    quotient::Batch batch;
    quotient::Tuple tuple;
    std::vector<quotient::Tuple> tuples;
    while (root->NextBatch(&batch)) {
      for (size_t i = 0; i < batch.ActiveRows(); ++i) {
        batch.ToTuple(batch.RowAt(i), &tuple);
        tuples.push_back(std::move(tuple));
      }
    }
    root->Close();
    Relation replayed(root->schema(), std::move(tuples));
    tracer_->Add("exec.drain", parent, stmt, t0, NowNs()).attrs = {
        {"result_rows", D(replayed.size())},
        {"rows_produced", D(quotient::TotalRowsProduced(*root))},
        {"max_dop", D(quotient::MaxPipelineDop(*root))}};
    if (comparable && !(replayed == result.rows)) ++replay_mismatches_;
  } catch (const quotient::QueryAbort&) {
    ++replay_mismatches_;
  }
}

}  // namespace perfbench
