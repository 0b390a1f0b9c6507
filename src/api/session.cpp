#include "api/session.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string_view>

#include "api/txn.hpp"
#include "exec/exec_basic.hpp"
#include "sql/interp.hpp"
#include "sql/lexer.hpp"
#include "sql/lower.hpp"
#include "sql/parser.hpp"

namespace quotient {

namespace {

/// Case-insensitively strips one leading word (plus surrounding whitespace)
/// from `*text`; the word must end at a non-identifier character.
bool StripWord(std::string_view* text, std::string_view word) {
  std::string_view rest = *text;
  while (!rest.empty() && std::isspace(static_cast<unsigned char>(rest.front()))) {
    rest.remove_prefix(1);
  }
  if (rest.size() < word.size()) return false;
  for (size_t i = 0; i < word.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>(rest[i])) != word[i]) return false;
  }
  if (rest.size() > word.size()) {
    char next = rest[word.size()];
    if (std::isalnum(static_cast<unsigned char>(next)) || next == '_') return false;
  }
  rest.remove_prefix(word.size());
  *text = rest;
  return true;
}

/// Whitespace- and keyword-case-insensitive plan-cache key: the token
/// stream re-rendered with single spaces (keywords are already upper-cased
/// by the lexer; identifiers keep their case — names are case-sensitive).
std::string NormalizeSql(const std::vector<sql::Token>& tokens) {
  std::string out;
  for (const sql::Token& token : tokens) {
    if (token.kind == sql::TokenKind::kEnd) break;
    if (!out.empty()) out += ' ';
    if (token.kind == sql::TokenKind::kString) {
      out += '\'' + token.text + '\'';
    } else {
      out += token.text;
    }
  }
  return out;
}

/// The shared plan cache is keyed on (options fingerprint, normalized SQL):
/// sessions configured identically reuse each other's plans, sessions with
/// different rule sets / planner algorithms / fallback policy never collide.
/// The '\n' separator cannot occur in normalized SQL (tokens are joined
/// with single spaces).
std::string OptionsFingerprint(const SessionOptions& options) {
  const OptimizerOptions& opt = options.optimizer;
  std::string fp;
  fp += opt.use_rules ? 'R' : 'r';
  fp += opt.allow_runtime_checks ? 'C' : 'c';
  fp += options.allow_oracle_fallback ? 'F' : 'f';
  fp += opt.planner.expand_divide ? 'X' : 'x';
  fp += std::to_string(static_cast<int>(opt.planner.division));
  fp += ':';
  fp += std::to_string(static_cast<int>(opt.planner.great_divide));
  fp += ':';
  fp += std::to_string(opt.max_rewrite_steps);
  fp += opt.search ? 'S' : 's';
  fp += ':';
  fp += std::to_string(opt.max_search_candidates);
  fp += '\n';
  return fp;
}

/// CI override (.github/workflows/ci.yml, spill-forced-sanitizer job):
/// QUOTIENT_SPILL_WATERMARK=<bytes> arms a spill watermark on every session
/// that doesn't configure one, so the whole test suite can re-run with
/// every blocking build flushing through the spill file.
size_t EnvSpillWatermark() {
  static const size_t value = [] {
    const char* env = std::getenv("QUOTIENT_SPILL_WATERMARK");
    return env != nullptr ? static_cast<size_t>(std::strtoull(env, nullptr, 10))
                          : size_t{0};
  }();
  return value;
}

void AppendBlock(const std::string& text, const std::string& indent,
                 std::vector<std::string>* lines) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines->push_back(indent + text.substr(start, end - start));
    start = end + 1;
  }
}

}  // namespace

// ------------------------------------------------------------ ResultCursor

ResultCursor::ResultCursor(IterPtr root, std::shared_ptr<const Relation> owned,
                           CompileInfo compile, SnapshotPtr snapshot,
                           std::shared_ptr<QueryContext> context,
                           std::shared_ptr<const Catalog> overlay, int64_t limit)
    : root_(std::move(root)),
      owned_(std::move(owned)),
      compile_(std::move(compile)),
      snapshot_(std::move(snapshot)),
      overlay_(std::move(overlay)),
      ctx_(std::move(context)),
      schema_(root_->schema()),
      remaining_limit_(limit) {}

ResultCursor::~ResultCursor() { Close(); }

const Schema& ResultCursor::schema() const { return schema_; }

void ResultCursor::Close() {
  if (root_ != nullptr) {
    final_profile_ = Profile();  // captured while the iterator tree is alive
    if (opened_) {
      try {
        root_->Close();
      } catch (const std::exception& e) {
        if (status_.ok()) status_ = Status::Error(e.what());
      } catch (...) {
        if (status_.ok()) status_ = Status::Error("unknown error closing cursor");
      }
      opened_ = false;
    }
    // Terminal: release the plan, its backing rows, and the pinned catalog
    // snapshot — a finished (or cancelled) cursor stops holding catalog
    // state. root_ goes first; its scans borrow the snapshot's relations.
    root_.reset();
    owned_.reset();
    snapshot_.reset();
    overlay_.reset();
    // Drop the governor too: its destructor closes the spill file and
    // returns the statement's admission grant, so a closed cursor stops
    // counting against the database-wide memory budget.
    ctx_.reset();
  }
  exhausted_ = true;
  batch_valid_ = false;
}

void ResultCursor::Fail(Status status) {
  if (status_.ok()) status_ = std::move(status);
  batch_valid_ = false;
  Close();
}

bool ResultCursor::PullBatch() {
  if (exhausted_ || root_ == nullptr) return false;
  if (remaining_limit_ == 0) {
    // LIMIT satisfied: end the stream without pulling (LIMIT 0 never even
    // opens the plan).
    Close();
    return false;
  }
  ScopedQueryContext scope(ctx_.get());  // pulls may run on any user thread
  try {
    GovernorPoll();
    GovernorFaultPoint("cursor.pull");
    if (!opened_) {
      root_->Open();
      opened_ = true;
    }
    batch_valid_ = root_->NextBatch(&batch_);
    next_active_ = 0;
    if (batch_valid_ && remaining_limit_ > 0 &&
        static_cast<int64_t>(batch_.ActiveRows()) > remaining_limit_) {
      // Cursor-side LIMIT cut: narrow the selection to the rows still owed.
      std::vector<uint32_t> keep;
      keep.reserve(static_cast<size_t>(remaining_limit_));
      for (int64_t i = 0; i < remaining_limit_; ++i) {
        keep.push_back(batch_.RowAt(static_cast<size_t>(i)));
      }
      batch_.SetSelection(std::move(keep));
    }
    if (batch_valid_ && remaining_limit_ > 0) {
      remaining_limit_ -= static_cast<int64_t>(batch_.ActiveRows());
    }
    if (!batch_valid_) Close();
    return batch_valid_;
  } catch (const QueryAbort& e) {
    // A governor trip (cancel, deadline, budget) or an injected fault: the
    // cursor ends with the typed terminal status. Rows already served stay
    // served; Drain() returns the pre-failure rows.
    Fail(e.status());
    return false;
  } catch (const std::exception& e) {
    // Executor errors can surface on any pull — a predicate failing on a
    // late tuple, a worker-pool drain rethrown mid-stream. The cursor ends
    // the stream deterministically: status() carries the message, done()
    // flips, further pulls report end of stream.
    Fail(Status::Error(e.what()));
    return false;
  } catch (...) {
    Fail(Status::Error("unknown execution error"));
    return false;
  }
}

bool ResultCursor::Next(Tuple* out) {
  while (true) {
    if (batch_valid_ && next_active_ < batch_.ActiveRows()) {
      batch_.ToTuple(batch_.RowAt(next_active_++), out);
      return true;
    }
    if (!PullBatch()) return false;
  }
}

const Batch* ResultCursor::NextBatch() {
  if (batch_valid_ && next_active_ < batch_.ActiveRows()) {
    if (next_active_ > 0) {
      // Some rows of this batch were already served through Next(): narrow
      // the selection to the remainder.
      std::vector<uint32_t> remaining;
      remaining.reserve(batch_.ActiveRows() - next_active_);
      for (size_t i = next_active_; i < batch_.ActiveRows(); ++i) {
        remaining.push_back(batch_.RowAt(i));
      }
      batch_.SetSelection(std::move(remaining));
    }
    next_active_ = batch_.ActiveRows();
    return &batch_;
  }
  if (!PullBatch()) return nullptr;
  next_active_ = batch_.ActiveRows();
  return &batch_;
}

Relation ResultCursor::Drain() {
  Schema schema = this->schema();
  std::vector<Tuple> rows;
  Tuple t;
  while (Next(&t)) rows.push_back(t);
  return Relation(std::move(schema), std::move(rows));
}

ExecProfile ResultCursor::Profile() const {
  if (root_ == nullptr) return final_profile_;  // closed: serve the capture
  ExecProfile profile;
  FillRunProfile(root_.get(), ctx_.get(), &profile);
  profile.rewrite_steps = compile_.rewrites.size();
  profile.plan_cache_hit = compile_.cache_hit;
  profile.fallback_reason = compile_.fallback_reason;
  if (!compile_.cache_hit) {
    profile.search_candidates = compile_.search_candidates;
    profile.memo_hits = compile_.memo_hits;
  }
  return profile;
}

// ------------------------------------------------------- PreparedStatement

Result<QueryResult> PreparedStatement::Execute(const std::vector<Value>& params) {
  if (session_ == nullptr) return Result<QueryResult>::Error("empty prepared statement");
  try {
    Result<Session::BoundStatement> bound = session_->BindPrepared(*this, params);
    if (!bound.ok()) return Result<QueryResult>::Error(bound.error());
    return session_->Run(bound.value());
  } catch (const QueryAbort& e) {
    return Result<QueryResult>::Error(e.status());
  } catch (const std::exception& e) {
    return Result<QueryResult>::Error(e.what());
  }
}

Result<ResultCursor> PreparedStatement::Query(const std::vector<Value>& params) {
  if (session_ == nullptr) return Result<ResultCursor>::Error("empty prepared statement");
  try {
    Result<Session::BoundStatement> bound = session_->BindPrepared(*this, params);
    if (!bound.ok()) return Result<ResultCursor>::Error(bound.error());
    return session_->Open(bound.value());
  } catch (const QueryAbort& e) {
    return Result<ResultCursor>::Error(e.status());
  } catch (const std::exception& e) {
    return Result<ResultCursor>::Error(e.what());
  }
}

// ---------------------------------------------------------------- Session

Session::Session(SessionOptions options)
    : Session(std::make_shared<Database>(DatabaseOptions{options.plan_cache_capacity}),
              options) {}

Session::Session(std::shared_ptr<Database> database, SessionOptions options)
    : database_(std::move(database)),
      options_(std::move(options)),
      cache_key_prefix_(OptionsFingerprint(options_)),
      snapshot_(database_->snapshot()),
      cancels_(std::make_unique<CancelRegistry>()) {
  // Thread the database's artifact recycler into the planner so blocking
  // sinks can adopt cached build state. Deliberately NOT part of the
  // options fingerprint: recycling governs execution, not plan shape.
  options_.optimizer.planner.recycler = database_->recycler();
}

// Out of line: Transaction is incomplete in the header.
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;
Session::~Session() = default;

const Catalog& Session::catalog() const {
  return txn_ != nullptr ? txn_->catalog() : snapshot_->catalog();
}

std::shared_ptr<QueryContext> Session::MakeContext() {
  std::chrono::steady_clock::time_point deadline{};
  if (options_.deadline.count() > 0) {
    deadline = std::chrono::steady_clock::now() + options_.deadline;
  }
  auto context = std::make_shared<QueryContext>(deadline, options_.memory_budget_bytes,
                                                options_.fault_injector);
  size_t watermark = options_.spill_watermark_bytes;
  if (watermark == 0) watermark = EnvSpillWatermark();
  if (watermark > 0) context->EnableSpill(watermark, options_.spill_dir);
  {
    std::lock_guard<std::mutex> lock(cancels_->mutex);
    // Prune finished statements' expired slots so the registry stays O(live).
    auto dead = std::remove_if(cancels_->active.begin(), cancels_->active.end(),
                               [](const std::weak_ptr<QueryContext>& w) { return w.expired(); });
    cancels_->active.erase(dead, cancels_->active.end());
    cancels_->active.push_back(context);
  }
  // Admission AFTER registration (and outside the registry lock): Cancel()
  // must reach a statement still waiting in the admission queue, and the
  // wait must not hold the lock Cancel() needs.
  Status admitted = database_->AdmitQuery(options_.memory_budget_bytes, context.get());
  if (!admitted.ok()) throw QueryAbort(std::move(admitted));
  if (database_->options().admission_memory_bytes > 0 &&
      options_.memory_budget_bytes > 0) {
    // The grant returns when the statement's governor dies — cursors hold
    // theirs until Close(). The hook keeps the Database alive.
    context->SetAdmissionRelease(
        [database = database_, bytes = options_.memory_budget_bytes]() {
          database->ReleaseAdmission(bytes);
        });
  }
  return context;
}

void Session::Cancel() {
  std::lock_guard<std::mutex> lock(cancels_->mutex);
  for (const std::weak_ptr<QueryContext>& weak : cancels_->active) {
    if (std::shared_ptr<QueryContext> ctx = weak.lock()) ctx->Cancel();
  }
}

namespace {
/// DDL publishes immediately and database-wide; inside a transaction that
/// would leak around the isolation contract, so it is rejected outright
/// (docs/transactions.md).
Status NoDdlInTxn() {
  return Status::Error("DDL is not allowed inside a transaction (COMMIT or ROLLBACK first)");
}
}  // namespace

Status Session::CreateTable(const std::string& name, Relation rows) {
  if (txn_ != nullptr) return NoDdlInTxn();
  Status status = database_->CreateTable(name, std::move(rows));
  Pin();
  return status;
}

Status Session::CreateTable(const std::string& name, const std::string& schema_spec) {
  if (txn_ != nullptr) return NoDdlInTxn();
  Status status = database_->CreateTable(name, schema_spec);
  Pin();
  return status;
}

Status Session::InsertRows(const std::string& name, const std::vector<Tuple>& rows) {
  if (txn_ != nullptr) {
    // Buffer into the open transaction — identical to SQL INSERT.
    Result<size_t> added = txn_->Insert(name, rows);
    return added.ok() ? Status::Ok() : added.status();
  }
  Status status = database_->InsertRows(name, rows);
  Pin();
  return status;
}

Status Session::LoadCsv(const std::string& name, const std::string& csv_text) {
  if (txn_ != nullptr) return NoDdlInTxn();
  Status status = database_->LoadCsv(name, csv_text);
  Pin();
  return status;
}

Status Session::LoadCsvFile(const std::string& name, const std::string& path) {
  if (txn_ != nullptr) return NoDdlInTxn();
  Status status = database_->LoadCsvFile(name, path);
  Pin();
  return status;
}

Status Session::DeclareKey(const std::string& table, const std::vector<std::string>& attrs) {
  if (txn_ != nullptr) return NoDdlInTxn();
  Status status = database_->DeclareKey(table, attrs);
  Pin();
  return status;
}

Status Session::DeclareForeignKey(const std::string& from_table,
                                  const std::vector<std::string>& attrs,
                                  const std::string& to_table) {
  if (txn_ != nullptr) return NoDdlInTxn();
  Status status = database_->DeclareForeignKey(from_table, attrs, to_table);
  Pin();
  return status;
}

Status Session::DeclareDisjoint(const std::string& table1, const std::string& table2,
                                const std::vector<std::string>& attrs) {
  if (txn_ != nullptr) return NoDdlInTxn();
  Status status = database_->DeclareDisjoint(table1, table2, attrs);
  Pin();
  return status;
}

Result<Session::Statement> Session::ParseStatement(const std::string& sql) const {
  Statement statement;
  std::string_view rest = sql;
  if (StripWord(&rest, "EXPLAIN")) {
    statement.explain = true;
    statement.analyze = StripWord(&rest, "ANALYZE");
  }
  // Lex once; the token stream feeds both the parse and the cache key.
  Result<std::vector<sql::Token>> tokens = sql::Tokenize(std::string(rest));
  if (!tokens.ok()) return Result<Statement>::Error(tokens.error());
  statement.normalized = NormalizeSql(tokens.value());
  // Transaction control and DML route around the SELECT compile pipeline.
  if (!tokens.value().empty()) {
    const sql::Token& first = tokens.value().front();
    if (first.IsKeyword("BEGIN") || first.IsKeyword("COMMIT") || first.IsKeyword("ROLLBACK") ||
        first.IsKeyword("INSERT") || first.IsKeyword("DELETE")) {
      if (statement.explain) {
        return Result<Statement>::Error("EXPLAIN supports SELECT statements only");
      }
      Result<std::shared_ptr<sql::SqlStatement>> command =
          sql::ParseStatementTokens(std::move(tokens).value());
      if (!command.ok()) return Result<Statement>::Error(command.error());
      statement.command = command.value();
      return statement;
    }
  }
  Result<std::shared_ptr<sql::SqlQuery>> parsed = sql::ParseTokens(std::move(tokens).value());
  if (!parsed.ok()) return Result<Statement>::Error(parsed.error());
  statement.ast = parsed.value();
  return statement;
}

Session::ReadView Session::PinView() {
  if (txn_ != nullptr) {
    // A transaction's statements all read its pinned snapshot; once it has
    // buffered writes they read the private overlay instead (their own
    // uncommitted rows, invisible to every other session).
    return ReadView{txn_->snapshot(), txn_->dirty() ? txn_->read_catalog() : nullptr};
  }
  return ReadView{Pin(), nullptr};
}

Result<Session::CompiledRef> Session::Compile(const Catalog& catalog, uint64_t version,
                                              bool allow_cache,
                                              std::shared_ptr<const sql::SqlQuery> ast,
                                              const std::string& normalized,
                                              size_t param_count, const StatsCache* stats) {
  const bool use_cache = allow_cache && options_.plan_cache_capacity > 0;
  std::string key = cache_key_prefix_ + normalized;
  if (use_cache) {
    if (std::shared_ptr<const CompiledStatement> entry = database_->CacheLookup(key, version)) {
      return CompiledRef{std::move(entry), /*cache_hit=*/true};
    }
  }

  auto compiled = std::make_shared<CompiledStatement>();
  compiled->ast = std::move(ast);
  compiled->param_count = param_count;
  compiled->info.normalized_sql = normalized;
  std::set<std::string> tables;
  Result<PlanPtr> lowered = sql::LowerQuery(*compiled->ast, catalog);
  if (lowered.ok()) {
    compiled->info.compiled = true;
    compiled->info.lowered = lowered.value();
    OptimizerOptions optimizer_options = options_.optimizer;
    // Data-dependent runtime checks would have to evaluate subplans whose
    // predicates still carry '?' slots; compile parameterized statements
    // with the cheap declared-metadata preconditions only.
    if (param_count > 0) optimizer_options.allow_runtime_checks = false;
    Optimizer optimizer(catalog, optimizer_options, stats);
    OptimizationReport report = optimizer.Optimize(compiled->info.lowered);
    compiled->info.optimized = report.chosen;
    compiled->info.rewrites = std::move(report.steps);
    compiled->info.lowered_cost = report.original_cost;
    compiled->info.optimized_cost = report.chosen_cost;
    compiled->info.greedy_cost = report.greedy_cost;
    compiled->info.search_candidates = report.search_candidates;
    compiled->info.memo_hits = report.memo_hits;
    compiled->info.rewrite_budget_exhausted = report.budget_exhausted;
    database_->NoteCompile(compiled->info);
    CollectScanTables(compiled->info.optimized, &tables);
    CollectScanTables(compiled->info.lowered, &tables);
  } else if (options_.allow_oracle_fallback) {
    compiled->info.fallback_reason = lowered.error();
    // No plan to walk on the oracle path: the AST's table references are
    // the invalidation domain (including not-yet-created tables, so a
    // later CreateTable retires a cached "unknown table" outcome).
    sql::CollectTables(*compiled->ast, &tables);
  } else {
    return Result<CompiledRef>::Error(lowered.error());
  }

  if (use_cache) {
    database_->CacheInsert(key, compiled, version,
                           std::vector<std::string>(tables.begin(), tables.end()));
  }
  return CompiledRef{std::move(compiled), /*cache_hit=*/false};
}

Result<Session::BoundStatement> Session::CompileStatement(Statement statement) {
  if (sql::CountParameters(*statement.ast) > 0) {
    return Result<BoundStatement>::Error(
        "statement has unbound '?' parameters; use Session::Prepare");
  }
  BoundStatement bound;
  ReadView view = PinView();
  bound.snapshot = std::move(view.snapshot);
  bound.overlay = std::move(view.overlay);
  // Dirty-transaction statements compile against private data: both the
  // shared plan cache and the artifact recycler are off-limits for them
  // (a plan or divisor built over uncommitted rows must never be visible
  // at a committed catalog version).
  Result<CompiledRef> compiled =
      Compile(bound.exec_catalog(), bound.snapshot->version(),
              /*allow_cache=*/bound.overlay == nullptr, statement.ast, statement.normalized, 0,
              bound.overlay == nullptr ? &bound.snapshot->stats() : nullptr);
  if (!compiled.ok()) return Result<BoundStatement>::Error(compiled.error());
  bound.statement = std::move(statement);
  bound.compiled = std::move(compiled).value();
  bound.plan = bound.compiled.entry->info.optimized;
  bound.ast = bound.compiled.entry->ast;
  return bound;
}

Result<Session::BoundStatement> Session::BindPrepared(const PreparedStatement& prepared,
                                                      const std::vector<Value>& params) {
  if (params.size() != prepared.param_count_) {
    return Result<BoundStatement>::Error(
        "statement takes " + std::to_string(prepared.param_count_) + " parameter(s), got " +
        std::to_string(params.size()));
  }
  BoundStatement bound;
  ReadView view = PinView();
  bound.snapshot = std::move(view.snapshot);
  bound.overlay = std::move(view.overlay);
  // Compile-or-hit on the UNBOUND statement: one cache entry per prepared
  // statement, every binding a hit. (After DDL on a referenced table the
  // entry is stale and this recompiles against the new snapshot — prepared
  // statements survive DDL. Inside a dirty transaction the cache is
  // bypassed; see CompileStatement.)
  Result<CompiledRef> compiled =
      Compile(bound.exec_catalog(), bound.snapshot->version(),
              /*allow_cache=*/bound.overlay == nullptr, prepared.ast_, prepared.normalized_,
              prepared.param_count_,
              bound.overlay == nullptr ? &bound.snapshot->stats() : nullptr);
  if (!compiled.ok()) return Result<BoundStatement>::Error(compiled.error());
  bound.statement =
      Statement{prepared.explain_, prepared.analyze_, prepared.ast_, prepared.normalized_};
  bound.compiled = std::move(compiled).value();
  const CompiledStatement& entry = *bound.compiled.entry;
  if (entry.info.compiled) {
    // Bind the values into the cached optimized plan: a path copy touching
    // only the nodes whose predicates carry '?' slots.
    bound.plan = params.empty() ? entry.info.optimized
                                : BindPlanParameters(entry.info.optimized, params);
  } else {
    if (params.empty()) {
      bound.ast = entry.ast;
    } else {
      Result<std::shared_ptr<sql::SqlQuery>> ast = sql::BindParameters(*entry.ast, params);
      if (!ast.ok()) return Result<BoundStatement>::Error(ast.error());
      bound.ast = std::move(ast).value();
    }
  }
  return bound;
}

Result<QueryResult> Session::Run(const BoundStatement& bound) {
  const CompiledStatement& entry = *bound.compiled.entry;
  const Catalog& catalog = bound.exec_catalog();
  // Recycled artifacts are keyed on committed data versions; an overlay's
  // private versions can collide with them while holding different rows, so
  // dirty-transaction statements run with recycling off.
  PlannerOptions planner = options_.optimizer.planner;
  if (bound.overlay != nullptr) planner.recycler = nullptr;
  QueryResult out;
  out.compile = entry.info;
  out.compile.cache_hit = bound.compiled.cache_hit;
  size_t result_rows = 0;
  bool execute = !bound.statement.explain || bound.statement.analyze;
  if (execute) {
    // One governor per statement execution; registered so Cancel() from
    // another thread reaches it. A trip unwinds here as QueryAbort and
    // leaves through the typed-Status door — never as partial results.
    std::shared_ptr<QueryContext> context = MakeContext();
    try {
      if (entry.info.compiled) {
        out.rows = ExecutePlan(bound.plan, catalog, planner, &out.profile, context.get(),
                               bound.overlay == nullptr ? &bound.snapshot->stats() : nullptr);
      } else {
        database_->NoteFallbackExecution(entry.info.fallback_reason);
        ScopedQueryContext scope(context.get());
        out.rows = sql::ExecuteQueryOracle(*bound.ast, catalog);
        out.profile.explain =
            "OracleInterpreter (tuple-at-a-time fallback: " + entry.info.fallback_reason + ")\n";
        out.profile.total_rows = out.rows.size();
        out.profile.max_rows = out.rows.size();
        FillRunProfile(nullptr, context.get(), &out.profile);
      }
    } catch (const QueryAbort& e) {
      return Result<QueryResult>::Error(e.status());
    }
    // ORDER BY / LIMIT are statement-level result shaping: the plan computes
    // the full (canonical, duplicate-free) result, then this post-pass sorts
    // and truncates it deterministically.
    if (sql::HasOrderLimit(*entry.ast)) {
      Result<Relation> shaped = sql::ApplyOrderLimit(*entry.ast, std::move(out.rows));
      if (!shaped.ok()) return Result<QueryResult>::Error(shaped.error());
      out.rows = std::move(shaped).value();
    }
    result_rows = out.rows.size();
  }
  out.profile.rewrite_steps = entry.info.rewrites.size();
  out.profile.plan_cache_hit = bound.compiled.cache_hit;
  out.profile.fallback_reason = entry.info.fallback_reason;
  // Search accounting reports optimizer work THIS statement paid for; a
  // cache hit reused the searched plan without searching again.
  if (!bound.compiled.cache_hit) {
    out.profile.search_candidates = entry.info.search_candidates;
    out.profile.memo_hits = entry.info.memo_hits;
  }
  if (bound.statement.explain) {
    out.rows = RenderExplain(out.compile, bound.statement.analyze, out.profile, result_rows);
  }
  return out;
}

Result<ResultCursor> Session::Open(const BoundStatement& bound) {
  const CompiledStatement& entry = *bound.compiled.entry;
  // EXPLAIN output is tiny, and an ORDER BY needs the full result before
  // the first row can stream; both materialize through Run. (LIMIT alone
  // keeps the streaming path: the cursor cuts the stream after N rows.)
  if (bound.statement.explain || !entry.ast->order_by.empty() ||
      (!entry.info.compiled && sql::HasOrderLimit(*entry.ast))) {
    Result<QueryResult> result = Run(bound);
    if (!result.ok()) return Result<ResultCursor>::Error(result.status());
    CompileInfo info = result.value().compile;
    auto owned = std::make_shared<const Relation>(std::move(result.value().rows));
    return ResultCursor(std::make_unique<RelationScan>(owned), owned, std::move(info),
                        bound.snapshot, MakeContext(), bound.overlay);
  }
  CompileInfo info = entry.info;
  info.cache_hit = bound.compiled.cache_hit;
  // The cursor shares the governor: Cancel() reaches it for as long as the
  // cursor is alive, and every pull polls it.
  std::shared_ptr<QueryContext> context = MakeContext();
  PlannerOptions planner = options_.optimizer.planner;
  if (bound.overlay != nullptr) planner.recycler = nullptr;  // see Run
  if (entry.info.compiled) {
    IterPtr root = BuildPhysicalPlan(bound.plan, bound.exec_catalog(), planner,
                                     bound.overlay == nullptr ? &bound.snapshot->stats()
                                                              : nullptr);
    return ResultCursor(std::move(root), nullptr, std::move(info), bound.snapshot,
                        std::move(context), bound.overlay, entry.ast->limit);
  }
  // The oracle path materializes during Open; govern that burst too.
  ScopedQueryContext scope(context.get());
  auto owned = std::make_shared<const Relation>(
      sql::ExecuteQueryOracle(*bound.ast, bound.exec_catalog()));
  return ResultCursor(std::make_unique<RelationScan>(owned), owned, std::move(info),
                      bound.snapshot, std::move(context), bound.overlay);
}

Relation Session::RenderExplain(const CompileInfo& info, bool analyze,
                                const ExecProfile& profile, size_t result_rows) const {
  std::vector<std::string> lines;
  lines.push_back(analyze ? "EXPLAIN ANALYZE" : "EXPLAIN");
  lines.push_back(std::string("plan cache: ") + (info.cache_hit ? "hit" : "miss"));
  if (info.compiled) {
    lines.push_back("path: compiled (lower -> rewrite laws -> parallel pipeline executor)");
    lines.push_back("rewrites applied: " + std::to_string(info.rewrites.size()));
    AppendBlock(SummarizeRewrites(info.rewrites), "", &lines);
    char cost[160];
    std::snprintf(cost, sizeof(cost),
                  "estimated cost: %.1f -> %.1f (greedy fixpoint: %.1f)", info.lowered_cost,
                  info.optimized_cost, info.greedy_cost);
    lines.push_back(cost);
    if (info.search_candidates > 0) {
      std::string search = "search: " + std::to_string(info.search_candidates) +
                           " candidates, " + std::to_string(info.memo_hits) + " memo hits";
      if (info.rewrite_budget_exhausted) search += " (budget exhausted)";
      lines.push_back(std::move(search));
    } else {
      std::string search = "search: off (greedy fixpoint)";
      if (info.rewrite_budget_exhausted) search += " (budget exhausted)";
      lines.push_back(std::move(search));
    }
    lines.push_back("logical plan (lowered):");
    AppendBlock(info.lowered->ToString(), "  ", &lines);
    if (!info.rewrites.empty()) {
      lines.push_back("logical plan (after rewriting):");
      AppendBlock(info.optimized->ToString(), "  ", &lines);
    }
  } else {
    lines.push_back("path: oracle interpreter (fallback: " + info.fallback_reason + ")");
  }
  if (analyze) {
    lines.push_back("dop=" + std::to_string(profile.max_dop));
    std::string governor =
        "governor: charged=" + std::to_string(profile.rows_charged_bytes) + " bytes";
    if (profile.spill_partitions > 0) {
      governor += ", spill=" + std::to_string(profile.spill_partitions) + " partitions/" +
                  std::to_string(profile.spill_bytes_written) + " bytes";
    }
    if (profile.recycler_hits + profile.recycler_misses > 0) {
      governor += ", recycler=" + std::to_string(profile.recycler_hits) + " hits/" +
                  std::to_string(profile.recycler_misses) + " misses";
    }
    if (profile.cancelled) governor += ", cancelled";
    if (!profile.fault_site.empty()) governor += ", fault=" + profile.fault_site;
    lines.push_back(governor);
    lines.push_back("result rows: " + std::to_string(result_rows));
    lines.push_back("operator profile:");
    AppendBlock(profile.explain, "  ", &lines);
    if (!profile.pipelines.empty()) {
      lines.push_back("pipelines:");
      AppendBlock(profile.pipelines, "  ", &lines);
    }
  }
  std::vector<Tuple> rows;
  rows.reserve(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    rows.push_back({Value::Int(static_cast<int64_t>(i + 1)), Value::Str(lines[i])});
  }
  return Relation(Schema::Parse("line:int, detail:string"), std::move(rows));
}

// ------------------------------------------------- transaction control + DML

namespace {

/// One-row acknowledgement relation for BEGIN/COMMIT/ROLLBACK.
QueryResult ControlResult(const char* name) {
  QueryResult out;
  out.rows = Relation(Schema::Parse("status:string"), {{Value::Str(name)}});
  out.profile.total_rows = 1;
  return out;
}

/// One-row rows_affected relation for INSERT/DELETE.
QueryResult DmlResult(size_t rows_affected) {
  QueryResult out;
  out.rows = Relation(Schema::Parse("rows_affected:int"),
                      {{Value::Int(static_cast<int64_t>(rows_affected))}});
  out.profile.total_rows = 1;
  return out;
}

/// Attempts after which an autocommit DML statement stops retrying lost
/// first-committer-wins races and surfaces kConflict to the caller.
constexpr int kAutocommitAttempts = 8;

}  // namespace

Status Session::Begin() {
  if (txn_ != nullptr) {
    return Status::Error("already in a transaction (COMMIT or ROLLBACK first)");
  }
  txn_ = std::make_unique<Transaction>(Pin());
  database_->NoteTransactionBegin();
  return Status::Ok();
}

Status Session::Commit() {
  if (txn_ == nullptr) return Status::Error("no transaction in progress (BEGIN first)");
  // The transaction ends NOW, succeed or fail: a lost validation race rolls
  // back cleanly and the session is immediately usable (typically a retry).
  std::unique_ptr<Transaction> txn = std::move(txn_);
  Status status;
  try {
    // Governed commit: the session's fault injector and deadline reach the
    // txn.validate / txn.publish sites inside CommitWriteSet.
    std::shared_ptr<QueryContext> context = MakeContext();
    ScopedQueryContext scope(context.get());
    status = database_->CommitWriteSet(txn->WriteSet());
  } catch (const QueryAbort& e) {
    status = e.status();
  } catch (const std::exception& e) {
    status = Status::Error(e.what());
  }
  if (!status.ok()) database_->NoteTransactionRollback();
  Pin();  // observe the commit (or whatever state the failed attempt left)
  return status;
}

Status Session::Rollback() {
  if (txn_ == nullptr) return Status::Error("no transaction in progress (BEGIN first)");
  txn_.reset();
  database_->NoteTransactionRollback();
  Pin();
  return Status::Ok();
}

Result<size_t> Session::RunInsert(const sql::SqlInsert& insert) {
  if (txn_ != nullptr) {
    Result<std::vector<Tuple>> rows = sql::LowerInsert(insert, txn_->catalog());
    if (!rows.ok()) return Result<size_t>::Error(rows.status());
    return txn_->Insert(insert.table, std::move(rows).value());
  }
  // Autocommit: a single-statement transaction with a bounded
  // first-committer-wins retry loop — each attempt re-reads the newest
  // snapshot, so only a sustained stream of competing committers exhausts it.
  Status last;
  for (int attempt = 0; attempt < kAutocommitAttempts; ++attempt) {
    Transaction txn(database_->snapshot());
    Result<std::vector<Tuple>> rows = sql::LowerInsert(insert, txn.catalog());
    if (!rows.ok()) return Result<size_t>::Error(rows.status());
    Result<size_t> added = txn.Insert(insert.table, std::move(rows).value());
    if (!added.ok()) return added;
    Status committed = database_->CommitWriteSet(txn.WriteSet());
    if (committed.ok()) {
      Pin();
      return added;
    }
    if (committed.code() != StatusCode::kConflict) {
      return Result<size_t>::Error(std::move(committed));
    }
    last = std::move(committed);
  }
  return Result<size_t>::Error(std::move(last));
}

Result<size_t> Session::RunDelete(const sql::SqlDelete& del) {
  // Deletion is "replace the table with the survivors": evaluate
  // SELECT * FROM t WHERE NOT(pred) against the statement's read view.
  auto survivors_of = [&](const Catalog& catalog) -> Result<Relation> {
    if (!catalog.Has(del.table)) {
      return Result<Relation>::Error("unknown table '" + del.table + "' (CreateTable first)");
    }
    if (del.where == nullptr) {  // unconditional DELETE empties the table
      return Relation(catalog.Get(del.table).schema());
    }
    try {
      return sql::ExecuteQueryOracle(*sql::DeleteSurvivorQuery(del), catalog);
    } catch (const std::exception& e) {
      return Result<Relation>::Error(e.what());
    }
  };
  if (txn_ != nullptr) {
    Result<Relation> survivors = survivors_of(txn_->catalog());
    if (!survivors.ok()) return Result<size_t>::Error(survivors.status());
    return txn_->Replace(del.table, std::move(survivors).value());
  }
  Status last;
  for (int attempt = 0; attempt < kAutocommitAttempts; ++attempt) {
    Transaction txn(database_->snapshot());
    Result<Relation> survivors = survivors_of(txn.catalog());
    if (!survivors.ok()) return Result<size_t>::Error(survivors.status());
    Result<size_t> removed = txn.Replace(del.table, std::move(survivors).value());
    if (!removed.ok()) return removed;
    Status committed = database_->CommitWriteSet(txn.WriteSet());
    if (committed.ok()) {
      Pin();
      return removed;
    }
    if (committed.code() != StatusCode::kConflict) {
      return Result<size_t>::Error(std::move(committed));
    }
    last = std::move(committed);
  }
  return Result<size_t>::Error(std::move(last));
}

Result<QueryResult> Session::RunCommand(const sql::SqlStatement& command) {
  using Kind = sql::SqlStatement::Kind;
  switch (command.kind) {
    case Kind::kBegin: {
      Status status = Begin();
      if (!status.ok()) return Result<QueryResult>::Error(std::move(status));
      return ControlResult("BEGIN");
    }
    case Kind::kCommit: {
      Status status = Commit();
      if (!status.ok()) return Result<QueryResult>::Error(std::move(status));
      return ControlResult("COMMIT");
    }
    case Kind::kRollback: {
      Status status = Rollback();
      if (!status.ok()) return Result<QueryResult>::Error(std::move(status));
      return ControlResult("ROLLBACK");
    }
    case Kind::kInsert: {
      Result<size_t> added = RunInsert(command.insert);
      if (!added.ok()) return Result<QueryResult>::Error(added.status());
      return DmlResult(added.value());
    }
    case Kind::kDelete: {
      Result<size_t> removed = RunDelete(command.del);
      if (!removed.ok()) return Result<QueryResult>::Error(removed.status());
      return DmlResult(removed.value());
    }
    case Kind::kSelect: break;  // never parsed into a command
  }
  return Result<QueryResult>::Error("unsupported statement");
}

// ------------------------------------------------------------- entry points

Result<QueryResult> Session::Execute(const std::string& sql) {
  try {
    Result<Statement> statement = ParseStatement(sql);
    if (!statement.ok()) return Result<QueryResult>::Error(statement.error());
    if (statement.value().command != nullptr) {
      return RunCommand(*statement.value().command);
    }
    Result<BoundStatement> bound = CompileStatement(std::move(statement).value());
    if (!bound.ok()) return Result<QueryResult>::Error(bound.error());
    return Run(bound.value());
  } catch (const QueryAbort& e) {
    return Result<QueryResult>::Error(e.status());
  } catch (const std::exception& e) {
    return Result<QueryResult>::Error(e.what());
  }
}

Result<ResultCursor> Session::Query(const std::string& sql) {
  try {
    Result<Statement> statement = ParseStatement(sql);
    if (!statement.ok()) return Result<ResultCursor>::Error(statement.error());
    if (statement.value().command != nullptr) {
      // Control/DML through the cursor API: run it, stream the one-row ack.
      Result<QueryResult> result = RunCommand(*statement.value().command);
      if (!result.ok()) return Result<ResultCursor>::Error(result.status());
      CompileInfo info = result.value().compile;
      auto owned = std::make_shared<const Relation>(std::move(result.value().rows));
      return ResultCursor(std::make_unique<RelationScan>(owned), owned, std::move(info),
                          snapshot_, nullptr);
    }
    Result<BoundStatement> bound = CompileStatement(std::move(statement).value());
    if (!bound.ok()) return Result<ResultCursor>::Error(bound.error());
    return Open(bound.value());
  } catch (const QueryAbort& e) {
    return Result<ResultCursor>::Error(e.status());
  } catch (const std::exception& e) {
    return Result<ResultCursor>::Error(e.what());
  }
}

Result<PreparedStatement> Session::Prepare(const std::string& sql) {
  try {
    Result<Statement> statement = ParseStatement(sql);
    if (!statement.ok()) return Result<PreparedStatement>::Error(statement.error());
    if (statement.value().command != nullptr) {
      return Result<PreparedStatement>::Error(
          "cannot prepare transaction control or DML statements");
    }
    PreparedStatement prepared;
    prepared.session_ = this;
    prepared.ast_ = statement.value().ast;
    prepared.normalized_ = statement.value().normalized;
    prepared.param_count_ = sql::CountParameters(*statement.value().ast);
    prepared.explain_ = statement.value().explain;
    prepared.analyze_ = statement.value().analyze;
    // Warm the shared cache now: the statement compiles (lower → rewrite)
    // exactly once here; every Execute/Query binding is then a cache hit.
    // Compile errors (possible only with the oracle fallback disabled) are
    // surfaced by Execute/Query, preserving the Prepare-never-compiles
    // error contract. With caching disabled the result could not be kept,
    // so don't compile a throwaway — and inside a transaction the warm-up
    // is skipped too (dirty overlays never publish to the shared cache;
    // BindPrepared compiles against the txn view on first use).
    if (options_.plan_cache_capacity > 0 && txn_ == nullptr) {
      const SnapshotPtr& pinned = Pin();
      (void)Compile(pinned->catalog(), pinned->version(), /*allow_cache=*/true, prepared.ast_,
                    prepared.normalized_, prepared.param_count_, &pinned->stats());
    }
    return prepared;
  } catch (const std::exception& e) {
    return Result<PreparedStatement>::Error(e.what());
  }
}

}  // namespace quotient
