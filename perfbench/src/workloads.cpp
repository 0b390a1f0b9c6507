#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "data.hpp"
#include "sql/interp.hpp"

namespace perfbench {

using quotient::Database;
using quotient::QueryResult;
using quotient::Relation;
using quotient::SessionOptions;
using quotient::Tuple;
using quotient::V;

namespace {

// Stream tags: each kind of seeded choice draws from its own stream, so
// adding draws to one never shifts another.
constexpr uint64_t kOpStream = 1ull << 40;
constexpr uint64_t kLiteralStream = 2ull << 40;
constexpr uint64_t kSampleStream = 3ull << 40;
constexpr uint64_t kWriteStream = 4ull << 40;
constexpr uint64_t kBindingStream = 6ull << 40;

/// Runs one closed loop per client for `seconds`: `step(i)` issues client
/// i's next operation and returns only when it has completed. One client
/// runs on the calling thread; several run on one thread each.
template <typename Step>
PhaseResult Measure(Database& db, const std::vector<Client*>& clients, double seconds,
                    bool traced, Step step) {
  PhaseResult out;
  std::vector<Tracer> tracers(clients.size());
  for (size_t i = 0; i < clients.size(); ++i) {
    clients[i]->set_tracer(traced ? &tracers[i] : nullptr);
    (void)clients[i]->TakeStats();
  }
  out.before = db.Stats();
  const Clock::time_point start = Clock::now();
  auto loop = [&](size_t i) {
    while (SecondsSince(start) < seconds) step(i);
  };
  if (clients.size() == 1) {
    loop(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(clients.size());
    for (size_t i = 0; i < clients.size(); ++i) threads.emplace_back(loop, i);
    for (std::thread& t : threads) t.join();
  }
  out.wall_s = SecondsSince(start);
  out.after = db.Stats();
  for (size_t i = 0; i < clients.size(); ++i) {
    clients[i]->set_tracer(nullptr);
    out.stats.Merge(clients[i]->TakeStats());
    out.replay_mismatches += clients[i]->replay_mismatches();
    std::vector<Span>& spans = tracers[i].spans();
    std::move(spans.begin(), spans.end(), std::back_inserter(out.spans));
  }
  return out;
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

void Check(const quotient::Status& status, std::vector<std::string>* problems) {
  if (!status.ok()) problems->push_back("setup: " + status.message());
}

template <typename T>
std::vector<T> Sorted(std::vector<T> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------- analytic

/// analytic_spill: one session, four statement templates over
/// suppliers-and-parts, every distinct statement warm.
class AnalyticWorkload : public Workload {
 public:
  AnalyticWorkload(int64_t suppliers, int64_t parts, SessionOptions options)
      : suppliers_(suppliers), parts_(parts), options_(std::move(options)) {}

  void Generate(uint64_t seed) override {
    seed_ = seed;
    data_ = GenerateSuppliers(seed, suppliers_, parts_, 0.3);
    ks_ = {parts_ * 5 / 16, parts_ * 6 / 16, parts_ / 2, parts_ * 3 / 4};
    // Blocks of 20: 11 small divides, 4 great divides, 1 GROUP BY, 4 EXISTS,
    // in seeded order with seeded bindings. Fixed shares keep each latency
    // percentile inside one template's mass (README.md).
    static const int kBlock[] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 3, 3, 3, 3};
    Rng rng = StreamRng(seed, kOpStream);
    ops_.clear();
    for (int block = 0; block < 256; ++block) {
      std::vector<int> order(std::begin(kBlock), std::end(kBlock));
      rng.Shuffle(&order);
      for (int t : order) ops_.push_back(Op{t, t == 1 ? 0 : static_cast<int>(rng.Below(4))});
    }
  }

  void Stage() override {
    client_.reset();
    db_.reset();
    staged_supplies_ = data_.SuppliesTable();
    staged_parts_ = data_.PartsTable();
  }

  void Setup(std::vector<std::string>* problems) override {
    results_.clear();
    run_problems_.clear();
    db_ = std::make_shared<Database>();
    Check(db_->CreateTable("supplies", std::move(staged_supplies_)), problems);
    Check(db_->CreateTable("parts", std::move(staged_parts_)), problems);
    client_ = std::make_unique<Client>(db_, options_);
    divide_ = client_->Prepare(
        "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = ?) AS p "
        "ON s.p# = p.p#");
    for (int t = 0; t < 4; ++t) {
      for (int b = 0; b < (t == 1 ? 1 : 4); ++b) {
        std::optional<QueryResult> r = Execute(Op{t, b});
        if (r) {
          results_[Key(Op{t, b})] = std::move(r->rows);
        } else {
          problems->push_back("warm-up of " + Text(Op{t, b}) + " failed");
        }
      }
    }
    ClientStats warm = client_->TakeStats();
    for (const std::string& e : warm.errors) problems->push_back("warm-up: " + e);
    pos_ = 0;
    full_checks_ = 0;
  }

  PhaseResult Run(double seconds, bool traced) override {
    return Measure(*db_, {client_.get()}, seconds, traced, [&](size_t) {
      const Op op = ops_[pos_ % ops_.size()];
      std::optional<QueryResult> r = Execute(op);
      if (!r) return;
      // Every execution must agree with the warm-up result for its
      // statement (checked against the references in Verify); a seeded
      // sample is compared in full, the rest by row count.
      const Relation& first = results_.at(Key(op));
      if (r->rows.size() != first.size()) {
        run_problems_.push_back(Text(op) + ": row count changed between executions");
      } else if (full_checks_ < 64 && pos_ % 8 == 0) {
        ++full_checks_;
        if (!(r->rows == first)) run_problems_.push_back(Text(op) + ": result changed");
      }
      ++pos_;
    });
  }

  void Verify(std::vector<std::string>* problems) override {
    problems->insert(problems->end(), run_problems_.begin(), run_problems_.end());
    // Every distinct statement against the harness's own reference.
    for (const auto& [key, rows] : results_) {
      const Op op = FromKey(key);
      bool ok = false;
      switch (op.tmpl) {
        case 0:
          ok = rows.schema().size() == 1 &&
               Sorted(IntColumn(rows, "s#")) == data_.CoverColor(op.binding);
          break;
        case 1:
          ok = rows.schema().size() == 2 &&
               Sorted(SupplierColorPairs(rows)) == data_.CoverEachColor();
          break;
        case 2:
          ok = rows.schema().size() == 1 &&
               Sorted(IntColumn(rows, "s#")) == data_.MoreThan(ks_[op.binding]);
          break;
        default:
          ok = rows.schema().size() == 1 &&
               Sorted(IntColumn(rows, "s#")) == data_.AnyOfColor(op.binding);
          break;
      }
      if (!ok) problems->push_back(Text(op) + ": result differs from the reference");
    }
    // The same statements against the oracle interpreter on the same
    // snapshot, except the correlated EXISTS template: the tuple-at-a-time
    // oracle needs about 10 s for it at this size (README.md).
    for (const auto& [key, rows] : results_) {
      const Op op = FromKey(key);
      if (op.tmpl == 3) continue;
      quotient::Result<Relation> oracle =
          quotient::sql::ExecuteSql(Text(op), db_->snapshot()->catalog());
      if (!oracle.ok() || !(oracle.value() == rows)) {
        problems->push_back(Text(op) + ": result differs from the oracle interpreter");
      }
    }
  }

  std::vector<std::pair<std::string, size_t>> TableRows() const override {
    return {{"supplies", data_.supplies_rows}, {"parts", static_cast<size_t>(data_.parts)}};
  }

 private:
  struct Op {
    int tmpl;     // 0 small divide, 1 great divide, 2 GROUP BY/HAVING, 3 EXISTS
    int binding;  // color index (0, 3) or k index (2)
  };
  static int Key(const Op& op) { return op.tmpl * 16 + op.binding; }
  static Op FromKey(int key) { return Op{key / 16, key % 16}; }

  /// The statement text; the prepared template's binding inlined.
  std::string Text(const Op& op) const {
    const std::string color = Quote(Colors()[op.binding]);
    switch (op.tmpl) {
      case 0:
        return "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = " +
               color + ") AS p ON s.p# = p.p#";
      case 1:
        return "SELECT s#, color FROM supplies AS s DIVIDE BY parts AS p ON s.p# = p.p#";
      case 2:
        return "SELECT s# FROM supplies GROUP BY s# HAVING COUNT(p#) > " +
               std::to_string(ks_[op.binding]);
      default:
        return "SELECT DISTINCT s# FROM supplies AS s WHERE EXISTS (SELECT * FROM parts AS p "
               "WHERE p.p# = s.p# AND p.color = " +
               color + ")";
    }
  }

  std::optional<QueryResult> Execute(const Op& op) {
    if (op.tmpl == 0) return client_->ReadPrepared(divide_, {V(Colors()[op.binding])});
    return client_->Read(Text(op));
  }

  const int64_t suppliers_;
  const int64_t parts_;
  const SessionOptions options_;
  uint64_t seed_ = 0;
  SupplierData data_;
  std::vector<int64_t> ks_;
  std::vector<Op> ops_;
  Relation staged_supplies_;
  Relation staged_parts_;
  std::shared_ptr<Database> db_;
  std::unique_ptr<Client> client_;
  int divide_ = -1;
  std::map<int, Relation> results_;  // warm-up result per distinct statement
  size_t pos_ = 0;
  size_t full_checks_ = 0;
  std::vector<std::string> run_problems_;
};

// ----------------------------------------------------------- compile_churn

/// compile_churn: one session, small tables, every statement text distinct.
class ChurnWorkload : public Workload {
 public:
  explicit ChurnWorkload(size_t max_samples) : max_samples_(max_samples) {}

  void Generate(uint64_t seed) override {
    seed_ = seed;
    data_ = GenerateSuppliers(seed, 64, 16, 0.3);
  }

  void Stage() override {
    client_.reset();
    db_.reset();
    staged_supplies_ = data_.SuppliesTable();
    staged_parts_ = data_.PartsTable();
  }

  void Setup(std::vector<std::string>* problems) override {
    samples_.clear();
    db_ = std::make_shared<Database>();
    Check(db_->CreateTable("supplies", std::move(staged_supplies_)), problems);
    Check(db_->CreateTable("parts", std::move(staged_parts_)), problems);
    client_ = std::make_unique<Client>(db_, SessionOptions{});
    // One warm-up per shape; its unique literal lies below every timed one.
    for (int shape = 0; shape < kShapes; ++shape) {
      const std::string sql = Text(shape, StreamRng(seed_, kLiteralStream + shape), 999999 - shape);
      if (!client_->Read(sql)) problems->push_back("warm-up of " + sql + " failed");
    }
    (void)client_->TakeStats();
    next_ = 0;
  }

  PhaseResult Run(double seconds, bool traced) override {
    return Measure(*db_, {client_.get()}, seconds, traced, [&](size_t) {
      const uint64_t i = next_++;
      // Blocks of 14 statements, two of each shape, in seeded order.
      Rng order_rng = StreamRng(seed_, kOpStream + i / 14);
      std::vector<int> order;
      for (int shape = 0; shape < kShapes; ++shape) order.insert(order.end(), 2, shape);
      order_rng.Shuffle(&order);
      const std::string sql = Text(order[i % 14], StreamRng(seed_, kLiteralStream + kShapes + i),
                                   1000000 + static_cast<int64_t>(i));
      std::optional<QueryResult> r = client_->Read(sql);
      if (r && samples_.size() < max_samples_ &&
          StreamRng(seed_, kSampleStream + i).Below(64) == 0) {
        samples_.emplace_back(sql, std::move(r->rows));
      }
    });
  }

  void Verify(std::vector<std::string>* problems) override {
    if (samples_.empty()) problems->push_back("compile_churn kept no sample to verify");
    for (const auto& [sql, rows] : samples_) {
      quotient::Result<Relation> oracle =
          quotient::sql::ExecuteSql(sql, db_->snapshot()->catalog());
      if (!oracle.ok() || !(oracle.value() == rows)) {
        problems->push_back(sql + ": result differs from the oracle interpreter");
      }
    }
  }

  std::vector<std::pair<std::string, size_t>> TableRows() const override {
    return {{"supplies", data_.supplies_rows}, {"parts", static_cast<size_t>(data_.parts)}};
  }

 private:
  static constexpr int kShapes = 7;

  /// One statement of `shape` with seeded literals; `unique` makes the text
  /// distinct from every other statement of the run.
  std::string Text(int shape, Rng rng, int64_t unique) const {
    const std::string color = Quote(Colors()[rng.Below(Colors().size())]);
    const std::string n = std::to_string(4 + rng.Below(13));
    const std::string k = std::to_string(2 + rng.Below(7));
    const std::string u = std::to_string(unique);
    switch (shape) {
      case 0:
        return "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = " +
               color + " AND p# <= " + n + ") AS p ON s.p# = p.p# WHERE s# <> " + u;
      case 1:
        return "SELECT s#, color FROM supplies AS s DIVIDE BY (SELECT p#, color FROM parts "
               "WHERE p# <= " +
               n + ") AS p ON s.p# = p.p# WHERE s# <> " + u;
      case 2:
        return "SELECT DISTINCT s# FROM supplies WHERE p# IN (SELECT p# FROM parts WHERE color = " +
               color + ") AND s# <> " + u;
      case 3:
        return "SELECT DISTINCT s# FROM supplies WHERE p# NOT IN (SELECT p# FROM parts WHERE "
               "color = " +
               color + ") AND s# <> " + u;
      case 4:
        return "SELECT DISTINCT s# FROM supplies AS s WHERE EXISTS (SELECT * FROM parts AS p "
               "WHERE p.p# = s.p# AND p.color = " +
               color + ") AND s.s# <> " + u;
      case 5:
        return "SELECT DISTINCT s# FROM supplies AS s WHERE NOT EXISTS (SELECT * FROM parts AS p "
               "WHERE p.p# = s.p# AND p.color = " +
               color + ") AND s.s# <> " + u;
      default:
        return "SELECT s# FROM supplies WHERE s# <> " + u + " GROUP BY s# HAVING COUNT(p#) > " + k;
    }
  }

  const size_t max_samples_;
  uint64_t seed_ = 0;
  SupplierData data_;
  Relation staged_supplies_;
  Relation staged_parts_;
  std::shared_ptr<Database> db_;
  std::unique_ptr<Client> client_;
  uint64_t next_ = 0;
  std::vector<std::pair<std::string, Relation>> samples_;
};

// ------------------------------------------------------------- sessions_rw

/// sessions_rw: four sessions on one Database; session 0 also writes.
class SessionsRwWorkload : public Workload {
 public:
  SessionsRwWorkload(int64_t suppliers, int64_t parts)
      : suppliers_(suppliers), parts_(parts) {}

  void Generate(uint64_t seed) override {
    seed_ = seed;
    data_ = GenerateSuppliers(seed, suppliers_, parts_, 0.3);
    blue_ = data_.CoverColor(0);
  }

  void Stage() override {
    sessions_.clear();
    db_.reset();
    staged_supplies_ = data_.SuppliesTable();
    staged_parts_ = data_.PartsTable();
  }

  void Setup(std::vector<std::string>* problems) override {
    db_ = std::make_shared<Database>();
    Check(db_->CreateTable("supplies", std::move(staged_supplies_)), problems);
    Check(db_->CreateTable("parts", std::move(staged_parts_)), problems);
    for (int k = 0; k < kSessions; ++k) {
      auto state = std::make_unique<SessionState>();
      state->client = std::make_unique<Client>(db_, SessionOptions{});
      state->point = state->client->Prepare("SELECT s# FROM supplies WHERE p# = ?");
      if (!state->client->ReadPrepared(state->point, {V(int64_t{1})}) ||
          !state->client->Read(DivideText())) {
        problems->push_back("warm-up of session " + std::to_string(k) + " failed");
      }
      (void)state->client->TakeStats();
      sessions_.push_back(std::move(state));
    }
    live_.clear();
    deleted_.clear();
    next_supplier_ = kFirstNewSupplier;
    writes_ = 0;
  }

  PhaseResult Run(double seconds, bool traced) override {
    std::vector<Client*> clients;
    for (auto& s : sessions_) clients.push_back(s->client.get());
    PhaseResult out = Measure(*db_, clients, seconds, traced, [&](size_t k) {
      SessionState& s = *sessions_[k];
      const uint64_t n = s.ops++;
      // Session 0: one write per block of 20 operations, at a seeded place.
      if (k == 0 && StreamRng(seed_, kWriteStream + n / 20).Below(20) == n % 20) {
        Write(s);
      } else {
        Read(k, s);
      }
    });
    return out;
  }

  void Verify(std::vector<std::string>* problems) override {
    // Every acknowledged insert present, every acknowledged delete gone,
    // nothing else written, and the generated rows untouched.
    const Relation& final_rows = db_->snapshot()->catalog().Get("supplies");
    std::set<std::pair<int64_t, int64_t>> written;
    size_t base = 0;
    for (const Tuple& t : final_rows.tuples()) {
      const int64_t s = t[0].as_int();
      if (s >= kFirstNewSupplier) {
        written.emplace(s, t[1].as_int());
      } else {
        ++base;
      }
    }
    if (base != data_.supplies_rows) problems->push_back("generated supplies rows changed");
    for (const auto& row : live_) {
      if (written.count(row) == 0) problems->push_back("acknowledged insert missing");
    }
    for (const auto& row : deleted_) {
      if (written.count(row) != 0) problems->push_back("acknowledged delete still present");
    }
    if (written.size() != live_.size()) {
      problems->push_back("supplies holds " + std::to_string(written.size()) +
                          " written rows, expected " + std::to_string(live_.size()));
    }
    // Sampled reads: the generated part of each answer must match the
    // reference (written suppliers hold one part, so never divide).
    for (const auto& s : sessions_) {
      for (const auto& [p, rows] : s->samples) {
        std::vector<int64_t> got;
        for (int64_t v : IntColumn(rows, "s#")) {
          if (v < kFirstNewSupplier) got.push_back(v);
        }
        std::sort(got.begin(), got.end());
        if (got != (p == 0 ? blue_ : data_.SuppliersOf(p))) {
          problems->push_back(p == 0 ? "blue-parts DIVIDE BY differs from the reference"
                                     : "point lookup differs from the reference");
        }
      }
    }
  }

  std::vector<std::pair<std::string, size_t>> TableRows() const override {
    return {{"supplies", data_.supplies_rows}, {"parts", static_cast<size_t>(data_.parts)}};
  }
  int clients() const override { return kSessions; }

 private:
  static constexpr int kSessions = 4;
  static constexpr int64_t kFirstNewSupplier = 1000000;

  struct SessionState {
    std::unique_ptr<Client> client;
    int point = -1;
    uint64_t ops = 0;
    uint64_t reads = 0;
    // Sampled read results: (p#, rows), p# = 0 for the DIVIDE BY.
    std::vector<std::pair<int64_t, Relation>> samples;
  };

  static std::string DivideText() {
    return "SELECT s# FROM supplies AS s DIVIDE BY (SELECT p# FROM parts WHERE color = 'blue') "
           "AS p ON s.p# = p.p#";
  }

  void Read(size_t k, SessionState& s) {
    const uint64_t r = s.reads++;
    // Blocks of 10 reads: 7 point lookups and 3 DIVIDE BYs, seeded order.
    Rng rng = StreamRng(seed_, kOpStream + (k << 32) + r / 10);
    std::vector<int> block = {0, 0, 0, 0, 0, 0, 0, 1, 1, 1};
    rng.Shuffle(&block);
    const bool keep = r % 32 == 0 && s.samples.size() < 256;
    if (block[r % 10] == 1) {
      std::optional<QueryResult> result = s.client->Read(DivideText());
      if (result && keep) s.samples.emplace_back(0, std::move(result->rows));
    } else {
      Rng binding = StreamRng(seed_, kBindingStream + (k << 32) + r);
      const int64_t p = 1 + static_cast<int64_t>(binding.Below(static_cast<uint64_t>(parts_)));
      std::optional<QueryResult> result = s.client->ReadPrepared(s.point, {V(p)});
      if (result && keep) s.samples.emplace_back(p, std::move(result->rows));
    }
  }

  /// Rotates through autocommit INSERT, autocommit DELETE of the oldest row
  /// it inserted, and BEGIN; INSERT; DIVIDE BY; COMMIT.
  void Write(SessionState& s) {
    const uint64_t w = writes_++;
    Rng rng = StreamRng(seed_, kLiteralStream + w);
    const int64_t part = 1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(parts_)));
    const int kind = static_cast<int>(w % 3);
    if (kind == 1 && !live_.empty()) {
      const auto row = live_.front();
      if (s.client->Write("DELETE FROM supplies WHERE s# = " + std::to_string(row.first) +
                          " AND p# = " + std::to_string(row.second))) {
        live_.pop_front();
        deleted_.push_back(row);
      }
      return;
    }
    const std::pair<int64_t, int64_t> row{next_supplier_++, part};
    const std::string insert = "INSERT INTO supplies VALUES (" + std::to_string(row.first) +
                               ", " + std::to_string(row.second) + ")";
    if (kind == 2) {
      Relation rows;
      if (s.client->Transaction(insert, DivideText(), &rows)) {
        live_.push_back(row);
        if (s.samples.size() < 256) s.samples.emplace_back(0, std::move(rows));
      }
    } else if (s.client->Write(insert)) {
      live_.push_back(row);
    }
  }

  const int64_t suppliers_;
  const int64_t parts_;
  uint64_t seed_ = 0;
  SupplierData data_;
  std::vector<int64_t> blue_;
  Relation staged_supplies_;
  Relation staged_parts_;
  std::shared_ptr<Database> db_;
  std::vector<std::unique_ptr<SessionState>> sessions_;
  // Written only by session 0's thread.
  std::deque<std::pair<int64_t, int64_t>> live_;
  std::vector<std::pair<int64_t, int64_t>> deleted_;
  int64_t next_supplier_ = kFirstNewSupplier;
  uint64_t writes_ = 0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"analytic_spill", "compile_churn",
                                                 "sessions_rw"};
  return names;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke,
                                       const std::string& work_dir) {
  if (name == "analytic_spill") {
    // A 1 MiB spill watermark sits below the ~1.5 MB divide build state.
    // The hard budget is 4 MiB: with budget = watermark = 1 MiB the divide
    // trips kResourceExhausted before its first flush, and the first-touch
    // encoding of supplies charges ~3.1 MB (README.md).
    SessionOptions options;
    options.spill_watermark_bytes = smoke ? (8u << 10) : (1u << 20);
    options.memory_budget_bytes = smoke ? (1u << 20) : (4u << 20);
    options.spill_dir = work_dir + "/spill";
    std::filesystem::create_directories(options.spill_dir);
    return std::make_unique<AnalyticWorkload>(smoke ? 512 : 4096, smoke ? 32 : 128,
                                              std::move(options));
  }
  if (name == "compile_churn") return std::make_unique<ChurnWorkload>(smoke ? 16 : 256);
  if (name == "sessions_rw") {
    return std::make_unique<SessionsRwWorkload>(smoke ? 256 : 2048, smoke ? 32 : 64);
  }
  return nullptr;
}

}  // namespace perfbench
