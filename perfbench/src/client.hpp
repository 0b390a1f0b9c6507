#pragma once

// One closed-loop client: a Session on the shared Database, the statement
// latencies it observed, and — in traced runs — the spans of its calls.
//
// Untraced, a client only times the public API call. Traced, it records an
// `api.*` span around that call and then drives the layers the call ran
// internally through their own public entry points, for the same statement
// and under the same statement id: sql::ParseStatement, sql::LowerQuery,
// Optimizer::Optimize, BuildPhysicalPlan, and the root iterator's Open and
// batch drain. Those replays are children of the `api.*` span. They run
// after it, so the API span's self time is its duration minus its
// children's durations (see README.md, "Tracing").

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/session.hpp"
#include "common.hpp"

namespace perfbench {

/// What one client did in one measured phase.
struct ClientStats {
  std::vector<double> read_ms;   // one per SELECT
  std::vector<double> write_ms;  // one per autocommit DML or whole BEGIN..COMMIT
  uint64_t statements = 0;       // every Session call that ran a statement
  uint64_t failed = 0;           // of those, the ones that returned an error
  std::vector<std::string> errors;  // the first few error messages

  void Merge(const ClientStats& other);
};

class Client {
 public:
  Client(std::shared_ptr<quotient::Database> db, quotient::SessionOptions options);
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Prepares `sql` and returns its handle for ReadPrepared, or -1.
  int Prepare(const std::string& sql);

  /// Executes one SELECT through Session::Execute. nullopt on error.
  std::optional<quotient::QueryResult> Read(const std::string& sql);
  /// Executes a prepared SELECT through PreparedStatement::Execute.
  std::optional<quotient::QueryResult> ReadPrepared(int handle,
                                                    const std::vector<quotient::Value>& params);
  /// One autocommit INSERT or DELETE through Session::Execute.
  bool Write(const std::string& dml);
  /// BEGIN; `insert`; `select`; COMMIT — timed as one write. The SELECT's
  /// rows land in `*rows`. On any failure the transaction rolls back.
  bool Transaction(const std::string& insert, const std::string& select,
                   quotient::Relation* rows);

  /// Starts (non-null) or stops (null) tracing into `tracer`.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Statistics since the last TakeStats().
  ClientStats TakeStats();

  /// Replays whose result disagreed with the API call's own result.
  uint64_t replay_mismatches() const { return replay_mismatches_; }

 private:
  struct PreparedEntry {
    std::string sql;
    quotient::PreparedStatement statement;
  };

  void NoteError(const std::string& message);
  /// Records the api span of a finished read and replays its layers.
  void TraceRead(int64_t start_ns, int64_t end_ns, const std::string& sql,
                 const std::vector<quotient::Value>& params, bool parsed_by_call,
                 const quotient::SnapshotPtr& pinned, const quotient::QueryResult& result);
  void Replay(uint64_t stmt, uint64_t parent, const std::string& sql,
              const std::vector<quotient::Value>& params, bool parsed_by_call,
              const quotient::SnapshotPtr& pinned, const quotient::QueryResult& result);

  std::shared_ptr<quotient::Database> db_;
  quotient::SessionOptions options_;
  std::unique_ptr<quotient::Session> session_;
  std::vector<std::unique_ptr<PreparedEntry>> prepared_;  // borrow *session_
  Tracer* tracer_ = nullptr;
  ClientStats stats_;
  uint64_t replay_mismatches_ = 0;
};

}  // namespace perfbench
