#pragma once

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "algebra/relation.hpp"
#include "exec/batch.hpp"

namespace quotient {

/// Physical operator: Open / NextBatch / Close. NextBatch() is the only way
/// rows leave an operator: each call moves ~GetBatchRows() rows as columns
/// of dictionary ids or row views (see docs/batched_execution.md).
/// Row-at-a-time semantics live only in the oracles (algebra/,
/// plan/evaluate, sql/interp). Every iterator counts the tuples it
/// produces; TotalRowsProduced / ExplainTree aggregate those counters over
/// a plan so benchmarks can report intermediate-result sizes (the quantity
/// the Leinders/Van den Bussche result in §6 is about).
class Iterator {
 public:
  virtual ~Iterator() = default;

  /// The output schema; valid before Open().
  virtual const Schema& schema() const = 0;
  /// Acquires resources / builds hash tables. Must be called before
  /// NextBatch().
  virtual void Open() = 0;

  /// Fills `out` with the next 1..GetBatchRows() active rows (operators may
  /// emit more when forwarding a child batch whose selection they only
  /// narrow). Returns false at end of stream — a true return always carries
  /// at least one active row. The batch's contents are valid until the next
  /// NextBatch() call on this iterator.
  virtual bool NextBatch(Batch* out) = 0;

  /// Releases resources; the iterator may be re-Opened afterwards.
  virtual void Close() = 0;

  /// Operator name for EXPLAIN output.
  virtual const char* name() const = 0;

  /// Children for plan walking (non-owning).
  virtual std::vector<Iterator*> InputIterators() = 0;

  /// Upper-bound row-count hint for pre-sizing buffers and hash tables;
  /// 0 means unknown. Valid before Open().
  virtual size_t EstimatedRows() const { return 0; }

  /// Cost-model cardinality estimate for this operator's output, set by
  /// the planner from EstimatePlan (opt/cost.hpp); 0 = not set. Unlike
  /// EstimatedRows() — a structural upper bound that forwards child sizes
  /// through filters — this accounts for selectivity and join/division
  /// shrinkage, and the pipeline executor's costed per-pipeline choices
  /// (ChoosePipeline, exec/pipeline.hpp) consult it first.
  double cost_rows_hint() const { return cost_rows_hint_; }
  void set_cost_rows_hint(double rows) { cost_rows_hint_ = rows; }

  /// Indices (into InputIterators()) of the children this operator fully
  /// drains during Open() — the pipeline-breaker edges where the executor
  /// splits the plan into pipelines (exec/pipeline.hpp). Children not
  /// listed stream lazily and belong to this operator's own pipeline.
  virtual std::vector<size_t> BlockingInputs() { return {}; }

  /// Tuples this operator has produced since Open().
  size_t rows_produced() const { return rows_produced_.load(std::memory_order_relaxed); }

  /// Degree of parallelism the last Open() recorded for this operator's
  /// pipeline drains (0 = none recorded; streaming operators never do).
  size_t pipeline_dop() const { return pipeline_dop_; }

  /// Pipeline-executor accounting hook: credits rows produced when a
  /// parallel pipeline reads morsel spans straight from storage instead of
  /// pulling this operator's NextBatch. Keeps EXPLAIN row totals identical
  /// across thread counts.
  void AddProducedRows(size_t n) { CountRows(n); }

 protected:
  /// Operators count active rows, not batches, so ExplainTree and
  /// TotalRowsProduced stay comparable across batch sizes and thread counts.
  void CountRows(size_t n) { rows_produced_.fetch_add(n, std::memory_order_relaxed); }
  /// Clears the row counter AND the recorded pipeline parallelism; every
  /// operator calls this at the top of Open().
  void ResetCount() {
    rows_produced_.store(0, std::memory_order_relaxed);
    pipeline_dop_ = 0;
  }
  /// Blocking operators record the parallelism of each drain; EXPLAIN
  /// shows the maximum over this Open()'s pipelines.
  void RecordPipelineDop(size_t dop) { pipeline_dop_ = std::max(pipeline_dop_, dop); }
  // Atomic so workers may account concurrently; the pipeline executor's
  // merge discipline means all updates normally happen on the owning
  // thread, but the counter must stay exact under any future interleaving.
  std::atomic<size_t> rows_produced_{0};
  size_t pipeline_dop_ = 0;

 private:
  double cost_rows_hint_ = 0;
};

using IterPtr = std::unique_ptr<Iterator>;

/// Appends every remaining row of an Open()ed iterator to `out`, polling
/// the query governor once per batch.
void DrainRows(Iterator& it, std::vector<Tuple>* out);

/// Drains `it` (Open/.../Close) into a canonical Relation.
Relation ExecuteToRelation(Iterator& it);

/// Sum of rows_produced over the whole plan (call after draining).
size_t TotalRowsProduced(Iterator& root);

/// Largest rows_produced of any single operator in the plan.
size_t MaxRowsProduced(Iterator& root);

/// Largest pipeline degree of parallelism recorded anywhere in the plan
/// (0 when the plan has no blocking drain, or every drain was recycled).
size_t MaxPipelineDop(Iterator& root);

/// Indented operator tree with per-operator row counts, for EXPLAIN ANALYZE
/// style output.
std::string ExplainTree(Iterator& root);

}  // namespace quotient
