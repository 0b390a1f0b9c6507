#pragma once

#include <unordered_set>

#include "algebra/predicate.hpp"
#include "exec/batch.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"

namespace quotient {

/// Non-owning shared_ptr view of a caller-owned Relation, for wiring scans
/// in convenience wrappers (ExecDivide & friends) without deep-copying the
/// relation. The caller must keep `r` alive while the iterator lives.
inline std::shared_ptr<const Relation> BorrowRelation(const Relation& r) {
  return std::shared_ptr<const Relation>(std::shared_ptr<const Relation>(), &r);
}

/// Scans a materialized relation (base table or intermediate). With a
/// TableEncoding attached (the catalog cache, or an explicitly shared
/// encoding), NextBatch() emits dictionary-id columns by copying id spans;
/// otherwise batches are zero-copy row views into the relation's storage.
class RelationScan : public Iterator {
 public:
  explicit RelationScan(std::shared_ptr<const Relation> relation,
                        TableEncodingPtr encoding = nullptr)
      : relation_(std::move(relation)), encoding_(std::move(encoding)) {}

  const Schema& schema() const override { return relation_->schema(); }
  void Open() override {
    ResetCount();
    position_ = 0;
  }
  bool Next(Tuple* out) override;
  const Tuple* NextRef() override {
    if (position_ >= relation_->size()) return nullptr;
    CountRow();
    return &relation_->tuples()[position_++];
  }
  bool NextBatch(Batch* out) override;
  void Close() override {}
  const char* name() const override { return "Scan"; }
  std::vector<Iterator*> InputIterators() override { return {}; }
  size_t EstimatedRows() const override { return relation_->size(); }

  /// Morsel interface for the pipeline executor (exec/pipeline.hpp): total
  /// storage rows, and a positionless span read. FillSpan is const and
  /// touches only the immutable relation/encoding, so concurrent workers
  /// may read disjoint (or even overlapping) spans. Does not count rows —
  /// the executor credits the bypassed chain once per pipeline.
  size_t TotalRows() const { return relation_->size(); }
  void FillSpan(size_t begin, size_t count, Batch* out) const;

 private:
  std::shared_ptr<const Relation> relation_;
  TableEncodingPtr encoding_;
  size_t position_ = 0;
};

/// σ: emits child tuples satisfying the predicate.
///
/// Batched: predicates are evaluated into a selection vector over the
/// child's batch. Conjuncts that reference a single column are evaluated
/// once per distinct dictionary value (a verdict byte per id), so filtering
/// an encoded column is one array load per row; remaining conjuncts fall
/// back to row-at-a-time evaluation.
class FilterIterator : public Iterator {
 public:
  FilterIterator(IterPtr child, ExprPtr predicate);

  const Schema& schema() const override { return child_->schema(); }
  void Open() override;
  bool Next(Tuple* out) override;
  const Tuple* NextRef() override;
  bool NextBatch(Batch* out) override;
  void Close() override { child_->Close(); }
  const char* name() const override { return "Filter"; }
  std::vector<Iterator*> InputIterators() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 private:
  /// A conjunct referencing exactly one column, with its per-dictionary
  /// verdict cache (filled lazily when a batch binds the dictionary).
  struct ColumnConjunct {
    ExprPtr expr;
    size_t col = 0;
    Schema col_schema;                 // one-attribute schema for evaluation
    const ValueDict* dict = nullptr;   // dictionary the verdicts are for
    std::vector<uint8_t> pass;         // verdict per dictionary id
  };

  bool RowPasses(const Batch& batch, uint32_t row);

  IterPtr child_;
  ExprPtr predicate_;
  std::unique_ptr<BoundExpr> bound_;
  // Batch path state.
  std::vector<ColumnConjunct> column_conjuncts_;
  ExprPtr residual_;  // conjunction of multi-column conjuncts (may be null)
  std::unique_ptr<BoundExpr> residual_bound_;
  Tuple scratch_row_;
  Tuple scratch_cell_;
};

/// π with duplicate elimination (set semantics).
class ProjectIterator : public Iterator {
 public:
  ProjectIterator(IterPtr child, std::vector<std::string> columns);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool Next(Tuple* out) override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "Project"; }
  std::vector<Iterator*> InputIterators() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 private:
  IterPtr child_;
  Schema schema_;
  std::vector<size_t> indices_;
  // Streaming dedup on incrementally encoded keys (see key_codec.hpp). The
  // batch path resolves keys through BatchIncrementalKeyer into the SAME
  // encoder id space, so both paths dedup identically.
  IncrementalKeyEncoder encoder_;
  std::unordered_set<uint64_t, FlatKeyHash> seen64_;
  std::unordered_set<SmallByteKey, FlatKeyHash> seen_spill_;
  std::unique_ptr<BatchIncrementalKeyer> keyer_;
  Batch in_batch_;
  std::vector<uint64_t> keys64_;
  std::vector<SmallByteKey> keys_spill_;
};

/// ρ: pass-through with a renamed schema.
class RenameIterator : public Iterator {
 public:
  RenameIterator(IterPtr child, std::vector<std::pair<std::string, std::string>> renames);

  const Schema& schema() const override { return schema_; }
  void Open() override {
    ResetCount();
    child_->Open();
  }
  bool Next(Tuple* out) override;
  const Tuple* NextRef() override {
    const Tuple* t = child_->NextRef();
    if (t != nullptr) CountRow();
    return t;
  }
  bool NextBatch(Batch* out) override {
    // Renaming is schema-only; batches pass through untouched.
    if (!child_->NextBatch(out)) return false;
    CountRows(out->ActiveRows());
    return true;
  }
  void Close() override { child_->Close(); }
  const char* name() const override { return "Rename"; }
  std::vector<Iterator*> InputIterators() override { return {child_.get()}; }
  size_t EstimatedRows() const override { return child_->EstimatedRows(); }

 private:
  IterPtr child_;
  Schema schema_;
};

/// ∪ with duplicate elimination.
class UnionIterator : public Iterator {
 public:
  UnionIterator(IterPtr left, IterPtr right);

  const Schema& schema() const override { return left_->schema(); }
  void Open() override;
  bool Next(Tuple* out) override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "Union"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  size_t EstimatedRows() const override {
    return left_->EstimatedRows() + right_->EstimatedRows();
  }

 private:
  bool NextAligned(Tuple* out);
  bool EmitFresh(const Batch& in, const std::vector<size_t>* col_map, Batch* out);

  IterPtr left_;
  IterPtr right_;
  std::vector<size_t> right_reorder_;  // empty when schemas align positionally
  bool on_right_ = false;
  // Streaming dedup on incrementally encoded keys.
  IncrementalKeyEncoder encoder_;
  std::unordered_set<uint64_t, FlatKeyHash> seen64_;
  std::unordered_set<SmallByteKey, FlatKeyHash> seen_spill_;
  std::unique_ptr<BatchIncrementalKeyer> keyer_;
  Batch in_batch_;
  std::vector<uint64_t> keys64_;
  std::vector<SmallByteKey> keys_spill_;
};

/// ∩ (hash build on the right input).
class IntersectIterator : public Iterator {
 public:
  IntersectIterator(IterPtr left, IterPtr right);

  const Schema& schema() const override { return left_->schema(); }
  void Open() override;
  bool Next(Tuple* out) override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "Intersect"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }
  size_t EstimatedRows() const override { return left_->EstimatedRows(); }

 private:
  IterPtr left_;
  IterPtr right_;
  std::vector<size_t> right_reorder_;
  // Build and probe share one incremental encoder: equal tuples get equal
  // flat keys, so membership and once-only emission are key-set lookups.
  IncrementalKeyEncoder encoder_;
  std::unordered_set<uint64_t, FlatKeyHash> build64_, emitted64_;
  std::unordered_set<SmallByteKey, FlatKeyHash> build_spill_, emitted_spill_;
  std::unique_ptr<BatchIncrementalKeyer> keyer_;
  std::vector<uint64_t> keys64_;
  std::vector<SmallByteKey> keys_spill_;
};

/// − (hash build on the right input).
class DifferenceIterator : public Iterator {
 public:
  DifferenceIterator(IterPtr left, IterPtr right);

  const Schema& schema() const override { return left_->schema(); }
  void Open() override;
  bool Next(Tuple* out) override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "Difference"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }
  size_t EstimatedRows() const override { return left_->EstimatedRows(); }

 private:
  IterPtr left_;
  IterPtr right_;
  std::vector<size_t> right_reorder_;
  IncrementalKeyEncoder encoder_;
  std::unordered_set<uint64_t, FlatKeyHash> build64_, emitted64_;
  std::unordered_set<SmallByteKey, FlatKeyHash> build_spill_, emitted_spill_;
  std::unique_ptr<BatchIncrementalKeyer> keyer_;
  std::vector<uint64_t> keys64_;
  std::vector<SmallByteKey> keys_spill_;
};

/// × (right side materialized).
class CrossProductIterator : public Iterator {
 public:
  CrossProductIterator(IterPtr left, IterPtr right);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool Next(Tuple* out) override;
  void Close() override;
  const char* name() const override { return "CrossProduct"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

 private:
  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  std::vector<Tuple> right_rows_;
  Tuple current_left_;
  bool have_left_ = false;
  size_t right_pos_ = 0;
};

/// Shared build-side helper for ∩ / −: drains `right`'s batches into an
/// encoded key set.
void BuildKeySet(Iterator& right, const std::vector<size_t>& right_reorder,
                 IncrementalKeyEncoder& encoder,
                 std::unordered_set<uint64_t, FlatKeyHash>& set64,
                 std::unordered_set<SmallByteKey, FlatKeyHash>& set_spill);

}  // namespace quotient
