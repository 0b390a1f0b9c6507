#pragma once

#include <memory>

#include "algebra/predicate.hpp"
#include "exec/batch.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"
#include "exec/recycler.hpp"

namespace quotient {

/// Shared batched-probe state of every join: the current left batch,
/// its per-row dense key ids (BatchKeyProbe resolves one batch at a time in
/// a tight loop), and the resume cursor for buckets larger than what fits
/// in one output batch.
struct JoinProbeState {
  Batch in;                       // current left batch
  std::vector<uint32_t> keys;     // dense right-key id per active row
  size_t pos = 0;                 // next active-row index to emit from
  size_t match_pos = 0;           // next bucket entry for that row
  bool valid = false;             // `in` holds an undrained batch

  void Reset() {
    pos = 0;
    match_pos = 0;
    valid = false;
  }
};

/// Hash natural join on the common attribute names (build on the right,
/// probe with the left). Output schema: attrs(left) ++ (attrs(right) −
/// common). Degenerates to a cross product when no names are shared.
///
/// The build side is key-encoded: right keys are dictionary-compressed and
/// numbered densely, so the "hash table" is a plain bucket vector indexed by
/// key number, and probes are dictionary lookups (a probe value unseen
/// during build cannot match). NextBatch() probes a whole left batch at a
/// time and emits columnar output: left columns stay dictionary-encoded
/// when the input batch is, right columns are copied Values.
class HashJoinIterator : public Iterator {
 public:
  HashJoinIterator(IterPtr left, IterPtr right);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "HashJoin"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp):
  /// Open() then adopts the cached build side — the codec, numbering, and
  /// per-key buckets of right_rest projections — instead of draining the
  /// right child.
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

 private:
  std::shared_ptr<JoinBuildArtifact> BuildArtifact();

  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  std::vector<size_t> left_key_;
  std::vector<size_t> right_key_;
  std::vector<size_t> right_rest_;
  RecycleSpec recycle_;
  // The build side: codec, numbering, and per right-key number the matching
  // rows' right_rest projections (projected once at build, not per emitted
  // row). Possibly shared with concurrent executions through the recycler.
  std::shared_ptr<const JoinBuildArtifact> build_;
  BatchKeyProbe probe_;
  JoinProbeState state_;
};

/// × (right side materialized). NextBatch() emits left-order × right-order
/// rows, at most GetBatchRows() per batch, through the joins' shared emit
/// loop with the whole right side as one bucket. An empty right side ends
/// the stream without pulling the left child.
class CrossProductIterator : public Iterator {
 public:
  CrossProductIterator(IterPtr left, IterPtr right);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "CrossProduct"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

 private:
  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  std::vector<Tuple> right_rows_;
  JoinProbeState state_;
};

/// Nested-loop theta join (right side materialized); handles arbitrary
/// conditions. Output schema: attrs(left) ++ attrs(right) (disjoint names).
/// NextBatch() is the × emission with the condition evaluated into the
/// output batch's selection vector.
class NestedLoopJoinIterator : public Iterator {
 public:
  NestedLoopJoinIterator(IterPtr left, IterPtr right, ExprPtr condition);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "NestedLoopJoin"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

 private:
  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  ExprPtr condition_;
  std::unique_ptr<BoundExpr> bound_;
  std::vector<Tuple> right_rows_;
  JoinProbeState state_;
  Tuple candidate_;
};

/// Hash equi-join on explicit key columns (for theta joins whose condition
/// is a conjunction of left-column = right-column equalities). Output schema
/// attrs(left) ++ attrs(right), i.e. theta-join semantics: both key columns
/// are preserved.
class EquiJoinIterator : public Iterator {
 public:
  EquiJoinIterator(IterPtr left, IterPtr right, std::vector<std::string> left_keys,
                   std::vector<std::string> right_keys);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return "EquiJoin"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp).
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

 private:
  std::shared_ptr<JoinBuildArtifact> BuildArtifact();

  IterPtr left_;
  IterPtr right_;
  Schema schema_;
  std::vector<size_t> left_key_;
  std::vector<size_t> right_key_;
  RecycleSpec recycle_;
  // Build side; buckets hold full right rows (theta-join semantics).
  std::shared_ptr<const JoinBuildArtifact> build_;
  BatchKeyProbe probe_;
  JoinProbeState state_;
};

/// Hash semi-join r1 ⋉ r2 on the common attribute names. With no common
/// attributes it degenerates per Appendix A: keeps everything iff the right
/// side is nonempty (used to compile Laws 11/12's guards).
class HashSemiJoinIterator : public Iterator {
 public:
  HashSemiJoinIterator(IterPtr left, IterPtr right, bool anti = false);

  const Schema& schema() const override { return left_->schema(); }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override { return anti_ ? "HashAntiJoin" : "HashSemiJoin"; }
  std::vector<Iterator*> InputIterators() override { return {left_.get(), right_.get()}; }
  std::vector<size_t> BlockingInputs() override { return {1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp).
  /// Semi and anti joins share one build key: the membership set is
  /// identical, only the probe's keep-test differs.
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

 private:
  std::shared_ptr<JoinBuildArtifact> BuildArtifact();

  IterPtr left_;
  IterPtr right_;
  bool anti_;
  std::vector<size_t> left_key_;
  std::vector<size_t> right_key_;
  RecycleSpec recycle_;
  // The key numbering doubles as the membership set: a probe hit means the
  // left key equals some right key. Buckets stay empty for semi joins.
  std::shared_ptr<const JoinBuildArtifact> build_;
  BatchKeyProbe probe_;
  std::vector<uint32_t> batch_keys_;
};

}  // namespace quotient
