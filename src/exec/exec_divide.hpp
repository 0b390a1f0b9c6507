#pragma once

#include <memory>

#include "algebra/divide.hpp"
#include "exec/iterator.hpp"
#include "exec/key_codec.hpp"
#include "exec/recycler.hpp"

namespace quotient {

/// The physical small-divide algorithms (Graefe's catalogue [14], plus a
/// pedagogical nested-loop baseline):
///   kHash           — hash-division: divisor hashed to bit positions, one
///                     bitmap per quotient candidate (Graefe/Cole [16]).
///   kHashTransposed — hash-division with the roles transposed: quotient
///                     candidates are numbered and each divisor tuple keeps
///                     a bitmap over candidates; a candidate qualifies when
///                     its bit is set in every divisor bitmap (the
///                     "divisor-table bitmaps" variant of [16]). Preferable
///                     when the divisor is small and candidates are many.
///   kMergeSort      — "naive division": dividend sorted by (A, B), divisor
///                     sorted; per-group merge test.
///   kHashCount      — hash-based aggregate division: count matching divisor
///                     tuples per candidate, compare with |divisor|.
///   kSortCount      — sort-based aggregate division: same counting idea
///                     over sorted runs.
///   kNestedLoop     — per candidate, probe its group for every divisor
///                     tuple.
enum class DivisionAlgorithm {
  kHash,
  kHashTransposed,
  kMergeSort,
  kHashCount,
  kSortCount,
  kNestedLoop
};

const char* DivisionAlgorithmName(DivisionAlgorithm algorithm);

/// All physical divisions are blocking: they materialize both inputs on
/// Open() and then stream the quotient. All algorithms implement Codd's
/// semantics including r1 ÷ ∅ = πA(r1).
///
/// Input streams are assumed duplicate-free (set semantics); every operator
/// in this engine preserves that invariant.
///
/// Execution is key-encoded (see docs/key_encoding.md): Open() dictionary-
/// encodes the divisor's B tuples and numbers them densely 0..n-1, then
/// drains the dividend once, interning each row's A key and resolving its B
/// columns to a divisor number (or a miss). Every algorithm then runs over
/// two flat arrays — per-row A keys and per-row divisor numbers — instead of
/// hash tables keyed by materialized Tuples.
///
/// Both drains consume encoded batches: dictionary ids from the scans
/// translate into the division's codecs through per-column translation
/// arrays (see docs/batched_execution.md), so the per-row probe cost drops
/// from a Value hash to an array load. Each drain is a pipeline
/// (exec/pipeline.hpp): the input's id spans run morsel-parallel into
/// per-chunk codec/probe states that merge in chunk order, so results are
/// bit-identical at every thread count.
class DivisionIterator : public Iterator {
 public:
  DivisionIterator(IterPtr dividend, IterPtr divisor, DivisionAlgorithm algorithm);

  const Schema& schema() const override { return schema_; }
  void Open() override;
  bool NextBatch(Batch* out) override;
  void Close() override;
  const char* name() const override;
  std::vector<Iterator*> InputIterators() override {
    return {dividend_.get(), divisor_.get()};
  }
  std::vector<size_t> BlockingInputs() override { return {0, 1}; }

  /// Attaches the planner-composed recycling directive (exec/recycler.hpp):
  /// Open() then adopts cached divisor/probe state instead of draining the
  /// children, or publishes what it builds. The keys omit the algorithm —
  /// every division algorithm runs over the same encoded state.
  void SetRecycle(RecycleSpec spec) { recycle_ = std::move(spec); }

 private:
  std::shared_ptr<DivisionBuildArtifact> BuildDivisorArtifact();
  std::shared_ptr<DivisionProbeArtifact> BuildProbeArtifact(
      const DivisionBuildArtifact& build);
  /// Adopt-or-build for the divisor side (consults the recycler when keyed).
  std::shared_ptr<const DivisionBuildArtifact> GetDivisorArtifact();

  IterPtr dividend_;
  IterPtr divisor_;
  DivisionAlgorithm algorithm_;
  Schema schema_;
  std::vector<size_t> a_idx_;        // A positions in the dividend
  std::vector<size_t> b_idx_;        // B positions in the dividend
  std::vector<size_t> divisor_idx_;  // B positions in the divisor
  RecycleSpec recycle_;

  std::vector<Tuple> results_;
  size_t position_ = 0;
  // Encoded state (valid between Open and Close), possibly shared with
  // concurrent executions through the recycler: the dividend's per-row A
  // keys + divisor numbers, and the divisor build table behind them.
  std::shared_ptr<const DivisionProbeArtifact> probe_;
};

/// Convenience: run one algorithm on materialized relations. Optional
/// pre-built table encodings (TableEncoding::Build or a catalog cache) let
/// repeated calls skip re-encoding the inputs in batch mode.
Relation ExecDivide(const Relation& dividend, const Relation& divisor,
                    DivisionAlgorithm algorithm, TableEncodingPtr dividend_enc = nullptr,
                    TableEncodingPtr divisor_enc = nullptr);

}  // namespace quotient
