#include "exec/exec_divide.hpp"

#include <algorithm>
#include <type_traits>

#include "exec/exec_basic.hpp"
#include "exec/pipeline.hpp"
#include "exec/query_context.hpp"
#include "util/bitmap.hpp"
#include "util/status.hpp"

namespace quotient {

namespace {

/// Sentinel for a dividend row whose B columns match no divisor tuple.
constexpr uint32_t kMissB = UINT32_MAX;

std::vector<size_t> IndicesOf(const Schema& schema, const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) indices.push_back(schema.IndexOfOrThrow(name));
  return indices;
}

/// r1 ÷ ∅ = πA(r1): emit every distinct candidate.
template <typename AView, typename Numbering>
void EmitDistinctCandidates(const AView& aview, Numbering& candidates, size_t rows,
                            std::vector<Tuple>* results) {
  for (size_t i = 0; i < rows; ++i) candidates.Intern(aview.RowKey(i));
  for (uint32_t id = 0; id < candidates.size(); ++id) {
    results->push_back(aview.codec->DecodeTuple(candidates.At(id)));
  }
}

// Hash-division: divisor tuples are numbered 0..n-1; each quotient candidate
// keeps a bitmap of the divisor numbers seen in its group. Candidates are
// numbered densely (identity when A is a single dictionary column, interned
// otherwise), so the bitmaps live in one contiguous matrix.
template <typename AView, typename Numbering>
void RunHash(const AView& aview, Numbering& candidates, const SpilledU32Store& row_b,
             size_t rows, size_t n, std::vector<Tuple>* results) {
  GovernorFaultPoint("divide.bitmap_fill");
  GovernorCharge(candidates.size() * ((n + 7) / 8));  // the seen-bitmap matrix
  BitmapMatrix seen(n);
  seen.Reserve(candidates.size());
  GovernorTicker ticker;
  for (size_t i = 0; i < rows; ++i) {
    ticker.Tick();
    if (row_b.At(i) == kMissB) continue;  // b not in divisor: cannot help
    uint32_t cand = candidates.Intern(aview.RowKey(i));
    while (cand >= seen.rows()) seen.AddRow();
    seen.Set(cand, row_b.At(i));
  }
  for (uint32_t id = 0; id < seen.rows(); ++id) {
    if (seen.RowAll(id)) results->push_back(aview.codec->DecodeTuple(candidates.At(id)));
  }
}

// Transposed hash-division: number the quotient candidates in a first pass,
// then give each divisor number a bitmap over candidates and set bits in a
// second pass. A candidate qualifies iff its bit is set in every divisor
// bitmap.
template <typename AView, typename Numbering>
void RunHashTransposed(const AView& aview, Numbering& candidates,
                       const SpilledU32Store& row_b, size_t rows, size_t n,
                       std::vector<Tuple>* results) {
  GovernorCharge(rows * sizeof(uint32_t));
  std::vector<uint32_t> row_cand(rows);
  GovernorTicker ticker;
  for (size_t i = 0; i < rows; ++i) {
    ticker.Tick();
    row_cand[i] = candidates.Intern(aview.RowKey(i));
  }

  GovernorFaultPoint("divide.bitmap_fill");
  GovernorCharge(n * ((candidates.size() + 7) / 8));  // per-divisor bitmaps
  BitmapMatrix divisor_bitmaps(candidates.size(), n);
  for (size_t i = 0; i < rows; ++i) {
    ticker.Tick();
    if (row_b.At(i) == kMissB) continue;
    divisor_bitmaps.Set(row_b.At(i), row_cand[i]);
  }

  for (uint32_t id = 0; id < candidates.size(); ++id) {
    bool in_all = true;
    for (size_t d = 0; d < n; ++d) {
      if (!divisor_bitmaps.Test(d, id)) {
        in_all = false;
        break;
      }
    }
    if (in_all) results->push_back(aview.codec->DecodeTuple(candidates.At(id)));
  }
}

// "Naive division": sort the dividend by (A key, divisor number) — misses
// sort last — then merge each A-group's numbers against the ascending
// divisor numbers 0..n-1.
template <typename AView>
void RunMergeSort(const AView& aview, const SpilledU32Store& row_b, size_t rows, size_t n,
                  std::vector<Tuple>* results) {
  using K = typename AView::Key;
  std::vector<std::pair<K, uint32_t>> sorted;
  sorted.reserve(rows);
  for (size_t i = 0; i < rows; ++i) sorted.emplace_back(aview.RowKey(i), row_b.At(i));
  std::sort(sorted.begin(), sorted.end(), [](const auto& x, const auto& y) {
    if (x.first != y.first) return x.first < y.first;
    return x.second < y.second;
  });

  size_t i = 0;
  while (i < sorted.size()) {
    const K& a = sorted[i].first;
    size_t divisor_pos = 0;
    size_t j = i;
    for (; j < sorted.size() && sorted[j].first == a; ++j) {
      if (divisor_pos < n) {
        uint32_t b = sorted[j].second;
        if (b == divisor_pos) {
          ++divisor_pos;
        } else if (b > divisor_pos) {
          // Sorted group has passed the needed divisor number: missing.
          divisor_pos = n + 1;  // mark failure
        }
      }
    }
    if (divisor_pos == n) results->push_back(aview.codec->DecodeTuple(a));
    i = j;
  }
}

// Hash-based aggregate division: count matching divisor numbers per
// candidate (inputs are sets, so counts are distinct counts) and compare
// with n.
template <typename AView, typename Numbering>
void RunHashCount(const AView& aview, Numbering& candidates, const SpilledU32Store& row_b,
                  size_t rows, size_t n, std::vector<Tuple>* results) {
  GovernorCharge(candidates.size() * sizeof(uint32_t));
  std::vector<uint32_t> counts;
  counts.reserve(candidates.size());
  GovernorTicker ticker;
  for (size_t i = 0; i < rows; ++i) {
    ticker.Tick();
    if (row_b.At(i) == kMissB) continue;
    uint32_t cand = candidates.Intern(aview.RowKey(i));
    if (cand >= counts.size()) counts.resize(cand + 1, 0);
    counts[cand] += 1;
  }
  for (uint32_t id = 0; id < counts.size(); ++id) {
    if (counts[id] == n) results->push_back(aview.codec->DecodeTuple(candidates.At(id)));
  }
}

// Sort-based aggregate division: keep matching rows' A keys, sort, count run
// lengths.
template <typename AView>
void RunSortCount(const AView& aview, const SpilledU32Store& row_b, size_t rows, size_t n,
                  std::vector<Tuple>* results) {
  using K = typename AView::Key;
  std::vector<K> matched;
  matched.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    if (row_b.At(i) != kMissB) matched.push_back(aview.RowKey(i));
  }
  std::sort(matched.begin(), matched.end());
  size_t i = 0;
  while (i < matched.size()) {
    size_t j = i;
    while (j < matched.size() && matched[j] == matched[i]) ++j;
    if (j - i == n) results->push_back(aview.codec->DecodeTuple(matched[i]));
    i = j;
  }
}

// Group the dividend, then probe each group linearly for every divisor
// number: O(|r1| · |r2|) comparisons — the baseline the fast algorithms are
// measured against.
template <typename AView, typename Numbering>
void RunNestedLoop(const AView& aview, Numbering& candidates, const SpilledU32Store& row_b,
                   size_t rows, size_t n, std::vector<Tuple>* results) {
  std::vector<std::vector<uint32_t>> groups;
  groups.reserve(candidates.size());
  for (size_t i = 0; i < rows; ++i) {
    uint32_t cand = candidates.Intern(aview.RowKey(i));
    if (cand >= groups.size()) groups.resize(cand + 1);
    if (row_b.At(i) != kMissB) groups[cand].push_back(row_b.At(i));
  }
  for (uint32_t id = 0; id < groups.size(); ++id) {
    bool all = true;
    for (uint32_t d = 0; d < n; ++d) {
      bool found = false;
      for (uint32_t b : groups[id]) {
        if (b == d) {
          found = true;
          break;
        }
      }
      if (!found) {
        all = false;
        break;
      }
    }
    if (all) results->push_back(aview.codec->DecodeTuple(candidates.At(id)));
  }
}

}  // namespace

const char* DivisionAlgorithmName(DivisionAlgorithm algorithm) {
  switch (algorithm) {
    case DivisionAlgorithm::kHash: return "HashDivision";
    case DivisionAlgorithm::kHashTransposed: return "TransposedHashDivision";
    case DivisionAlgorithm::kMergeSort: return "MergeSortDivision";
    case DivisionAlgorithm::kHashCount: return "HashCountDivision";
    case DivisionAlgorithm::kSortCount: return "SortCountDivision";
    case DivisionAlgorithm::kNestedLoop: return "NestedLoopDivision";
  }
  return "?";
}

DivisionIterator::DivisionIterator(IterPtr dividend, IterPtr divisor,
                                   DivisionAlgorithm algorithm)
    : dividend_(std::move(dividend)), divisor_(std::move(divisor)), algorithm_(algorithm) {
  DivisionAttributes attrs =
      DivisionAttributeSets(dividend_->schema(), divisor_->schema(), /*allow_c=*/false);
  schema_ = dividend_->schema().Project(attrs.a);
  a_idx_ = IndicesOf(dividend_->schema(), attrs.a);
  b_idx_ = IndicesOf(dividend_->schema(), attrs.b);
  divisor_idx_ = IndicesOf(divisor_->schema(), attrs.b);
}

const char* DivisionIterator::name() const { return DivisionAlgorithmName(algorithm_); }

std::shared_ptr<DivisionBuildArtifact> DivisionIterator::BuildDivisorArtifact() {
  // Build pipeline: dictionary-encode the divisor's B tuples. Each drain
  // picks its worker count per pipeline (exec/pipeline.hpp): tiny inputs
  // fold serially, large ones into morsel-parallel chunk states merged in
  // chunk order.
  auto art = std::make_shared<DivisionBuildArtifact>();
  divisor_->Open();
  art->codec = KeyCodec(divisor_idx_.size());
  art->codec.Reserve(divisor_->EstimatedRows());
  CodecAppendSink sink(&art->codec, &divisor_idx_);
  RecordPipelineDop(RunPipeline(*divisor_, sink).dop);
  art->codec.Seal();
  art->numbers.Build(art->codec);
  return art;
}

std::shared_ptr<const DivisionBuildArtifact> DivisionIterator::GetDivisorArtifact() {
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildDivisorArtifact(); });
    if (cached) return std::static_pointer_cast<const DivisionBuildArtifact>(cached);
  }
  return BuildDivisorArtifact();
}

std::shared_ptr<DivisionProbeArtifact> DivisionIterator::BuildProbeArtifact(
    const DivisionBuildArtifact& build) {
  // Probe pipeline: drain the dividend once, interning A keys and
  // resolving each row's B columns to a divisor number (kMissB when any
  // value never occurs in the divisor).
  auto art = std::make_shared<DivisionProbeArtifact>();
  dividend_->Open();
  art->a_codec = KeyCodec(a_idx_.size());
  size_t expected = dividend_->EstimatedRows();
  art->a_codec.Reserve(expected);
  art->row_b.Reserve(expected);
  ProbeAppendSink sink(&art->a_codec, &a_idx_, &build.numbers, &build.codec, &b_idx_,
                       &art->row_b);
  RecordPipelineDop(RunPipeline(*dividend_, sink).dop);
  art->a_codec.Seal();
  art->divisor_count = build.numbers.count();
  return art;
}

void DivisionIterator::Open() {
  ResetCount();
  results_.clear();
  position_ = 0;

  // Adopt-or-build both encoded phases. A probe-artifact hit skips BOTH
  // child drains (the children are never opened; Close() on an unopened
  // child is a no-op in every iterator). A build hit still drains the
  // dividend, probing against the shared divisor table.
  if (recycle_.recycler && !recycle_.probe_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.probe_key, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> {
          return BuildProbeArtifact(*GetDivisorArtifact());
        });
    probe_ = cached ? std::static_pointer_cast<const DivisionProbeArtifact>(cached)
                    : BuildProbeArtifact(*GetDivisorArtifact());
  } else {
    probe_ = BuildProbeArtifact(*GetDivisorArtifact());
  }

  const KeyCodec& a_codec = probe_->a_codec;
  const SpilledU32Store& row_b = probe_->row_b;
  size_t rows = a_codec.rows();
  size_t n = probe_->divisor_count;
  WithKeyView(a_codec, [&](auto aview) {
    using K = typename decltype(aview)::Key;
    auto run = [&](auto& candidates) {
      if (n == 0) {
        // r1 ÷ ∅ = πA(r1) under Codd's semantics.
        EmitDistinctCandidates(aview, candidates, rows, &results_);
        return;
      }
      switch (algorithm_) {
        case DivisionAlgorithm::kHash:
          RunHash(aview, candidates, row_b, rows, n, &results_);
          break;
        case DivisionAlgorithm::kHashTransposed:
          RunHashTransposed(aview, candidates, row_b, rows, n, &results_);
          break;
        case DivisionAlgorithm::kMergeSort: RunMergeSort(aview, row_b, rows, n, &results_); break;
        case DivisionAlgorithm::kHashCount:
          RunHashCount(aview, candidates, row_b, rows, n, &results_);
          break;
        case DivisionAlgorithm::kSortCount: RunSortCount(aview, row_b, rows, n, &results_); break;
        case DivisionAlgorithm::kNestedLoop:
          RunNestedLoop(aview, candidates, row_b, rows, n, &results_);
          break;
      }
    };
    if constexpr (std::is_same_v<K, uint64_t>) {
      if (a_codec.keys_are_dense_ids()) {
        DenseNumbering candidates{a_codec.dict(0).size()};
        run(candidates);
        return;
      }
    }
    KeyInterner<K> candidates;
    run(candidates);
  });
}

bool DivisionIterator::NextBatch(Batch* out) {
  if (!EmitResultBatch(results_, &position_, out)) return false;
  CountRows(out->ActiveRows());
  return true;
}

void DivisionIterator::Close() {
  dividend_->Close();
  divisor_->Close();
  results_.clear();
  probe_.reset();
}

Relation ExecDivide(const Relation& dividend, const Relation& divisor,
                    DivisionAlgorithm algorithm, TableEncodingPtr dividend_enc,
                    TableEncodingPtr divisor_enc) {
  DivisionIterator it(
      std::make_unique<RelationScan>(BorrowRelation(dividend), std::move(dividend_enc)),
      std::make_unique<RelationScan>(BorrowRelation(divisor), std::move(divisor_enc)),
      algorithm);
  return ExecuteToRelation(it);
}

}  // namespace quotient
