#include "exec/exec_basic.hpp"

#include "util/status.hpp"

namespace quotient {

namespace {

/// Index mapping that reorders `from` tuples into `to` attribute order;
/// empty when the schemas already align positionally.
std::vector<size_t> ReorderIndices(const Schema& to, const Schema& from) {
  if (!to.SameAttributeSet(from)) {
    throw SchemaError("set operation requires union-compatible schemas, got " + to.ToString() +
                      " and " + from.ToString());
  }
  if (to == from) return {};
  std::vector<size_t> indices;
  indices.reserve(to.size());
  for (const Attribute& a : to.attributes()) indices.push_back(from.IndexOfOrThrow(a.name));
  return indices;
}

/// Copies the active-position rows `picks` of `in` into a compact columnar
/// `out` with `num_cols` columns; out column c reads in column
/// (col_map ? (*col_map)[c] : c). Encoded columns stay encoded (the ids are
/// copied, the dictionary is shared), so downstream operators keep their
/// translation-array fast paths across π / ∪.
void CopyPickedRows(const Batch& in, const std::vector<uint32_t>& picks,
                    const std::vector<size_t>* col_map, size_t num_cols, Batch* out) {
  out->Reset(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    size_t col = col_map ? (*col_map)[c] : c;
    BatchColumn& ocol = out->column(c);
    if (const BatchColumn* enc = in.EncodedColumn(col)) {
      ocol.dict = enc->dict;
      ocol.ids.reserve(picks.size());
      for (uint32_t i : picks) ocol.ids.push_back(enc->ids[in.RowAt(i)]);
    } else {
      ocol.values.reserve(picks.size());
      for (uint32_t i : picks) ocol.values.push_back(in.At(in.RowAt(i), col));
    }
  }
  out->set_rows(picks.size());
}

/// Active indices of `n` keyed rows whose key is fresh (inserted now) in the
/// seen sets — the shared dedup step of π and ∪.
std::vector<uint32_t> FreshPicks(bool fits64, const std::vector<uint64_t>& keys64,
                                 const std::vector<SmallByteKey>& keys_spill, size_t n,
                                 std::unordered_set<uint64_t, FlatKeyHash>* seen64,
                                 std::unordered_set<SmallByteKey, FlatKeyHash>* seen_spill) {
  std::vector<uint32_t> picks;
  if (fits64) {
    for (size_t i = 0; i < n; ++i) {
      if (seen64->insert(keys64[i]).second) picks.push_back(static_cast<uint32_t>(i));
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (seen_spill->insert(keys_spill[i]).second) picks.push_back(static_cast<uint32_t>(i));
    }
  }
  return picks;
}

/// Physical rows of `batch` passing the ∩/− probe: a row is kept iff
/// (key ∈ build) == want_member, at most once per distinct key.
std::vector<uint32_t> MembershipSelection(
    const Batch& batch, bool fits64, const std::vector<uint64_t>& keys64,
    const std::vector<SmallByteKey>& keys_spill, bool want_member,
    const std::unordered_set<uint64_t, FlatKeyHash>& build64,
    const std::unordered_set<SmallByteKey, FlatKeyHash>& build_spill,
    std::unordered_set<uint64_t, FlatKeyHash>* emitted64,
    std::unordered_set<SmallByteKey, FlatKeyHash>* emitted_spill) {
  std::vector<uint32_t> sel;
  size_t n = batch.ActiveRows();
  for (size_t i = 0; i < n; ++i) {
    bool keep = fits64 ? (build64.count(keys64[i]) > 0) == want_member &&
                             emitted64->insert(keys64[i]).second
                       : (build_spill.count(keys_spill[i]) > 0) == want_member &&
                             emitted_spill->insert(keys_spill[i]).second;
    if (keep) sel.push_back(batch.RowAt(i));
  }
  return sel;
}

}  // namespace

void BuildKeySet(Iterator& right, const std::vector<size_t>& right_reorder,
                 IncrementalKeyEncoder& encoder,
                 std::unordered_set<uint64_t, FlatKeyHash>& set64,
                 std::unordered_set<SmallByteKey, FlatKeyHash>& set_spill) {
  size_t expected = right.EstimatedRows();
  if (encoder.fits64()) set64.reserve(expected);
  const std::vector<size_t>* reorder = right_reorder.empty() ? nullptr : &right_reorder;
  BatchIncrementalKeyer keyer(&encoder, encoder.num_cols());
  Batch batch;
  std::vector<uint64_t> keys64;
  std::vector<SmallByteKey> keys_spill;
  while (right.NextBatch(&batch)) {
    keyer.Keys(batch, reorder, &keys64, &keys_spill);
    if (encoder.fits64()) {
      set64.insert(keys64.begin(), keys64.end());
    } else {
      set_spill.insert(keys_spill.begin(), keys_spill.end());
    }
  }
}

bool RelationScan::NextBatch(Batch* out) {
  size_t n = relation_->size();
  if (position_ >= n) return false;
  size_t take = std::min(GetBatchRows(), n - position_);
  FillSpan(position_, take, out);
  position_ += take;
  CountRows(take);
  return true;
}

void RelationScan::FillSpan(size_t begin, size_t count, Batch* out) const {
  // Use the encoding only when its shape matches this relation exactly — a
  // stale or mis-wired encoding (e.g. swapped dividend/divisor arguments)
  // must degrade to the row view, not emit another table's dictionary ids.
  if (encoding_ != nullptr && encoding_->rows == relation_->size() &&
      encoding_->columns.size() == relation_->schema().size()) {
    out->Reset(relation_->schema().size());
    for (size_t c = 0; c < encoding_->columns.size(); ++c) {
      const ColumnEncoding& src = encoding_->columns[c];
      BatchColumn& col = out->column(c);
      col.dict = &src.dict;
      col.ids.assign(src.ids.begin() + begin, src.ids.begin() + begin + count);
    }
    out->set_rows(count);
  } else {
    // No (or stale) encoding: a zero-copy row view into canonical storage.
    out->ResetRows();
    for (size_t i = 0; i < count; ++i) out->AppendRowRef(&relation_->tuples()[begin + i]);
  }
}

FilterIterator::FilterIterator(IterPtr child, ExprPtr predicate)
    : child_(std::move(child)), predicate_(std::move(predicate)) {}

void FilterIterator::Open() {
  ResetCount();
  child_->Open();
  bound_ = std::make_unique<BoundExpr>(predicate_, child_->schema());

  // Split the predicate for the batch path: single-column conjuncts get
  // per-dictionary verdict caches, everything else lands in the residual.
  column_conjuncts_.clear();
  std::vector<ExprPtr> conjuncts;
  Expr::SplitConjuncts(predicate_, &conjuncts);
  std::vector<ExprPtr> residual;
  for (ExprPtr& conjunct : conjuncts) {
    std::set<std::string> cols = conjunct->Columns();
    if (cols.size() == 1) {
      size_t idx = child_->schema().IndexOfOrThrow(*cols.begin());
      ColumnConjunct cc;
      cc.expr = std::move(conjunct);
      cc.col = idx;
      cc.col_schema = Schema({child_->schema().attribute(idx)});
      column_conjuncts_.push_back(std::move(cc));
    } else {
      residual.push_back(std::move(conjunct));
    }
  }
  residual_ = residual.empty() ? nullptr : Expr::AndAll(std::move(residual));
  residual_bound_ =
      residual_ ? std::make_unique<BoundExpr>(residual_, child_->schema()) : nullptr;
}

bool FilterIterator::RowPasses(const Batch& batch, uint32_t row) {
  for (ColumnConjunct& cc : column_conjuncts_) {
    const BatchColumn* enc = batch.EncodedColumn(cc.col);
    if (enc != nullptr) {
      if (!cc.pass[enc->ids[row]]) return false;
    } else {
      scratch_cell_.clear();
      scratch_cell_.push_back(batch.At(row, cc.col));
      if (!cc.expr->EvalBool(cc.col_schema, scratch_cell_)) return false;
    }
  }
  if (residual_bound_ != nullptr) {
    batch.ToTuple(row, &scratch_row_);
    if (!residual_bound_->EvalBool(scratch_row_)) return false;
  }
  return true;
}

bool FilterIterator::NextBatch(Batch* out) {
  while (child_->NextBatch(out)) {
    size_t n = out->ActiveRows();
    std::vector<uint32_t> sel;
    sel.reserve(n);
    if (out->row_mode()) {
      // Row views carry whole tuples: evaluate the bound predicate in place,
      // exactly the tuple-at-a-time cost, no copies.
      for (size_t i = 0; i < n; ++i) {
        uint32_t r = out->RowAt(i);
        if (bound_->EvalBool(*out->RowRef(r))) sel.push_back(r);
      }
    } else {
      // Columnar: (re)fill verdict caches for this batch's dictionaries —
      // one predicate evaluation per distinct value, then a byte load per
      // row. Dictionaries are stable per stream, so this fills once.
      for (ColumnConjunct& cc : column_conjuncts_) {
        const BatchColumn* enc = out->EncodedColumn(cc.col);
        if (enc != nullptr && (enc->dict != cc.dict || cc.pass.size() < enc->dict->size())) {
          cc.dict = enc->dict;
          cc.pass.assign(cc.dict->size(), 0);
          Tuple cell(1);
          for (uint32_t id = 0; id < cc.pass.size(); ++id) {
            cell[0] = cc.dict->At(id);
            cc.pass[id] = cc.expr->EvalBool(cc.col_schema, cell);
          }
        }
      }
      for (size_t i = 0; i < n; ++i) {
        uint32_t r = out->RowAt(i);
        if (RowPasses(*out, r)) sel.push_back(r);
      }
    }
    out->SetSelection(std::move(sel));
    if (out->ActiveRows() > 0) {
      CountRows(out->ActiveRows());
      return true;
    }
  }
  return false;
}

ProjectIterator::ProjectIterator(IterPtr child, std::vector<std::string> columns)
    : child_(std::move(child)), schema_(child_->schema().Project(columns)) {
  for (const std::string& column : columns) {
    indices_.push_back(child_->schema().IndexOfOrThrow(column));
  }
}

void ProjectIterator::Open() {
  ResetCount();
  child_->Open();
  encoder_ = IncrementalKeyEncoder(indices_.size());
  seen64_.clear();
  seen_spill_.clear();
  keyer_ = std::make_unique<BatchIncrementalKeyer>(&encoder_, indices_.size());
}

bool ProjectIterator::NextBatch(Batch* out) {
  while (child_->NextBatch(&in_batch_)) {
    keyer_->Keys(in_batch_, &indices_, &keys64_, &keys_spill_);
    std::vector<uint32_t> picks = FreshPicks(encoder_.fits64(), keys64_, keys_spill_,
                                             in_batch_.ActiveRows(), &seen64_, &seen_spill_);
    if (picks.empty()) continue;
    CopyPickedRows(in_batch_, picks, &indices_, indices_.size(), out);
    CountRows(picks.size());
    return true;
  }
  return false;
}

void ProjectIterator::Close() {
  child_->Close();
  seen64_.clear();
  seen_spill_.clear();
}

RenameIterator::RenameIterator(IterPtr child,
                               std::vector<std::pair<std::string, std::string>> renames)
    : child_(std::move(child)) {
  std::vector<Attribute> attributes = child_->schema().attributes();
  for (const auto& [from, to] : renames) {
    attributes[child_->schema().IndexOfOrThrow(from)].name = to;
  }
  schema_ = Schema(std::move(attributes));
}

UnionIterator::UnionIterator(IterPtr left, IterPtr right)
    : left_(std::move(left)),
      right_(std::move(right)),
      right_reorder_(ReorderIndices(left_->schema(), right_->schema())) {}

void UnionIterator::Open() {
  ResetCount();
  left_->Open();
  right_->Open();
  on_right_ = false;
  encoder_ = IncrementalKeyEncoder(left_->schema().size());
  seen64_.clear();
  seen_spill_.clear();
  keyer_ = std::make_unique<BatchIncrementalKeyer>(&encoder_, encoder_.num_cols());
}

bool UnionIterator::EmitFresh(const Batch& in, const std::vector<size_t>* col_map, Batch* out) {
  keyer_->Keys(in, col_map, &keys64_, &keys_spill_);
  std::vector<uint32_t> picks = FreshPicks(encoder_.fits64(), keys64_, keys_spill_,
                                           in.ActiveRows(), &seen64_, &seen_spill_);
  if (picks.empty()) return false;
  CopyPickedRows(in, picks, col_map, encoder_.num_cols(), out);
  CountRows(picks.size());
  return true;
}

bool UnionIterator::NextBatch(Batch* out) {
  while (!on_right_) {
    if (!left_->NextBatch(&in_batch_)) {
      on_right_ = true;
      break;
    }
    if (EmitFresh(in_batch_, nullptr, out)) return true;
  }
  const std::vector<size_t>* col_map = right_reorder_.empty() ? nullptr : &right_reorder_;
  while (right_->NextBatch(&in_batch_)) {
    if (EmitFresh(in_batch_, col_map, out)) return true;
  }
  return false;
}

void UnionIterator::Close() {
  left_->Close();
  right_->Close();
  seen64_.clear();
  seen_spill_.clear();
}

IntersectIterator::IntersectIterator(IterPtr left, IterPtr right)
    : left_(std::move(left)),
      right_(std::move(right)),
      right_reorder_(ReorderIndices(left_->schema(), right_->schema())) {}

void IntersectIterator::Open() {
  ResetCount();
  left_->Open();
  right_->Open();
  encoder_ = IncrementalKeyEncoder(left_->schema().size());
  build64_.clear();
  emitted64_.clear();
  build_spill_.clear();
  emitted_spill_.clear();
  keyer_ = std::make_unique<BatchIncrementalKeyer>(&encoder_, encoder_.num_cols());
  BuildKeySet(*right_, right_reorder_, encoder_, build64_, build_spill_);
}

bool IntersectIterator::NextBatch(Batch* out) {
  while (left_->NextBatch(out)) {
    keyer_->Keys(*out, nullptr, &keys64_, &keys_spill_);
    out->SetSelection(MembershipSelection(*out, encoder_.fits64(), keys64_, keys_spill_,
                                          /*want_member=*/true, build64_, build_spill_,
                                          &emitted64_, &emitted_spill_));
    if (out->ActiveRows() > 0) {
      CountRows(out->ActiveRows());
      return true;
    }
  }
  return false;
}

void IntersectIterator::Close() {
  left_->Close();
  right_->Close();
  build64_.clear();
  emitted64_.clear();
  build_spill_.clear();
  emitted_spill_.clear();
}

DifferenceIterator::DifferenceIterator(IterPtr left, IterPtr right)
    : left_(std::move(left)),
      right_(std::move(right)),
      right_reorder_(ReorderIndices(left_->schema(), right_->schema())) {}

void DifferenceIterator::Open() {
  ResetCount();
  left_->Open();
  right_->Open();
  encoder_ = IncrementalKeyEncoder(left_->schema().size());
  build64_.clear();
  emitted64_.clear();
  build_spill_.clear();
  emitted_spill_.clear();
  keyer_ = std::make_unique<BatchIncrementalKeyer>(&encoder_, encoder_.num_cols());
  BuildKeySet(*right_, right_reorder_, encoder_, build64_, build_spill_);
}

bool DifferenceIterator::NextBatch(Batch* out) {
  while (left_->NextBatch(out)) {
    keyer_->Keys(*out, nullptr, &keys64_, &keys_spill_);
    out->SetSelection(MembershipSelection(*out, encoder_.fits64(), keys64_, keys_spill_,
                                          /*want_member=*/false, build64_, build_spill_,
                                          &emitted64_, &emitted_spill_));
    if (out->ActiveRows() > 0) {
      CountRows(out->ActiveRows());
      return true;
    }
  }
  return false;
}

void DifferenceIterator::Close() {
  left_->Close();
  right_->Close();
  build64_.clear();
  emitted64_.clear();
  build_spill_.clear();
  emitted_spill_.clear();
}

}  // namespace quotient
