#include "exec/exec_join.hpp"

#include "exec/pipeline.hpp"

namespace quotient {

namespace {

std::vector<size_t> IndicesOf(const Schema& schema, const std::vector<std::string>& names) {
  std::vector<size_t> indices;
  indices.reserve(names.size());
  for (const std::string& name : names) indices.push_back(schema.IndexOfOrThrow(name));
  return indices;
}

/// Core batched probe loop shared by the hash joins: pulls left batches,
/// resolves their keys in one pass (BatchKeyProbe), and emits matching
/// (left row × bucket tuple) pairs into a columnar output batch of at most
/// GetBatchRows() rows. Left columns stay dictionary-encoded when the input
/// batch is; bucket tuples are appended as Value columns. Oversized buckets
/// resume via the state's match cursor. Returns rows emitted (0 = end).
size_t JoinEmitBatch(Iterator& left, BatchKeyProbe& probe, JoinProbeState& st,
                     const std::vector<std::vector<Tuple>>& buckets, size_t num_left,
                     size_t num_right, Batch* out) {
  const size_t target = GetBatchRows();
  while (true) {
    if (!st.valid) {
      if (!left.NextBatch(&st.in)) return 0;
      st.keys.clear();
      probe.Resolve(st.in, &st.keys);
      st.pos = 0;
      st.match_pos = 0;
      st.valid = true;
    }
    // Bind the output layout to this input batch (per-batch, so mixed
    // row-view and columnar left streams stay consistent), hoisting each
    // encoded column's id array out of the emit loop.
    out->Reset(num_left + num_right);
    std::vector<const uint32_t*> src_ids(num_left, nullptr);
    for (size_t c = 0; c < num_left; ++c) {
      if (const BatchColumn* enc = st.in.EncodedColumn(c)) {
        out->column(c).dict = enc->dict;
        src_ids[c] = enc->ids.data();
      }
    }
    size_t emitted = 0;
    size_t active = st.in.ActiveRows();
    while (st.pos < active && emitted < target) {
      uint32_t key = st.keys[st.pos];
      if (key == KeyNumbering::kNotFound) {
        ++st.pos;
        st.match_pos = 0;
        continue;
      }
      const std::vector<Tuple>& bucket = buckets[key];
      uint32_t row = st.in.RowAt(st.pos);
      while (st.match_pos < bucket.size() && emitted < target) {
        const Tuple& right = bucket[st.match_pos++];
        for (size_t c = 0; c < num_left; ++c) {
          BatchColumn& ocol = out->column(c);
          if (src_ids[c] != nullptr) {
            ocol.ids.push_back(src_ids[c][row]);
          } else {
            ocol.values.push_back(st.in.At(row, c));
          }
        }
        for (size_t c = 0; c < num_right; ++c) {
          out->column(num_left + c).values.push_back(right[c]);
        }
        ++emitted;
      }
      if (st.match_pos >= bucket.size()) {
        ++st.pos;
        st.match_pos = 0;
      }
    }
    out->set_rows(emitted);
    if (st.pos >= active) st.Reset();
    if (emitted > 0) return emitted;
  }
}

}  // namespace

HashJoinIterator::HashJoinIterator(IterPtr left, IterPtr right)
    : left_(std::move(left)), right_(std::move(right)) {
  std::vector<std::string> common = left_->schema().CommonNames(right_->schema());
  std::vector<std::string> right_only = right_->schema().NamesMinus(left_->schema());
  schema_ = left_->schema().Concat(right_->schema().Project(right_only));
  left_key_ = IndicesOf(left_->schema(), common);
  right_key_ = IndicesOf(right_->schema(), common);
  right_rest_ = IndicesOf(right_->schema(), right_only);
}

std::shared_ptr<JoinBuildArtifact> HashJoinIterator::BuildArtifact() {
  auto art = std::make_shared<JoinBuildArtifact>();
  right_->Open();
  art->codec = KeyCodec(right_key_.size());
  art->codec.Reserve(right_->EstimatedRows());
  std::vector<Tuple> rest_rows;
  rest_rows.reserve(right_->EstimatedRows());
  // Build pipeline: key columns into the codec plus the projected rest of
  // each build row.
  JoinBuildSink sink(&art->codec, &right_key_, &right_rest_, &rest_rows);
  PipelineStats stats = RunPipeline(*right_, sink);
  RecordPipelineDop(stats.dop);
  // Mirror the sink's materialized-tuple charge so publication can hand
  // it from the building query to the recycler's budget.
  art->extra_charge = stats.rows * (right_rest_.size() + 2) * 8;
  art->codec.Seal();
  art->numbering.Build(art->codec);
  art->buckets.assign(art->numbering.count(), {});
  for (size_t i = 0; i < rest_rows.size(); ++i) {
    art->buckets[art->numbering.row_ids()[i]].push_back(std::move(rest_rows[i]));
  }
  return art;
}

void HashJoinIterator::Open() {
  ResetCount();
  left_->Open();
  build_.reset();
  // Adopt-or-build the right side; a hit skips the right child entirely
  // (it is never opened — Close() on an unopened child is a no-op).
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildArtifact(); });
    if (cached) build_ = std::static_pointer_cast<const JoinBuildArtifact>(cached);
  }
  if (!build_) build_ = BuildArtifact();
  matches_ = nullptr;
  match_pos_ = 0;
  probe_.Bind(&build_->numbering, &build_->codec, &left_key_);
  state_.Reset();
}

bool HashJoinIterator::Next(Tuple* out) {
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      *out = ConcatTuples(current_left_, (*matches_)[match_pos_++]);
      CountRow();
      return true;
    }
    matches_ = nullptr;
    if (!left_->Next(&current_left_)) return false;
    uint32_t id = build_->numbering.Probe(current_left_, left_key_);
    if (id != KeyNumbering::kNotFound) {
      matches_ = &build_->buckets[id];
      match_pos_ = 0;
    }
  }
}

bool HashJoinIterator::NextBatch(Batch* out) {
  size_t emitted = JoinEmitBatch(*left_, probe_, state_, build_->buckets,
                                 left_->schema().size(), right_rest_.size(), out);
  if (emitted == 0) return false;
  CountRows(emitted);
  return true;
}

void HashJoinIterator::Close() {
  left_->Close();
  right_->Close();
  build_.reset();
}

NestedLoopJoinIterator::NestedLoopJoinIterator(IterPtr left, IterPtr right, ExprPtr condition)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())),
      condition_(std::move(condition)) {}

void NestedLoopJoinIterator::Open() {
  ResetCount();
  left_->Open();
  right_->Open();
  bound_ = std::make_unique<BoundExpr>(condition_, schema_);
  right_rows_.clear();
  right_rows_.reserve(right_->EstimatedRows());
  while (const Tuple* t = right_->NextRef()) right_rows_.push_back(*t);
  have_left_ = false;
  right_pos_ = 0;
}

bool NestedLoopJoinIterator::Next(Tuple* out) {
  if (right_rows_.empty()) return false;
  while (true) {
    if (!have_left_) {
      if (!left_->Next(&current_left_)) return false;
      have_left_ = true;
      right_pos_ = 0;
    }
    while (right_pos_ < right_rows_.size()) {
      Tuple candidate = ConcatTuples(current_left_, right_rows_[right_pos_++]);
      if (bound_->EvalBool(candidate)) {
        *out = std::move(candidate);
        CountRow();
        return true;
      }
    }
    have_left_ = false;
  }
}

void NestedLoopJoinIterator::Close() {
  left_->Close();
  right_->Close();
  right_rows_.clear();
}

EquiJoinIterator::EquiJoinIterator(IterPtr left, IterPtr right,
                                   std::vector<std::string> left_keys,
                                   std::vector<std::string> right_keys)
    : left_(std::move(left)),
      right_(std::move(right)),
      schema_(left_->schema().Concat(right_->schema())),
      left_key_(IndicesOf(left_->schema(), left_keys)),
      right_key_(IndicesOf(right_->schema(), right_keys)) {}

std::shared_ptr<JoinBuildArtifact> EquiJoinIterator::BuildArtifact() {
  auto art = std::make_shared<JoinBuildArtifact>();
  right_->Open();
  art->codec = KeyCodec(right_key_.size());
  art->codec.Reserve(right_->EstimatedRows());
  std::vector<Tuple> right_rows;
  right_rows.reserve(right_->EstimatedRows());
  // Build pipeline: key columns into the codec plus whole build rows.
  JoinBuildSink sink(&art->codec, &right_key_, /*proj=*/nullptr, &right_rows);
  PipelineStats stats = RunPipeline(*right_, sink);
  RecordPipelineDop(stats.dop);
  art->extra_charge = stats.rows * (right_->schema().size() + 2) * 8;
  art->codec.Seal();
  art->numbering.Build(art->codec);
  art->buckets.assign(art->numbering.count(), {});
  for (size_t i = 0; i < right_rows.size(); ++i) {
    art->buckets[art->numbering.row_ids()[i]].push_back(std::move(right_rows[i]));
  }
  return art;
}

void EquiJoinIterator::Open() {
  ResetCount();
  left_->Open();
  build_.reset();
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildArtifact(); });
    if (cached) build_ = std::static_pointer_cast<const JoinBuildArtifact>(cached);
  }
  if (!build_) build_ = BuildArtifact();
  matches_ = nullptr;
  match_pos_ = 0;
  probe_.Bind(&build_->numbering, &build_->codec, &left_key_);
  state_.Reset();
}

bool EquiJoinIterator::Next(Tuple* out) {
  while (true) {
    if (matches_ != nullptr && match_pos_ < matches_->size()) {
      *out = ConcatTuples(current_left_, (*matches_)[match_pos_++]);
      CountRow();
      return true;
    }
    matches_ = nullptr;
    if (!left_->Next(&current_left_)) return false;
    uint32_t id = build_->numbering.Probe(current_left_, left_key_);
    if (id != KeyNumbering::kNotFound) {
      matches_ = &build_->buckets[id];
      match_pos_ = 0;
    }
  }
}

bool EquiJoinIterator::NextBatch(Batch* out) {
  size_t emitted = JoinEmitBatch(*left_, probe_, state_, build_->buckets,
                                 left_->schema().size(), right_->schema().size(), out);
  if (emitted == 0) return false;
  CountRows(emitted);
  return true;
}

void EquiJoinIterator::Close() {
  left_->Close();
  right_->Close();
  build_.reset();
}

HashSemiJoinIterator::HashSemiJoinIterator(IterPtr left, IterPtr right, bool anti)
    : left_(std::move(left)), right_(std::move(right)), anti_(anti) {
  std::vector<std::string> common = left_->schema().CommonNames(right_->schema());
  left_key_ = IndicesOf(left_->schema(), common);
  right_key_ = IndicesOf(right_->schema(), common);
}

std::shared_ptr<JoinBuildArtifact> HashSemiJoinIterator::BuildArtifact() {
  auto art = std::make_shared<JoinBuildArtifact>();
  right_->Open();
  art->codec = KeyCodec(right_key_.size());
  art->codec.Reserve(right_->EstimatedRows());
  // Build pipeline: the key codec doubles as the membership set.
  CodecAppendSink sink(&art->codec, &right_key_);
  PipelineStats stats = RunPipeline(*right_, sink);
  RecordPipelineDop(stats.dop);
  art->right_empty = stats.rows == 0;
  art->codec.Seal();
  art->numbering.Build(art->codec);
  return art;
}

void HashSemiJoinIterator::Open() {
  ResetCount();
  left_->Open();
  build_.reset();
  if (recycle_.recycler && !recycle_.build_key.empty()) {
    ArtifactPtr cached = recycle_.recycler->GetOrBuild(
        recycle_.build_key, recycle_.tables,
        [&]() -> std::shared_ptr<RecycledArtifact> { return BuildArtifact(); });
    if (cached) build_ = std::static_pointer_cast<const JoinBuildArtifact>(cached);
  }
  if (!build_) build_ = BuildArtifact();
  probe_.Bind(&build_->numbering, &build_->codec, &left_key_);
}

bool HashSemiJoinIterator::Next(Tuple* out) {
  while (left_->Next(out)) {
    bool matched = left_key_.empty()
                       ? !build_->right_empty
                       : build_->numbering.Probe(*out, left_key_) != KeyNumbering::kNotFound;
    if (matched != anti_) {
      CountRow();
      return true;
    }
  }
  return false;
}

bool HashSemiJoinIterator::NextBatch(Batch* out) {
  while (left_->NextBatch(out)) {
    size_t n = out->ActiveRows();
    std::vector<uint32_t> sel;
    if (left_key_.empty()) {
      // Appendix A degenerate form: keep everything iff the right side is
      // nonempty (flipped for the anti join).
      bool keep = !build_->right_empty != anti_;
      if (keep) {
        sel.reserve(n);
        for (size_t i = 0; i < n; ++i) sel.push_back(out->RowAt(i));
      }
    } else {
      batch_keys_.clear();
      probe_.Resolve(*out, &batch_keys_);
      for (size_t i = 0; i < n; ++i) {
        bool matched = batch_keys_[i] != KeyNumbering::kNotFound;
        if (matched != anti_) sel.push_back(out->RowAt(i));
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

void HashSemiJoinIterator::Close() {
  left_->Close();
  right_->Close();
  build_.reset();
}

}  // namespace quotient
