#include "exec/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "exec/exec_basic.hpp"
#include "exec/query_context.hpp"
#include "exec/scheduler.hpp"

namespace quotient {

namespace {

std::atomic<bool>& UncappedFlag() {
  static std::atomic<bool> uncapped{false};
  return uncapped;
}

/// Fewest source rows per parallel chunk (a "morsel" of contiguous ids):
/// four batches, 4096 rows at the default batch size; one batch while
/// pipelines are uncapped.
size_t MorselFloor() { return PipelinesUncapped() ? GetBatchRows() : 4 * GetBatchRows(); }

/// A pipeline source the executor can split into row-span morsels: a
/// RelationScan under any chain of pass-through ρ operators. `chain` holds
/// every bypassed operator (child down to the scan) for row-count credit.
struct SplitSource {
  RelationScan* scan = nullptr;
  std::vector<Iterator*> chain;
};

SplitSource FindSplittableSource(Iterator& child) {
  SplitSource source;
  Iterator* it = &child;
  while (true) {
    source.chain.push_back(it);
    if (auto* scan = dynamic_cast<RelationScan*>(it)) {
      source.scan = scan;
      return source;
    }
    auto* rename = dynamic_cast<RenameIterator*>(it);
    if (rename == nullptr) {
      source.scan = nullptr;
      return source;
    }
    it = rename->InputIterators()[0];
  }
}

/// Rows per chunk: at least a morsel, at most ~4 chunks per worker so the
/// merge loop stays short.
size_t ChunkRowsFor(size_t total, size_t threads) {
  size_t spread = (total + threads * 4 - 1) / (threads * 4);
  return std::max(MorselFloor(), spread);
}

}  // namespace

bool PipelinesUncapped() { return UncappedFlag().load(std::memory_order_relaxed); }

ScopedUncappedPipelines::ScopedUncappedPipelines() : saved(PipelinesUncapped()) {
  UncappedFlag().store(true, std::memory_order_relaxed);
}
ScopedUncappedPipelines::~ScopedUncappedPipelines() {
  UncappedFlag().store(saved, std::memory_order_relaxed);
}

PipelineChoice ChoosePipeline(const Iterator& child) {
  PipelineChoice choice;
  if (PipelinesUncapped()) return choice;
  size_t estimated = child.EstimatedRows();
  double hint = child.cost_rows_hint();
  // The cost-model estimate accounts for selectivity and division/join
  // shrinkage; EstimatedRows() is only a structural upper bound. Prefer
  // the model when the planner supplied it.
  double rows = hint > 0 ? hint : static_cast<double>(estimated);
  if (rows <= 0) return choice;  // unknown: uncapped
  // Cap workers so each gets at least ~two morsels of estimated work —
  // fan-out past that points pays scheduling and merge cost for nothing.
  // Under two morsels that is one worker: the drain runs serially.
  size_t morsel = MorselFloor();
  size_t useful = std::max<size_t>(1, static_cast<size_t>(rows) / (2 * morsel));
  choice.workers = std::min(GetExecThreads(), useful);
  // Spread the estimated rows over at most ~4 chunks per capped worker;
  // when the estimate overshoots the actual row count this only makes
  // chunks larger (fewer, bigger morsels), never changes results.
  choice.morsel_rows = std::max(morsel, static_cast<size_t>(rows) / (choice.workers * 4));
  return choice;
}

PipelineStats RunPipeline(Iterator& child, PipelineSink& sink) {
  PipelineStats stats;
  SplitSource source;
  if (GetExecThreads() > 1 && !OnWorkerThread() && sink.AllowParallel()) {
    source = FindSplittableSource(child);
  }
  size_t chunk_rows = 0;
  if (source.scan != nullptr) {
    PipelineChoice choice = ChoosePipeline(child);
    size_t threads = GetExecThreads();
    if (choice.workers > 0) threads = std::min(threads, choice.workers);
    if (threads > 1) {
      size_t rows = source.scan->TotalRows();
      chunk_rows = std::max(choice.morsel_rows, ChunkRowsFor(rows, threads));
      stats.chunks = std::max<size_t>(1, (rows + chunk_rows - 1) / chunk_rows);
      stats.dop = std::min(threads, stats.chunks);
    }
  }

  std::vector<std::unique_ptr<SinkChunk>> states;
  states.reserve(stats.chunks);
  for (size_t i = 0; i < stats.chunks; ++i) states.push_back(sink.MakeChunk(i));
  if (stats.chunks > 1) {
    // Morsel-driven: contiguous id spans of the scan, read straight from
    // storage (TableEncoding id columns / relation rows are immutable).
    stats.rows = source.scan->TotalRows();
    const size_t batch_rows = GetBatchRows();
    RelationScan* scan = source.scan;
    ParallelFor(stats.chunks, [&](size_t ci) {
      size_t begin = ci * chunk_rows;
      size_t end = std::min(stats.rows, begin + chunk_rows);
      Batch batch;
      for (size_t at = begin; at < end; at += batch_rows) {
        GovernorPoll();
        GovernorFaultPoint("pipeline.morsel");
        scan->FillSpan(at, std::min(batch_rows, end - at), &batch);
        sink.Consume(*states[ci], batch);
      }
    });
    // The span reads bypassed the chain's NextBatch methods; credit every
    // bypassed operator with the rows it forwarded so EXPLAIN totals match
    // the streamed drain exactly.
    for (Iterator* op : source.chain) op->AddProducedRows(stats.rows);
  } else {
    // Streamed: any other source (a filter, a join probe, another
    // breaker's output), or a scan not worth splitting, feeds chunk 0.
    Batch batch;
    while (child.NextBatch(&batch)) {
      GovernorPoll();
      GovernorFaultPoint("pipeline.drain");
      stats.rows += batch.ActiveRows();
      sink.Consume(*states[0], batch);
    }
  }
  for (std::unique_ptr<SinkChunk>& state : states) {
    GovernorPoll();
    GovernorFaultPoint("pipeline.merge");
    sink.Merge(*state);
  }
  return stats;
}

// ---------------------------------------------------------------- sinks

struct CodecAppendSink::Chunk : SinkChunk {
  std::vector<KeyCodec> parts;  // chunk-local codecs; empty for chunk 0
  std::vector<BatchCodecAppender> appenders;
};

void CodecAppendSink::AddTarget(KeyCodec* target, const std::vector<size_t>* indices) {
  targets_.push_back(target);
  indices_.push_back(indices);
}

std::unique_ptr<SinkChunk> CodecAppendSink::MakeChunk(size_t index) {
  auto chunk = std::make_unique<Chunk>();
  if (index > 0) {
    chunk->parts.reserve(targets_.size());
    for (const std::vector<size_t>* indices : indices_) chunk->parts.emplace_back(indices->size());
  }
  chunk->appenders.reserve(targets_.size());
  for (size_t i = 0; i < targets_.size(); ++i) {
    chunk->appenders.emplace_back(index == 0 ? targets_[i] : &chunk->parts[i], indices_[i]);
  }
  return chunk;
}

void CodecAppendSink::Consume(SinkChunk& chunk, const Batch& batch) {
  GovernorFaultPoint("sink.codec_append");
  // Every codec's row store charges (and spills) its own bytes.
  for (BatchCodecAppender& appender : static_cast<Chunk&>(chunk).appenders) {
    appender.Append(batch);
  }
}

void CodecAppendSink::Merge(SinkChunk& chunk) {
  Chunk& c = static_cast<Chunk&>(chunk);
  for (size_t i = 0; i < c.parts.size(); ++i) {
    targets_[i]->AppendTranslated(c.parts[i]);
    // The chunk-local rows now live (charged) in the target codec; stop
    // double-counting the transient copy.
    c.parts[i].ReleaseRowCharges();
  }
}

struct ProbeAppendSink::Chunk : SinkChunk {
  // Chunk 0 passes the sink's a-codec and appends straight into it and into
  // the sink's row_b; later chunks (a_target == nullptr) fill a_part and a
  // local row_b that Merge appends in chunk order.
  Chunk(KeyCodec* a_target, size_t a_cols, const std::vector<size_t>* a_indices,
        const KeyNumbering* numbering, const KeyCodec* b_codec,
        const std::vector<size_t>* b_indices)
      : direct(a_target != nullptr),
        a_part(direct ? 0 : a_cols),
        appender(direct ? a_target : &a_part, a_indices) {
    probe.Bind(numbering, b_codec, b_indices);
  }
  bool direct;
  KeyCodec a_part;
  BatchCodecAppender appender;
  BatchKeyProbe probe;
  std::vector<uint32_t> row_b;
  ScopedCharge row_b_charge;  // transient: released when the chunk merges
};

ProbeAppendSink::ProbeAppendSink(KeyCodec* a_codec, const std::vector<size_t>* a_indices,
                                 const KeyNumbering* numbering, const KeyCodec* b_codec,
                                 const std::vector<size_t>* b_indices,
                                 SpilledU32Store* row_b)
    : a_codec_(a_codec),
      a_indices_(a_indices),
      numbering_(numbering),
      b_codec_(b_codec),
      b_indices_(b_indices),
      row_b_(row_b) {}

std::unique_ptr<SinkChunk> ProbeAppendSink::MakeChunk(size_t index) {
  return std::make_unique<Chunk>(index == 0 ? a_codec_ : nullptr, a_indices_->size(),
                                 a_indices_, numbering_, b_codec_, b_indices_);
}

void ProbeAppendSink::Consume(SinkChunk& chunk, const Batch& batch) {
  GovernorFaultPoint("sink.probe_append");
  Chunk& c = static_cast<Chunk&>(chunk);
  c.appender.Append(batch);
  if (!c.direct) {
    c.row_b_charge.Add(batch.ActiveRows() * sizeof(uint32_t));
    c.probe.Resolve(batch, &c.row_b);
    return;
  }
  // The a-codec's store and row_b_ itself charge (and spill) their bytes.
  c.row_b.clear();
  c.probe.Resolve(batch, &c.row_b);
  row_b_->Append(c.row_b.data(), c.row_b.size());
}

void ProbeAppendSink::Merge(SinkChunk& chunk) {
  Chunk& c = static_cast<Chunk&>(chunk);
  if (c.direct) return;
  a_codec_->AppendTranslated(c.a_part);
  c.a_part.ReleaseRowCharges();
  row_b_->Append(c.row_b.data(), c.row_b.size());
  c.row_b.clear();
  c.row_b.shrink_to_fit();
  c.row_b_charge.ReleaseNow();
}

namespace {

void MaterializeRows(const Batch& batch, const std::vector<size_t>* proj,
                     std::vector<Tuple>* out) {
  size_t n = batch.ActiveRows();
  for (size_t i = 0; i < n; ++i) {
    uint32_t row = batch.RowAt(i);
    Tuple t;
    if (proj != nullptr) {
      t.reserve(proj->size());
      for (size_t c : *proj) t.push_back(batch.At(row, c));
    } else {
      batch.ToTuple(row, &t);
    }
    out->push_back(std::move(t));
  }
}

}  // namespace

struct JoinBuildSink::Chunk : SinkChunk {
  // Chunk 0 passes the sink's codec and rows and appends straight into
  // them; later chunks (codec == nullptr) fill part and their own rows.
  Chunk(KeyCodec* codec, std::vector<Tuple>* rows_out, size_t key_cols,
        const std::vector<size_t>* key_indices)
      : part(codec != nullptr ? 0 : key_cols),
        appender(codec != nullptr ? codec : &part, key_indices),
        out(rows_out != nullptr ? rows_out : &rows) {}
  KeyCodec part;
  BatchCodecAppender appender;
  std::vector<Tuple> rows;
  std::vector<Tuple>* out;
};

JoinBuildSink::JoinBuildSink(KeyCodec* codec, const std::vector<size_t>* key_indices,
                             const std::vector<size_t>* proj, std::vector<Tuple>* rows)
    : codec_(codec), key_indices_(key_indices), proj_(proj), rows_(rows) {}

std::unique_ptr<SinkChunk> JoinBuildSink::MakeChunk(size_t index) {
  if (index == 0) return std::make_unique<Chunk>(codec_, rows_, 0, key_indices_);
  return std::make_unique<Chunk>(nullptr, nullptr, key_indices_->size(), key_indices_);
}

void JoinBuildSink::Consume(SinkChunk& chunk, const Batch& batch) {
  GovernorFaultPoint("sink.join_build");
  // Key bytes are charged by the codec's row store; charge the materialized
  // build tuples here (retained for the statement's lifetime).
  size_t row_cols = proj_ != nullptr ? proj_->size() : batch.num_columns();
  GovernorCharge(batch.ActiveRows() * (row_cols + 2) * 8);
  Chunk& c = static_cast<Chunk&>(chunk);
  c.appender.Append(batch);
  MaterializeRows(batch, proj_, c.out);
}

void JoinBuildSink::Merge(SinkChunk& chunk) {
  Chunk& c = static_cast<Chunk&>(chunk);
  if (c.out == rows_) return;
  codec_->AppendTranslated(c.part);
  c.part.ReleaseRowCharges();
  rows_->reserve(rows_->size() + c.rows.size());
  for (Tuple& t : c.rows) rows_->push_back(std::move(t));
}

// -------------------------------------------- plan-level decomposition

namespace {

void WalkPipelines(Iterator* it, PipelineDesc* current, std::vector<PipelineDesc>* out) {
  current->ops.push_back(it);
  std::vector<Iterator*> children = it->InputIterators();
  std::vector<size_t> blocking = it->BlockingInputs();
  for (size_t i = 0; i < children.size(); ++i) {
    bool breaks = std::find(blocking.begin(), blocking.end(), i) != blocking.end();
    if (breaks) {
      PipelineDesc sub;
      sub.sink = it;
      WalkPipelines(children[i], &sub, out);
      std::reverse(sub.ops.begin(), sub.ops.end());  // source first
      out->push_back(std::move(sub));
    } else {
      WalkPipelines(children[i], current, out);
    }
  }
}

}  // namespace

std::vector<PipelineDesc> DecomposePipelines(Iterator& root) {
  std::vector<PipelineDesc> pipelines;
  PipelineDesc top;
  top.sink = &root;
  WalkPipelines(&root, &top, &pipelines);
  std::reverse(top.ops.begin(), top.ops.end());
  pipelines.push_back(std::move(top));
  return pipelines;
}

std::string DescribePipelines(Iterator& root) {
  std::vector<PipelineDesc> pipelines = DecomposePipelines(root);
  std::string out;
  for (size_t i = 0; i < pipelines.size(); ++i) {
    const PipelineDesc& p = pipelines[i];
    out += "pipeline " + std::to_string(i) + ":";
    for (Iterator* op : p.ops) {
      out += " ";
      out += op->name();
      out += " ->";
    }
    bool drains_into_sink = p.sink != nullptr && (p.ops.empty() || p.ops.back() != p.sink);
    if (drains_into_sink) {
      out += std::string(" [") + p.sink->name() + "]";
      // pipeline_dop() is recorded per operator as the max over its drains,
      // so it is labeled on the sink, not claimed per pipeline: a breaker
      // that drained a tiny input serially and a large one 8-way shows
      // "dop=8" on both of its drain pipelines' sink tag.
      if (p.sink->pipeline_dop() > 0) {
        out += " dop=" + std::to_string(p.sink->pipeline_dop());
      }
    } else {
      out += " output";
    }
    out += "\n";
  }
  return out;
}

}  // namespace quotient
