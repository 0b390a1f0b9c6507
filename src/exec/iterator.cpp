#include "exec/iterator.hpp"

#include "exec/query_context.hpp"

namespace quotient {

void DrainRows(Iterator& it, std::vector<Tuple>* out) {
  Batch batch;
  Tuple t;
  while (it.NextBatch(&batch)) {
    GovernorPoll();
    for (size_t i = 0; i < batch.ActiveRows(); ++i) {
      batch.ToTuple(batch.RowAt(i), &t);
      out->push_back(std::move(t));
    }
  }
}

Relation ExecuteToRelation(Iterator& it) {
  it.Open();
  std::vector<Tuple> tuples;
  DrainRows(it, &tuples);
  it.Close();
  return Relation(it.schema(), std::move(tuples));
}

size_t TotalRowsProduced(Iterator& root) {
  size_t total = root.rows_produced();
  for (Iterator* child : root.InputIterators()) total += TotalRowsProduced(*child);
  return total;
}

size_t MaxRowsProduced(Iterator& root) {
  size_t max_rows = root.rows_produced();
  for (Iterator* child : root.InputIterators()) {
    max_rows = std::max(max_rows, MaxRowsProduced(*child));
  }
  return max_rows;
}

size_t MaxPipelineDop(Iterator& root) {
  size_t max_dop = root.pipeline_dop();
  for (Iterator* child : root.InputIterators()) {
    max_dop = std::max(max_dop, MaxPipelineDop(*child));
  }
  return max_dop;
}

namespace {

void Render(Iterator& it, std::string* out, int indent) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  *out += it.name();
  *out += "  rows=" + std::to_string(it.rows_produced());
  // Degree of parallelism of this operator's pipeline drains (recorded by
  // the pipeline executor; 0 = streaming operator, or every drain recycled).
  if (it.pipeline_dop() > 0) *out += "  dop=" + std::to_string(it.pipeline_dop());
  *out += "  " + it.schema().ToString() + "\n";
  for (Iterator* child : it.InputIterators()) Render(*child, out, indent + 1);
}

}  // namespace

std::string ExplainTree(Iterator& root) {
  std::string out;
  Render(root, &out, 0);
  return out;
}

}  // namespace quotient
