#include "data.hpp"

#include <algorithm>

#include "common.hpp"

namespace perfbench {

using quotient::Relation;
using quotient::Schema;
using quotient::Tuple;
using quotient::V;

SupplierData GenerateSuppliers(uint64_t seed, int64_t suppliers, int64_t parts,
                               double density) {
  SupplierData data;
  data.suppliers = suppliers;
  data.parts = parts;

  Rng color_rng = StreamRng(seed, 1);
  const int colors = static_cast<int>(Colors().size());
  data.color_of.resize(static_cast<size_t>(parts));
  for (int64_t p = 0; p < parts; ++p) data.color_of[p] = static_cast<int>(p % colors);
  color_rng.Shuffle(&data.color_of);

  Rng rng = StreamRng(seed, 2);
  data.parts_of.resize(static_cast<size_t>(suppliers));
  for (int64_t s = 1; s <= suppliers; ++s) {
    const bool full = s % 10 == 0;
    for (int64_t p = 1; p <= parts; ++p) {
      if (full || rng.Unit() < density) data.parts_of[s - 1].push_back(p);
    }
    data.supplies_rows += data.parts_of[s - 1].size();
  }
  return data;
}

Relation SupplierData::SuppliesTable() const {
  std::vector<Tuple> rows;
  rows.reserve(supplies_rows);
  for (int64_t s = 1; s <= suppliers; ++s) {
    for (int64_t p : parts_of[s - 1]) rows.push_back({V(s), V(p)});
  }
  return Relation(Schema::Parse("s#, p#"), std::move(rows));
}

Relation SupplierData::PartsTable() const {
  std::vector<Tuple> rows;
  for (int64_t p = 1; p <= parts; ++p) rows.push_back({V(p), V(Colors()[color_of[p - 1]])});
  return Relation(Schema::Parse("p#:int, color:string"), std::move(rows));
}

namespace {

/// Per-color part counts of one supplier.
std::vector<int64_t> ColorCounts(const SupplierData& data, const std::vector<int64_t>& parts) {
  std::vector<int64_t> counts(Colors().size(), 0);
  for (int64_t p : parts) ++counts[data.color_of[p - 1]];
  return counts;
}

std::vector<int64_t> PartsPerColor(const SupplierData& data) {
  std::vector<int64_t> totals(Colors().size(), 0);
  for (int c : data.color_of) ++totals[c];
  return totals;
}

}  // namespace

std::vector<int64_t> SupplierData::CoverColor(int color) const {
  const std::vector<int64_t> totals = PartsPerColor(*this);
  std::vector<int64_t> out;
  for (int64_t s = 1; s <= suppliers; ++s) {
    if (ColorCounts(*this, parts_of[s - 1])[color] == totals[color]) out.push_back(s);
  }
  return out;
}

std::vector<std::pair<int64_t, std::string>> SupplierData::CoverEachColor() const {
  const std::vector<int64_t> totals = PartsPerColor(*this);
  std::vector<std::pair<int64_t, std::string>> out;
  for (int64_t s = 1; s <= suppliers; ++s) {
    const std::vector<int64_t> counts = ColorCounts(*this, parts_of[s - 1]);
    for (size_t c = 0; c < counts.size(); ++c) {
      if (totals[c] > 0 && counts[c] == totals[c]) out.emplace_back(s, Colors()[c]);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int64_t> SupplierData::MoreThan(int64_t k) const {
  std::vector<int64_t> out;
  for (int64_t s = 1; s <= suppliers; ++s) {
    if (static_cast<int64_t>(parts_of[s - 1].size()) > k) out.push_back(s);
  }
  return out;
}

std::vector<int64_t> SupplierData::AnyOfColor(int color) const {
  std::vector<int64_t> out;
  for (int64_t s = 1; s <= suppliers; ++s) {
    if (ColorCounts(*this, parts_of[s - 1])[color] > 0) out.push_back(s);
  }
  return out;
}

std::vector<int64_t> SupplierData::SuppliersOf(int64_t p) const {
  std::vector<int64_t> out;
  for (int64_t s = 1; s <= suppliers; ++s) {
    const std::vector<int64_t>& mine = parts_of[s - 1];
    if (std::binary_search(mine.begin(), mine.end(), p)) out.push_back(s);
  }
  return out;
}

std::vector<int64_t> IntColumn(const Relation& rows, const std::string& column) {
  const size_t index = rows.schema().IndexOfOrThrow(column);
  std::vector<int64_t> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows.tuples()) out.push_back(t[index].as_int());
  return out;
}

std::vector<std::pair<int64_t, std::string>> SupplierColorPairs(const Relation& rows) {
  const size_t s = rows.schema().IndexOfOrThrow("s#");
  const size_t color = rows.schema().IndexOfOrThrow("color");
  std::vector<std::pair<int64_t, std::string>> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows.tuples()) out.emplace_back(t[s].as_int(), t[color].as_str());
  return out;
}

}  // namespace perfbench
