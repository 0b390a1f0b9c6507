#pragma once

// Seeded suppliers-and-parts inputs and the harness's own reference answers.
//
// The generator receives only the workload seed and the table shape. The
// reference functions compute each statement template's answer directly
// from the generated rows, independently of the engine and of the oracle
// interpreter, so every (template, binding) a run executes can be checked
// cheaply at any table size.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algebra/relation.hpp"

namespace perfbench {

inline const std::vector<std::string>& Colors() {
  static const std::vector<std::string> colors = {"blue", "red", "green", "white"};
  return colors;
}

/// supplies(s#, p#) and parts(p#, color): `suppliers` suppliers over
/// `parts` parts, each pair present with probability `density`, and every
/// 10th supplier covering all parts so divisions have answers. Colors are a
/// seeded permutation giving each of the four colors parts/4 parts.
///
/// Only the compact form is kept; the tables are built from it on demand,
/// so the harness holds no copy of the rows it has handed to a Database.
struct SupplierData {
  int64_t suppliers = 0;
  int64_t parts = 0;
  std::vector<std::vector<int64_t>> parts_of;  // [s# - 1] -> sorted p#s
  std::vector<int> color_of;                   // [p# - 1] -> index into Colors()
  size_t supplies_rows = 0;

  /// The supplies(s#, p#) and parts(p#:int, color:string) tables.
  quotient::Relation SuppliesTable() const;
  quotient::Relation PartsTable() const;

  /// Suppliers covering every part of `color` (small divide), sorted.
  std::vector<int64_t> CoverColor(int color) const;
  /// (s#, color) for every color a supplier covers (great divide), sorted.
  std::vector<std::pair<int64_t, std::string>> CoverEachColor() const;
  /// Suppliers with more than `k` parts (GROUP BY ... HAVING), sorted.
  std::vector<int64_t> MoreThan(int64_t k) const;
  /// Suppliers with at least one part of `color` (EXISTS), sorted.
  std::vector<int64_t> AnyOfColor(int color) const;
  /// Suppliers of part `p` (point lookup), sorted.
  std::vector<int64_t> SuppliersOf(int64_t p) const;
};

SupplierData GenerateSuppliers(uint64_t seed, int64_t suppliers, int64_t parts,
                               double density);

/// Column `column` of every row of `rows` as integers, in relation order.
std::vector<int64_t> IntColumn(const quotient::Relation& rows, const std::string& column);

/// (s#, color) pairs of a great-divide result, in relation order.
std::vector<std::pair<int64_t, std::string>> SupplierColorPairs(const quotient::Relation& rows);

}  // namespace perfbench
