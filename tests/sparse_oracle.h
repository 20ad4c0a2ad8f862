// sparse_oracle.h — the unfused MCL iteration, serial, as a test oracle.
//
// SparseMatrix::MclIterate fuses expansion, inflation, pruning and
// renormalization into one dispatch and promises the exact bits of the
// step-by-step sequence.  This header is that sequence, one step per
// function, built only on the public FromTriplets / Column /
// NormalizeColumns API and the dispatched simd kernels.  Each step
// repeats the production rule it stands for exactly: the accumulation
// order of the product, the inflation sweep (power 2 through
// square_accumulate, any other power through pow + sum), and the
// nth_element-then-row-sort pruning order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "cluster/sparse.h"
#include "common/simd.h"

namespace hobbit::test {

using cluster::SparseMatrix;

/// a × b, column by column: column c of the product is the combination
/// of a's columns selected by b[:, c], accumulated in b's row order.
inline SparseMatrix OracleMultiply(const SparseMatrix& a,
                                   const SparseMatrix& b) {
  const std::uint32_t n = a.size();
  std::vector<SparseMatrix::Triplet> triplets;
  std::vector<double> accumulator(n, 0.0);
  std::vector<std::uint32_t> touched;
  for (std::uint32_t c = 0; c < n; ++c) {
    touched.clear();
    const SparseMatrix::ColumnView bc = b.Column(c);
    for (std::size_t i = 0; i < bc.count; ++i) {
      const SparseMatrix::ColumnView ac = a.Column(bc.rows[i]);
      for (std::size_t j = 0; j < ac.count; ++j) {
        const std::uint32_t r = ac.rows[j];
        if (accumulator[r] == 0.0) touched.push_back(r);
        accumulator[r] += bc.values[i] * ac.values[j];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (std::uint32_t r : touched) {
      triplets.push_back({r, c, accumulator[r]});
      accumulator[r] = 0.0;
    }
  }
  return SparseMatrix::FromTriplets(n, std::move(triplets));
}

/// Raises every entry to `power`, then renormalizes each column (a column
/// summing to zero keeps its powered values).
inline SparseMatrix OracleInflate(const SparseMatrix& m, double power) {
  const common::simd::Kernels& kernels = common::simd::Active();
  std::vector<SparseMatrix::Triplet> triplets;
  std::vector<double> column;
  for (std::uint32_t c = 0; c < m.size(); ++c) {
    const SparseMatrix::ColumnView view = m.Column(c);
    column.assign(view.values, view.values + view.count);
    double sum = 0.0;
    if (power == 2.0) {
      sum = kernels.square_accumulate(column.data(), column.size());
    } else {
      for (double& value : column) value = std::pow(value, power);
      sum = kernels.sum(column.data(), column.size());
    }
    if (sum > 0.0) kernels.divide(column.data(), column.size(), sum);
    for (std::size_t i = 0; i < view.count; ++i) {
      triplets.push_back({view.rows[i], c, column[i]});
    }
  }
  return SparseMatrix::FromTriplets(m.size(), std::move(triplets));
}

/// Drops entries below `threshold`, keeps the `max_per_column` largest of
/// the rest, then renormalizes each column.
inline SparseMatrix OraclePrune(const SparseMatrix& m, double threshold,
                                std::size_t max_per_column) {
  const common::simd::Kernels& kernels = common::simd::Active();
  std::vector<SparseMatrix::Triplet> triplets;
  std::vector<std::pair<double, std::uint32_t>> kept;
  for (std::uint32_t c = 0; c < m.size(); ++c) {
    const SparseMatrix::ColumnView view = m.Column(c);
    kept.resize(view.count);
    kept.resize(kernels.filter_ge(view.values, view.rows, view.count,
                                  threshold, kept.data()));
    if (kept.size() > max_per_column) {
      std::nth_element(
          kept.begin(),
          kept.begin() + static_cast<std::ptrdiff_t>(max_per_column),
          kept.end(),
          [](const auto& a, const auto& b) { return a.first > b.first; });
      kept.resize(max_per_column);
    }
    std::sort(kept.begin(), kept.end(),
              [](const auto& a, const auto& b) { return a.second < b.second; });
    for (const auto& [value, row] : kept) triplets.push_back({row, c, value});
  }
  SparseMatrix pruned =
      SparseMatrix::FromTriplets(m.size(), std::move(triplets));
  pruned.NormalizeColumns();
  return pruned;
}

/// One unfused MCL iteration: what MclIterate must reproduce bit for bit.
inline SparseMatrix OracleMclIterate(const SparseMatrix& m, double inflation,
                                     double prune_threshold,
                                     std::size_t max_per_column) {
  return OraclePrune(OracleInflate(OracleMultiply(m, m), inflation),
                     prune_threshold, max_per_column);
}

}  // namespace hobbit::test
