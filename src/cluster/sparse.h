// sparse.h — compressed-sparse-column matrices for the Markov Cluster
// algorithm.
//
// MCL interprets a graph as a column-stochastic matrix and alternates
// expansion (matrix squaring — flow spreads) with inflation (entry-wise
// powering — flow sharpens).  Everything here is column-oriented because
// both normalisation and pruning operate per column.
// NormalizeColumns and MclIterate optionally take a `common::ThreadPool*`;
// work is sharded *by column*, and every column's floating-point
// operations happen in the same order regardless of the thread count, so
// parallel results are bit-identical to serial ones (see
// src/common/parallel.h for the sharding contract).
#pragma once

#include <cstdint>
#include <vector>

namespace hobbit::common {
class ThreadPool;
}

namespace hobbit::cluster {

/// A square sparse matrix in CSC layout.  Entries within a column are
/// sorted by row index; explicit zeros are never stored.
class SparseMatrix {
 public:
  explicit SparseMatrix(std::uint32_t n) : col_start_(n + 1, 0), n_(n) {}

  /// Builds from triplets (duplicates summed).  Triplets may arrive in any
  /// order.
  struct Triplet {
    std::uint32_t row;
    std::uint32_t col;
    double value;
  };
  static SparseMatrix FromTriplets(std::uint32_t n,
                                   std::vector<Triplet> triplets);

  std::uint32_t size() const { return n_; }
  std::size_t nonzeros() const { return rows_.size(); }

  /// Iteration over one column.
  struct ColumnView {
    const std::uint32_t* rows;
    const double* values;
    std::size_t count;
  };
  ColumnView Column(std::uint32_t col) const {
    return {rows_.data() + col_start_[col], values_.data() + col_start_[col],
            col_start_[col + 1] - col_start_[col]};
  }

  /// Scales every column to sum 1 (columns with zero sum are left empty).
  void NormalizeColumns(common::ThreadPool* pool = nullptr);

  /// One MCL iteration: expansion (this × this), inflation (entries
  /// raised to `inflation`, columns renormalized), pruning (entries below
  /// `prune_threshold` dropped, at most `max_per_column` largest kept)
  /// and column renormalization, fused into a single parallel dispatch.
  /// Each output column's floating-point operations run in exactly the
  /// order of the unfused step-by-step sequence (the serial oracle in
  /// tests/sparse_oracle.h), so the result is bit-identical to it.
  /// After expansion each column is gathered into a densely packed value
  /// array, so inflation, normalization and pruning are contiguous
  /// (vectorizable) sweeps rather than scatters through an n-sized
  /// accumulator.  When `max_difference` is non-null
  /// it receives MaxDifference(result, *this), computed on the fly.
  SparseMatrix MclIterate(double inflation, double prune_threshold,
                          std::size_t max_per_column,
                          common::ThreadPool* pool = nullptr,
                          double* max_difference = nullptr) const;

  /// Sum over columns of max(column) - used in MCL's chaos convergence
  /// measure; a converged (idempotent) column has chaos ~ 0.
  double Chaos() const;

  /// Maximum absolute entry-wise difference against `other` on the union
  /// of their supports.
  double MaxDifference(const SparseMatrix& other) const;

 private:
  std::vector<std::size_t> col_start_;
  std::vector<std::uint32_t> rows_;
  std::vector<double> values_;
  std::uint32_t n_;
};

}  // namespace hobbit::cluster
