#include "cluster/sparse.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.h"
#include "common/simd.h"

namespace hobbit::cluster {
namespace {

// Minimum columns per chunk: components smaller than this run inline
// (an MCL run on a ten-vertex component should not pay any dispatch),
// larger matrices split into one contiguous chunk per shard.
constexpr std::size_t kColumnGrain = 64;

// A fused MCL iteration over fewer nonzeros than this runs as one inline
// chunk: it is ~100 us of serial work, and waking the pool's workers for
// it costs more than it saves (a 726-column, 1.8 k-nonzero iteration took
// 85 us inline and 380 us on two threads on a 4-core VM).  Campaign-size
// matrices (3.1 k columns, ~7 k nonzeros) still dispatch.
constexpr std::size_t kInlineIterationNonZeros = 2048;

// Inflation sweep over one contiguous column: pow every entry in place
// and return the column sum in the simd layer's fixed lane order (see
// simd.h).  The canonical MCL inflation (2.0) is the vector kernel's
// single multiply — x*x and a correctly-rounded pow round identically —
// and other powers take a scalar libm pass followed by the same
// lane-ordered reduction.  The serial oracle in tests/sparse_oracle.h
// repeats this rule exactly; that is what keeps the fused iteration
// bit-identical to the unfused sequence for every power and tier.
inline double InflateSweep(double* values, std::size_t count, double power,
                           const common::simd::Kernels& kernels) {
  if (power == 2.0) return kernels.square_accumulate(values, count);
  for (std::size_t i = 0; i < count; ++i) {
    values[i] = std::pow(values[i], power);
  }
  return kernels.sum(values, count);
}

// Pruning selection: keep the `max_per_column` largest of `kept`
// (already in row order), then restore row order.  The exact
// nth_element/sort call sequence is part of the bit-identity contract
// with the unfused oracle (tests/sparse_oracle.h).
void SelectTopThenSortByRow(
    std::vector<std::pair<double, std::uint32_t>>& kept,
    std::size_t max_per_column) {
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
}

// Variable-length per-column output of one shard's contiguous chunk.
// Chunks ascend with the shard index, so concatenating shard buffers in
// shard order reassembles the matrix in column order — the same bytes
// for every thread count.
struct ShardColumns {
  std::vector<std::uint32_t> rows;
  std::vector<double> values;
  std::vector<std::uint32_t> counts;  // entries per column of the chunk
  std::size_t first_column = 0;
  double max_difference = 0.0;
  bool used = false;
};

}  // namespace

SparseMatrix SparseMatrix::FromTriplets(std::uint32_t n,
                                        std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              if (a.col != b.col) return a.col < b.col;
              return a.row < b.row;
            });
  SparseMatrix m(n);
  m.rows_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  std::uint32_t current_col = 0;
  for (std::size_t i = 0; i < triplets.size();) {
    const Triplet& t = triplets[i];
    while (current_col < t.col) m.col_start_[++current_col] = m.rows_.size();
    double sum = t.value;
    std::size_t j = i + 1;
    while (j < triplets.size() && triplets[j].col == t.col &&
           triplets[j].row == t.row) {
      sum += triplets[j].value;
      ++j;
    }
    m.rows_.push_back(t.row);
    m.values_.push_back(sum);
    i = j;
  }
  while (current_col < n) m.col_start_[++current_col] = m.rows_.size();
  return m;
}

void SparseMatrix::NormalizeColumns(common::ThreadPool* pool) {
  // Columns are contiguous value slices, so the reduction and the
  // divide run through the dispatched simd kernels; the lane-ordered
  // sum is bit-identical in every tier (simd.h contract), so the result
  // depends on neither the thread count nor the dispatched ISA.
  const common::simd::Kernels& kernels = common::simd::Active();
  common::ForEachChunk(
      pool, n_, kColumnGrain, [this, &kernels](common::ChunkRange chunk) {
        for (std::size_t c = chunk.begin; c < chunk.end; ++c) {
          double* column = values_.data() + col_start_[c];
          const std::size_t count = col_start_[c + 1] - col_start_[c];
          const double sum = kernels.sum(column, count);
          if (sum <= 0.0) continue;
          kernels.divide(column, count, sum);
        }
      });
}

SparseMatrix SparseMatrix::MclIterate(double inflation,
                                      double prune_threshold,
                                      std::size_t max_per_column,
                                      common::ThreadPool* pool,
                                      double* max_difference) const {
  // One dispatch per iteration: every column flows through expansion
  // (this × this), inflation, pruning, renormalization and the
  // convergence delta without leaving its shard.  Per column the
  // floating-point operations and their order are exactly those of the
  // unfused multiply → inflate → prune → normalize sequence (the serial
  // oracle in tests/sparse_oracle.h, pinned by tests/test_sparse.cpp), so
  // the fusion — like the thread count and
  // the dispatched simd tier — cannot change a single bit of the result.
  const common::simd::Kernels& kernels = common::simd::Active();
  if (rows_.size() < kInlineIterationNonZeros) pool = nullptr;
  SparseMatrix result(n_);
  common::PerShard<ShardColumns> shards(common::ThreadCount(pool));
  common::ForEachChunk(pool, n_, kColumnGrain, [&](common::ChunkRange
                                                       chunk) {
    ShardColumns& out = *shards[chunk.shard];
    out.used = true;
    out.first_column = chunk.begin;
    out.counts.reserve(chunk.size());
    std::vector<double> accumulator(n_, 0.0);
    std::vector<std::uint32_t> touched;
    std::vector<double> column;  // SoA scratch: the column, densely packed
    std::vector<std::pair<double, std::uint32_t>> kept;
    double local_max = 0.0;
    for (std::size_t c = chunk.begin; c < chunk.end; ++c) {
      // Expansion: column c of this × this, accumulated in the
      // reference order.
      touched.clear();
      ColumnView oc = Column(static_cast<std::uint32_t>(c));
      for (std::size_t i = 0; i < oc.count; ++i) {
        const std::uint32_t k = oc.rows[i];
        const double w = oc.values[i];
        ColumnView tc = Column(k);
        for (std::size_t j = 0; j < tc.count; ++j) {
          const std::uint32_t r = tc.rows[j];
          if (accumulator[r] == 0.0) touched.push_back(r);
          accumulator[r] += w * tc.values[j];
        }
      }
      std::sort(touched.begin(), touched.end());
      // Gather the column out of the n-sized accumulator into a densely
      // packed value array (clearing the accumulator in the same pass —
      // it must be all-zeros when the next column starts).  From here on
      // every stage is a contiguous sweep over `column` instead of a
      // gather/scatter through accumulator[r]: same floating-point
      // operations on the same values in the same (row-ascending) order,
      // so the fusion contract is untouched, but the loops now walk
      // cache lines linearly and vectorize.
      const std::size_t touched_count = touched.size();
      column.resize(touched_count);
      for (std::size_t t = 0; t < touched_count; ++t) {
        const std::uint32_t r = touched[t];
        column[t] = accumulator[r];
        accumulator[r] = 0.0;
      }
      // Inflation sweep (vector kernel): pow every entry in row order,
      // then normalize (columns summing to zero stay unnormalized).
      const double sum =
          InflateSweep(column.data(), touched_count, inflation, kernels);
      if (sum > 0.0) {
        kernels.divide(column.data(), touched_count, sum);
      }
      // Pruning (vector compare + compaction) + renormalization over
      // the kept entries.  The kept sum reduces through LaneAccumulator
      // — the same fixed order NormalizeColumns' kernel uses over the
      // pruned column in the unfused sequence.
      kept.resize(touched_count);
      kept.resize(kernels.filter_ge(column.data(), touched.data(),
                                    touched_count, prune_threshold,
                                    kept.data()));
      SelectTopThenSortByRow(kept, max_per_column);
      common::simd::LaneAccumulator kept_acc;
      for (std::size_t t = 0; t < kept.size(); ++t) {
        kept_acc.Add(t, kept[t].first);
      }
      const double kept_sum = kept_acc.Combine();
      if (kept_sum > 0.0) {
        for (auto& [value, row] : kept) value /= kept_sum;
      }
      // Convergence delta against the pre-iteration column, merged on
      // the union of supports exactly as MaxDifference does.
      ColumnView before = Column(static_cast<std::uint32_t>(c));
      std::size_t i = 0, j = 0;
      while (i < kept.size() || j < before.count) {
        if (j >= before.count ||
            (i < kept.size() && kept[i].second < before.rows[j])) {
          local_max = std::max(local_max, std::abs(kept[i].first));
          ++i;
        } else if (i >= kept.size() || before.rows[j] < kept[i].second) {
          local_max = std::max(local_max, std::abs(before.values[j]));
          ++j;
        } else {
          local_max =
              std::max(local_max, std::abs(kept[i].first - before.values[j]));
          ++i;
          ++j;
        }
      }
      // Emit and reset the accumulator for the next column.
      for (const auto& [value, row] : kept) {
        out.rows.push_back(row);
        out.values.push_back(value);
      }
      out.counts.push_back(static_cast<std::uint32_t>(kept.size()));
    }
    out.max_difference = local_max;
  });

  std::size_t total = 0;
  for (const auto& shard : shards) {
    if (shard->used) total += shard->rows.size();
  }
  result.rows_.reserve(total);
  result.values_.reserve(total);
  double delta = 0.0;
  for (const auto& shard : shards) {
    const ShardColumns& out = *shard;
    if (!out.used) continue;
    for (std::size_t k = 0; k < out.counts.size(); ++k) {
      result.col_start_[out.first_column + k + 1] =
          result.col_start_[out.first_column + k] + out.counts[k];
    }
    result.rows_.insert(result.rows_.end(), out.rows.begin(),
                        out.rows.end());
    result.values_.insert(result.values_.end(), out.values.begin(),
                          out.values.end());
    delta = std::max(delta, out.max_difference);
  }
  if (max_difference != nullptr) *max_difference = delta;
  return result;
}

double SparseMatrix::Chaos() const {
  // For each column: max - sum-of-squares; the global chaos is the max.
  double chaos = 0.0;
  for (std::uint32_t c = 0; c < n_; ++c) {
    ColumnView col = Column(c);
    double max_v = 0.0;
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < col.count; ++i) {
      max_v = std::max(max_v, col.values[i]);
      sum_sq += col.values[i] * col.values[i];
    }
    chaos = std::max(chaos, max_v - sum_sq);
  }
  return chaos;
}

double SparseMatrix::MaxDifference(const SparseMatrix& other) const {
  double diff = 0.0;
  for (std::uint32_t c = 0; c < n_; ++c) {
    ColumnView a = Column(c);
    ColumnView b = other.Column(c);
    std::size_t i = 0, j = 0;
    while (i < a.count || j < b.count) {
      if (j >= b.count || (i < a.count && a.rows[i] < b.rows[j])) {
        diff = std::max(diff, std::abs(a.values[i]));
        ++i;
      } else if (i >= a.count || b.rows[j] < a.rows[i]) {
        diff = std::max(diff, std::abs(b.values[j]));
        ++j;
      } else {
        diff = std::max(diff, std::abs(a.values[i] - b.values[j]));
        ++i;
        ++j;
      }
    }
  }
  return diff;
}

}  // namespace hobbit::cluster
