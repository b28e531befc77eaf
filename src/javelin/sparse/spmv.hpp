// Sparse matrix–vector multiplication kernels.
//
// Javelin's raison d'être is leaving the preconditioner in a format where
// spmv and stri run at state-of-the-art speed (paper §II). Three variants:
//   * spmv_serial     — reference kernel
//   * spmv            — OpenMP row-parallel CSR
//   * spmv_segmented  — CSR5-inspired: nonzeros split into fixed-size tiles,
//     per-tile partial products reduced with a segmented pass.
#pragma once

#include <span>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Nonzero-balanced static row partition: chunk p owns rows
/// [bounds[p], bounds[p+1]), chosen so every chunk covers ~nnz/parts
/// nonzeros (row-aligned). Precompute once and reuse across the thousands of
/// spmv calls of an iterative solve — replaces dynamic scheduling, whose
/// per-chunk dequeue overhead dominates on skewed suites like
/// TSOPF_RS_b300_c2.
struct RowPartition {
  std::vector<index_t> bounds;  ///< size parts+1, bounds.front()==0, back()==rows

  int parts() const noexcept { return static_cast<int>(bounds.size()) - 1; }

  /// Build for `parts` chunks (<= 0 means the current OpenMP thread count).
  static RowPartition build(const CsrMatrix& a, int parts = 0);
};

/// y = A x (serial reference).
void spmv_serial(const CsrMatrix& a, std::span<const value_t> x,
                 std::span<value_t> y);

/// y = A x, OpenMP parallel over rows; each thread takes a row range
/// balanced by nonzero count (computed on the fly, two binary searches per
/// thread).
void spmv(const CsrMatrix& a, std::span<const value_t> x, std::span<value_t> y);

/// y = A x over a precomputed partition (the solver hot path).
void spmv(const CsrMatrix& a, const RowPartition& part,
          std::span<const value_t> x, std::span<value_t> y);

/// Multi-vector (panel) SpMV: Y = A X for k dense vectors stored
/// column-major (X is cols()×k with column stride cols(), Y is rows()×k with
/// column stride rows()). A's entries are loaded once per register block of
/// columns (sparse/panel.hpp), so the bandwidth-bound multiply amortizes the
/// matrix traffic across the panel. Column j of Y is bitwise equal to
/// spmv(a, part, column j of X). Throws when k < 1 or the spans don't cover
/// the panel.
void spmv_panel(const CsrMatrix& a, const RowPartition& part,
                std::span<const value_t> x, std::span<value_t> y, index_t k);

/// y = alpha * A x + beta * y, OpenMP parallel over rows (nnz-balanced).
void spmv_axpby(const CsrMatrix& a, value_t alpha, std::span<const value_t> x,
                value_t beta, std::span<value_t> y);

/// y = alpha * A x + beta * y over a precomputed partition.
void spmv_axpby(const CsrMatrix& a, const RowPartition& part, value_t alpha,
                std::span<const value_t> x, value_t beta, std::span<value_t> y);

/// Precomputed tile decomposition for the segmented-scan spmv. Tiles are
/// fixed-length runs of nonzeros (last tile ragged); each records the first
/// row intersecting it so the reduction can stitch row sums across tile
/// boundaries — the "small additional array of pointers" CSR5 needs
/// (paper §II).
struct SegmentedTiles {
  index_t tile_size = 0;
  index_t num_tiles = 0;
  /// First row whose nonzeros intersect tile t (size num_tiles).
  std::vector<index_t> first_row;

  static SegmentedTiles build(const CsrMatrix& a, index_t tile_size = 256);
};

/// y = A x using the tile decomposition. Tiles run in parallel; partial row
/// sums at tile boundaries are combined with atomic adds (at most two per
/// tile), everything interior is a plain serial reduction within the tile.
void spmv_segmented(const CsrMatrix& a, const SegmentedTiles& tiles,
                    std::span<const value_t> x, std::span<value_t> y);

// --- Dense vector helpers shared by the solvers -----------------------------

value_t dot(std::span<const value_t> a, std::span<const value_t> b);
value_t norm2(std::span<const value_t> a);
/// y += alpha x
void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y);
/// y = x + beta y
void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y);
void scale(value_t alpha, std::span<value_t> x);
void copy(std::span<const value_t> src, std::span<value_t> dst);
void fill(std::span<value_t> x, value_t v);

}  // namespace javelin
