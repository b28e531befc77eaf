// Sparse matrix–vector multiplication kernels.
//
// Javelin's raison d'être is leaving the preconditioner in a format where
// spmv and stri run at state-of-the-art speed (paper §II). Two entry points
// over one row kernel (detail::spmv_row<KB>, sparse/panel.hpp), plus the
// serial reference:
//   * spmv_serial — reference kernel (its own loop, the tests' oracle)
//   * spmv        — OpenMP row-parallel CSR over an nnz-balanced partition:
//     the width-1 panel
//   * spmv_panel  — the same rows over k column-major vectors, A's entries
//     loaded once per register block of columns
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

/// y = A x (serial reference). Throws when x is shorter than cols() or y
/// shorter than rows().
void spmv_serial(const CsrMatrix& a, std::span<const value_t> x,
                 std::span<value_t> y);

/// y = A x over a precomputed partition (the solver hot path): spmv_panel
/// at k = 1, so a span shorter than cols() (x) or rows() (y) throws.
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

// --- Dense vector helpers shared by the solvers -----------------------------
// dot, axpy and xpby throw when their two spans differ in size, copy when
// dst is shorter than src.

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
