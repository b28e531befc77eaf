// Column-major panel (multi-vector) primitives shared by the sparse kernels
// (spmv, spmv_panel) and the ilu/ triangular sweeps: the register-block
// width selection and the blocked SpMV row kernel.
//
// A panel is k dense vectors of length n stored column-major: column j
// occupies [j*ld, j*ld + n) for a column stride ld >= n. A single vector is
// the panel of width 1. Kernels process blocks of up to kPanelBlockCols
// columns per CSR walk, so every matrix entry is loaded once per block
// instead of once per vector — the bandwidth-bound kernels' cost becomes
// ~nnz/KB loads per vector. Column j's accumulation order is always the
// ascending-k CSR order, so any blocking is bitwise equal to k
// single-column passes.
//
// The block width is chosen once per call: with_block_width turns a panel
// of 8, 4, 2 or 1 columns into a compile-time width W, and the row loops
// then run one block of W columns per row with no dispatch. Only other
// widths (W = 0) split each row into blocks at run time.
#pragma once

#include <type_traits>

#include "javelin/sparse/csr.hpp"

namespace javelin::detail {

/// Columns per register block of the panel kernels. 8 doubles keep the
/// accumulator in registers on any x86-64/aarch64 ISA; wider panels are
/// processed 8 columns at a time (tail blocks of 4/2/1).
inline constexpr index_t kPanelBlockCols = 8;

/// fn(std::integral_constant<int, W>{}) with W = k when k columns are one
/// register block (8, 4, 2 or 1), else with W = 0 (width known only at run
/// time). Called once per kernel call, outside the row loops.
template <class Fn>
inline decltype(auto) with_block_width(index_t k, Fn&& fn) {
  switch (k) {
    case 8: return fn(std::integral_constant<int, 8>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    case 1: return fn(std::integral_constant<int, 1>{});
    default: return fn(std::integral_constant<int, 0>{});
  }
}

/// Invoke fn(j0, std::integral_constant<int, KB>{}) over column blocks
/// covering [0, k). With W > 0 (k == W, fixed by with_block_width) that is
/// the single block fn(0, W). With W = 0: blocks of kPanelBlockCols while
/// they fit, then 4/2/1 tails. Blocking never reorders a column's
/// accumulation, so any k is bitwise equal to k single-column sweeps.
template <int W = 0, class Fn>
inline void for_each_panel_block(index_t k, Fn&& fn) {
  if constexpr (W > 0) {
    fn(index_t{0}, std::integral_constant<int, W>{});
  } else {
    index_t j0 = 0;
    for (; j0 + 8 <= k; j0 += 8) fn(j0, std::integral_constant<int, 8>{});
    if (j0 + 4 <= k) { fn(j0, std::integral_constant<int, 4>{}); j0 += 4; }
    if (j0 + 2 <= k) { fn(j0, std::integral_constant<int, 2>{}); j0 += 2; }
    if (j0 < k) fn(j0, std::integral_constant<int, 1>{});
  }
}

/// SpMV row over KB columns: y[r + j·ldy] = Σ_c A(r,c) · x[c + j·ldx] for j
/// in [0, KB), in ascending CSR order — A's row entries loaded once for all
/// KB columns. KB = 1 is the single-vector row of y = A x.
template <int KB>
inline void spmv_row(const CsrMatrix& a, index_t r, const value_t* x,
                     std::size_t ldx, value_t* y, std::size_t ldy) {
  const auto ci = a.col_idx();
  const auto vv = a.values();
  value_t acc[KB] = {};
  for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
    const value_t v = vv[static_cast<std::size_t>(k)];
    const value_t* xc = x + static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]);
    for (int j = 0; j < KB; ++j) acc[j] += v * xc[static_cast<std::size_t>(j) * ldx];
  }
  value_t* yr = y + static_cast<std::size_t>(r);
  for (int j = 0; j < KB; ++j) yr[static_cast<std::size_t>(j) * ldy] = acc[j];
}

}  // namespace javelin::detail
