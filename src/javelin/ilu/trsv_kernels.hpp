// Per-row kernels of the triangular sweeps, one family templated on the
// register-block width KB: the serial references (solve.cpp), the apply at
// every panel width (forward_sweep.hpp) and the fused solve+SpMV path
// (fused.cpp) all run these, a single vector being the panel of width 1.
//
// The panel is stored COLUMN-MAJOR (column j of an n-row panel occupies
// x[j*ld .. j*ld + n)), and each kernel processes a block of KB columns per
// CSR walk — every L/U entry is loaded once and applied to KB values held
// in a stack accumulator the compiler keeps in registers. Every column
// walks its CSR entries in ascending order and touches exactly one output
// slot per row, so a solve of k right-hand sides is bitwise equal to k
// single-column solves no matter how the columns are blocked, which is
// what makes all execution modes bitwise-identical.
//
// `x` points at the first column of the block; `ld` is the column stride
// (ignored at KB = 1). KB is a compile-time width (sparse/panel.hpp picks
// it once per call), so the inner column loop fully unrolls.
#pragma once

#include <span>

#include "javelin/sparse/csr.hpp"
#include "javelin/sparse/panel.hpp"

namespace javelin::detail {

/// Forward sums of row r: acc[j] = Σ_{c < r} L(r,c) · x[c + j·ld] for j in
/// [0, KB), in CSR order. Columns are sorted, so this is a prefix walk that
/// stops at the diagonal.
template <int KB>
inline void lower_partial(const CsrMatrix& lu, index_t r, const value_t* x,
                          std::size_t ld, value_t* acc) {
  const auto ci = lu.col_idx();
  const auto vv = lu.values();
  for (int j = 0; j < KB; ++j) acc[j] = 0;
  for (index_t k = lu.row_begin(r); k < lu.row_end(r); ++k) {
    const index_t c = ci[static_cast<std::size_t>(k)];
    if (c >= r) break;
    const value_t v = vv[static_cast<std::size_t>(k)];
    const value_t* xc = x + static_cast<std::size_t>(c);
    for (int j = 0; j < KB; ++j) acc[j] += v * xc[static_cast<std::size_t>(j) * ld];
  }
}

/// Backward step of row r in each of the KB columns: subtract the
/// strictly-upper products and divide by the diagonal (the fused scale) —
/// U's row entries are loaded once for all KB columns.
template <int KB>
inline void backward_row(const CsrMatrix& lu, std::span<const index_t> diag_pos,
                         index_t r, value_t* x, std::size_t ld) {
  const auto ci = lu.col_idx();
  const auto vv = lu.values();
  const index_t dp = diag_pos[static_cast<std::size_t>(r)];
  value_t acc[KB] = {};
  for (index_t k = dp + 1; k < lu.row_end(r); ++k) {
    const value_t v = vv[static_cast<std::size_t>(k)];
    const value_t* xc = x + static_cast<std::size_t>(ci[static_cast<std::size_t>(k)]);
    for (int j = 0; j < KB; ++j) acc[j] += v * xc[static_cast<std::size_t>(j) * ld];
  }
  const value_t piv = vv[static_cast<std::size_t>(dp)];
  value_t* xr = x + static_cast<std::size_t>(r);
  for (int j = 0; j < KB; ++j) {
    xr[static_cast<std::size_t>(j) * ld] =
        (xr[static_cast<std::size_t>(j) * ld] - acc[j]) / piv;
  }
}

}  // namespace javelin::detail
