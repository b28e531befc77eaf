// Per-row building blocks of the triangular sweeps, shared by the unfused
// solve path (solve.cpp), the fused solve+SpMV path (fused.cpp) and the
// batched many-RHS path (batch.cpp). Every helper walks its CSR entries in
// ascending order and touches exactly one output slot per right-hand side,
// which is what makes all execution modes bitwise-identical.
//
// The *_panel variants are the register-blocked multi-RHS kernels: the panel
// is stored COLUMN-MAJOR (column j of an n-row panel occupies
// x[j*ld .. j*ld + n)), and each kernel processes a block of KB columns per
// CSR walk — every L/U/A entry is loaded once and applied to KB values held
// in a stack accumulator the compiler keeps in registers. Column j's
// accumulation order is exactly the scalar kernel's ascending-k order, so a
// batched solve of k right-hand sides is bitwise equal to k scalar solves no
// matter how the columns are blocked.
#pragma once

#include <span>

#include "javelin/sparse/csr.hpp"
#include "javelin/sparse/panel.hpp"

namespace javelin::detail {

/// Forward sum of row r: Σ_{c < r} L(r,c) · x[c], in CSR order. Columns are
/// sorted, so this is a prefix walk that stops at the diagonal.
inline value_t lower_partial(const CsrMatrix& lu, index_t r,
                             std::span<const value_t> x) {
  const auto ci = lu.col_idx();
  const auto vv = lu.values();
  value_t acc = 0;
  for (index_t k = lu.row_begin(r); k < lu.row_end(r); ++k) {
    const index_t c = ci[static_cast<std::size_t>(k)];
    if (c >= r) break;
    acc += vv[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(c)];
  }
  return acc;
}

/// Backward step for one row: subtract the strictly-upper products and divide
/// by the diagonal (the fused scale).
inline void backward_row(const CsrMatrix& lu, std::span<const index_t> diag_pos,
                         index_t r, std::span<value_t> x) {
  const auto ci = lu.col_idx();
  const auto vv = lu.values();
  const index_t dp = diag_pos[static_cast<std::size_t>(r)];
  value_t acc = 0;
  for (index_t k = dp + 1; k < lu.row_end(r); ++k) {
    acc += vv[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
  }
  x[static_cast<std::size_t>(r)] =
      (x[static_cast<std::size_t>(r)] - acc) / vv[static_cast<std::size_t>(dp)];
}

/// One CSR row of y = A x: fixed ascending-k accumulation (the bitwise
/// contract every spmv variant in the library honors).
inline value_t spmv_row(const CsrMatrix& a, index_t r,
                        std::span<const value_t> x) {
  const auto ci = a.col_idx();
  const auto vv = a.values();
  value_t acc = 0;
  for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
    acc += vv[static_cast<std::size_t>(k)] *
           x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
  }
  return acc;
}

// --- register-blocked panel kernels (multi-RHS) -----------------------------
//
// `x` points at column j0 of the panel (i.e. panel_base + j0*ld); `ld` is the
// column stride (the panel's row count); `acc` has KB slots. KB is a
// compile-time block width so the accumulator lives in registers and the
// inner column loop fully unrolls.

/// acc[j] = Σ_{c < r} L(r,c) · x[c + j·ld] for j in [0, KB).
template <int KB>
inline void lower_partial_panel(const CsrMatrix& lu, index_t r,
                                const value_t* x, std::size_t ld,
                                value_t* acc) {
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

/// Panel backward step: for each of the KB columns, subtract the
/// strictly-upper products and divide by the diagonal — U's row entries are
/// loaded once for all KB columns.
template <int KB>
inline void backward_row_panel(const CsrMatrix& lu,
                               std::span<const index_t> diag_pos, index_t r,
                               value_t* x, std::size_t ld) {
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
