// The up-looking row elimination kernel (paper Fig. 1) shared by every
// execution path: the serial reference and the numeric phase, which runs it
// for every row under the forward schedule, on L's own levels (row r reads
// only the rows its strictly-lower entries name). Keeping one kernel, run
// once per row, guarantees the parallel factorizations are bitwise identical
// to the serial one, modified ILU included — the within-row arithmetic order
// is fixed by the CSR column order, and rows never race (each row has
// exactly one writer).
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "javelin/ilu/options.hpp"
#include "javelin/sparse/csr.hpp"
#include "javelin/support/spinwait.hpp"

namespace javelin {

/// Per-thread scratch for row elimination: a stamped position map
/// (column -> nonzero index of the active row) that avoids O(n) clears.
/// Cache-line aligned: its owner bumps generation_ once per row, and a
/// neighbouring thread's workspace on the same line would ping-pong it.
class alignas(kCacheLine) RowWorkspace {
 public:
  explicit RowWorkspace(index_t n)
      : pos_(static_cast<std::size_t>(n), 0), stamp_(static_cast<std::size_t>(n), 0) {}

  void begin_row() noexcept { ++generation_; }

  void mark(index_t col, index_t nz_index) noexcept {
    pos_[static_cast<std::size_t>(col)] = nz_index;
    stamp_[static_cast<std::size_t>(col)] = generation_;
  }

  /// Nonzero index of `col` in the active row, or kInvalidIndex.
  index_t find(index_t col) const noexcept {
    return stamp_[static_cast<std::size_t>(col)] == generation_
               ? pos_[static_cast<std::size_t>(col)]
               : kInvalidIndex;
  }

 private:
  std::vector<index_t> pos_;
  std::vector<std::uint64_t> stamp_;
  std::uint64_t generation_ = 0;
};

/// Numerical knobs the kernel needs (subset of IluOptions, plus derived
/// quantities precomputed once per factorization).
struct RowKernelParams {
  double drop_tolerance = 0.0;
  bool modified = false;
  double pivot_threshold = 1e-14;
};

/// Raw views of the factor being computed in place. `diag_pos[r]` indexes the
/// diagonal entry of row r inside (col_idx, values).
struct FactorView {
  std::span<const index_t> row_ptr;
  std::span<const index_t> col_idx;
  std::span<value_t> values;
  std::span<const index_t> diag_pos;
};

/// Eliminate every column left of the diagonal of row `r` against the
/// already-factored rows (up-looking). Requires ws.begin_row() + marks for
/// ALL columns of row r to be in place (call mark_row first). Updates are
/// applied to every marked column to the right of the eliminated one; in
/// modified mode, discarded fill accumulates into the diagonal value.
inline void eliminate_row(const FactorView& f, index_t r,
                          const RowWorkspace& ws, const RowKernelParams& p) {
  const index_t lo = f.row_ptr[static_cast<std::size_t>(r)];
  const index_t hi = f.row_ptr[static_cast<std::size_t>(r) + 1];
  value_t milu_acc = 0;
  for (index_t k = lo; k < hi; ++k) {
    const index_t j = f.col_idx[static_cast<std::size_t>(k)];
    if (j >= r) break;  // columns sorted; past the strict lower part
    const value_t piv = f.values[static_cast<std::size_t>(f.diag_pos[static_cast<std::size_t>(j)])];
    value_t lij = f.values[static_cast<std::size_t>(k)] / piv;
    if (p.drop_tolerance > 0.0 && std::abs(lij) < p.drop_tolerance) {
      // ILU(τ): drop the multiplier; modified ILU folds it into the diagonal
      // scaled by the pivot so the row sum is preserved.
      if (p.modified) milu_acc += lij * piv;
      f.values[static_cast<std::size_t>(k)] = 0;
      continue;
    }
    f.values[static_cast<std::size_t>(k)] = lij;
    // Apply row j's U-part to row r.
    const index_t jlo = f.diag_pos[static_cast<std::size_t>(j)] + 1;
    const index_t jhi = f.row_ptr[static_cast<std::size_t>(j) + 1];
    for (index_t m = jlo; m < jhi; ++m) {
      const index_t col = f.col_idx[static_cast<std::size_t>(m)];
      const index_t tgt = ws.find(col);
      const value_t upd = lij * f.values[static_cast<std::size_t>(m)];
      if (tgt != kInvalidIndex) {
        f.values[static_cast<std::size_t>(tgt)] -= upd;
      } else if (p.modified) {
        milu_acc += upd;  // fill outside the pattern: compensate diagonal
      }
    }
  }
  if (p.modified && milu_acc != 0) {
    f.values[static_cast<std::size_t>(f.diag_pos[static_cast<std::size_t>(r)])] -= milu_acc;
  }
}

/// Stamp the workspace with all nonzero positions of row r.
inline void mark_row(const FactorView& f, index_t r, RowWorkspace& ws) {
  ws.begin_row();
  const index_t lo = f.row_ptr[static_cast<std::size_t>(r)];
  const index_t hi = f.row_ptr[static_cast<std::size_t>(r) + 1];
  for (index_t k = lo; k < hi; ++k) {
    ws.mark(f.col_idx[static_cast<std::size_t>(k)], k);
  }
}

/// Post-elimination row finish: τ-drop U entries and validate the pivot.
/// Returns false when the pivot is unusable (caller reports the row).
inline bool finish_row(const FactorView& f, index_t r, const RowKernelParams& p) {
  const index_t dp = f.diag_pos[static_cast<std::size_t>(r)];
  if (p.drop_tolerance > 0.0) {
    const index_t hi = f.row_ptr[static_cast<std::size_t>(r) + 1];
    value_t milu_acc = 0;
    for (index_t m = dp + 1; m < hi; ++m) {
      if (std::abs(f.values[static_cast<std::size_t>(m)]) < p.drop_tolerance) {
        if (p.modified) milu_acc += f.values[static_cast<std::size_t>(m)];
        f.values[static_cast<std::size_t>(m)] = 0;
      }
    }
    if (p.modified && milu_acc != 0) {
      f.values[static_cast<std::size_t>(dp)] += milu_acc;
    }
  }
  // A NaN pivot already fails the magnitude test; ±inf (overflowed
  // elimination) would pass it and then poison every dependent row, so the
  // pivot must be finite as well as large enough.
  const value_t piv = f.values[static_cast<std::size_t>(dp)];
  return std::isfinite(piv) && std::abs(piv) > p.pivot_threshold;
}

/// Full single-row factorization: mark, eliminate everything left of the
/// diagonal, finish. A row whose first column is its diagonal has nothing
/// to eliminate, so it skips the position map, whose scattered workspace
/// writes would be most of what the row costs; the result is the same bit
/// for bit (test_factor_parity runs the unconditional sequence beside it).
inline bool factor_row(const FactorView& f, index_t r, RowWorkspace& ws,
                       const RowKernelParams& p) {
  if (f.diag_pos[static_cast<std::size_t>(r)] >
      f.row_ptr[static_cast<std::size_t>(r)]) {
    mark_row(f, r, ws);
    eliminate_row(f, r, ws, p);
  }
  return finish_row(f, r, p);
}

}  // namespace javelin
