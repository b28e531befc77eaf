// Smoothed-aggregation AMG hierarchy: strength graph → BFS-ordered plain
// aggregation → Jacobi-smoothed prolongation P = (I − ω D_f⁻¹ A_f) T →
// Galerkin coarse operator A_c = Rᵀ A P (R = Pᵀ) via the sparse/ops SpGEMM,
// recursing until the coarsest grid is small enough for a dense LU solve.
// Every stage is deterministic, so the V-cycle built on top is a *fixed*
// preconditioner — safe inside plain PCG without flexible variants.
#pragma once

#include <memory>
#include <vector>

#include "javelin/amg/aggregate.hpp"
#include "javelin/amg/options.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/sparse/spmv.hpp"

namespace javelin {

/// The tentative (piecewise-constant) prolongation of an aggregation:
/// T[i, agg.id[i]] = 1. One nonzero per row, rows sorted trivially.
CsrMatrix tentative_prolongation(const Aggregates& agg);

/// One level of the hierarchy. `p`/`r` map between this level and the next
/// coarser one (empty on the coarsest level). The scratch vectors and the
/// ILU smoother workspace make repeated V-cycles allocation-free.
struct AmgLevel {
  CsrMatrix a;  ///< system operator at this level
  CsrMatrix p;  ///< prolongation: n_this × n_coarser
  CsrMatrix r;  ///< restriction Pᵀ: n_coarser × n_this

  /// Precomputed nnz-balanced partitions for the three spmv hot paths.
  RowPartition part_a, part_p, part_r;

  /// ω/a_ii per row for the damped Jacobi sweeps (damping baked in).
  std::vector<value_t> scaled_inv_diag;
  /// ILU(0) smoother factor (null when this level relaxes with Jacobi).
  std::unique_ptr<Factorization> ilu;
  SolveWorkspace ilu_ws;

  /// V-cycle scratch: rhs/x are this level's restriction target and coarse
  /// correction (unused on the finest level, which works on caller spans).
  std::vector<value_t> x, rhs, resid, tmp;

  /// Aggregate-size histogram of the aggregation that coarsened THIS level
  /// (empty on the coarsest level): aggregate_hist[k] = number of
  /// aggregates with k+1 fine rows. The classic aggregation-quality
  /// metric — a healthy smoothed-aggregation pass clusters around the
  /// stencil size; a spike at 1 (singletons) flags stalled coarsening.
  std::vector<index_t> aggregate_hist;

  index_t n() const noexcept { return a.rows(); }
};

struct AmgHierarchy {
  AmgOptions opts;
  std::vector<AmgLevel> levels;

  /// Coarsest-grid solver: dense LU with partial pivoting when the coarsest
  /// operator densifies comfortably, else a serial ILU(0) apply (stalled
  /// coarsening can leave a large coarsest level; an approximate coarse
  /// solve degrades the cycle gracefully instead of cubing a huge n).
  bool dense_coarse = false;
  std::vector<value_t> dense_lu;   ///< n×n row-major LU factors in place
  std::vector<index_t> dense_piv;  ///< partial-pivoting row swaps
  std::unique_ptr<Factorization> coarse_ilu;
  SolveWorkspace coarse_ws;

  index_t n() const noexcept {
    return levels.empty() ? 0 : levels.front().n();
  }
  int num_levels() const noexcept { return static_cast<int>(levels.size()); }

  /// Σ nnz(A_l) / nnz(A_0) — how much extra operator storage (the classic
  /// AMG health metric; ~1.1–1.5 is healthy for smoothed aggregation).
  double operator_complexity() const noexcept;
};

/// Build the hierarchy. Requires a square matrix with a structurally present,
/// nonzero diagonal on every Galerkin level (guaranteed for SPD inputs).
AmgHierarchy amg_setup(const CsrMatrix& a, const AmgOptions& opts = {});

}  // namespace javelin
