// User-facing options of the smoothed-aggregation AMG preconditioner.
//
// The hierarchy composes every existing Javelin layer: strength-filtered
// aggregation over the graph/ BFS utilities, Galerkin coarse operators via
// the sparse/ops SpGEMM, and smoothing sweeps that are either damped Jacobi
// (partitioned spmv) or the paper's own P2P ilu_apply — the ILU machinery
// becoming one level of an O(n) preconditioner (amgcl's architecture,
// Javelin's kernels).
#pragma once

#include "javelin/ilu/options.hpp"
#include "javelin/support/types.hpp"

namespace javelin {

/// Relaxation used for the pre/post sweeps of the V-cycle.
enum class AmgSmoother {
  kJacobi,  ///< damped Jacobi: x += ω D⁻¹ (r − A x)
  kIlu,     ///< ILU(0) sweep: x += (L U)⁻¹ (r − A x) via the P2P stri path
};

struct AmgOptions {
  // --- coarsening ----------------------------------------------------------
  /// Strength-of-connection threshold ε: (i,j) is strong iff
  /// |a_ij| > ε·sqrt(|a_ii|·|a_jj|). Smaller keeps more edges (slower
  /// coarsening, stronger interpolation).
  double strength_threshold = 0.08;
  /// Per-level multiplier on ε (amgcl convention): Galerkin operators pick
  /// up small smoothing tails, so a fixed threshold stalls coarsening one
  /// level down — relaxing it geometrically keeps aggregation moving.
  double strength_decay = 0.5;
  /// Damping ω of the Jacobi prolongation smoother P = (I − ω D_f⁻¹ A_f) T.
  double prolongation_omega = 2.0 / 3.0;
  /// Stop coarsening once a level has at most this many rows; that level is
  /// solved directly (dense LU with partial pivoting).
  index_t coarse_grid_size = 200;
  /// Hard cap on hierarchy depth.
  int max_levels = 20;
  /// Abort coarsening (treat the current level as coarsest) when aggregation
  /// shrinks the level by less than this factor — stalled coarsening on
  /// graphs with no strong connections must not recurse forever.
  double min_coarsening_ratio = 0.9;

  // --- smoothing -----------------------------------------------------------
  AmgSmoother smoother = AmgSmoother::kIlu;
  /// Damping ω of the Jacobi relaxation sweeps.
  double jacobi_omega = 2.0 / 3.0;
  int pre_sweeps = 1;
  int post_sweeps = 1;
  /// Options forwarded to the per-level ILU(0) smoother factorizations
  /// (fill_level is forced to 0; the smoother is a relaxation, not a solve).
  /// This includes the execution backend and retarget policy, so AMG
  /// smoothing sweeps ride the same exec/ layer as the standalone solves.
  IluOptions smoother_ilu;
  /// Thread count the per-level ILU plans are built for; <= 0 means the
  /// OpenMP default.
  int num_threads = 0;
};

}  // namespace javelin
