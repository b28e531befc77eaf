// Scalable sparse triangular solve (stri) — the apply path the whole
// factorization is co-designed for (paper §VI: "the incomplete factorization
// may only be formed once, but stri may be called thousands of times").
//
// The forward (L) sweep runs under f.fwd, the schedule the numeric
// factorization also runs (the dependency pattern of the forward solve is
// exactly the strictly-lower pattern of the factor, so its levels and its
// spin-wait sparsification serve both): L's own levels, which are the
// plan's on a symmetric pattern and can be far fewer on an unsymmetric one.
// The backward (U) sweep runs under f.bwd, the plan's levels reversed, each
// level a contiguous row range, with the diagonal scale fused into the
// sweep — no separate D^{-1} pass over the vector. Each sweep is one region
// under the factor's f.opts.exec_backend (P2P, or barrier CSR-LS: then both
// are plain level-set sweeps) and RETARGETS through the workspace's
// ScheduleCache when the runtime team differs from the factor-time plan —
// never a silent serial fallback.
//
// The scalar apply is the k = 1 case of the panel apply (ilu_apply_panel,
// ilu/batch.hpp), and both run one implementation with two executions: at
// a runtime team of one (or whenever k >= team) the straight-line column
// solve with no synchronization, otherwise the two scheduled sweeps above.
// The rhs gather is folded into the forward sweep and the solution scatter
// into the backward sweep, so an apply makes no separate permute pass.
//
// All parallel sweeps are bitwise-identical to the serial reference: every
// row's accumulation walks its CSR entries in the same ascending order, and
// each vector slot has exactly one writer.
#pragma once

#include <span>
#include <vector>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/support/spinwait.hpp"

namespace javelin {

/// Reusable scratch for repeated ilu_apply calls (permuted rhs/solution, the
/// P2P progress counters both sweeps re-arm instead of reallocating, and the
/// retargeted-schedule cache the sweeps re-plan through when the runtime
/// team differs from the factor-time plan). Kept outside the Factorization
/// so multiple solves may share one immutable factor with private
/// workspaces; give each factor its own workspace (runtime_fwd). Move-only:
/// the counters are atomics.
struct SolveWorkspace {
  std::vector<value_t> x;     ///< permuted vector/panel being solved in place
  ProgressCounters progress;  ///< spin-wait counters reused every sweep
  ScheduleCache sched;        ///< runtime-retargeted schedules (lazy)

  /// Scalar sizing: x holds at least an n-vector. The second argument sizes
  /// nothing; it is kept so two-argument callers still compile. Grows only,
  /// like resize_panel, so a workspace that alternates scalar and panel
  /// applies keeps its panel (callers view the first n entries of x).
  void resize(index_t n, index_t /*unused*/ = 0) { resize_panel(n, 1); }

  /// Panel (multi-RHS) sizing: x holds a column-major n×k panel. Grows only
  /// (a workspace cycling between panel widths keeps the high-water
  /// allocation).
  void resize_panel(index_t n, index_t k) {
    const std::size_t need =
        static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
    if (x.size() < need) x.resize(need);
  }
};

/// In-place P2P forward sweep on the permuted factor: on entry x is the
/// permuted rhs, on exit L x' = x (unit diagonal implicit). Every row runs
/// in one region under f.fwd. Throws Error when x is shorter than n.
void trsv_forward(const Factorization& f, std::span<value_t> x,
                  SolveWorkspace& ws);

/// In-place P2P backward sweep: x := U^{-1} x, diagonal divide fused. Shares
/// ws.progress with the forward sweep (the sweeps never overlap). Throws
/// Error when x is shorter than n.
void trsv_backward(const Factorization& f, std::span<value_t> x,
                   SolveWorkspace& ws);

/// Serial in-place variants (the reference the tests check every execution
/// against). Throw Error when x is shorter than n.
void trsv_forward_serial(const Factorization& f, std::span<value_t> x);
void trsv_backward_serial(const Factorization& f, std::span<value_t> x);

/// Preconditioner application z = (L U)^{-1} r with r and z in the ORIGINAL
/// row ordering (the plan permutation is applied on the way in and undone on
/// the way out, so callers never see the level ordering): ilu_apply_panel at
/// k = 1. r and z must not alias. Thread-safe across distinct workspaces.
/// Throws Error when r or z is shorter than n; the sweeps themselves cannot
/// fail (only the numeric phase meets a bad pivot).
void ilu_apply(const Factorization& f, std::span<const value_t> r,
               std::span<value_t> z, SolveWorkspace& ws);

/// Convenience overload with a per-call workspace (allocates; prefer the
/// workspace overload in iterative loops).
void ilu_apply(const Factorization& f, std::span<const value_t> r,
               std::span<value_t> z);

/// Serial-reference ilu_apply used by the property tests.
void ilu_apply_serial(const Factorization& f, std::span<const value_t> r,
                      std::span<value_t> z, SolveWorkspace& ws);

}  // namespace javelin
