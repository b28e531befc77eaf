// The region helper every apply-path sweep runs through (run_sweep), and the
// forward (L) sweep shared by the unfused solve path (trsv_forward, where x
// already holds the permuted rhs) and the fused solve+SpMV path
// (fused_forward, where the rhs gather x = P r is folded into each row).
// One implementation keeps the per-row accumulation in a single place, so
// the bitwise fused/unfused parity contract cannot drift. The forward sweep
// is one exec_run region over f.fwd — L's own levels — like the backward
// sweep over the plan's levels reversed.
#pragma once

#include <span>
#include <utility>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/ilu/trsv_kernels.hpp"

namespace javelin::detail {

/// Run `row(r)` for every row of `s` as one exec_run region, instantiated by
/// the precedence IluOptions documents: with a fault hook, the guarded
/// region (the hook fires at `site` after each row; a veto aborts the region
/// cooperatively); else, with an exec_obs sink, the instrumented region
/// charged to `region`; else the unguarded, zero-polling one. `tail` is
/// empty or the (ExecTail, chunk function) pair of a region with a tail
/// phase. Only the guarded region can return kAborted.
template <class RowFn, class... Tail>
ExecStatus run_sweep(const Factorization& f, const ExecSchedule& s,
                     FaultSite site, obs::Region region,
                     ProgressCounters& progress, RowFn&& row, Tail&&... tail) {
  const FaultHook& hook = f.opts.fault_hook;
  if (hook) {
    return exec_run(
        s,
        [&](index_t r, int) -> bool {
          row(r);
          return hook(site, r);
        },
        std::forward<Tail>(tail)..., progress);
  }
  if (f.opts.exec_obs != nullptr) {
    return exec_run_obs(
        s, [&](index_t r, int) { row(r); }, std::forward<Tail>(tail)...,
        progress, *f.opts.exec_obs, region);
  }
  return exec_run(
      s, [&](index_t r, int) { row(r); }, std::forward<Tail>(tail)...,
      progress);
}

/// In-place forward sweep on the permuted factor: on exit L x' = rhs, where
/// `rhs(r)` yields row r's right-hand side (read before x[r] is written, so
/// `[&x](index_t r) { return x[r]; }` expresses the in-place pre-gathered
/// case). Every row runs under f.fwd, retargeted to the runtime team, and
/// its accumulation is `rhs(r) - <fixed CSR-order partial sum>` —
/// bitwise-identical across all rhs functors that return the same values.
/// Returns kAborted only when the factor's fault-injection hook vetoed a row.
template <class RhsFn>
ExecStatus forward_sweep(const Factorization& f, RhsFn rhs,
                         std::span<value_t> x, SolveWorkspace& ws) {
  const CsrMatrix& lu = f.lu;
  // lower_partial reads only columns < r, whose completion the schedule's
  // waits (or level barriers) guarantee.
  return run_sweep(f, runtime_fwd(f, ws.sched), FaultSite::kForwardRow,
                   obs::Region::kForward, ws.progress, [&](index_t r) {
                     x[static_cast<std::size_t>(r)] =
                         rhs(r) - lower_partial(lu, r, x);
                   });
}

/// Panel (multi-RHS) forward sweep: the column-major n×k panel at `x`
/// (column stride `ld`) holds the permuted right-hand sides and is solved in
/// place, L x_j = x_j for every column j. Same region and same per-row
/// accumulation order as the scalar sweep above — column j is bitwise equal
/// to a scalar forward_sweep of that column — but every L entry is loaded
/// once per register block of kPanelBlockCols columns instead of once per
/// column.
inline ExecStatus forward_sweep_panel(const Factorization& f, value_t* x,
                                      std::size_t ld, index_t k,
                                      SolveWorkspace& ws) {
  const CsrMatrix& lu = f.lu;
  return run_sweep(
      f, runtime_fwd(f, ws.sched), FaultSite::kForwardRow,
      obs::Region::kForward, ws.progress, [&](index_t r) {
        for_each_panel_block(k, [&](index_t j0, auto kb) {
          constexpr int KB = decltype(kb)::value;
          value_t acc[KB];
          value_t* xb = x + static_cast<std::size_t>(j0) * ld;
          lower_partial_panel<KB>(lu, r, xb, ld, acc);
          value_t* xr = xb + static_cast<std::size_t>(r);
          for (int j = 0; j < KB; ++j) {
            xr[static_cast<std::size_t>(j) * ld] -= acc[j];
          }
        });
      });
}

}  // namespace javelin::detail
