// The triangular sweeps every apply path runs, at every panel width: the
// region helper (run_sweep), the forward and backward rows of a k-column
// panel, the scheduled forward and backward sweeps, and the straight-line
// column solve. trsv_forward / trsv_backward, the apply at every width
// (solve.cpp: ilu_apply, ilu_apply_panel) and the fused solve+SpMV pass
// (fused.cpp) all run them; a single vector is the panel of width 1. One
// implementation keeps each row's accumulation in a single place, so the
// bitwise parity between the unfused, fused and batched paths cannot drift.
//
// The forward sweep is one exec_run region over f.fwd — L's own levels —
// and the backward sweep one over the plan's levels reversed. The rhs
// gather x = P r is folded into each forward row and the solution scatter
// z = Pᵀ x into each backward row, so an apply makes no separate permute
// pass. The register-block width W is a template parameter the caller
// fixes once per call (with_block_width, sparse/panel.hpp); only widths
// outside {1, 2, 4, 8} run W = 0, which splits each row into blocks at run
// time.
//
// No sweep can fail: without pivoting (paper §III) only the numeric phase
// meets values it cannot divide by, so every row function here returns void
// and every region runs the executor's unguarded loop.
#pragma once

#include <initializer_list>
#include <span>
#include <utility>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/ilu/trsv_kernels.hpp"

namespace javelin::detail {

/// Entry validation of every apply path: k >= 1 and every span holds an
/// n×k panel, so a short span throws javelin::Error naming `what` instead
/// of being read or written out of bounds.
void check_panel(const Factorization& f, index_t k,
                 std::initializer_list<std::size_t> span_sizes,
                 const char* what);

/// Run `row(r)` for every row of `s` as one exec_run region under the
/// factor's f.opts.exec_backend: instrumented and charged to `region` when
/// an exec_obs sink is attached, the zero-polling loop otherwise. `tail` is
/// empty or the (ExecTail, chunk function) pair of a region with a tail
/// phase.
template <class RowFn, class... Tail>
void run_sweep(const Factorization& f, const ExecSchedule& s,
               obs::Region region, ProgressCounters& progress, RowFn&& row,
               Tail&&... tail) {
  const ExecBackend backend = f.opts.exec_backend;
  const auto row_fn = [&](index_t r, int) { row(r); };
  if (f.opts.exec_obs != nullptr) {
    exec_run_obs(s, backend, row_fn, std::forward<Tail>(tail)..., progress,
                 *f.opts.exec_obs, region);
  } else {
    exec_run(s, backend, row_fn, std::forward<Tail>(tail)..., progress);
  }
}

/// Forward row of the k-column panel x (column stride ld): x_j[row] =
/// b_j[src] − Σ_{c < row} L(row,c) · x_j[c]. With `perm` set, src =
/// perm[row] gathers the right-hand side from b in the original row order;
/// with `perm` null, src = row reads it in place (b == x; the read precedes
/// the write of the same slot). Reads only rows < row of x, whose
/// completion the forward schedule (or the straight-line order) guarantees.
template <int W>
struct ForwardRow {
  const CsrMatrix& lu;
  const value_t* b;
  const index_t* perm;
  value_t* x;
  std::size_t ld;
  index_t k;

  void operator()(index_t row) const {
    const std::size_t src = static_cast<std::size_t>(
        perm != nullptr ? perm[static_cast<std::size_t>(row)] : row);
    for_each_panel_block<W>(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      const std::size_t c0 = static_cast<std::size_t>(j0) * ld;
      value_t acc[KB] = {};
      lower_partial<KB>(lu, row, x + c0, ld, acc);
      for (int j = 0; j < KB; ++j) {
        const std::size_t col = c0 + static_cast<std::size_t>(j) * ld;
        x[col + static_cast<std::size_t>(row)] = b[col + src] - acc[j];
      }
    });
  }
};

/// Backward row of the k-column panel x (column stride ld): x_j[row] :=
/// (x_j[row] − Σ_{c > row} U(row,c) · x_j[c]) / U(row,row), and, when `z`
/// is set, the finished value also to z_j[perm[row]] — the scatter
/// z = Pᵀ x folded into the sweep.
template <int W>
struct BackwardRow {
  const CsrMatrix& lu;
  std::span<const index_t> diag_pos;
  const index_t* perm;
  value_t* x;
  value_t* z;
  std::size_t ld;
  index_t k;

  void operator()(index_t row) const {
    for_each_panel_block<W>(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      const std::size_t c0 = static_cast<std::size_t>(j0) * ld;
      backward_row<KB>(lu, diag_pos, row, x + c0, ld);
      if (z != nullptr) {
        const std::size_t dst =
            static_cast<std::size_t>(perm[static_cast<std::size_t>(row)]);
        for (int j = 0; j < KB; ++j) {
          const std::size_t col = c0 + static_cast<std::size_t>(j) * ld;
          z[col + dst] = x[col + static_cast<std::size_t>(row)];
        }
      }
    });
  }
};

/// Forward sweep of the k-column panel x (column stride n) under f.fwd,
/// retargeted to the runtime team: a ForwardRow for every row, gathering
/// from b through the plan permutation (`gather`) or in place.
template <int W>
void forward_sweep(const Factorization& f, const value_t* b, bool gather,
                   value_t* x, index_t k, SolveWorkspace& ws) {
  run_sweep(f, runtime_fwd(f, ws.sched), obs::Region::kForward, ws.progress,
            ForwardRow<W>{f.lu, b, gather ? f.plan.perm.data() : nullptr, x,
                          static_cast<std::size_t>(f.n()), k});
}

/// Backward sweep of the k-column panel x (column stride n) under `s` —
/// runtime_bwd(f, ws.sched), or the fused pass's schedule — charged to
/// `region`: a BackwardRow for every row, scattering to z when `z` is set.
/// `tail` as in run_sweep. Shares the forward sweep's progress counters
/// (the sweeps never overlap).
template <int W, class... Tail>
void backward_sweep(const Factorization& f, const ExecSchedule& s,
                    obs::Region region, value_t* x, value_t* z, index_t k,
                    SolveWorkspace& ws, Tail&&... tail) {
  run_sweep(f, s, region, ws.progress,
            BackwardRow<W>{f.lu, f.diag_pos, f.plan.perm.data(), x, z,
                           static_cast<std::size_t>(f.n()), k},
            std::forward<Tail>(tail)...);
}

/// Solve columns `cols` of the n×k panel start to finish on the calling
/// thread, in the same columns of x: the straight-line forward sweep (rows
/// 0…n−1, each row's right-hand side gathered from r) and backward sweep
/// (n−1…0, each finished row scattered to z). Every column keeps the
/// scheduled sweeps' accumulation order, and no other thread's work is ever
/// read.
///
/// The rows are short (a few nonzeros), so per-row overhead shows: W fixes
/// the group width at compile time, which folds the per-row block dispatch
/// away, and flattening keeps every kernel inline in the row loops.
template <int W>
[[gnu::flatten]] void solve_columns(const Factorization& f, const value_t* r,
                                    value_t* z, value_t* x, Range cols) {
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t off = static_cast<std::size_t>(cols.begin) * un;
  const index_t* perm = f.plan.perm.data();
  const ForwardRow<W> fwd{f.lu, r + off, perm, x + off, un, cols.size()};
  const BackwardRow<W> bwd{f.lu, f.diag_pos, perm, x + off, z + off, un,
                           cols.size()};
  for (index_t row = 0; row < n; ++row) fwd(row);
  for (index_t row = n; row-- > 0;) bwd(row);
}

}  // namespace javelin::detail
