#include "javelin/ilu/solve.hpp"

#include "javelin/exec/run.hpp"
#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/ilu/trsv_kernels.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

using detail::backward_row;
using detail::lower_partial;

void trsv_serial(const CsrMatrix& lu, std::span<const index_t> diag_pos,
                 std::span<const value_t> b, std::span<value_t> x) {
  const index_t n = lu.rows();
  for (index_t r = 0; r < n; ++r) {
    // Reads of columns < r see already-finished entries of x, so this is
    // correct whether or not x aliases b.
    x[static_cast<std::size_t>(r)] =
        b[static_cast<std::size_t>(r)] - lower_partial(lu, r, x);
  }
  for (index_t r = n; r-- > 0;) backward_row(lu, diag_pos, r, x);
}

ExecStatus trsv_forward(const Factorization& f, std::span<value_t> x,
                        SolveWorkspace& ws) {
  // In-place: x[r] holds the permuted rhs on entry, read before the row's
  // slot is overwritten (x[r] = rhs - acc is the same subtraction as the
  // historical x[r] -= acc, bitwise).
  return detail::forward_sweep(
      f, [&x](index_t r) { return x[static_cast<std::size_t>(r)]; }, x, ws);
}

ExecStatus trsv_backward(const Factorization& f, std::span<value_t> x,
                         SolveWorkspace& ws) {
  return detail::run_sweep(
      f, runtime_bwd(f, ws.sched), FaultSite::kBackwardRow,
      obs::Region::kBackward, ws.progress,
      [&](index_t r) { backward_row(f.lu, f.diag_pos, r, x); });
}

void trsv_forward_serial(const Factorization& f, std::span<value_t> x) {
  const index_t n = f.n();
  for (index_t r = 0; r < n; ++r) {
    x[static_cast<std::size_t>(r)] -= lower_partial(f.lu, r, x);
  }
}

void trsv_backward_serial(const Factorization& f, std::span<value_t> x) {
  for (index_t r = f.n(); r-- > 0;) backward_row(f.lu, f.diag_pos, r, x);
}

ExecStatus ilu_apply_status(const Factorization& f, std::span<const value_t> r,
                            std::span<value_t> z, SolveWorkspace& ws) {
  const index_t n = f.n();
  ws.resize(n);
  const auto& perm = f.plan.perm;
  const std::span<value_t> x =
      std::span<value_t>(ws.x).first(static_cast<std::size_t>(n));
  // The permutes run at the sweeps' team, not the OpenMP default: a factor
  // tuned or retargeted below the default would otherwise pay a wider
  // region on every apply. Elementwise, so the team never changes values.
  const int team = runtime_team(f);
#pragma omp parallel for num_threads(team) schedule(static)
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        r[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  }
  ExecStatus st = trsv_forward(f, x, ws);
  if (!st.ok()) return st;
  st = trsv_backward(f, x, ws);
  if (!st.ok()) return st;
#pragma omp parallel for num_threads(team) schedule(static)
  for (index_t i = 0; i < n; ++i) {
    z[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
        x[static_cast<std::size_t>(i)];
  }
  return {};
}

void ilu_apply(const Factorization& f, std::span<const value_t> r,
               std::span<value_t> z, SolveWorkspace& ws) {
  const ExecStatus st = ilu_apply_status(f, r, z, ws);
  if (!st.ok()) {
    throw AbortError("triangular sweep aborted at permuted row " +
                     std::to_string(st.row) + " (fault injection)");
  }
}

void ilu_apply(const Factorization& f, std::span<const value_t> r,
               std::span<value_t> z) {
  SolveWorkspace ws;
  ilu_apply(f, r, z, ws);
}

void ilu_apply_serial(const Factorization& f, std::span<const value_t> r,
                      std::span<value_t> z, SolveWorkspace& ws) {
  const index_t n = f.n();
  ws.resize(n);
  const auto& perm = f.plan.perm;
  const std::span<value_t> x =
      std::span<value_t>(ws.x).first(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        r[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  }
  trsv_forward_serial(f, x);
  trsv_backward_serial(f, x);
  for (index_t i = 0; i < n; ++i) {
    z[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
        x[static_cast<std::size_t>(i)];
  }
}

}  // namespace javelin
