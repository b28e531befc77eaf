// End-to-end Krylov convergence on suite-class matrices: PCG on SPD, right-
// preconditioned GMRES(m) on unsymmetric, both with and without the Javelin
// ILU preconditioner. Residuals are re-verified from scratch — the solver's
// own bookkeeping is not trusted. Every driver refuses a right-hand side or
// solution one entry short before reading it.
#include <cmath>

#include "javelin/gen/generators.hpp"
#include "javelin/solver/batch.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::random_vector;

namespace {

double true_relative_residual(const CsrMatrix& a, std::span<const value_t> b,
                              std::span<const value_t> x) {
  std::vector<value_t> r(b.size());
  spmv_serial(a, x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return norm2(r) / norm2(b);
}

template <class Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const Error&) {
    return true;
  }
  return false;
}

}  // namespace

int main() {
  ThreadCountGuard guard(2);
  SolverOptions sopts;
  sopts.max_iterations = 1200;
  sopts.tolerance = 1e-9;

  // --- PCG on SPD ----------------------------------------------------------
  {
    CsrMatrix a = gen::laplacian2d(40, 40, 5);
    const auto b = random_vector(a.rows(), 0x11);

    IluOptions iopts;
    iopts.num_threads = 2;
    IluPreconditioner m(a, iopts);

    std::vector<value_t> x(b.size(), 0);
    const SolverResult plain = pcg(a, b, x, identity_preconditioner(), sopts);
    CHECK_MSG(plain.converged, "plain CG rel res %.3g after %d iters",
              plain.relative_residual, plain.iterations);
    CHECK(true_relative_residual(a, b, x) < 1e-7);

    std::fill(x.begin(), x.end(), 0);
    const SolverResult pre = pcg(a, b, x, m.fn(), sopts);
    CHECK_MSG(pre.converged, "ILU-PCG rel res %.3g after %d iters",
              pre.relative_residual, pre.iterations);
    CHECK(true_relative_residual(a, b, x) < 1e-7);
    CHECK_MSG(pre.iterations < plain.iterations,
              "ILU-PCG %d iters vs plain %d", pre.iterations,
              plain.iterations);
  }

  // --- GMRES(m) on an unsymmetric circuit matrix ---------------------------
  {
    CsrMatrix a = gen::circuit(1500, 6.0, 0x77, /*symmetric_pattern=*/false, 10);
    const auto b = random_vector(a.rows(), 0x22);

    IluOptions iopts;
    iopts.num_threads = 2;
    IluPreconditioner m(a, iopts);

    std::vector<value_t> x(b.size(), 0);
    const SolverResult pre = gmres(a, b, x, m.fn(), sopts);
    CHECK_MSG(pre.converged, "ILU-GMRES rel res %.3g after %d iters",
              pre.relative_residual, pre.iterations);
    CHECK(true_relative_residual(a, b, x) < 1e-7);

    std::fill(x.begin(), x.end(), 0);
    const SolverResult plain =
        gmres(a, b, x, identity_preconditioner(), sopts);
    if (plain.converged) {
      CHECK_MSG(pre.iterations <= plain.iterations,
                "ILU-GMRES %d iters vs plain %d", pre.iterations,
                plain.iterations);
    }
  }

  // --- Restarted GMRES(4): several cycles, exit inside a later cycle ------
  {
    // The basis grows on demand and is reused across restart cycles; a
    // vector left over from an earlier cycle must never leak into a later
    // one. The trajectory must also be independent of the OpenMP team.
    CsrMatrix a = gen::power_system(1200, 24, 70, 0x33);
    const auto b = random_vector(a.rows(), 0x23);
    IluOptions iopts;
    iopts.num_threads = 2;
    IluPreconditioner m(a, iopts);
    SolverOptions ropts = sopts;
    ropts.restart = 4;
    std::vector<value_t> x_ref;
    for (const int team : {1, 2, 4}) {
      ThreadCountGuard team_guard(team);
      std::vector<value_t> x(b.size(), 0);
      const SolverResult res = gmres(a, b, x, m.fn(), ropts);
      CHECK_MSG(res.converged, "GMRES(4) team %d rel res %.3g after %d iters",
                team, res.relative_residual, res.iterations);
      CHECK_MSG(res.iterations > 2 * ropts.restart &&
                    res.iterations % ropts.restart != 0,
                "GMRES(4) team %d took %d iterations: want an exit inside a "
                "cycle after the second",
                team, res.iterations);
      CHECK(true_relative_residual(a, b, x) < 1e-7);
      if (x_ref.empty()) {
        x_ref = x;
      } else {
        CHECK_MSG(javelin::test::bitwise_equal(x, x_ref),
                  "GMRES(4) x at team %d differs from team 1", team);
      }
    }
  }

  // --- GMRES on a power-system matrix (dense rows, unsym pattern) ----------
  {
    CsrMatrix a = gen::power_system(1200, 24, 70, 0x33);
    const auto b = random_vector(a.rows(), 0x44);
    IluOptions iopts;
    iopts.num_threads = 2;
    IluPreconditioner m(a, iopts);
    std::vector<value_t> x(b.size(), 0);
    const SolverResult res = gmres(a, b, x, m.fn(), sopts);
    CHECK_MSG(res.converged, "power ILU-GMRES rel res %.3g after %d iters",
              res.relative_residual, res.iterations);
    CHECK(true_relative_residual(a, b, x) < 1e-7);
  }

  // --- GMRES happy breakdown: exact Krylov-space termination mid-restart --
  {
    // 4-cycle permutation matrix: A e_i = e_{i+1 mod 4}. With b = e_0 the
    // Arnoldi vectors are exactly e_0, e_1, e_2, e_3; at step j = 3 (well
    // inside the restart window) orthogonalization cancels EXACTLY, so
    // hnext == 0 — the engineered happy breakdown. The inner loop must stop
    // after applying the rotation (v[4] was never written) and
    // back-substitute the exact solution x = e_3 from the 4 columns.
    CsrMatrix cyc(4, 4, {0, 1, 2, 3, 4}, {3, 0, 1, 2}, {1, 1, 1, 1});
    std::vector<value_t> b(4, 0), x(4, 0);
    b[0] = 1;
    const SolverResult res =
        gmres(cyc, b, x, identity_preconditioner(), sopts);
    CHECK_MSG(res.converged && res.iterations == 4,
              "happy breakdown converged=%d iters=%d rel=%.3g", res.converged,
              res.iterations, res.relative_residual);
    CHECK(true_relative_residual(cyc, b, x) < 1e-14);
    std::vector<value_t> expect(4, 0);
    expect[3] = 1;
    CHECK_MSG(javelin::test::max_abs_diff(x, expect) < 1e-14,
              "happy breakdown x diff %.3g",
              javelin::test::max_abs_diff(x, expect));
  }

  // --- PCG breakdown on non-SPD input must report an honest residual ------
  {
    // Indefinite diagonal: the search direction hits p^T A p == 0 at the
    // second iteration; the solver must return the TRUE residual of the
    // iterate it actually produced instead of a stale recurrence value.
    CsrMatrix ind(2, 2, {0, 1, 2}, {0, 1}, {1, -1});
    std::vector<value_t> b = {1, 1};
    std::vector<value_t> x(2, 0);
    const SolverResult res = pcg(ind, b, x, identity_preconditioner(), sopts);
    CHECK_MSG(!res.converged, "indefinite PCG claimed convergence");
    std::vector<value_t> r(2);
    spmv_serial(ind, x, r);
    for (std::size_t i = 0; i < 2; ++i) r[i] = b[i] - r[i];
    const double true_rel = norm2(r) / norm2(std::span<const value_t>(b));
    CHECK_MSG(std::abs(res.relative_residual - true_rel) < 1e-15,
              "breakdown residual %.17g vs true %.17g", res.relative_residual,
              true_rel);
  }

  // --- PCG rz == 0 breakdown must exit honestly, not poison x with NaN ----
  {
    // With M = A = diag(1, -1) (ILU is exact on a diagonal), z = M^{-1} r
    // is exactly orthogonal to r for b = (1, 1): rz == 0 at the first
    // iteration. Without the guard the next beta would be 0/0 = NaN.
    CsrMatrix ind(2, 2, {0, 1, 2}, {0, 1}, {1, -1});
    std::vector<value_t> b = {1, 1};
    std::vector<value_t> x(2, 0);
    IluPreconditioner m(ind, {});
    const SolverResult res = pcg(ind, b, x, m.fn(), sopts);
    CHECK_MSG(!res.converged, "rz breakdown claimed convergence");
    CHECK_MSG(std::isfinite(res.relative_residual) &&
                  std::isfinite(x[0]) && std::isfinite(x[1]),
              "rz breakdown left NaN: rel=%.3g x=(%.3g, %.3g)",
              res.relative_residual, x[0], x[1]);
  }

  // --- warm start: an already-solved system must report convergence --------
  {
    CsrMatrix a = gen::laplacian2d(25, 25, 5);
    const auto b = random_vector(a.rows(), 0x66);
    std::vector<value_t> x(b.size(), 0);
    CHECK(pcg(a, b, x, identity_preconditioner(), sopts).converged);
    const SolverResult warm = pcg(a, b, x, identity_preconditioner(), sopts);
    CHECK_MSG(warm.converged && warm.iterations == 0,
              "warm PCG converged=%d iters=%d", warm.converged,
              warm.iterations);
    const SolverResult warm_g =
        gmres(a, b, x, identity_preconditioner(), sopts);
    CHECK_MSG(warm_g.converged && warm_g.iterations == 0,
              "warm GMRES converged=%d iters=%d", warm_g.converged,
              warm_g.iterations);
  }

  // --- refactor-then-resolve (the time-stepping loop) ----------------------
  {
    CsrMatrix a = gen::laplacian2d(30, 30, 5);
    IluOptions iopts;
    iopts.num_threads = 2;
    IluPreconditioner m(a, iopts);
    const auto b = random_vector(a.rows(), 0x55);
    std::vector<value_t> x(b.size(), 0);
    CHECK(pcg(a, b, x, m.fn(), sopts).converged);

    // Perturb values (same pattern), refactor in place, solve again.
    CsrMatrix a2 = a;
    for (auto& v : a2.values_mut()) v *= 1.25;
    ilu_refactor(m.factorization(), a2);
    std::fill(x.begin(), x.end(), 0);
    const SolverResult res = pcg(a2, b, x, m.fn(), sopts);
    CHECK_MSG(res.converged, "post-refactor PCG rel res %.3g",
              res.relative_residual);
    CHECK(true_relative_residual(a2, b, x) < 1e-7);
  }

  // --- a span one entry short throws before any driver reads it -----------
  {
    CsrMatrix a = gen::laplacian2d(20, 20, 5);
    const std::size_t un = static_cast<std::size_t>(a.rows());
    FusedIluOperator fused(a);
    const KrylovOperator op = fused.op();
    const PrecondFn m = fused.fn();
    std::vector<value_t> b(2 * un, 1), x(2 * un, 0);
    const std::span<const value_t> b1 = std::span<const value_t>(b).first(un);
    const std::span<value_t> x1 = std::span<value_t>(x).first(un);
    for (const bool short_b : {true, false}) {
      const char* what = short_b ? "b" : "x";
      const std::span<const value_t> bs = short_b ? b1.first(un - 1) : b1;
      const std::span<value_t> xs = short_b ? x1 : x1.first(un - 1);
      CHECK_MSG(throws([&] { pcg(a, bs, xs, m, sopts); }), "pcg short %s",
                what);
      CHECK_MSG(throws([&] { gmres(a, bs, xs, m, sopts); }), "gmres short %s",
                what);
      CHECK_MSG(throws([&] { pcg_fused(a, bs, xs, op, sopts); }),
                "pcg_fused short %s", what);
      CHECK_MSG(throws([&] { gmres_fused(a, bs, xs, op, sopts); }),
                "gmres_fused short %s", what);
      // Two columns, the panel one entry short of n x 2.
      const std::span<const value_t> bp =
          short_b ? std::span<const value_t>(b).first(2 * un - 1)
                  : std::span<const value_t>(b);
      const std::span<value_t> xp = short_b ? std::span<value_t>(x)
                                            : std::span<value_t>(x).first(2 * un - 1);
      CHECK_MSG(throws([&] {
                  pcg_many(a, bp, xp, 2, identity_panel_preconditioner(), sopts);
                }),
                "pcg_many short %s", what);
    }
    // Full-length spans still solve.
    CHECK(pcg_fused(a, b1, x1, op, sopts).converged);
  }

  return javelin::test::finish("test_solver");
}
