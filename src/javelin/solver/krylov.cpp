#include "javelin/solver/krylov.hpp"

#include <cmath>
#include <memory>

#include "javelin/obs/trace.hpp"
#include "javelin/solver/batch.hpp"

namespace javelin {

namespace {

/// Entry checks of the operator drivers (pcg_many checks its own panels):
/// a square A, b and x of at least n entries, and the operator's partition,
/// which every SpMV the driver runs itself goes through.
const RowPartition& checked_partition(const CsrMatrix& a,
                                      std::span<const value_t> b,
                                      std::span<const value_t> x,
                                      const KrylovOperator& op) {
  JAVELIN_CHECK(a.square(), "Krylov drivers require a square matrix");
  const std::size_t un = static_cast<std::size_t>(a.rows());
  JAVELIN_CHECK(b.size() >= un, "Krylov driver: rhs smaller than n");
  JAVELIN_CHECK(x.size() >= un, "Krylov driver: solution smaller than n");
  JAVELIN_CHECK(op.part != nullptr,
                "Krylov driver: KrylovOperator::part is required");
  return *op.part;
}

}  // namespace

namespace detail {

value_t true_relative_residual(const CsrMatrix& a, const RowPartition& part,
                               std::span<const value_t> b,
                               std::span<const value_t> x,
                               std::span<value_t> scratch, value_t bnorm) {
  const std::size_t un = static_cast<std::size_t>(a.rows());
  spmv(a, part, x, scratch);
  for (std::size_t i = 0; i < un; ++i) scratch[i] = b[i] - scratch[i];
  return norm2(scratch.first(un)) / bnorm;
}

}  // namespace detail

const char* to_string(SolverStop stop) noexcept {
  switch (stop) {
    case SolverStop::kConverged:
      return "converged";
    case SolverStop::kMaxIterations:
      return "max_iterations";
    case SolverStop::kBreakdown:
      return "breakdown";
    case SolverStop::kNonFinite:
      return "non_finite";
    case SolverStop::kStagnation:
      return "stagnation";
  }
  return "unknown";
}

PrecondFn identity_preconditioner() {
  return [](std::span<const value_t> r, std::span<value_t> z) { copy(r, z); };
}

KrylovOperator unfused_operator(const CsrMatrix& a, PrecondFn m) {
  // The partition is built once and shared by every apply (the solver hot
  // path); the partition only changes which thread computes a row, never the
  // row's accumulation order, so results are partition-invariant bitwise.
  auto part = std::make_shared<const RowPartition>(RowPartition::build(a));
  KrylovOperator op;
  op.precond = m;
  op.apply_spmv = [&a, part, m = std::move(m)](std::span<const value_t> r,
                                               std::span<value_t> z,
                                               std::span<value_t> t) {
    m(r, z);
    spmv(a, *part, z, t);
  };
  op.part = std::move(part);
  return op;
}

SolverResult pcg(const CsrMatrix& a, std::span<const value_t> b,
                 std::span<value_t> x, const PrecondFn& precond,
                 const SolverOptions& opts) {
  const PanelPrecondFn column = [&precond](std::span<const value_t> r,
                                           std::span<value_t> z, index_t) {
    precond(r, z);
  };
  return pcg_many(a, b, x, 1, column, opts).front();
}

SolverResult pcg_fused(const CsrMatrix& a, std::span<const value_t> b,
                       std::span<value_t> x, const KrylovOperator& op,
                       const SolverOptions& opts) {
  const RowPartition& part = checked_partition(a, b, x, op);
  const std::size_t un = static_cast<std::size_t>(a.rows());

  std::vector<value_t> r(un), z(un), t(un), p(un), q(un);
  SolverResult res;

  const value_t bnorm = norm2(b.subspan(0, un));
  if (bnorm == 0) {
    fill(x.subspan(0, un), 0);
    res.converged = true;
    res.stop = SolverStop::kConverged;
    return res;
  }

  // r = b - A x
  res.relative_residual =
      detail::true_relative_residual(a, part, b, x, r, bnorm);
  if (res.relative_residual <= opts.tolerance) {
    res.converged = true;  // warm start (true residual by construction)
    res.stop = SolverStop::kConverged;
    return res;
  }

  // Each iteration makes ONE fused call producing z = M^{-1} r and t = A z,
  // then maintains the direction and its image by recurrence:
  //   beta = (r,z) / (r,z)_prev,  p = z + beta p,  q = t + beta q  (= A p).
  // The matvec of p never runs as a separate kernel — that is the §VI
  // fusion. EVERY exit recomputes the true residual (recurrence drift, and
  // guard exits return a stale/poisoned recurrence state), so `converged`
  // stays the single source of truth and a guard exit that nonetheless
  // meets the tolerance reports kConverged.
  value_t rz_prev = 0;
  SolverStop cause = SolverStop::kMaxIterations;
  detail::StagnationGuard stagnation{opts.stagnation_window};
  for (int it = 0; it < opts.max_iterations; ++it) {
    obs::TraceSpan iter_span("pcg_iter", static_cast<index_t>(it));
    op.apply_spmv(r, z, t);
    const value_t rz = dot(r, z);
    if (rz <= 0 || !std::isfinite(rz)) {
      // Breakdown: (r, M^{-1} r) <= 0 — indefinite preconditioner (strictly
      // positive for SPD M), so the CG assumptions are broken and the next
      // beta would poison the iterate. Exit with the honest residual. A
      // non-finite rz means the recurrence is already poisoned.
      cause = std::isfinite(rz) ? SolverStop::kBreakdown : SolverStop::kNonFinite;
      break;
    }
    if (it == 0) {
      copy(std::span<const value_t>(z), std::span<value_t>(p));
      copy(std::span<const value_t>(t), std::span<value_t>(q));
    } else {
      const value_t beta = rz / rz_prev;
      xpby(std::span<const value_t>(z), beta, std::span<value_t>(p));
      xpby(std::span<const value_t>(t), beta, std::span<value_t>(q));
    }
    rz_prev = rz;
    const value_t pq = dot(p, q);
    if (pq <= 0 || !std::isfinite(pq)) {
      // Negative curvature: A not SPD along p (see pcg_many).
      cause = std::isfinite(pq) ? SolverStop::kBreakdown : SolverStop::kNonFinite;
      break;
    }
    const value_t alpha = rz / pq;
    axpy(alpha, p, x.subspan(0, un));
    axpy(-alpha, q, r);
    res.iterations = it + 1;
    res.relative_residual = norm2(r) / bnorm;
    if (!std::isfinite(res.relative_residual)) {
      cause = SolverStop::kNonFinite;
      break;
    }
    if (res.relative_residual <= opts.tolerance) {
      cause = SolverStop::kConverged;
      break;
    }
    if (stagnation.stagnated(res.iterations, res.relative_residual)) {
      cause = SolverStop::kStagnation;
      break;
    }
  }
  res.relative_residual =
      detail::true_relative_residual(a, part, b, x, t, bnorm);
  res.converged = res.relative_residual <= opts.tolerance;
  res.stop = res.converged ? SolverStop::kConverged : cause;
  if (!res.converged && cause == SolverStop::kConverged) {
    // The recurrence estimate met the tolerance but the true residual does
    // not — drift, not convergence; report it as stagnation of the estimate.
    res.stop = SolverStop::kStagnation;
  }
  return res;
}

SolverResult gmres(const CsrMatrix& a, std::span<const value_t> b,
                   std::span<value_t> x, const PrecondFn& precond,
                   const SolverOptions& opts) {
  return gmres_fused(a, b, x, unfused_operator(a, precond), opts);
}

SolverResult gmres_fused(const CsrMatrix& a, std::span<const value_t> b,
                         std::span<value_t> x, const KrylovOperator& op,
                         const SolverOptions& opts) {
  const RowPartition& part = checked_partition(a, b, x, op);
  const std::size_t un = static_cast<std::size_t>(a.rows());
  const int m = std::max(1, opts.restart);

  SolverResult res;
  const value_t bnorm = norm2(b.subspan(0, un));
  if (bnorm == 0) {
    fill(x.subspan(0, un), 0);
    res.converged = true;
    res.stop = SolverStop::kConverged;
    return res;
  }

  // Abnormal exits (non-finite Arnoldi state, exhausted budget) report the
  // TRUE residual of the CURRENT x — in particular a poisoned restart cycle
  // bails without applying its correction, so x is the last finite iterate.
  const auto finish_true_residual = [&](std::span<value_t> scratch,
                                        SolverStop cause) -> SolverResult& {
    res.relative_residual =
        detail::true_relative_residual(a, part, b, x, scratch, bnorm);
    res.converged = res.relative_residual <= opts.tolerance;
    res.stop = res.converged ? SolverStop::kConverged : cause;
    return res;
  };

  // Krylov basis, grown on demand: v[j] is allocated when Arnoldi first
  // writes it and kept across restart cycles, so a solve that converges in
  // a few iterations touches a few n-vectors, not m+1 of them. A vector is
  // always written before it is read within a cycle, so reuse across cycles
  // needs no clearing. Then the Hessenberg least-squares state (Givens
  // rotations).
  std::vector<std::vector<value_t>> v(static_cast<std::size_t>(m) + 1);
  const auto basis = [&](std::size_t j) -> std::vector<value_t>& {
    if (v[j].empty()) v[j].resize(un);
    return v[j];
  };
  std::vector<std::vector<value_t>> h(static_cast<std::size_t>(m) + 1,
                                      std::vector<value_t>(static_cast<std::size_t>(m), 0));
  std::vector<value_t> cs(static_cast<std::size_t>(m), 0);
  std::vector<value_t> sn(static_cast<std::size_t>(m), 0);
  std::vector<value_t> g(static_cast<std::size_t>(m) + 1, 0);
  std::vector<value_t> w(un), z(un), y(static_cast<std::size_t>(m));
  detail::StagnationGuard stagnation{opts.stagnation_window};

  while (res.iterations < opts.max_iterations) {
    // r0 = b - A x (true residual: right preconditioning keeps it exact).
    spmv(a, part, x, w);
    for (std::size_t i = 0; i < un; ++i) w[i] = b[i] - w[i];
    const value_t beta = norm2(w);
    res.relative_residual = beta / bnorm;
    if (res.relative_residual <= opts.tolerance) {
      res.converged = true;
      res.stop = SolverStop::kConverged;
      return res;
    }
    if (!std::isfinite(res.relative_residual)) {
      // x itself is poisoned — nothing finite left to report against.
      res.stop = SolverStop::kNonFinite;
      return res;
    }
    if (stagnation.stagnated(res.iterations, res.relative_residual)) {
      // Restart-head residuals are TRUE residuals, so the plateau is real
      // (not estimate drift) — give the budget back to the caller's ladder.
      res.stop = SolverStop::kStagnation;
      return res;
    }
    std::vector<value_t>& v0 = basis(0);
    for (std::size_t i = 0; i < un; ++i) v0[i] = w[i] / beta;
    std::fill(g.begin(), g.end(), value_t{0});
    g[0] = beta;

    int j = 0;
    for (; j < m && res.iterations < opts.max_iterations; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      obs::TraceSpan iter_span("gmres_iter",
                               static_cast<index_t>(res.iterations));
      // w = A M^{-1} v_j — ONE fused pass over factor and matrix.
      op.apply_spmv(v[uj], z, w);
      ++res.iterations;
      // Modified Gram–Schmidt.
      for (int i = 0; i <= j; ++i) {
        const value_t hij = dot(v[static_cast<std::size_t>(i)], w);
        h[static_cast<std::size_t>(i)][uj] = hij;
        axpy(-hij, v[static_cast<std::size_t>(i)], w);
      }
      const value_t hnext = norm2(w);
      if (!std::isfinite(hnext)) {
        // The Arnoldi vector went NaN/Inf (poisoned apply or overflow) —
        // bail WITHOUT applying this cycle's correction: x is still the
        // last finite iterate and its true residual is the honest report.
        return finish_true_residual(w, SolverStop::kNonFinite);
      }
      h[uj + 1][uj] = hnext;
      if (hnext != 0) {
        std::vector<value_t>& vn = basis(uj + 1);
        for (std::size_t i = 0; i < un; ++i) vn[i] = w[i] / hnext;
      }
      // Apply the accumulated rotations, then form the new one.
      for (int i = 0; i < j; ++i) {
        const std::size_t ui = static_cast<std::size_t>(i);
        const value_t t = cs[ui] * h[ui][uj] + sn[ui] * h[ui + 1][uj];
        h[ui + 1][uj] = -sn[ui] * h[ui][uj] + cs[ui] * h[ui + 1][uj];
        h[ui][uj] = t;
      }
      const value_t denom = std::hypot(h[uj][uj], h[uj + 1][uj]);
      if (denom == 0) {
        // Exact breakdown: column j is identically zero, so the solution
        // lies in the span of the previous columns — discard column j (its
        // diagonal is 0 and must not reach the back-substitution).
        break;
      }
      cs[uj] = h[uj][uj] / denom;
      sn[uj] = h[uj + 1][uj] / denom;
      h[uj][uj] = denom;
      h[uj + 1][uj] = 0;
      g[uj + 1] = -sn[uj] * g[uj];
      g[uj] = cs[uj] * g[uj];
      res.relative_residual = std::abs(g[uj + 1]) / bnorm;
      if (!std::isfinite(res.relative_residual)) {
        return finish_true_residual(w, SolverStop::kNonFinite);
      }
      if (res.relative_residual <= opts.tolerance || hnext == 0) {
        // Converged — or a HAPPY BREAKDOWN (hnext == 0): the Krylov space
        // became A M^{-1}-invariant, the least-squares problem is solved
        // exactly by the current columns, and v[j+1] was never written this
        // restart. Continuing the Arnoldi loop would orthogonalize against
        // that stale/zero vector; keep column j (its rotation is applied)
        // and leave the inner loop.
        ++j;
        break;
      }
    }

    // Back-substitute y from the triangularized Hessenberg system.
    for (int i = j - 1; i >= 0; --i) {
      const std::size_t ui = static_cast<std::size_t>(i);
      value_t s = g[ui];
      for (int k = i + 1; k < j; ++k) {
        s -= h[ui][static_cast<std::size_t>(k)] * y[static_cast<std::size_t>(k)];
      }
      y[ui] = s / h[ui][ui];
    }
    // u = V y; x += M^{-1} u.
    fill(std::span<value_t>(w), 0);
    for (int i = 0; i < j; ++i) {
      axpy(y[static_cast<std::size_t>(i)], v[static_cast<std::size_t>(i)],
           std::span<value_t>(w));
    }
    op.precond(w, z);
    axpy(1.0, z, x.subspan(0, un));
    // Loop back: the restart head recomputes the TRUE residual b - A x and
    // is the sole convergence arbiter — the rotation-recurrence estimate
    // can drift optimistic over many restarts, so it only steers when to
    // restart, never when to stop.
  }
  // Iteration budget exhausted; report the true residual.
  return finish_true_residual(w, SolverStop::kMaxIterations);
}

}  // namespace javelin
