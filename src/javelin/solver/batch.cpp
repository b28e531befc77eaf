#include "javelin/solver/batch.hpp"

#include <cmath>

#include "javelin/obs/trace.hpp"

namespace javelin {

namespace {

/// Per-column live state of the panel iteration. A retired column's x is
/// frozen exactly where a one-column run would have returned.
struct ColumnState {
  value_t bnorm = 0;
  value_t rz = 0;
  bool active = false;
  detail::StagnationGuard stagnation;
};

}  // namespace

PanelPrecondFn ilu_panel_preconditioner(const Factorization& f,
                                        WorkspacePool& pool) {
  return [&f, &pool](std::span<const value_t> r, std::span<value_t> z,
                     index_t k) {
    WorkspacePool::Lease lease = pool.acquire();
    ilu_apply_panel(f, r, z, k, *lease);
  };
}

PanelPrecondFn identity_panel_preconditioner() {
  return [](std::span<const value_t> r, std::span<value_t> z, index_t) {
    copy(r.subspan(0, z.size()), z);
  };
}

std::vector<SolverResult> pcg_many(const CsrMatrix& a,
                                   std::span<const value_t> b,
                                   std::span<value_t> x, index_t k,
                                   const PanelPrecondFn& precond,
                                   const SolverOptions& opts) {
  JAVELIN_CHECK(a.square(), "pcg_many requires a square matrix");
  JAVELIN_CHECK(k >= 1, "pcg_many requires k >= 1 right-hand sides");
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const std::size_t need = un * static_cast<std::size_t>(k);
  JAVELIN_CHECK(b.size() >= need, "pcg_many: rhs panel smaller than n x k");
  JAVELIN_CHECK(x.size() >= need,
                "pcg_many: solution panel smaller than n x k");
  const RowPartition part = RowPartition::build(a);

  std::vector<value_t> r(need), z(need), p(need), q(need);
  std::vector<SolverResult> res(static_cast<std::size_t>(k));
  std::vector<ColumnState> st(static_cast<std::size_t>(k));

  const auto bcol = [&](index_t j) {
    return b.subspan(static_cast<std::size_t>(j) * un, un);
  };
  const auto xcol = [&](index_t j) {
    return x.subspan(static_cast<std::size_t>(j) * un, un);
  };
  const auto col = [un](std::vector<value_t>& v, index_t j) {
    return std::span<value_t>(v).subspan(static_cast<std::size_t>(j) * un, un);
  };

  // --- head: per-column warm-start handling, panel initial residual --------
  for (index_t j = 0; j < k; ++j) {
    ColumnState& s = st[static_cast<std::size_t>(j)];
    s.bnorm = norm2(bcol(j));
    s.stagnation.window = opts.stagnation_window;
    if (s.bnorm == 0) {
      fill(xcol(j), 0);
      res[static_cast<std::size_t>(j)].converged = true;
      res[static_cast<std::size_t>(j)].stop = SolverStop::kConverged;
      continue;  // retired before the iteration starts
    }
    s.active = true;
  }
  // r = b - A x, panel-wide (column j of spmv_panel is bitwise the scalar
  // spmv of column j; retired columns hold x = 0, harmlessly recomputed).
  spmv_panel(a, part, x.subspan(0, need), std::span<value_t>(r), k);
  for (index_t j = 0; j < k; ++j) {
    ColumnState& s = st[static_cast<std::size_t>(j)];
    if (!s.active) continue;
    auto rj = col(r, j);
    const auto bj = bcol(j);
    for (std::size_t i = 0; i < un; ++i) rj[i] = bj[i] - rj[i];
    SolverResult& rr = res[static_cast<std::size_t>(j)];
    rr.relative_residual = norm2(rj) / s.bnorm;
    if (rr.relative_residual <= opts.tolerance) {
      rr.converged = true;  // warm start already solves this column
      rr.stop = SolverStop::kConverged;
      s.active = false;
    }
  }

  const auto any_active = [&]() {
    for (const ColumnState& s : st) {
      if (s.active) return true;
    }
    return false;
  };
  if (!any_active()) return res;

  // An abnormal column exit reports the TRUE residual of the x that column
  // actually returns (the recurrence residual is stale or poisoned there, so
  // its r column is free to hold b - A x), and `converged` stays the single
  // source of truth (a guard exit meeting the tolerance reports kConverged).
  // Only this column retires — its panel neighbors keep iterating, so a
  // breakdown degrades per-column, never per-panel.
  const auto retire_col = [&](index_t j, SolverStop cause) {
    ColumnState& s = st[static_cast<std::size_t>(j)];
    SolverResult& rr = res[static_cast<std::size_t>(j)];
    rr.relative_residual = detail::true_relative_residual(
        a, part, bcol(j), xcol(j), col(r, j), s.bnorm);
    rr.converged = rr.relative_residual <= opts.tolerance;
    rr.stop = rr.converged ? SolverStop::kConverged : cause;
    s.active = false;
  };

  precond(r, z, k);
  for (index_t j = 0; j < k; ++j) {
    ColumnState& s = st[static_cast<std::size_t>(j)];
    if (!s.active) continue;
    copy(std::span<const value_t>(col(z, j)), col(p, j));
    s.rz = dot(col(r, j), col(z, j));
  }

  for (int it = 0; it < opts.max_iterations; ++it) {
    obs::TraceSpan iter_span("pcg_iter", static_cast<index_t>(it));
    // Breakdown: (r, M^{-1} r) <= 0 means the preconditioner is indefinite
    // (or exactly orthogonal) — for an SPD M this inner product is strictly
    // positive, so a non-positive value is proof the CG assumptions are
    // broken and the next beta would poison the iterate. A non-finite rz
    // means the recurrence already produced NaN/Inf; same drill, different
    // cause.
    for (index_t j = 0; j < k; ++j) {
      ColumnState& s = st[static_cast<std::size_t>(j)];
      if (!s.active) continue;
      if (s.rz <= 0 || !std::isfinite(s.rz)) {
        retire_col(j, std::isfinite(s.rz) ? SolverStop::kBreakdown
                                          : SolverStop::kNonFinite);
      }
    }
    if (!any_active()) return res;

    // q = A p, panel-wide (retired columns' p is frozen; their q is unused).
    spmv_panel(a, part, std::span<const value_t>(p), std::span<value_t>(q), k);
    for (index_t j = 0; j < k; ++j) {
      ColumnState& s = st[static_cast<std::size_t>(j)];
      if (!s.active) continue;
      SolverResult& rr = res[static_cast<std::size_t>(j)];
      const value_t pq = dot(col(p, j), col(q, j));
      if (pq <= 0 || !std::isfinite(pq)) {
        // Negative curvature ((p, Ap) <= 0): A is not SPD along this
        // direction — a breakdown of the method, not of the preconditioner,
        // so the robust ladder can retry the same one with GMRES.
        retire_col(j, std::isfinite(pq) ? SolverStop::kBreakdown
                                        : SolverStop::kNonFinite);
        continue;
      }
      const value_t alpha = s.rz / pq;
      axpy(alpha, col(p, j), xcol(j));
      axpy(-alpha, col(q, j), col(r, j));
      rr.iterations = it + 1;
      rr.relative_residual = norm2(col(r, j)) / s.bnorm;
      if (!std::isfinite(rr.relative_residual)) {
        retire_col(j, SolverStop::kNonFinite);
        continue;
      }
      if (rr.relative_residual <= opts.tolerance) {
        rr.converged = true;
        rr.stop = SolverStop::kConverged;
        s.active = false;
        continue;
      }
      if (s.stagnation.stagnated(rr.iterations, rr.relative_residual)) {
        retire_col(j, SolverStop::kStagnation);
      }
    }
    if (!any_active()) return res;

    precond(r, z, k);
    for (index_t j = 0; j < k; ++j) {
      ColumnState& s = st[static_cast<std::size_t>(j)];
      if (!s.active) continue;
      const value_t rz_next = dot(col(r, j), col(z, j));
      const value_t beta = rz_next / s.rz;
      s.rz = rz_next;
      xpby(std::span<const value_t>(col(z, j)), beta, col(p, j));
    }
  }
  return res;
}

}  // namespace javelin
