#include "javelin/solver/robust.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "javelin/obs/trace.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/sparse/spmv.hpp"

namespace javelin {

const char* to_string(PrecondLevel level) noexcept {
  switch (level) {
    case PrecondLevel::kIlu:
      return "ilu";
    case PrecondLevel::kShiftedIlu:
      return "shifted_ilu";
    case PrecondLevel::kJacobi:
      return "jacobi";
    case PrecondLevel::kIdentity:
      return "identity";
  }
  return "unknown";
}

const char* to_string(FailureCause cause) noexcept {
  switch (cause) {
    case FailureCause::kNone:
      return "none";
    case FailureCause::kFactorBreakdown:
      return "factor_breakdown";
    case FailureCause::kKrylovBreakdown:
      return "krylov_breakdown";
    case FailureCause::kNonFinite:
      return "non_finite";
    case FailureCause::kStagnation:
      return "stagnation";
    case FailureCause::kMaxIterations:
      return "max_iterations";
  }
  return "unknown";
}

namespace {

/// The ladder's fixed shape (robust.hpp). Shifted rung k = 0 … 3 adds
/// α = kInitialShift · kShiftGrowthᵏ · max|a_ii| to the diagonal.
constexpr value_t kInitialShift = 1e-3;
constexpr value_t kShiftGrowth = 10.0;
constexpr int kMaxShiftAttempts = 4;  ///< shifted rungs after the unshifted one
constexpr value_t kJacobiDamping = 0.8;
constexpr int kStagnationWindow = 50;  ///< when solver.stagnation_window is 0

/// The shift unit: the largest finite |a_ii| the pattern stores, so the
/// ladder's α is scale-invariant. 1 when the diagonal is absent/zero — an
/// absolute fallback unit is still a usable escalation base.
value_t max_abs_diagonal(const CsrMatrix& a) {
  value_t m = 0;
  for (index_t r = 0; r < a.rows(); ++r) {
    const value_t d = std::abs(a.at(r, r));
    if (std::isfinite(d) && d > m) m = d;
  }
  return m > 0 ? m : value_t{1};
}

FailureCause cause_of(SolverStop stop) noexcept {
  switch (stop) {
    case SolverStop::kConverged:
      return FailureCause::kNone;
    case SolverStop::kMaxIterations:
      return FailureCause::kMaxIterations;
    case SolverStop::kBreakdown:
      return FailureCause::kKrylovBreakdown;
    case SolverStop::kNonFinite:
      return FailureCause::kNonFinite;
    case SolverStop::kStagnation:
      return FailureCause::kStagnation;
  }
  return FailureCause::kNone;
}

}  // namespace

std::string SolveReport::summary() const {
  std::ostringstream os;
  os << (converged ? "converged" : "failed") << " level=" << to_string(level_used)
     << " shift=" << shift_used << " cause=" << to_string(cause)
     << " iters=" << total_iterations << " rel_res=" << relative_residual;
  for (const AttemptReport& at : attempts) {
    os << " | " << to_string(at.level);
    if (at.shift != 0) os << "(alpha=" << at.shift << ")";
    if (!at.factored) {
      os << ": factor breakdown at row " << at.factor_row;
      continue;
    }
    os << ": " << to_string(at.result.stop) << " it=" << at.result.iterations
       << " res=" << at.result.relative_residual;
    if (at.used_gmres) os << " [gmres retry]";
  }
  return os.str();
}

RobustSolver::RobustSolver(const CsrMatrix& a, RobustOptions opts)
    : a_(&a), opts_(std::move(opts)) {
  JAVELIN_CHECK(a.square(), "RobustSolver requires a square matrix");
  // Exact symmetry test: the ladder must never hand an unsymmetric system
  // to PCG on a float-tolerance guess, and the in-tree matrices are built
  // symmetric to the bit when they are symmetric at all.
  symmetric_ = max_abs_difference(a, transpose(a)) == 0;
  diag_scale_ = max_abs_diagonal(a);
  try {
    factor_ = std::make_unique<Factorization>(ilu_prepare(a, opts_.ilu));
  } catch (const Error&) {
    // Structurally unfactorable (missing diagonal, planner rejection): no
    // shift can repair the PATTERN, so the ILU rungs are skipped and the
    // ladder starts at Jacobi.
    factor_.reset();
  }
}

SolveReport RobustSolver::solve(std::span<const value_t> b,
                                std::span<value_t> x) {
  const std::size_t un = static_cast<std::size_t>(a_->rows());
  JAVELIN_CHECK(b.size() >= un, "robust solve: rhs smaller than n");
  JAVELIN_CHECK(x.size() >= un, "robust solve: solution smaller than n");

  SolveReport report;
  report.backend = opts_.ilu.exec_backend;

  SolverOptions so = opts_.solver;
  if (so.stagnation_window == 0) {
    so.stagnation_window = kStagnationWindow;
  }

  // Every rung restarts from the caller's guess; the best-residual iterate
  // across rungs is what a fully failed solve hands back.
  const std::vector<value_t> x0(x.begin(), x.begin() + un);
  std::vector<value_t> best_x;
  value_t best_res = std::numeric_limits<value_t>::infinity();
  bool any_krylov = false;

  // Run one ladder rung: restart from x0, solve, record the attempt, track
  // the best iterate. Returns true when the rung converged.
  const auto run_level = [&](PrecondLevel level, value_t shift,
                             const PrecondFn& precond) -> bool {
    // Ladder-attempt span: one per rung actually handed to a Krylov driver,
    // arg = position in the attempt trail (factor-breakdown rungs that never
    // reach a solve are covered by the "robust_factor" spans instead).
    obs::TraceSpan attempt_span(
        "robust_attempt", static_cast<index_t>(report.attempts.size()));
    AttemptReport at;
    at.level = level;
    at.shift = shift;
    std::copy(x0.begin(), x0.end(), x.begin());
    if (symmetric_) {
      at.result = pcg(*a_, b, x, precond, so);
      if (!at.result.converged &&
          (at.result.stop == SolverStop::kBreakdown ||
           at.result.stop == SolverStop::kNonFinite)) {
        // Indefinite (or numerically hostile) system: PCG's breakdown is a
        // property of the method, not the rung — re-run the SAME rung with
        // GMRES before escalating the preconditioner.
        report.total_iterations += at.result.iterations;
        std::copy(x0.begin(), x0.end(), x.begin());
        at.result = gmres(*a_, b, x, precond, so);
        at.used_gmres = true;
      }
    } else {
      at.result = gmres(*a_, b, x, precond, so);
    }
    any_krylov = true;
    report.total_iterations += at.result.iterations;
    const bool converged = at.result.converged;
    if (std::isfinite(at.result.relative_residual) &&
        at.result.relative_residual < best_res) {
      best_res = at.result.relative_residual;
      best_x.assign(x.begin(), x.begin() + static_cast<std::ptrdiff_t>(un));
      report.relative_residual = at.result.relative_residual;
      report.shift_used = shift;
      report.level_used = level;
      report.cause = cause_of(at.result.stop);
    }
    report.attempts.push_back(std::move(at));
    return converged;
  };

  const auto finish_converged = [&]() -> SolveReport& {
    report.converged = true;
    report.cause = FailureCause::kNone;
    // x already holds the converged rung's iterate (run_level just wrote
    // it); best_x tracked the same values.
    return report;
  };

  // --- rungs 0..kMaxShiftAttempts: ILU(k), then shifted ILU ----------------
  if (factor_) {
    for (int attempt = 0; attempt <= kMaxShiftAttempts; ++attempt) {
      const value_t shift =
          attempt == 0 ? value_t{0}
                       : kInitialShift * std::pow(kShiftGrowth, attempt - 1) *
                             diag_scale_;
      const PrecondLevel level =
          attempt == 0 ? PrecondLevel::kIlu : PrecondLevel::kShiftedIlu;
      // O(nnz) retry: rescatter A's values through the persistent map, add
      // α on the diagonal slots (the plan permutation is symmetric, so
      // diag_pos IS the diagonal of A + αI), re-run the numeric sweep.
      FactorStatus fs;
      {
        obs::TraceSpan factor_span("robust_factor",
                                   static_cast<index_t>(attempt));
        scatter_values(*factor_, *a_);
        if (shift != 0) {
          std::span<value_t> vals = factor_->lu.values_mut();
          for (index_t p : factor_->diag_pos) {
            vals[static_cast<std::size_t>(p)] += shift;
          }
        }
        fs = ilu_factor_numeric_status(*factor_);
      }
      if (!fs.ok()) {
        AttemptReport at;
        at.level = level;
        at.shift = shift;
        at.factored = false;
        at.factor_row = fs.row;
        report.attempts.push_back(at);
        continue;  // escalate the shift
      }
      const PrecondFn precond = [this](std::span<const value_t> r,
                                       std::span<value_t> z) {
        ilu_apply(*factor_, r, z, ws_);
      };
      if (run_level(level, shift, precond)) return finish_converged();
    }
  }

  // --- fallback rungs ------------------------------------------------------
  if (opts_.allow_jacobi) {
    // Damped Jacobi z = ω D⁻¹ r; rows with a zero/absent/non-finite
    // diagonal fall back to ω r so the rung itself cannot break down.
    std::vector<value_t> scaled_inv_diag(un);
    for (index_t r = 0; r < a_->rows(); ++r) {
      const value_t d = a_->at(r, r);
      scaled_inv_diag[static_cast<std::size_t>(r)] =
          (d != 0 && std::isfinite(d)) ? kJacobiDamping / d : kJacobiDamping;
    }
    const PrecondFn jacobi = [inv = std::move(scaled_inv_diag)](
                                 std::span<const value_t> r,
                                 std::span<value_t> z) {
      for (std::size_t i = 0; i < z.size(); ++i) z[i] = inv[i] * r[i];
    };
    if (run_level(PrecondLevel::kJacobi, 0, jacobi)) {
      return finish_converged();
    }
  }
  if (opts_.allow_identity) {
    if (run_level(PrecondLevel::kIdentity, 0, identity_preconditioner())) {
      return finish_converged();
    }
  }

  // --- nothing converged ---------------------------------------------------
  if (!best_x.empty()) {
    std::copy(best_x.begin(), best_x.end(), x.begin());
  } else {
    std::copy(x0.begin(), x0.end(), x.begin());
  }
  if (!any_krylov) {
    // Every rung died in the factorization and the fallbacks were disabled:
    // the honest answer is the caller's own guess and its residual
    // (absolute when b = 0).
    report.cause = FailureCause::kFactorBreakdown;
    std::vector<value_t> scratch(un);
    const value_t bnorm = norm2(b.subspan(0, un));
    report.relative_residual = detail::true_relative_residual(
        *a_, RowPartition::build(*a_), b, x, scratch, bnorm == 0 ? 1 : bnorm);
  }
  return report;
}

SolveReport solve_robust(const CsrMatrix& a, std::span<const value_t> b,
                         std::span<value_t> x, const RobustOptions& opts) {
  RobustSolver solver(a, opts);
  return solver.solve(b, x);
}

}  // namespace javelin
