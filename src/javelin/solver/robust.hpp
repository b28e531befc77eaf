// Breakdown-safe solve pipeline: walk a preconditioner ladder — ILU(k),
// Manteuffel-shifted ILU with geometrically escalating α, damped Jacobi,
// identity — restarting the Krylov solve at each rung (PCG on exactly
// symmetric matrices, retried with GMRES on the same rung when it breaks
// down; GMRES otherwise), and return a structured SolveReport (per-attempt
// trail, failure cause, final shift) instead of throwing. Factorization
// breakdowns surface as FactorStatus via the cooperative-abort protocol of
// exec/run.hpp, so no retry ever crosses an exception out of a parallel
// region; each shifted retry reuses the one-time symbolic analysis of
// ilu_prepare and costs only an O(nnz) scatter plus the numeric sweep.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/solver/krylov.hpp"

namespace javelin {

/// Rung of the preconditioner fallback ladder, strongest first.
enum class PrecondLevel : std::uint8_t {
  kIlu,         ///< ILU(k) on the unmodified matrix
  kShiftedIlu,  ///< ILU(k) of A + αI (Manteuffel diagonal shift)
  kJacobi,      ///< damped Jacobi z = ω D⁻¹ r
  kIdentity,    ///< unpreconditioned (z = r)
};

const char* to_string(PrecondLevel level) noexcept;

/// Why the pipeline's final answer is not a converged solve (kNone when it
/// is). Mirrors SolverStop plus the factorization-side breakdown.
enum class FailureCause : std::uint8_t {
  kNone,             ///< converged
  kFactorBreakdown,  ///< no ladder rung produced a usable factorization
  kKrylovBreakdown,  ///< exact Krylov breakdown ((r,z) or (p,Ap) hit zero)
  kNonFinite,        ///< NaN/Inf in the iteration
  kStagnation,       ///< residual plateaued within the stagnation window
  kMaxIterations,    ///< iteration budget exhausted
};

const char* to_string(FailureCause cause) noexcept;

/// One ladder rung as it actually ran.
struct AttemptReport {
  PrecondLevel level = PrecondLevel::kIlu;
  /// Absolute Manteuffel shift α applied to the diagonal (0 off the shifted
  /// rungs). Escalates geometrically: 1e-3 · 10ᵏ · max|a_ii| on shifted
  /// rung k = 0 … 3.
  value_t shift = 0;
  /// Whether the numeric factorization succeeded (always true on the
  /// Jacobi/identity rungs, which factor nothing).
  bool factored = true;
  /// Permuted index of a failed pivot when !factored: FactorStatus::row, so
  /// the first failing row in serial order at a numeric-phase team of one,
  /// and at a larger team some failing row, which can differ between runs.
  index_t factor_row = kInvalidIndex;
  /// PCG broke down on this rung and GMRES re-ran it from the same guess.
  bool used_gmres = false;
  /// Krylov outcome of the rung (default-initialized when !factored).
  SolverResult result;
};

/// The ladder's shape is fixed (robust.cpp): PCG on exactly symmetric
/// matrices and GMRES otherwise, four shifted-ILU rungs after the unshifted
/// one, Jacobi damping ω = 0.8, and a 50-iteration stagnation window when
/// solver.stagnation_window is 0 (plateaus must trigger the next rung, not
/// burn the iteration budget).
struct RobustOptions {
  IluOptions ilu;
  SolverOptions solver;
  bool allow_jacobi = true;
  bool allow_identity = true;
};

/// What a robust solve did, end to end. Returned instead of thrown: the
/// only exceptions out of RobustSolver::solve are structural
/// (JAVELIN_CHECK).
struct SolveReport {
  bool converged = false;
  double relative_residual = 0.0;  ///< true residual of the returned x
  int total_iterations = 0;        ///< summed over every attempt
  FailureCause cause = FailureCause::kNone;
  value_t shift_used = 0;              ///< shift of the rung that produced x
  PrecondLevel level_used = PrecondLevel::kIlu;
  ExecBackend backend = ExecBackend::kP2P;
  std::vector<AttemptReport> attempts;

  /// One-line human-readable attempt trail (for logs and test diagnostics).
  std::string summary() const;
};

/// Factor-once / solve-many packaging of the breakdown-safe pipeline: the
/// symbolic analysis, planning and schedules are built once (ilu_prepare);
/// every solve() walks the ladder with O(nnz) numeric retries. Not safe for
/// concurrent solve() calls on one instance.
class RobustSolver {
 public:
  /// `a` must be square and outlive the solver. A STRUCTURALLY
  /// unfactorable matrix (e.g. missing diagonal entry) skips the ILU rungs
  /// entirely instead of throwing — the ladder then starts at Jacobi.
  explicit RobustSolver(const CsrMatrix& a, RobustOptions opts = {});

  /// Solve A x = b, walking the ladder until a rung converges. `x` holds
  /// the initial guess on entry (every rung restarts from it); on exit it
  /// holds the converged solution, or the best-residual iterate of any
  /// rung when nothing converged.
  SolveReport solve(std::span<const value_t> b, std::span<value_t> x);

  /// Exact symmetry: PCG runs when true, GMRES otherwise.
  bool symmetric() const noexcept { return symmetric_; }
  /// Null when the matrix is structurally unfactorable.
  const Factorization* factorization() const noexcept { return factor_.get(); }

 private:
  const CsrMatrix* a_;
  RobustOptions opts_;
  bool symmetric_ = false;
  value_t diag_scale_ = 1;
  std::unique_ptr<Factorization> factor_;
  SolveWorkspace ws_;
};

/// One-shot convenience wrapper around RobustSolver.
SolveReport solve_robust(const CsrMatrix& a, std::span<const value_t> b,
                         std::span<value_t> x, const RobustOptions& opts = {});

}  // namespace javelin
