// Preconditioned Krylov drivers that exercise the Javelin apply path
// end-to-end: spmv + ilu_apply per iteration, thousands of applies per
// factorization — exactly the usage profile the paper optimizes for (§VI).
//
// Mirrors how amgcl wraps its preconditioners: the solver takes the matrix
// and an opaque apply callable, and IluPreconditioner packages a
// Factorization plus its reusable SolveWorkspace behind that interface.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/sparse/spmv.hpp"

namespace javelin {

/// z = M^{-1} r. Spans have the system dimension and never alias.
using PrecondFn =
    std::function<void(std::span<const value_t>, std::span<value_t>)>;

/// z = M^{-1} r and t = A z in one call — the Krylov inner loop's hot pair.
/// Spans have the system dimension and never alias.
using ApplySpmvFn = std::function<void(
    std::span<const value_t>, std::span<value_t>, std::span<value_t>)>;

/// What the restructured Krylov inner loops consume: the fused apply+matvec
/// for every iteration, plus the plain apply for the places a matvec is not
/// wanted (the GMRES restart correction). Both views MUST apply the same M —
/// the drivers assume op.apply_spmv's z equals op.precond's z bitwise.
struct KrylovOperator {
  PrecondFn precond;
  ApplySpmvFn apply_spmv;
  /// Partition of A shared with the drivers' own SpMVs (initial/restart/exit
  /// true residuals), built once by whoever builds the operator. Required:
  /// pcg_fused and gmres_fused throw when it is null. The partition only
  /// changes which thread computes a row, never the row's accumulation
  /// order, so results are partition-invariant bitwise.
  std::shared_ptr<const RowPartition> part;
};

/// The bitwise-parity reference operator: the same M and the same A, applied
/// as two separate kernel launches (apply, then partitioned SpMV). `a` must
/// outlive the returned operator.
KrylovOperator unfused_operator(const CsrMatrix& a, PrecondFn m);

struct SolverOptions {
  int max_iterations = 500;
  /// Convergence when ||r||_2 <= tolerance * ||b||_2.
  double tolerance = 1e-8;
  /// GMRES restart length m.
  int restart = 30;
  /// Iterations without a new best relative residual before the driver gives
  /// up with SolverStop::kStagnation (0 disables the guard — the historical
  /// behavior of burning the full max_iterations budget on a plateau).
  int stagnation_window = 0;
};

/// Why a Krylov driver stopped. Every exit is classified — breakdown and
/// non-finite arithmetic retire the solve with an honest (recomputed) true
/// residual instead of silently exhausting max_iterations on garbage.
enum class SolverStop : std::uint8_t {
  kConverged,      ///< relative residual reached the tolerance
  kMaxIterations,  ///< iteration budget exhausted
  kBreakdown,      ///< Krylov breakdown ((r,z) or (p,Ap) non-positive: indefinite A or M)
  kNonFinite,      ///< NaN/Inf appeared in the recurrence
  kStagnation,     ///< no residual progress within stagnation_window
};

const char* to_string(SolverStop stop) noexcept;

struct SolverResult {
  bool converged = false;
  int iterations = 0;          ///< matrix applications performed
  double relative_residual = 0.0;
  SolverStop stop = SolverStop::kMaxIterations;  ///< why the driver returned
};

namespace detail {

/// Plateau detector shared by every driver: stagnated when `window`
/// iterations pass without a new best relative residual. Aggregate so
/// pcg_many's per-column state can hold one per column.
struct StagnationGuard {
  int window = 0;
  value_t best = std::numeric_limits<value_t>::infinity();
  int best_it = 0;

  bool stagnated(int it, value_t rel) noexcept {
    if (window <= 0) return false;
    if (rel < best) {
      best = rel;
      best_it = it;
      return false;
    }
    return it - best_it >= window;
  }
};

/// ||b - A x||_2 / bnorm, recomputed from scratch: the partitioned SpMV of
/// x into `scratch` (at least n entries), then b - A x in place. The one
/// true-residual routine of solver/: every exit that reports a residual the
/// recurrence did not track goes through it.
value_t true_relative_residual(const CsrMatrix& a, const RowPartition& part,
                               std::span<const value_t> b,
                               std::span<const value_t> x,
                               std::span<value_t> scratch, value_t bnorm);

}  // namespace detail

/// Preconditioned conjugate gradients (SPD systems). `x` holds the initial
/// guess on entry and the solution on exit. This is pcg_many
/// (solver/batch.hpp) at k = 1 with `precond` as the one-column panel
/// preconditioner, so the textbook recurrence exists once and a pcg_many
/// column equals this driver bitwise by construction. Throws when `b` or
/// `x` is shorter than n.
SolverResult pcg(const CsrMatrix& a, std::span<const value_t> b,
                 std::span<value_t> x, const PrecondFn& precond,
                 const SolverOptions& opts = {});

/// Right-preconditioned restarted GMRES(m): solves A M^{-1} u = b and
/// returns x = M^{-1} u, so the reported residual is the TRUE residual of
/// A x = b (the advantage of right preconditioning). Throws when `b` or `x`
/// is shorter than n.
SolverResult gmres(const CsrMatrix& a, std::span<const value_t> b,
                   std::span<value_t> x, const PrecondFn& precond,
                   const SolverOptions& opts = {});

/// PCG restructured around the fused apply+matvec: each iteration makes ONE
/// call z = M^{-1} r, t = A z, then maintains p = z + β p and q = A p via
/// the recurrence q = t + β q (exact algebra; the q update replaces the
/// separate matvec of p). Because the recurrence can drift over many
/// iterations, the TRUE residual b - A x is recomputed at every exit and is
/// what `relative_residual` / `converged` report. Identical operations in
/// identical order whether `op` is fused or unfused, so the two are
/// bitwise-interchangeable at any thread count. Throws when `b` or `x` is
/// shorter than n or `op.part` is null.
SolverResult pcg_fused(const CsrMatrix& a, std::span<const value_t> b,
                       std::span<value_t> x, const KrylovOperator& op,
                       const SolverOptions& opts = {});

/// Right-preconditioned GMRES(m) whose Arnoldi step consumes the fused
/// operator: w = A M^{-1} v_j is one op.apply_spmv call. `gmres` above is
/// exactly this driver over `unfused_operator(a, precond)`. Throws like
/// pcg_fused.
SolverResult gmres_fused(const CsrMatrix& a, std::span<const value_t> b,
                         std::span<value_t> x, const KrylovOperator& op,
                         const SolverOptions& opts = {});

/// z = r (no preconditioning).
PrecondFn identity_preconditioner();

/// Factor-once / apply-thousands packaging of the Javelin ILU: owns the
/// Factorization and a SolveWorkspace so repeated applies never allocate.
/// The execution backend (P2P vs barrier CSR-LS) and the runtime-retarget
/// policy flow in through IluOptions; a solve-time team mismatch re-plans
/// inside the workspace instead of falling back to a serial sweep.
/// Not safe for concurrent apply() calls on one instance (clone instead).
class IluPreconditioner {
 public:
  IluPreconditioner(const CsrMatrix& a, const IluOptions& opts = {})
      : f_(ilu_factor(a, opts)) {}
  explicit IluPreconditioner(Factorization f) : f_(std::move(f)) {}

  void apply(std::span<const value_t> r, std::span<value_t> z) const {
    ilu_apply(f_, r, z, ws_);
  }

  /// Adapter for the solver drivers.
  PrecondFn fn() const {
    return [this](std::span<const value_t> r, std::span<value_t> z) {
      apply(r, z);
    };
  }

  const Factorization& factorization() const noexcept { return f_; }
  Factorization& factorization() noexcept { return f_; }

 private:
  Factorization f_;
  mutable SolveWorkspace ws_;
};

/// Factor-once packaging of the FUSED Javelin apply+SpMV path: owns the
/// Factorization, the fused SpMV companion built against `a`, and a
/// SolveWorkspace, behind the KrylovOperator interface the restructured
/// drivers consume. It is the companion's one owner: at a runtime team
/// above one, apply_spmv rebuilds it against runtime_bwd(f, ws.sched)
/// whenever that schedule's team or item granule differs from the one it
/// was built for. `a` must outlive this object (the fused pass multiplies
/// it every iteration). Not safe for concurrent calls on one instance.
class FusedIluOperator {
 public:
  FusedIluOperator(const CsrMatrix& a, const IluOptions& opts = {})
      : a_(&a),
        f_(ilu_factor(a, opts)),
        fs_(build_fused_apply_spmv(f_, a)),
        part_(std::make_shared<const RowPartition>(RowPartition::build(a))) {}
  /// Adopt an existing factorization of `a` (e.g. after ilu_refactor).
  FusedIluOperator(const CsrMatrix& a, Factorization f)
      : a_(&a),
        f_(std::move(f)),
        fs_(build_fused_apply_spmv(f_, a)),
        part_(std::make_shared<const RowPartition>(RowPartition::build(a))) {}

  /// Plain apply z = M^{-1} r (the GMRES restart correction).
  void apply(std::span<const value_t> r, std::span<value_t> z) const {
    ilu_apply(f_, r, z, ws_);
  }

  /// Fused z = M^{-1} r, t = A z — one scheduled pass.
  void apply_spmv(std::span<const value_t> r, std::span<value_t> z,
                  std::span<value_t> t) const {
    if (runtime_team(f_) > 1) {
      const ExecSchedule& bwd = runtime_bwd(f_, ws_.sched);
      if (!fs_.built_for(bwd)) {
        fs_ = build_fused_apply_spmv(f_, bwd, *a_, fs_.chunk_rows);
      }
    }
    ilu_apply_spmv(f_, *a_, fs_, r, z, t, ws_);
  }

  /// Adapter for pcg_fused / gmres_fused.
  KrylovOperator op() const {
    KrylovOperator o;
    o.precond = [this](std::span<const value_t> r, std::span<value_t> z) {
      apply(r, z);
    };
    o.apply_spmv = [this](std::span<const value_t> r, std::span<value_t> z,
                          std::span<value_t> t) { apply_spmv(r, z, t); };
    o.part = part_;
    return o;
  }

  /// Plain-preconditioner adapter (for the unfused reference drivers).
  PrecondFn fn() const {
    return [this](std::span<const value_t> r, std::span<value_t> z) {
      apply(r, z);
    };
  }

  const Factorization& factorization() const noexcept { return f_; }

 private:
  const CsrMatrix* a_;
  Factorization f_;
  mutable FusedApplySpmv fs_;
  std::shared_ptr<const RowPartition> part_;
  mutable SolveWorkspace ws_;
};

}  // namespace javelin
