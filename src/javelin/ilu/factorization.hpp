// The complete Javelin factorization object: symbolic pattern, level plan,
// execution schedules (the forward solve and the numeric factorization run
// L's own levels, which are the plan's on a symmetric pattern; the backward
// solve runs the plan's levels reversed; every region runs under the exec/
// backend opts.exec_backend names — P2P spin-waits or barrier CSR-LS), and
// the numeric factor itself. Built once, then reused by thousands of
// triangular solves (paper §VI: "the incomplete factorization may only be
// formed once, but stri may be called thousands of times").
#pragma once

#include <vector>

#include "javelin/exec/schedule.hpp"
#include "javelin/ilu/options.hpp"
#include "javelin/ilu/plan.hpp"
#include "javelin/ilu/symbolic.hpp"
#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Consumer-side cache of schedules re-planned (retargeted) for a runtime
/// team that differs from the factor-time plan (runtime_fwd/runtime_bwd),
/// one slot per direction, filled on its first retargeted sweep. One
/// immutable factor can serve many solvers: each keeps its own cache
/// (SolveWorkspace embeds one) and the factor itself carries one for the
/// numeric phase. The entries depend only on the factor's retained levels,
/// the team and the item granule, so a copy of the cache stays valid for a
/// copy of the factor.
struct ScheduleCache {
  ExecSchedule fwd, bwd;
};

struct Factorization {
  IluOptions opts;
  SymbolicStats symbolic;
  LevelPlan plan;

  /// The factor in the plan's permuted ordering: L (unit diag implicit)
  /// strictly below, U (incl. diagonal) on/above.
  CsrMatrix lu;
  std::vector<index_t> diag_pos;

  /// Forward schedule over all rows on L's own levels
  /// (build_forward_schedule): the plan's levels with serial_order 0 … n-1
  /// when plan.lower_only (always on a symmetric pattern), else the level
  /// sets of lu's strictly-lower pattern with serial_order their level-major
  /// listing. The forward solve and the numeric factorization both run
  /// every row of it.
  ExecSchedule fwd;
  /// Backward-solve schedule over all rows: the plan's levels last to
  /// first, rows descending, so serial_order is n-1 … 0
  /// (build_backward_schedule).
  ExecSchedule bwd;
  /// Retargeted forward schedule for a numeric-phase team that differs from
  /// the plan (runtime_fwd in ilu_factor_numeric_status; its bwd slot stays
  /// empty); solves cache in their workspace instead.
  ScheduleCache numeric_cache;

  /// Persistent refactor scatter map: a_scatter[k] is the position in
  /// lu.values() receiving the k-th nonzero of the (unpermuted) input
  /// matrix, or kInvalidIndex when that entry fell outside the factor
  /// pattern. Built once at factor time; turns every subsequent
  /// scatter_values into a flat O(nnz) copy with no permutation inversion
  /// and no per-nonzero binary search.
  std::vector<index_t> a_scatter;

  index_t n() const noexcept { return lu.rows(); }
};

/// Outcome of the numeric factorization phase. The numeric phase is the
/// only part of the pipeline that can fail on VALUES (an unusable pivot);
/// structural problems (missing diagonal, non-square input) still throw
/// from the symbolic phase because no shift or retry can repair them.
enum class FactorOutcome : std::uint8_t { kOk, kBadPivot };

struct FactorStatus {
  FactorOutcome outcome = FactorOutcome::kOk;
  /// Permuted index of a row whose pivot failed (zero/subthreshold/
  /// non-finite magnitude, or a fault-injection veto); kInvalidIndex on kOk.
  /// At a numeric-phase team of one it is the first failing row in the
  /// schedule's serial order. At a larger team it is whichever failing row
  /// aborted the region first, so with several failing rows it can differ
  /// between runs.
  index_t row = kInvalidIndex;

  bool ok() const noexcept { return outcome == FactorOutcome::kOk; }
};

/// Factor `a` with the full Javelin pipeline (level planning, permutation,
/// level-scheduled parallel numeric factorization). `a` is expected to be
/// preordered already (paper §IV: "we assume that the given matrix is
/// already ordered"); the plan's internal level permutation is applied on
/// top and recorded in plan.perm. Throws Error on a numeric breakdown; use
/// ilu_prepare + ilu_factor_numeric_status for the non-throwing pipeline.
Factorization ilu_factor(const CsrMatrix& a, const IluOptions& opts = {});

/// Everything in ilu_factor EXCEPT the numeric phase: symbolic analysis,
/// planning, permutation, scatter map and execution schedules. The returned
/// factor holds A's (scattered) values, not L/U. Pairing this with
/// ilu_factor_numeric_status gives a breakdown-safe factorization where the
/// expensive analysis is paid once and each numeric attempt (e.g. the
/// shift-ladder retries of RobustSolver) is an O(nnz) scatter + sweep.
Factorization ilu_prepare(const CsrMatrix& a, const IluOptions& opts = {});

/// Re-run the numeric phase with new values but the same pattern and plan
/// (time-stepping use case). `a` must have the pattern of the original
/// matrix. Throws Error on breakdown.
void ilu_refactor(Factorization& f, const CsrMatrix& a);

/// Numeric phase only, on an already-permuted symbolic factor. Exposed for
/// tests/benches that want to time stages separately. Throws on breakdown.
void ilu_factor_numeric(Factorization& f);

/// Non-throwing numeric phase: a bad pivot aborts the parallel region
/// cooperatively (exec/run.hpp) and is reported as a FactorStatus instead
/// of an exception. On kBadPivot the factor's values are garbage; rescatter
/// before the next attempt.
FactorStatus ilu_factor_numeric_status(Factorization& f);

/// Non-throwing refactorization: scatter + ilu_factor_numeric_status.
FactorStatus ilu_refactor_status(Factorization& f, const CsrMatrix& a);

/// Scatter values of (unpermuted) `a` onto the permuted factor pattern.
/// Uses (and lazily builds) the persistent f.a_scatter map.
void scatter_values(Factorization& f, const CsrMatrix& a);

/// Build f.a_scatter for `a` (which must share the factored matrix's
/// pattern) by a binary search per nonzero. ilu_prepare calls it only when
/// the factor pattern differs from A's (on A's own pattern the permutation
/// records the map); scatter_values' debug check and tests re-derive with it.
void build_scatter_map(Factorization& f, const CsrMatrix& a);

// --- runtime retargeting (ilu/retarget.cpp) --------------------------------

/// The team every region over `f` — the numeric phase and each sweep —
/// launches right now: the factor-time plan's width, clamped by the current
/// OpenMP runtime setting (omp_set_num_threads / OMP_NUM_THREADS) and — when
/// opts.retarget_oversubscribed — by the hardware core count. Never less
/// than 1.
int runtime_team(const Factorization& f);

/// Schedules matching runtime_team(f): the factor's own when the team equals
/// the plan, otherwise re-planned through `cache`'s slot for that direction,
/// rebuilt when the slot was filled at another team or item granule or for
/// a factor with another row or level count (an O(1) test, so give each
/// factor its own cache). Retargeted schedules are bitwise-identical to a
/// fresh build at that team (test_exec), so no region ever degrades to a
/// serial sweep on a team-size mismatch — it re-plans.
const ExecSchedule& runtime_fwd(const Factorization& f, ScheduleCache& cache);
const ExecSchedule& runtime_bwd(const Factorization& f, ScheduleCache& cache);

}  // namespace javelin
