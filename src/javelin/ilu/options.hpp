// User-facing options of the Javelin framework (paper §III: fill level k,
// drop tolerance τ, modified ILU; then scheduling, execution backend,
// numeric-phase fault injection and telemetry). Levels are always computed
// on lower(A+Aᵀ) (paper §VII: "we by default always recommend using the
// lower(A+Aᵀ) pattern"), and every row is level-scheduled, so the paper's
// lower-stage method and planner sensitivity knobs (Tables III/IV) have no
// counterpart here.
#pragma once

#include <functional>

#include "javelin/exec/backend.hpp"
#include "javelin/support/types.hpp"

namespace javelin {

namespace obs {
class ExecObs;  // obs/exec_obs.hpp
}

/// Test-only fault-injection hook of the numeric phase: called with the
/// (permuted) row just factored; returning false poisons that row exactly as
/// a bad pivot would, driving the cooperative-abort path of the exec
/// backends. Javelin does not pivot (paper §III), so the numeric phase is the
/// only region that can fail on values; the sweeps have no hook to call.
using FaultHook = std::function<bool(index_t row)>;

struct IluOptions {
  // --- numerical options -----------------------------------------------
  /// Fill level k of ILU(k). 0 keeps exactly the pattern of A.
  int fill_level = 0;
  /// Drop tolerance τ of ILU(k,τ): computed entries with magnitude below
  /// τ·‖row‖₁/nnz(row) are zeroed (storage retained, value dropped). 0
  /// disables dropping.
  double drop_tolerance = 0.0;
  /// Modified ILU: add discarded fill (and dropped entries) to the diagonal
  /// so row sums are preserved [MacLachlan et al., paper ref 2].
  bool modified = false;
  /// Smallest pivot magnitude accepted; below this the factorization throws
  /// (Javelin, like most ILUs, does not pivot — paper §III).
  double pivot_threshold = 1e-14;

  // --- scheduling options ------------------------------------------------
  /// Rows per point-to-point schedule item (blocked trsv/factorization):
  /// each item issues one merged wait list and one counter publish for the
  /// whole row block, amortizing the spin-wait checks inside a level.
  /// Chunks never cross a level boundary. <= 0 means the built-in default.
  index_t p2p_chunk_rows = 0;
  /// Thread count to plan for; <= 0 means use the OpenMP default.
  int num_threads = 0;

  // --- execution backend ---------------------------------------------------
  /// Synchronization strategy of every region over the factor (numeric
  /// phase and sweeps): point-to-point sparsified spin-waits (the paper's
  /// contribution) or the classic barrier-synchronized level-set sweep
  /// (CSR-LS, the §VI baseline). Read at run time — a schedule carries no
  /// backend — so assigning it on a built factor switches later regions.
  /// Both are bitwise-identical at any team size; only the synchronization
  /// cost differs.
  ExecBackend exec_backend = ExecBackend::kP2P;
  /// Runtime-team clamp: when a region (numeric phase or sweep) would launch
  /// the planned team onto fewer hardware cores than threads, re-plan
  /// (retarget) the schedules down to the core count instead of spinning
  /// more threads than cores. A runtime omp_set_num_threads below the plan
  /// always retargets, independent of this flag. Tests pin false to force
  /// planned-width scheduled execution.
  bool retarget_oversubscribed = true;
  /// Statically verify every schedule this factorization builds or
  /// retargets (verify/verify.hpp): partition integrity, level soundness,
  /// happens-before coverage of all row dependencies, deadlock freedom. A
  /// failed proof throws javelin::Error with row-precise diagnostics before
  /// the schedule can execute. Defaults to on in debug builds (an O(nnz)
  /// assertion); release builds opt in explicitly (bench --verify does).
#ifdef NDEBUG
  bool verify_schedules = false;
#else
  bool verify_schedules = true;
#endif

  // --- fault injection (tests only) ---------------------------------------
  /// When set, consulted after every numeric-phase row; returning false
  /// aborts the region cooperatively (no throw from inside the parallel
  /// region, bounded spin-wait termination) and the numeric phase reports
  /// that row as its bad pivot.
  FaultHook fault_hook;

  // --- observability --------------------------------------------------------
  /// Non-owning spin-wait telemetry sink. When set, the factor/sweep
  /// regions run their instrumented template instantiations (per-thread
  /// wait counters, per-(thread, level) busy/stall attribution, trace
  /// spans when the trace session is enabled) and aggregate into the
  /// sink's per-region ExecStats. Null — the default — keeps every hot
  /// path on the zero-overhead uninstrumented instantiation. The fault
  /// hook takes precedence: a numeric phase with both set runs
  /// uninstrumented. The sink is not thread-safe across concurrent solves;
  /// attach one per stream.
  obs::ExecObs* exec_obs = nullptr;
};

}  // namespace javelin
