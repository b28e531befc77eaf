// Fused preconditioner-apply + SpMV: the Krylov inner loop's hot pair
// z = (LU)^{-1} r followed by t = A z, executed as ONE scheduled pass
// (paper §VI: the iterative phase — apply plus matvec, every iteration —
// dominates end-to-end time).
//
// Three fusions, all bitwise-neutral:
//   * the rhs gather x = P r is folded into each forward-sweep row
//     (no permute-in pass),
//   * the solution scatter z = Pᵀ x is folded into each backward-sweep row
//     (no permute-out pass),
//   * the SpMV is streamed BEHIND the backward sweep inside the same
//     parallel region, as the region's tail phase (exec/run.hpp): each
//     thread, after finishing its backward items, processes its A-row
//     chunks, each guarded by sparsified spin-waits on the SAME
//     ProgressCounters the backward sweep publishes — rows whose column
//     dependencies are satisfied start multiplying while other threads are
//     still solving. No barrier, no second kernel launch.
//
// The first two fusions are the apply's own (ilu/forward_sweep.hpp): the
// fused pass runs the same forward sweep as ilu_apply and the same
// backward sweep with the SpMV chunks as its tail, and at a runtime team
// of one the apply's straight-line column solve followed by every SpMV
// row. Per Krylov iteration the tail removes one parallel-region
// fork/join and the solve→SpMV barrier, while every row keeps its fixed
// CSR-order accumulation — the fused and unfused paths are
// bitwise-identical at any thread count.
//
// The backward region is exec_run's, so every backend behaves as it does
// for a plain backward sweep: under the barrier (CSR-LS) backend the SpMV
// chunks start after the final level barrier — one region and zero extra
// vector passes either way, so the backend comparison stays honest.
//
// The companion's chunk waits count the items of ONE backward schedule, so
// it serves exactly that schedule: the object that owns A owns the
// companion and rebuilds it when the runtime team re-plans the backward
// sweep (FusedIluOperator, solver/krylov.hpp). ilu_apply_spmv runs the
// companion it is given and refuses one built for another schedule.
#pragma once

#include <span>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"

namespace javelin {

/// Companion of a (backward schedule, A) pair: the SpMV phase of the fused
/// pass. A's rows are nnz-balanced across the backward schedule's threads
/// and blocked into chunks; each chunk stores the pruned wait list
/// (producer thread, backward item count) covering every column it reads.
struct FusedApplySpmv {
  int threads = 1;
  index_t n = 0;

  /// Thread t multiplies chunks [thread_ptr[t], thread_ptr[t+1]); chunk c
  /// covers A rows [chunk_begin[c], chunk_end[c]).
  std::vector<index_t> thread_ptr;
  std::vector<index_t> chunk_begin;
  std::vector<index_t> chunk_end;

  /// Sparsified waits per chunk, on the BACKWARD schedule's item counters:
  /// before chunk c, wait until wait_thread[w] has published wait_count[w]
  /// backward items, for w in [wait_ptr[c], wait_ptr[c+1]). (The barrier
  /// backend never consults them: the level barriers of the backward sweep
  /// already order the whole solve before the SpMV phase.)
  std::vector<index_t> wait_ptr;
  std::vector<index_t> wait_thread;
  std::vector<index_t> wait_count;

  /// Rows per SpMV chunk the companion was built with (reused on rebuild).
  index_t chunk_rows = 0;
  /// Item granule (chunk_rows) of the backward schedule the waits were
  /// built against: with `threads` it names that schedule, whose item
  /// counts the waits use, so another team or a re-chunked backward
  /// schedule invalidates them (ilu_apply_spmv then throws).
  index_t bwd_chunk_rows = 0;

  // --- statistics ----------------------------------------------------------
  index_t deps_total = 0;  ///< cross-thread column dependencies before pruning
  index_t deps_kept = 0;   ///< spin-waits actually stored

  index_t num_chunks() const noexcept {
    return static_cast<index_t>(chunk_begin.size());
  }

  /// Whether the waits count the items of `bwd`: built for its team and
  /// item granule.
  bool built_for(const ExecSchedule& bwd) const noexcept {
    return threads == bwd.threads && bwd_chunk_rows == bwd.chunk_rows;
  }

  /// The chunks as the tail phase of the backward region (exec/run.hpp).
  ExecTail tail() const noexcept {
    return {thread_ptr, wait_ptr, wait_thread, wait_count};
  }
};

/// Default rows per fused-SpMV chunk.
inline constexpr index_t kDefaultSpmvChunkRows = 1024;

/// Build the fused-SpMV companion of factor `f`'s backward schedule `bwd`
/// (f.bwd, or a retargeted one such as runtime_bwd's) and matrix `a`
/// (square, same dimension as the factor; in Krylov use `a` is the matrix
/// `f` was factored from). `chunk_rows` bounds the rows per SpMV chunk.
/// When f.opts.verify_schedules is set the chunk waits are proven against
/// `bwd` (verify::verify_tail) and a defect throws Error.
FusedApplySpmv build_fused_apply_spmv(const Factorization& f,
                                      const ExecSchedule& bwd,
                                      const CsrMatrix& a,
                                      index_t chunk_rows = kDefaultSpmvChunkRows);

/// The companion of the factor-time backward schedule f.bwd.
FusedApplySpmv build_fused_apply_spmv(const Factorization& f,
                                      const CsrMatrix& a,
                                      index_t chunk_rows = kDefaultSpmvChunkRows);

/// The column dependencies of the companion's chunks, for
/// verify::verify_tail: chunk c's A row r reads column j, which the
/// backward sweep finishes at permuted row invperm(j). The closure refers
/// to `fs` and `a`, which must outlive it.
TailDepsFn fused_tail_deps(const FusedApplySpmv& fs, const LevelPlan& plan,
                           const CsrMatrix& a);

/// z = (LU)^{-1} r and t = A z in one fused pass. r, z and t are in the
/// ORIGINAL row ordering and must not alias each other. Bitwise-identical to
/// `ilu_apply_serial(f, r, z, ws)` followed by `spmv(a, part, z, t)` at any
/// thread count. The sweeps run runtime_fwd/runtime_bwd(f, ws.sched), and
/// `fs` must be the companion of that backward schedule — FusedIluOperator
/// keeps it so. A runtime team of one runs the straight-line column solve
/// and then the SpMV rows, which is that team's schedule, not a fallback,
/// and reads no chunk. Throws Error when r, z or t is shorter than n, when
/// `fs` was built for another dimension, or, at a team above one, when it
/// was built for another backward schedule (team or item granule).
/// Thread-safe across distinct workspaces.
void ilu_apply_spmv(const Factorization& f, const CsrMatrix& a,
                    const FusedApplySpmv& fs, std::span<const value_t> r,
                    std::span<value_t> z, std::span<value_t> t,
                    SolveWorkspace& ws);

}  // namespace javelin
