// Pluggable execution schedules for level-ordered row sweeps.
//
// A schedule is pure STRUCTURE: items, waits, runs and the retained levels.
// How it synchronizes is a run-time choice the caller passes to exec_run
// (exec/run.hpp) — the factor's IluOptions::exec_backend — and the same
// schedule runs under either backend:
//
//   * kP2P — point-to-point level scheduling (paper §III-A, Fig. 4): each
//     level is cut into ITEMS of up to chunk_rows consecutive rows, and each
//     thread takes a contiguous run of whole items; each thread executes its
//     rows level-by-level in a fixed order. That fixed order is the
//     "implied ordering" that lets dependencies be pruned:
//       - same-thread dependencies vanish (program order),
//       - per producer thread only the MAXIMUM needed schedule position is
//         kept (its progress counter is monotone),
//       - a dependency already implied by an earlier wait of the same
//         consumer thread is dropped (build-time transitive pruning).
//     At runtime an item performs at most (threads - 1) spin-waits on padded
//     progress counters — no barriers, no tasks.
//
//   * kBarrier — the classic barrier-synchronized level-set sweep (CSR-LS):
//     the SAME stored items, walked level by level through item_level, with
//     a team barrier between levels instead of spin-waits on sparsified
//     dependencies. This is the §VI baseline the point-to-point scheme is
//     measured against.
//
// build_exec_schedule is the one place that assigns rows to threads: both
// executors, the telemetry (obs/exec_obs.hpp) and the static verifier
// (verify/verify.hpp) read the stored items, so the proof covers the
// assignment that runs under either backend.
//
// The item is the BLOCKING granule: waits are computed per item, every
// published count is an item count, and items never cross a level boundary,
// which keeps the schedule deadlock-free (an item's dependencies always live
// in strictly earlier levels, hence strictly earlier items on every thread).
// Because threads receive whole items, a level of at most chunk_rows rows
// runs on one thread, so a chain of narrow levels carries no cross-thread
// waits at all.
//
// The RUN is the SYNCHRONIZATION granule of the P2P executor: each
// thread's items are grouped into maximal runs of consecutive items in which
// only the first item has a wait list and only the last item's count is
// named by a wait of the schedule (build_run_layer). A run executes as one
// wait list, one contiguous row range and one counter publish, so a thread
// that owns a long chain of narrow levels pays the per-item loop once per
// run, not once per item. Every wait is still released at the same producer
// progress: the counts waits name are exactly the run ends. The layer is
// derived from the wait lists and rebuilt wherever they are written
// (build_exec_schedule, hence retarget()).
//
// Schedules are RUNTIME-RETARGETABLE: retarget() re-deals the levels' items
// and rebuilds the sparsified waits for any team size from the retained
// level structure, bitwise-identical to a fresh build at that size.
// Consumers re-plan on a team-size mismatch instead of falling back to a
// serial sweep (runtime_fwd/runtime_bwd, declared in ilu/factorization.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

struct ExecSchedule {
  int threads = 1;
  index_t n_total = 0;     ///< dimension of the row-index space
  index_t chunk_rows = 0;  ///< blocking granule the schedule was built with

  /// Execution order: thread t runs items [thread_ptr[t] .. thread_ptr[t+1]);
  /// item i covers rows[item_ptr[i] .. item_ptr[i+1]) (a contiguous chunk of
  /// thread t's share of one level, executed in stored order).
  std::vector<index_t> thread_ptr;
  std::vector<index_t> item_ptr;
  std::vector<index_t> rows;
  /// Level of each item (index into level_ptr), ascending within each
  /// thread. The barrier executor runs thread t's items tagged l between
  /// level l's barriers, and the telemetry charges item i's time to
  /// item_level[i].
  std::vector<index_t> item_level;

  /// Sparsified waits, per ITEM (consumed by the P2P backend; the barrier
  /// backend synchronizes with one barrier per level instead): before
  /// executing item i, wait until wait_thread[w] has published wait_count[w]
  /// items, for w in [wait_ptr[i], wait_ptr[i+1]).
  std::vector<index_t> wait_ptr;
  std::vector<index_t> wait_thread;
  std::vector<index_t> wait_count;

  /// Run layer (derived from the wait lists by build_run_layer): thread t
  /// runs runs [thread_run_ptr[t] .. thread_run_ptr[t+1]); run r covers items
  /// [run_ptr[r] .. run_ptr[r+1]), so its rows are one contiguous range of
  /// `rows`. Only item run_ptr[r] may have waits, and every count a wait
  /// names is the end of a run of the producer thread.
  std::vector<index_t> thread_run_ptr;
  std::vector<index_t> run_ptr;

  /// Retained level structure: level l covers
  /// serial_order[level_ptr[l] .. level_ptr[l+1]). serial_order (level-major
  /// row listing) doubles as the dependency-safe serial execution order and,
  /// with level_ptr, as the input retarget() rebuilds from.
  std::vector<index_t> level_ptr;
  std::vector<index_t> serial_order;

  // --- statistics ----------------------------------------------------------
  index_t deps_total = 0;  ///< cross-thread dependencies before pruning
  index_t deps_kept = 0;   ///< spin-waits actually stored
  index_t num_levels = 0;  ///< also the barrier count per CSR-LS sweep

  index_t num_rows() const noexcept { return static_cast<index_t>(rows.size()); }
  index_t num_items() const noexcept {
    return item_ptr.empty() ? 0 : static_cast<index_t>(item_ptr.size()) - 1;
  }
  index_t num_runs() const noexcept {
    return run_ptr.empty() ? 0 : static_cast<index_t>(run_ptr.size()) - 1;
  }

  // --- level-shape statistics (bench signal) --------------------------------
  /// Mean rows per level (0 for an empty schedule).
  double mean_rows_per_level() const noexcept {
    return num_levels > 0
               ? static_cast<double>(serial_order.size()) /
                     static_cast<double>(num_levels)
               : 0.0;
  }
  index_t max_items_per_thread() const noexcept {
    if (thread_ptr.empty()) return 0;  // default-constructed schedule
    index_t m = 0;
    for (int t = 0; t < threads; ++t) {
      m = std::max(m, thread_ptr[static_cast<std::size_t>(t) + 1] -
                          thread_ptr[static_cast<std::size_t>(t)]);
    }
    return m;
  }

  /// Producer lookup for consumers synchronizing against this schedule from
  /// OUTSIDE it (the fused solve+SpMV phase): owner[r] is the executing
  /// thread of row r (kInvalidIndex if unscheduled) and item_of[r] the
  /// 0-based item position within that thread, i.e. a consumer must
  /// wait_for(owner[r], item_of[r] + 1).
  void producer_positions(std::vector<index_t>& owner,
                          std::vector<index_t>& item_of) const;
};

/// Yields the dependency rows of a given row (rows that must complete
/// first). Dependencies outside the scheduled row set are ignored (they are
/// taken as satisfied before the region starts).
using DepsFn = std::function<void(index_t row, const std::function<void(index_t)>& yield)>;

/// The optional TAIL phase of a region (exec/run.hpp): after its last item,
/// thread t runs chunks [thread_ptr[t], thread_ptr[t+1]); under P2P chunk
/// c first waits until wait_thread[w] has published wait_count[w] items of
/// the region's schedule, for w in [wait_ptr[c], wait_ptr[c+1]). A
/// non-owning view: the arrays belong to the caller (the fused SpMV
/// companion, ilu/fused.hpp).
struct ExecTail {
  std::span<const index_t> thread_ptr;
  std::span<const index_t> wait_ptr;
  std::span<const index_t> wait_thread;
  std::span<const index_t> wait_count;

  index_t num_chunks() const noexcept {
    return thread_ptr.empty() ? 0 : thread_ptr.back();
  }
};

/// Yields the dependencies of tail chunk `chunk` as (consumer, producer row)
/// pairs: `consumer` names what the chunk computes (an output row), the
/// producer is a row of the region's schedule that must complete first.
using TailDepsFn = std::function<void(
    index_t chunk,
    const std::function<void(index_t consumer, index_t producer)>& yield)>;

/// Build-time helper shared by the schedule builder and the fused-SpMV
/// companion (build_fused_apply_spmv): one-pass sparsified wait-list
/// construction with monotone per-producer high-water pruning. Thread t
/// executes consumers [consumer_thread_ptr[t], consumer_thread_ptr[t+1]) in
/// order; consumers are visited in index order and each list is appended
/// where the previous one ended. `seed` pre-loads the thread's high-water
/// marks with counts it has already waited for before its first consumer
/// (empty function = none). `deps(t, c, yield)` enumerates consumer c's
/// CROSS-thread dependencies as (producer thread, required published count
/// >= 1) — same-thread dependencies must be filtered by the caller. On
/// return wait_ptr/wait_thread/wait_count hold the pruned CSR-style wait
/// lists and deps_total/deps_kept the before/after dependency counts.
using WaitSeedFn = std::function<void(int t, std::span<index_t> last_wait)>;
using WaitDepsFn = std::function<void(
    int t, index_t consumer,
    const std::function<void(index_t producer_thread, index_t count)>& yield)>;

void build_sparsified_waits(int threads,
                            std::span<const index_t> consumer_thread_ptr,
                            const WaitSeedFn& seed, const WaitDepsFn& deps,
                            std::vector<index_t>& wait_ptr,
                            std::vector<index_t>& wait_thread,
                            std::vector<index_t>& wait_count,
                            index_t& deps_total, index_t& deps_kept);

/// Default rows per item; the sweep kernels are memory-bound, so a modest
/// block already hides the wait/publish latency without delaying consumers.
inline constexpr index_t kDefaultChunkRows = 32;

/// Build a schedule from explicit level sets (level-major lists of rows).
/// `rows_by_level` / `level_ptr` follow the LevelSets layout and become the
/// schedule's serial_order / level_ptr (move them in to skip a copy). `deps` is
/// consulted once per row at build time. `chunk_rows` bounds the rows per
/// item (blocking granule); values < 1 are clamped to 1. The wait lists are
/// always built: the P2P executor runs on them, retarget() rebuilds them,
/// and the barrier executor simply never consults them.
ExecSchedule build_exec_schedule(index_t n_total,
                                 std::vector<index_t> level_ptr,
                                 std::vector<index_t> rows_by_level,
                                 const DepsFn& deps, int threads,
                                 index_t chunk_rows = kDefaultChunkRows);

/// (Re)derive the run layer of `s` from its item and wait arrays: each
/// thread's items are cut into maximal runs, a new run starting at every
/// item with a wait list and after every item whose count a wait of the
/// schedule names. Waits naming a thread or count outside the schedule are
/// ignored (the verifier reports them). Deterministic and O(items + waits).
void build_run_layer(ExecSchedule& s);

/// Re-plan `s` for a new team size: re-chunk the (level, thread) slices and
/// rebuild the sparsified waits from the retained level structure. `deps`
/// must enumerate the same dependencies the schedule was originally built
/// with (runtime_fwd/runtime_bwd, declared in ilu/factorization.hpp, pass
/// the factor's triangular enumerators below). The result is
/// bitwise-identical — every field — to a fresh build at `threads`
/// (asserted by test_exec).
ExecSchedule retarget(const ExecSchedule& s, const DepsFn& deps, int threads);

/// Dependency enumerators of the triangular-factor schedules, exposed so
/// consumers can retarget without re-deriving them. The returned closures
/// hold a pointer to `lu`, which must outlive them.
DepsFn lower_triangular_deps(const CsrMatrix& lu);  ///< strictly-lower cols
DepsFn upper_triangular_deps(const CsrMatrix& lu);  ///< strictly-upper cols

/// Forward schedule over ALL rows on L's own levels. Dependencies are the
/// strictly-lower columns of `lu`, which are both the forward-solve and the
/// numeric factorization's dependency structure (the co-design of paper
/// §VI); level scheduling needs only that triangle's own DAG (Anderson &
/// Saad, 1989). `plan_level_ptr` are the plan's levels (0 to n), on which
/// lu is level-major. When `plan_is_lower` (LevelPlan::lower_only) they are
/// L's own and the schedule runs them, rows ascending, so serial_order is
/// 0 … n-1. Otherwise L's own levels are shallower, and the schedule runs
/// compute_level_sets_lower(lu)'s, whose level_ptr and row listing move in
/// as its level_ptr and serial_order.
ExecSchedule build_forward_schedule(const CsrMatrix& lu,
                                    std::span<const index_t> plan_level_ptr,
                                    bool plan_is_lower, int threads,
                                    index_t chunk_rows = kDefaultChunkRows);

/// Backward schedule over ALL rows: the plan's levels (`level_ptr`, which
/// must run from 0 to n) listed last to first with rows descending inside
/// each level, so serial_order is n-1 … 0 and every level is one contiguous
/// row range. Dependencies are the strictly-upper columns of `lu`; since
/// level(c) > level(r) for a U entry (r, c), the reversed plan levels are a
/// valid U order.
ExecSchedule build_backward_schedule(const CsrMatrix& lu,
                                     std::span<const index_t> level_ptr,
                                     int threads,
                                     index_t chunk_rows = kDefaultChunkRows);

}  // namespace javelin
