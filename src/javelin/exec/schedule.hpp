// Pluggable execution schedules for level-ordered row sweeps.
//
// One build, two runtime backends (exec/run.hpp):
//
//   * kP2P — point-to-point level scheduling (paper §III-A, Fig. 4): each
//     level is cut into ITEMS of up to chunk_rows consecutive rows, and each
//     thread takes a contiguous run of whole items (level_slice); each thread
//     executes its rows level-by-level in a fixed order. That fixed order is
//     the "implied ordering" that lets dependencies be pruned:
//       - same-thread dependencies vanish (program order),
//       - per producer thread only the MAXIMUM needed schedule position is
//         kept (its progress counter is monotone),
//       - a dependency already implied by an earlier wait of the same
//         consumer thread is dropped (build-time transitive pruning).
//     At runtime an item performs at most (threads - 1) spin-waits on padded
//     progress counters — no barriers, no tasks.
//
//   * kBarrier — the classic barrier-synchronized level-set sweep (CSR-LS):
//     the SAME (level, thread) slices, but the team barriers between levels
//     instead of spin-waiting on sparsified dependencies. This is the §VI
//     baseline the point-to-point scheme is measured against.
//
// The item is the BLOCKING granule: waits are computed per item, every
// published count is an item count, and items never cross a level boundary,
// which keeps the schedule deadlock-free (an item's dependencies always live
// in strictly earlier levels, hence strictly earlier items on every thread).
// Because threads receive whole items, a level of at most chunk_rows rows
// runs on one thread, so a chain of narrow levels carries no cross-thread
// waits at all.
//
// The RUN is the SYNCHRONIZATION granule of the uniform P2P executor: each
// thread's items are grouped into maximal runs of consecutive items in which
// only the first item has a wait list and only the last item's count is
// named by a wait of the schedule (build_run_layer). A run executes as one
// wait list, one contiguous row range and one counter publish, so a thread
// that owns a long chain of narrow levels pays the per-item loop once per
// run, not once per item. Every wait is still released at the same producer
// progress: the counts waits name are exactly the run ends. The layer is
// derived from the wait lists and rebuilt wherever they are written
// (build_exec_schedule, hence retarget(), and apply_level_tags).
//
// Schedules are RUNTIME-RETARGETABLE: retarget() re-chunks the (level,
// thread) slices and rebuilds the sparsified waits for any team size from
// the retained level structure, bitwise-identical to a fresh build at that
// size. Consumers re-plan on a team-size mismatch instead of falling back to
// a serial sweep (ilu/retarget.hpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "javelin/exec/backend.hpp"
#include "javelin/sparse/csr.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

/// Thread t's slice of a level of `rows` rows, as offsets into the level:
/// the level is cut into ceil(rows / chunk_rows) items of chunk_rows
/// consecutive rows (the last may be short) and thread t takes a contiguous
/// run of whole items (partition_range over items). The slice therefore
/// starts on an item boundary and holds ceil(size / chunk_rows) items. The
/// schedule builder and every executor that re-derives slices at run time
/// (barrier, hybrid, fused, panel) call this one function, so they cannot
/// disagree on which thread runs a row. chunk_rows < 1 is treated as 1.
inline Range level_slice(index_t rows, int threads, int t,
                         index_t chunk_rows) noexcept {
  const index_t chunk = std::max<index_t>(1, chunk_rows);
  const Range items = partition_range((rows + chunk - 1) / chunk, threads, t);
  return {std::min(rows, items.begin * chunk),
          std::min(rows, items.end * chunk)};
}

struct ExecSchedule {
  ExecBackend backend = ExecBackend::kP2P;
  int threads = 1;
  index_t n_total = 0;     ///< dimension of the row-index space
  index_t chunk_rows = 0;  ///< blocking granule the schedule was built with

  /// Execution order: thread t runs items [thread_ptr[t] .. thread_ptr[t+1]);
  /// item i covers rows[item_ptr[i] .. item_ptr[i+1]) (a contiguous chunk of
  /// one (level, thread) level_slice, executed in stored order).
  std::vector<index_t> thread_ptr;
  std::vector<index_t> item_ptr;
  std::vector<index_t> rows;

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

  /// Per-level synchronization regimes (LevelRegime bytes, one per level).
  /// EMPTY means uniform execution under `backend` — the only state the
  /// non-hybrid executor branches ever see. Non-empty (set through
  /// apply_level_tags, which also prunes the waits each regime's sync
  /// already covers) routes exec_run through the hybrid branch: contiguous
  /// same-tag level SEGMENTS, a team barrier at every segment entry, the
  /// regime's own protocol inside.
  std::vector<std::uint8_t> level_tags;

  /// Spin-wait escalation budget: pause-loop iterations before a wait
  /// (counter spin, level barrier) starts yielding the CPU. 0 derives the
  /// default from the team (spin_budget_for); ilu/ plumbs
  /// IluOptions::spin_max_pauses through here so the tuner can measure —
  /// and tests force — the pause→yield ladder.
  int spin_budget = 0;

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
  bool hybrid() const noexcept { return !level_tags.empty(); }
  LevelRegime level_regime(index_t l) const noexcept {
    return level_tags.empty()
               ? (backend == ExecBackend::kBarrier ? LevelRegime::kBarrier
                                                   : LevelRegime::kP2P)
               : static_cast<LevelRegime>(
                     level_tags[static_cast<std::size_t>(l)]);
  }

  // --- level-shape statistics (tuner pruning heuristic + bench signal) -----
  /// Mean rows per level (0 for an empty schedule).
  double mean_rows_per_level() const noexcept {
    return num_levels > 0
               ? static_cast<double>(serial_order.size()) /
                     static_cast<double>(num_levels)
               : 0.0;
  }
  /// Fraction of scheduled rows living in levels with fewer than
  /// `threshold` rows — the rows whose level is too narrow to feed a team.
  double small_level_row_frac(index_t threshold) const noexcept {
    if (serial_order.empty() || level_ptr.empty()) return 0.0;
    index_t small = 0;
    for (index_t l = 0; l < num_levels; ++l) {
      const index_t lsz = level_ptr[static_cast<std::size_t>(l) + 1] -
                          level_ptr[static_cast<std::size_t>(l)];
      if (lsz < threshold) small += lsz;
    }
    return static_cast<double>(small) /
           static_cast<double>(serial_order.size());
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
/// satisfied by construction — e.g. upper-stage rows for the corner).
using DepsFn = std::function<void(index_t row, const std::function<void(index_t)>& yield)>;

/// The optional TAIL phase of a region (exec/run.hpp): after its last item,
/// thread t runs chunks [thread_ptr[t], thread_ptr[t+1]); under uniform P2P
/// chunk c first waits until wait_thread[w] has published wait_count[w]
/// items of the region's schedule, for w in [wait_ptr[c], wait_ptr[c+1]).
/// A non-owning view: the arrays belong to the caller (the fused SpMV
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
/// companion (build_fused_apply_spmv): two-pass (count, fill) sparsified
/// wait-list construction with monotone per-producer high-water pruning.
/// Thread t executes consumers [consumer_thread_ptr[t],
/// consumer_thread_ptr[t+1]) in order. `seed` pre-loads the thread's
/// high-water marks with counts it has already waited for before its first
/// consumer (empty function = none). `deps(t, c, yield)` enumerates consumer
/// c's CROSS-thread dependencies as (producer thread, required published
/// count) — same-thread dependencies must be filtered by the caller. On
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
/// built for EITHER backend (they are what retarget() and a later backend
/// switch rely on); the barrier executor simply never consults them.
ExecSchedule build_exec_schedule(ExecBackend backend, index_t n_total,
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
/// with (ilu/retarget.hpp supplies them from the factor). The result is
/// bitwise-identical — every field — to a fresh build at `threads`
/// (asserted by test_exec).
ExecSchedule retarget(const ExecSchedule& s, const DepsFn& deps, int threads);

/// Install per-level regime tags on `s` (size must equal s.num_levels; values
/// are LevelRegime bytes) and prune every stored wait the tagged regimes'
/// synchronization already covers. The hybrid executor barriers at each
/// same-tag segment entry (and after every kBarrier level), so a consumer in
/// level lc is guaranteed every item in levels below its regime FLOOR —
/// lc itself for kBarrier/kSerial levels, the segment's first level for kP2P
/// — has been published before it starts; waits whose producer count is
/// below that floor are deleted (deps_kept drops, deps_total is untouched)
/// and the run layer is rebuilt from the pruned lists. After pruning, every
/// surviving wait's producer lives in the consumer's own P2P segment. An
/// all-kP2P tag vector is normalized to "no tags" (uniform schedule).
/// Deterministic: retarget() re-applies the tags after rebuilding,
/// field-for-field identical to tagging a fresh build.
void apply_level_tags(ExecSchedule& s, std::span<const std::uint8_t> tags);

/// Dependency enumerators of the triangular-factor schedules, exposed so
/// consumers can retarget without re-deriving them. The returned closures
/// hold a pointer to `lu`, which must outlive them.
DepsFn lower_triangular_deps(const CsrMatrix& lu);  ///< strictly-lower cols
DepsFn upper_triangular_deps(const CsrMatrix& lu);  ///< strictly-upper cols

/// Forward schedule for the upper stage of a two-stage plan: rows
/// [0, n_upper) with contiguous levels; dependencies are the strictly-lower
/// columns of `lu` (which is both the factorization and the forward-solve
/// dependency structure — the co-design of paper §VI).
ExecSchedule build_upper_forward_schedule(const CsrMatrix& lu,
                                          std::span<const index_t> upper_level_ptr,
                                          ExecBackend backend, int threads,
                                          index_t chunk_rows = kDefaultChunkRows);

/// Backward schedule over ALL rows, on the plan's own levels: the upper
/// levels (`upper_level_ptr`) followed by the moved ones (n_upper +
/// `lower_level_ptr`, which may be empty), listed last to first with rows
/// descending inside each level, so serial_order is n-1 … 0 and every level
/// is one contiguous row range. Dependencies are the strictly-upper columns
/// of `lu`. This is the co-design of paper §III: the plan's levels are
/// level-major on lower(S+Sᵀ) and lu = P S Pᵀ, so a U entry (r, c), c > r,
/// joins two rows adjacent in S+Sᵀ and level(c) > level(r) — the reversed
/// plan levels are a valid U order.
ExecSchedule build_backward_schedule(const CsrMatrix& lu,
                                     std::span<const index_t> upper_level_ptr,
                                     std::span<const index_t> lower_level_ptr,
                                     ExecBackend backend, int threads,
                                     index_t chunk_rows = kDefaultChunkRows);

}  // namespace javelin
