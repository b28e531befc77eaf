// Static schedule verification: prove an ExecSchedule correct WITHOUT
// executing it.
//
// Bitwise parity tests sample a handful of team sizes; TSan catches a
// dropped wait only if the interleaving happens to lose the race. This
// analyzer instead reconstructs the true row-level RAW dependencies from the
// same DepsFn closures retarget() consumes and proves, per dependency, that
// the schedule orders producer before consumer:
//
//   * partition — every row of the retained level structure is executed by
//     exactly one item, and no item executes a row outside it;
//   * level soundness — items never mix levels, per-thread item order is
//     level-monotone, and every scheduled dependency lives in a STRICTLY
//     earlier level (the barrier backend synchronizes only between levels,
//     so a same-level dependency is a data race under kBarrier);
//   * happens-before coverage — for the P2P backend, intra-thread program
//     order plus the sparsified wait edges must cover every cross-thread
//     dependency. The proof runs a vector clock over the item graph
//     (Lamport-style): item i's clock entry for thread p is the number of
//     items p is guaranteed to have published before i starts. A dependency
//     is COVERED-DIRECT when one of the consuming item's own waits reaches
//     the producer's position, COVERED-TRANSITIVE when only the transitive
//     publish order does (the pruning the paper's sparsification performs),
//     and UNCOVERED otherwise — an uncovered edge is a latent data race;
//   * deadlock freedom — the item graph (program order + wait edges) must be
//     acyclic; an item waiting on a counter value its producer thread only
//     reaches after that item publishes can never start;
//   * run layout — the uniform P2P executor runs RUNS of items (one wait
//     list, one row range, one publish; exec/schedule.hpp), which executes
//     the item model above exactly when the runs partition each thread's
//     items in order, only a run's first item has waits, and every count a
//     wait names ends a run. A violation is kRunLayout naming the item.
//
// Both the level check and the wait check always run regardless of
// s.backend: set_exec_backend() flips the tag in place, so a schedule must
// be sound for either executor at all times.
//
// HYBRID schedules (non-empty level_tags) add synchronization the stored
// waits no longer carry: the executor barriers at every same-tag segment
// entry, after every kBarrier level, and runs kSerial levels alone on
// thread 0 — and apply_level_tags prunes every wait those sync points
// already cover. The analyzer models each such sync point as a virtual
// node in the item graph (predecessors: every thread's last item below the
// sync level; successors: every thread's first item at or above it, plus
// the next sync node) and joins clocks across it, so pruned waits are
// proven covered (deps_covered_regime) rather than misreported as races —
// and a tag edit that orphans a pruned wait IS reported (kUncoveredDependency
// or kDeadlock). Malformed tag vectors are kRegimeTag and analyzed as
// uniform.
//
// TAILS: a region may end in a tail phase (exec/run.hpp — the fused solve's
// SpMV chunks) whose waits count the schedule's items. verify_tail extends
// the item clocks to the chunks and proves every chunk dependency covered.
//
// Diagnostics are structured (ScheduleDiagnostic: consumer row, producer
// row, threads, level, item) so tests can assert row-precise detection and
// the bench can serialize verification stats (schema v5).
#pragma once

#include <string>
#include <vector>

#include "javelin/exec/schedule.hpp"
#include "javelin/support/types.hpp"

namespace javelin::verify {

/// Defect classes the analyzer distinguishes. Every diagnostic carries one.
enum class DiagKind {
  kMalformed,            ///< arrays not indexable / indices out of range
  kPartition,            ///< row missing, duplicated, or unknown
  kLevelOrder,           ///< item mixes levels / thread items out of level order
  kLevelDependency,      ///< dependency not in a strictly earlier level
  kWaitMetadata,         ///< wait names self / bad thread / unsatisfiable count
  kDeadlock,             ///< cycle in program-order + wait-edge item graph
  kUncoveredDependency,  ///< cross-thread RAW dep with no happens-before edge
  kRetargetMismatch,     ///< retarget(s, deps, T) differs from a fresh build
  kStatsMismatch,        ///< stored deps_total/deps_kept/num_levels stale
  kRegimeTag,            ///< level_tags wrong length or unknown regime value
  kRunLayout,            ///< run layer does not match the items and waits
};

const char* diag_kind_name(DiagKind k) noexcept;

/// One verification finding, row-precise where the defect has rows attached:
/// fields that do not apply hold kInvalidIndex / -1.
struct ScheduleDiagnostic {
  DiagKind kind = DiagKind::kMalformed;
  index_t consumer_row = kInvalidIndex;  ///< row whose ordering is broken
  index_t producer_row = kInvalidIndex;  ///< row it depends on (if any)
  int consumer_thread = -1;
  int producer_thread = -1;
  index_t level = kInvalidIndex;  ///< consumer's level
  index_t item = kInvalidIndex;   ///< consumer's global item index
  std::string detail;

  std::string to_string() const;
};

/// Dependency-coverage accounting. Also quantifies the paper's
/// sparsification: deps_covered_transitive are exactly the cross-thread
/// dependencies the schedule orders without storing a wait for them.
struct VerifyStats {
  index_t items = 0;
  index_t levels = 0;
  index_t waits_total = 0;            ///< stored waits (== deps_kept when clean)
  index_t deps_external = 0;          ///< outside the scheduled set (by construction)
  index_t deps_same_thread = 0;       ///< covered by program order
  index_t deps_cross_thread = 0;
  index_t deps_covered_direct = 0;    ///< one of the item's own waits covers it
  index_t deps_covered_regime = 0;    ///< a hybrid sync point covers it (waits pruned)
  index_t deps_covered_transitive = 0;///< only the transitive publish order does
  index_t deps_uncovered = 0;         ///< latent data races
};

struct VerifyReport {
  std::vector<ScheduleDiagnostic> diagnostics;
  index_t suppressed = 0;  ///< findings beyond the diagnostic cap
  VerifyStats stats;

  bool ok() const noexcept { return diagnostics.empty() && suppressed == 0; }
  /// One-line human-readable digest (first few diagnostics when failing).
  std::string summary() const;
};

/// Analyze one schedule against the dependency enumeration it was built
/// with. Pure: never executes the schedule, never modifies it. The cap
/// bounds stored diagnostics so verifying a badly broken schedule stays
/// O(deps); findings beyond it are counted in `suppressed`.
VerifyReport verify_schedule(const ExecSchedule& s, const DepsFn& deps,
                             index_t max_diagnostics = 64);

/// Prove retargeting correct for team size `threads`: retarget(s, deps,
/// threads) must be field-for-field identical to a fresh build from the
/// retained level structure (kRetargetMismatch otherwise), and the
/// retargeted schedule must itself verify clean.
VerifyReport verify_retarget(const ExecSchedule& s, const DepsFn& deps,
                             int threads, index_t max_diagnostics = 64);

/// Assertion form used by the build/retarget paths when
/// IluOptions::verify_schedules is set: throws javelin::Error carrying the
/// report summary. `what` names the schedule ("fwd", "bwd retarget", ...).
void verify_schedule_or_throw(const ExecSchedule& s, const DepsFn& deps,
                              const char* what);

/// Prove the tail phase (exec/run.hpp) that runs behind schedule `s` — the
/// fused solve's SpMV chunks. Every (consumer, producer row) pair that
/// `tail_deps` yields for a chunk must be ordered before the chunk: by
/// program order (the chunk's thread executed the producer itself), by the
/// chunk's own waits or those of its thread's earlier chunks, or
/// transitively through the publish order of the items those waits reach —
/// the same vector clocks verify_schedule computes. A hybrid schedule's
/// tail runs after a team barrier, so its dependencies are regime-covered.
/// A gap is kUncoveredDependency naming the consumer and the producer row.
/// The schedule itself is verified too (its diagnostics are included); the
/// report's stats describe the tail only (items = chunks).
VerifyReport verify_tail(const ExecSchedule& s, const DepsFn& deps,
                         const ExecTail& tail, const TailDepsFn& tail_deps,
                         index_t max_diagnostics = 64);

/// Assertion form of verify_tail (IluOptions::verify_schedules).
void verify_tail_or_throw(const ExecSchedule& s, const DepsFn& deps,
                          const ExecTail& tail, const TailDepsFn& tail_deps,
                          const char* what);

}  // namespace javelin::verify
