// Adversarial self-test for the schedule verifier: seeded single-defect
// mutations of a correct ExecSchedule, one per defect class the analyzer
// claims to catch. test_verify applies each mutation and asserts the
// verifier flags it with row-precise diagnostics — the analyzer is itself
// tested adversarially, mirroring how test_robust fault-injects the exec
// path.
//
// Wait-level mutations (drop / weaken / redirect) have a subtlety: the
// builder prunes same-consumer-thread redundancy but NOT redundancy through
// third-thread chains, so a stored wait CAN be transitively covered and
// dropping it is then behavior-preserving — no defect to detect. Those
// mutations therefore search candidate sites (seed-deterministically) for a
// LOAD-BEARING wait, using the verifier itself as the oracle, and commit
// the first mutation that actually breaks coverage. At least one such site
// exists in any schedule with cross-thread dependencies: the first wait in
// topological order has nothing before it to cover its dependency.
#pragma once

#include <cstdint>
#include <string>

#include "javelin/exec/schedule.hpp"
#include "javelin/support/types.hpp"

namespace javelin::verify {

enum class Mutation {
  kDropWait,           ///< remove a load-bearing stored wait
  kWeakenWait,         ///< decrement a load-bearing wait's count
  kRedirectWait,       ///< point a load-bearing wait at the wrong thread
  kMoveRowAcrossLevel, ///< shift a level_ptr boundary by one row
  kDuplicateRow,       ///< one row executed twice, another lost
  kCorruptWaitCount,   ///< count beyond the producer's item count
  kMoveWaitsInRun,     ///< move a run's wait list onto a later item of it
  kRetagItemLevel,     ///< tag one item with a neighbouring level
};

inline constexpr Mutation kAllMutations[] = {
    Mutation::kDropWait,           Mutation::kWeakenWait,
    Mutation::kRedirectWait,       Mutation::kMoveRowAcrossLevel,
    Mutation::kDuplicateRow,       Mutation::kCorruptWaitCount,
    Mutation::kMoveWaitsInRun,     Mutation::kRetagItemLevel,
};

const char* mutation_name(Mutation m) noexcept;

struct MutationResult {
  bool applied = false;            ///< false: schedule has no valid site
  index_t consumer_row = kInvalidIndex;  ///< row whose ordering broke
  index_t producer_row = kInvalidIndex;  ///< counterpart row, if meaningful
  std::string detail;              ///< what was mutated, for test logs
};

/// Apply one seeded mutation in place. `deps` must be the enumeration the
/// schedule was built with (the drop/weaken/redirect search verifies
/// candidates against it). Deterministic for a given (schedule, m, seed).
/// Mutations keep the stored stats consistent where they can, and every
/// class but kMoveWaitsInRun rebuilds the run layer (build_run_layer), so
/// the verifier's finding is the SEMANTIC defect, not bookkeeping drift;
/// kMoveWaitsInRun leaves the layer stale on purpose — that is its defect.
MutationResult apply_mutation(ExecSchedule& s, Mutation m, const DepsFn& deps,
                              std::uint64_t seed);

}  // namespace javelin::verify
