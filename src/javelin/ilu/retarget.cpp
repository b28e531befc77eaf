// Runtime schedule retargeting: when the team a region can actually use
// differs from the factor-time plan — the user dialed omp_set_num_threads
// down after factoring, or the planned team would oversubscribe the
// hardware — the numeric phase and the solve paths re-plan the schedules
// for the real team instead of degrading to a serial sweep. The plan's
// permutation and level structure are reused untouched; only the (level,
// thread) slicing and the sparsified waits are rebuilt, bitwise-identical
// to a fresh build at the new team (test_exec).
#include <algorithm>

#include "javelin/ilu/factorization.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/support/spinwait.hpp"
#include "javelin/verify/verify.hpp"

namespace javelin {

int runtime_team(const Factorization& f) {
  int t = std::min(f.plan.threads, max_threads());
  if (f.opts.retarget_oversubscribed) {
    const int hw = hardware_cores();
    if (hw > 0) t = std::min(t, hw);
  }
  return std::max(1, t);
}

namespace {

/// `src` re-planned for `team` in the cache slot `entry`. A retargeted
/// schedule is a function of its source's levels, the team and the item
/// granule (not the backend), so the slot is rebuilt only when it was filled
/// at another team or granule — a team change, or a factor schedule
/// reassigned at another granule since (nothing in the library re-chunks a
/// built factor; a caller may) — or from a source of another shape (a
/// workspace moved to another factor). One slot per direction: the numeric
/// phase, which sweeps forward only, builds no backward schedule.
const ExecSchedule& cached_retarget(const Factorization& f,
                                    const ExecSchedule& src,
                                    const DepsFn& deps, int team,
                                    ExecSchedule& entry, const char* what) {
  if (entry.threads != team || entry.chunk_rows != src.chunk_rows ||
      entry.n_total != src.n_total ||
      entry.level_ptr.size() != src.level_ptr.size()) {
    entry = retarget(src, deps, team);
    if (f.opts.verify_schedules) {
      verify::verify_schedule_or_throw(entry, deps, what);
    }
  }
  return entry;
}

}  // namespace

const ExecSchedule& runtime_fwd(const Factorization& f, ScheduleCache& cache) {
  const int team = runtime_team(f);
  if (team == f.fwd.threads) return f.fwd;
  return cached_retarget(f, f.fwd, lower_triangular_deps(f.lu), team,
                         cache.fwd, "fwd retarget");
}

const ExecSchedule& runtime_bwd(const Factorization& f, ScheduleCache& cache) {
  const int team = runtime_team(f);
  if (team == f.bwd.threads) return f.bwd;
  return cached_retarget(f, f.bwd, upper_triangular_deps(f.lu), team,
                         cache.bwd, "bwd retarget");
}

}  // namespace javelin
