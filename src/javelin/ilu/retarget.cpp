// Runtime schedule retargeting: when the team a sweep can actually use
// differs from the factor-time plan — the user dialed omp_set_num_threads
// down after factoring, or the planned team would oversubscribe the
// hardware — the solve paths re-plan the schedules for the real team
// instead of degrading to a serial sweep. This is the first concrete slice
// of the ROADMAP thread-count-autotuning item: the plan's permutation and
// level structure are reused untouched, only the (level, thread) slicing
// and the sparsified waits are rebuilt, bitwise-identical to a fresh build
// at the new team (test_exec).
#include <algorithm>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/support/spinwait.hpp"
#include "javelin/verify/verify.hpp"

namespace javelin {

ScheduleCache::ScheduleCache() = default;
ScheduleCache::ScheduleCache(ScheduleCache&&) noexcept = default;
ScheduleCache& ScheduleCache::operator=(ScheduleCache&&) noexcept = default;
ScheduleCache::~ScheduleCache() = default;

// Retargeted schedules are derived scratch: a copied factor/workspace starts
// with an empty cache and rebuilds on first mismatch.
ScheduleCache::ScheduleCache(const ScheduleCache&) : ScheduleCache() {}
ScheduleCache& ScheduleCache::operator=(const ScheduleCache&) {
  threads = 0;
  fwd = ExecSchedule{};
  bwd = ExecSchedule{};
  fused.reset();
  fused_matrix = nullptr;
  fused_cols = nullptr;
  fused_nnz = 0;
  return *this;
}

int runtime_team(const Factorization& f) {
  const int planned =
      f.opts.tuned_threads > 0 ? f.opts.tuned_threads : f.plan.threads;
  int t = std::min(planned, max_threads());
  if (f.opts.retarget_oversubscribed) {
    const int hw = hardware_cores();
    if (hw > 0) t = std::min(t, hw);
  }
  return std::max(1, t);
}

namespace {

void ensure_cache(const Factorization& f, ScheduleCache& cache, int team) {
  // Rebuild on a team change AND on any policy flip — backend or item
  // granule — the autotuner (or set_exec_backend) may apply between sweeps
  // that share this cache.
  if (cache.threads == team && cache.fwd.backend == f.fwd.backend &&
      cache.bwd.backend == f.bwd.backend &&
      cache.fwd.chunk_rows == f.fwd.chunk_rows &&
      cache.bwd.chunk_rows == f.bwd.chunk_rows) {
    return;
  }
  // Both directions move together: a sweep pair (forward then backward)
  // must agree on the team, and the fused companion hangs off bwd.
  cache.fwd = retarget(f.fwd, lower_triangular_deps(f.lu), team);
  cache.bwd = retarget(f.bwd, upper_triangular_deps(f.lu), team);
  if (f.opts.verify_schedules) {
    verify::verify_schedule_or_throw(cache.fwd, lower_triangular_deps(f.lu),
                                     "fwd retarget");
    verify::verify_schedule_or_throw(cache.bwd, upper_triangular_deps(f.lu),
                                     "bwd retarget");
  }
  cache.fused.reset();
  cache.fused_matrix = nullptr;
  cache.fused_cols = nullptr;
  cache.fused_nnz = 0;
  cache.threads = team;
}

}  // namespace

const ExecSchedule& runtime_fwd(const Factorization& f, ScheduleCache& cache) {
  const int team = runtime_team(f);
  if (team == f.fwd.threads) return f.fwd;
  ensure_cache(f, cache, team);
  return cache.fwd;
}

const ExecSchedule& runtime_bwd(const Factorization& f, ScheduleCache& cache) {
  const int team = runtime_team(f);
  if (team == f.bwd.threads) return f.bwd;
  ensure_cache(f, cache, team);
  return cache.bwd;
}

void set_exec_backend(Factorization& f, ExecBackend backend) {
  // Both backends share one schedule structure (the wait lists are built for
  // either), so a flip is just the tag. Workspace caches notice the new
  // backend in ensure_cache and rebuild.
  f.opts.exec_backend = backend;
  f.fwd.backend = backend;
  f.bwd.backend = backend;
  f.numeric_cache.fwd.backend = backend;
  f.numeric_cache.bwd.backend = backend;
}

}  // namespace javelin
