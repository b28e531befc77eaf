#include "javelin/tune/tune.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "javelin/ilu/solve.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/verify/verify.hpp"

namespace javelin::tune {

std::string TuneCandidate::name() const {
  if (threads <= 1) return "serial";
  std::string s = exec_backend_name(backend);
  s += "/t" + std::to_string(threads);
  if (chunk_rows > 0) s += "/c" + std::to_string(chunk_rows);
  return s;
}

namespace {

/// The policy state a candidate mutates — schedules, backend, team override.
/// Numeric values, plan, permutation and symbolic data never move.
struct PolicySnapshot {
  ExecSchedule fwd;
  ExecSchedule bwd;
  ExecBackend backend;
  int tuned_threads;
};

PolicySnapshot snap_policy(const Factorization& f) {
  return {f.fwd, f.bwd, f.opts.exec_backend, f.opts.tuned_threads};
}

void restore_policy(Factorization& f, const PolicySnapshot& s) {
  f.fwd = s.fwd;
  f.bwd = s.bwd;
  f.opts.exec_backend = s.backend;
  f.opts.tuned_threads = s.tuned_threads;
}

/// Install one candidate on a factor currently holding its pristine policy.
/// Retarget caches (f.numeric_cache, workspaces) key on team and granule,
/// so they follow without a reset.
void apply_candidate(Factorization& f, const TuneCandidate& c) {
  f.opts.exec_backend = c.backend;
  if (c.chunk_rows > 0 && (f.fwd.chunk_rows != c.chunk_rows ||
                           f.bwd.chunk_rows != c.chunk_rows)) {
    // A different blocking granule re-chunks the retained level structure —
    // the same cheap path retarget() uses, bitwise-neutral by the standing
    // schedule contract.
    f.fwd = build_exec_schedule(f.fwd.n_total, f.fwd.level_ptr,
                                f.fwd.serial_order, lower_triangular_deps(f.lu),
                                f.fwd.threads, c.chunk_rows);
    f.bwd = build_exec_schedule(f.bwd.n_total, f.bwd.level_ptr,
                                f.bwd.serial_order, upper_triangular_deps(f.lu),
                                f.bwd.threads, c.chunk_rows);
  }
  f.opts.tuned_threads = c.threads;
  if (f.opts.verify_schedules) {
    verify::verify_schedule_or_throw(f.fwd, lower_triangular_deps(f.lu),
                                     "tune fwd");
    verify::verify_schedule_or_throw(f.bwd, upper_triangular_deps(f.lu),
                                     "tune bwd");
  }
}

/// Time the candidate currently installed on `f`: one warm-up sweep (builds
/// the retarget caches, touches the pages) then the min over `reps` real
/// ilu_apply calls on a fixed deterministic right-hand side.
double measure_candidate(Factorization& f, int reps) {
  const index_t n = f.n();
  std::vector<value_t> r(static_cast<std::size_t>(n));
  std::vector<value_t> z(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    r[static_cast<std::size_t>(i)] = 1.0 + 0.125 * static_cast<double>(i % 7);
  }
  SolveWorkspace ws;
  ilu_apply(f, r, z, ws);
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < std::max(1, reps); ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    ilu_apply(f, r, z, ws);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::vector<TuneCandidate> make_grid(const Factorization& f,
                                     const TuneOptions& o) {
  std::vector<TuneCandidate> grid;
  grid.push_back(TuneCandidate{ExecBackend::kP2P, 1, 0});  // "serial"
  const int cap = std::max(1, o.max_threads > 0 ? o.max_threads
                                                : f.plan.threads);
  std::vector<int> teams;
  for (int t = 2; t < cap; t *= 2) teams.push_back(t);
  if (cap > 1) teams.push_back(cap);
  std::vector<index_t> chunks;
  chunks.push_back(0);  // the factor's own granule first (the tie-break)
  for (index_t c : o.chunk_candidates) {
    if (c > 0) chunks.push_back(c);
  }
  for (int t : teams) {
    for (index_t c : chunks) {
      grid.push_back(TuneCandidate{ExecBackend::kP2P, t, c});
      grid.push_back(TuneCandidate{ExecBackend::kBarrier, t, c});
    }
  }
  return grid;
}

}  // namespace

TuneContext make_context(const Factorization& f) {
  TuneContext ctx;
  ctx.n = f.n();
  ctx.nnz = f.lu.nnz();
  ctx.plan_threads = f.plan.threads;
  ctx.fwd_levels = f.fwd.num_levels;
  ctx.bwd_levels = f.bwd.num_levels;
  ctx.fwd_mean_rows_per_level = f.fwd.mean_rows_per_level();
  ctx.bwd_mean_rows_per_level = f.bwd.mean_rows_per_level();
  return ctx;
}

CostModelFn deterministic_cost_model() {
  return [](const TuneContext& ctx, const TuneCandidate& c) -> double {
    const double work =
        static_cast<double>(ctx.nnz) + 4.0 * static_cast<double>(ctx.n);
    const double t = static_cast<double>(c.threads < 1 ? 1 : c.threads);
    const double levels =
        static_cast<double>(ctx.fwd_levels + ctx.bwd_levels);
    double cost = work / t;
    if (c.threads > 1) {
      // Synchronization toll grows with the team; a barrier costs more than
      // a sparsified wait round.
      const double per_sync =
          c.backend == ExecBackend::kBarrier ? 48.0 : 16.0;
      cost += levels * per_sync * t;
      // Narrow levels starve wide teams: charge the serialized remainder.
      const double mean =
          0.5 * (ctx.fwd_mean_rows_per_level + ctx.bwd_mean_rows_per_level);
      if (mean < t) cost += 0.25 * work * (1.0 - mean / t);
    }
    if (c.chunk_rows > 0) {
      // Stable tie-break: prefer the factor's own granule on equal cost.
      cost += 1.0 + 1e-3 * static_cast<double>(c.chunk_rows);
    }
    return cost;
  };
}

TuneReport autotune(Factorization& f, const TuneOptions& topt) {
  const TuneContext ctx = make_context(f);
  const std::vector<TuneCandidate> grid = make_grid(f, topt);
  const PolicySnapshot snap = snap_policy(f);
  TuneReport rep;
  rep.measured.reserve(grid.size());
  try {
    for (const TuneCandidate& c : grid) {
      double sec;
      if (topt.cost_model) {
        sec = topt.cost_model(ctx, c);
      } else {
        restore_policy(f, snap);
        apply_candidate(f, c);
        sec = measure_candidate(f, topt.reps);
      }
      rep.measured.push_back(TuneMeasurement{c, sec});
      if (c.threads <= 1) rep.serial_seconds = sec;
    }
    // Winner: strictly-better beats earlier entries, ties keep the EARLIEST
    // (serial is first), so equal-cost grids degrade to the simplest policy.
    std::size_t best = 0;
    for (std::size_t i = 1; i < rep.measured.size(); ++i) {
      if (rep.measured[i].seconds < rep.measured[best].seconds) best = i;
    }
    rep.chosen = rep.measured[best].cand;
    rep.chosen_seconds = rep.measured[best].seconds;
    restore_policy(f, snap);
    apply_candidate(f, rep.chosen);
  } catch (...) {
    restore_policy(f, snap);
    throw;
  }
  rep.applied = true;
  return rep;
}

void TuneReport::export_metrics(obs::MetricsRegistry& reg) const {
  const auto ns = [](double s) {
    return s > 0.0 ? static_cast<std::uint64_t>(s * 1e9) : 0;
  };
  reg.add("tune.candidates", static_cast<std::uint64_t>(measured.size()));
  reg.add("tune.applied", applied ? 1 : 0);
  reg.add("tune.chosen_threads", static_cast<std::uint64_t>(chosen.threads));
  reg.add("tune.chosen_barrier",
          chosen.backend == ExecBackend::kBarrier ? 1 : 0);
  reg.add("tune.chosen_chunk_rows",
          static_cast<std::uint64_t>(chosen.chunk_rows));
  reg.add("tune.chosen_ns", ns(chosen_seconds));
  reg.add("tune.serial_ns", ns(serial_seconds));
}

}  // namespace javelin::tune
