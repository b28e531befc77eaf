// Property tests of the pluggable execution-backend layer (exec/):
//
//   * retarget(s, deps, T) is bitwise-identical — every schedule field — to
//     a fresh build at T, for T ∈ {1, 2, 4, 8}, forward and backward, and
//     the fused-SpMV companion rebuilt against a retargeted schedule equals
//     one built against a fresh schedule;
//   * a runtime team below the factor-time plan RETARGETS the solve paths
//     (the workspace cache fills for the real team) instead of degrading to
//     a serial sweep, and stays bitwise-identical to the serial reference;
//     there the raw fused pass refuses the companion of the plan's backward
//     schedule and runs one built for the runtime schedule bitwise; a
//     factor's non-default item granule carries into the retargeted
//     schedules;
//   * FusedIluOperator under a plan of 4 follows runtime teams 1-4 under
//     both backends, rebuilding its companion, bitwise against the serial
//     pair;
//   * the numeric phase follows the runtime team too: a refactor below the
//     plan fills f.numeric_cache's forward slot at that team and reproduces
//     the factor bitwise;
//   * one workspace applying two factors of different size re-plans for
//     each, in either order;
//   * the barrier (CSR-LS) backend is bitwise-identical to the P2P backend
//     and to the serial reference at every thread count, for ilu_apply, the
//     fused apply+SpMV, and full Krylov trajectories;
//   * flipping f.opts.exec_backend between two applies below the plan keeps
//     the workspace's retargeted schedules (the backend is not part of a
//     schedule) and gives bitwise-equal z;
//   * the forward schedule runs L's own levels (compute_level_sets_lower
//     of the factor; on a symmetric pattern the plan's levels, serial order
//     0 … n-1) and the backward schedule the plan's levels reversed (serial
//     order n-1 … 0, each level one contiguous row range), on every suite
//     and degenerate matrix;
//   * the P2P and barrier executors run exactly the (row, thread) pairs the
//     builder assigned, a level of at most chunk_rows rows runs on one
//     thread, and both branches run each tail chunk once, on its thread;
//   * barrier sweeps of n = 0, 1 and 3 rows at T = 8 run every row once, in
//     dependency order, on its builder thread, and every thread crosses
//     every level's barrier;
//   * the run layer (maximal runs: waits only on a run's first item, every
//     waited-for count a run end) the P2P executor walks holds for fwd and
//     bwd on every suite matrix at T in {2, 3, 4, 8}; a chain of one-row
//     levels collapses into a few runs;
//   * the fused companion of every retargeted schedule verifies clean.
#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "javelin/exec/run.hpp"
#include "javelin/gen/generators.hpp"
#include "javelin/graph/levels.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/verify/verify.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

template <class T>
bool vec_eq(const char* what, const std::vector<T>& a, const std::vector<T>& b) {
  if (a == b) return true;
  std::printf("  schedule field %s differs (%zu vs %zu entries)\n", what,
              a.size(), b.size());
  return false;
}

bool schedules_equal(const ExecSchedule& a, const ExecSchedule& b) {
  bool ok = a.threads == b.threads && a.n_total == b.n_total &&
            a.chunk_rows == b.chunk_rows && a.num_levels == b.num_levels &&
            a.deps_total == b.deps_total && a.deps_kept == b.deps_kept;
  if (!ok) std::printf("  schedule scalars differ\n");
  ok = vec_eq("thread_ptr", a.thread_ptr, b.thread_ptr) && ok;
  ok = vec_eq("item_ptr", a.item_ptr, b.item_ptr) && ok;
  ok = vec_eq("rows", a.rows, b.rows) && ok;
  ok = vec_eq("item_level", a.item_level, b.item_level) && ok;
  ok = vec_eq("wait_ptr", a.wait_ptr, b.wait_ptr) && ok;
  ok = vec_eq("wait_thread", a.wait_thread, b.wait_thread) && ok;
  ok = vec_eq("wait_count", a.wait_count, b.wait_count) && ok;
  ok = vec_eq("thread_run_ptr", a.thread_run_ptr, b.thread_run_ptr) && ok;
  ok = vec_eq("run_ptr", a.run_ptr, b.run_ptr) && ok;
  ok = vec_eq("level_ptr", a.level_ptr, b.level_ptr) && ok;
  ok = vec_eq("serial_order", a.serial_order, b.serial_order) && ok;
  return ok;
}

bool fused_equal(const FusedApplySpmv& a, const FusedApplySpmv& b) {
  bool ok = a.threads == b.threads && a.n == b.n &&
            a.chunk_rows == b.chunk_rows && a.deps_total == b.deps_total &&
            a.deps_kept == b.deps_kept;
  if (!ok) std::printf("  fused scalars differ\n");
  ok = vec_eq("fs.thread_ptr", a.thread_ptr, b.thread_ptr) && ok;
  ok = vec_eq("fs.chunk_begin", a.chunk_begin, b.chunk_begin) && ok;
  ok = vec_eq("fs.chunk_end", a.chunk_end, b.chunk_end) && ok;
  ok = vec_eq("fs.wait_ptr", a.wait_ptr, b.wait_ptr) && ok;
  ok = vec_eq("fs.wait_thread", a.wait_thread, b.wait_thread) && ok;
  ok = vec_eq("fs.wait_count", a.wait_count, b.wait_count) && ok;
  return ok;
}

/// A schedule cache no retargeted sweep has filled.
bool cache_empty(const ScheduleCache& c) {
  return c.fwd.level_ptr.empty() && c.bwd.level_ptr.empty();
}

/// Retargeting a factor's schedules must reproduce a fresh build at every
/// team size, for both directions and the fused companion.
void check_retarget_identity(const char* name, const CsrMatrix& a,
                             ExecBackend backend) {
  ThreadCountGuard guard(8);
  IluOptions opts;
  opts.num_threads = 8;
  opts.exec_backend = backend;
  opts.retarget_oversubscribed = false;
  Factorization f = ilu_factor(a, opts);

  const DepsFn low = lower_triangular_deps(f.lu);
  const DepsFn up = upper_triangular_deps(f.lu);
  for (int T : {1, 2, 4, 8}) {
    const ExecSchedule fresh_fwd =
        build_forward_schedule(f.lu, f.plan.level_ptr, f.plan.lower_only, T,
                               f.fwd.chunk_rows);
    const ExecSchedule fresh_bwd = build_backward_schedule(
        f.lu, f.plan.level_ptr, T, f.bwd.chunk_rows);
    CHECK_MSG(schedules_equal(retarget(f.fwd, low, T), fresh_fwd),
              "%s fwd retarget(%d)", name, T);
    CHECK_MSG(schedules_equal(retarget(f.bwd, up, T), fresh_bwd),
              "%s bwd retarget(%d)", name, T);
    const FusedApplySpmv fs = build_fused_apply_spmv(f, fresh_bwd, a);
    CHECK_MSG(fused_equal(build_fused_apply_spmv(f, retarget(f.bwd, up, T), a),
                          fs),
              "%s fused retarget(%d)", name, T);
    const verify::VerifyReport rep = verify::verify_tail(
        fresh_bwd, up, fs.tail(), fused_tail_deps(fs, f.plan, a));
    CHECK_MSG(rep.ok(), "%s fused tail T=%d: %s", name, T,
              rep.summary().c_str());
  }
  // Round trip back to the planned team reproduces the factor's own.
  CHECK_MSG(schedules_equal(retarget(retarget(f.fwd, low, 3), low, 8), f.fwd),
            "%s fwd retarget round trip", name);
}

/// A runtime team below the plan must RETARGET (cache fills for the real
/// team) and stay bitwise-identical to the serial reference. A team of one
/// runs the straight-line column solve, which builds no schedule. A factor
/// built at a non-default item granule (`chunk_rows` > 0) keeps it: the
/// retargeted schedules carry the factor's granule, not the default.
void check_runtime_retarget(const char* name, const CsrMatrix& a,
                            ExecBackend backend, index_t chunk_rows = 0) {
  Factorization f = [&] {
    ThreadCountGuard guard(4);
    IluOptions opts;
    opts.num_threads = 4;
    opts.exec_backend = backend;
    opts.p2p_chunk_rows = chunk_rows;
    opts.retarget_oversubscribed = false;  // isolate the runtime-team clamp
    return ilu_factor(a, opts);
  }();
  const auto r = random_vector(f.n(), 0xFACE);
  std::vector<value_t> z_ref(r.size());
  SolveWorkspace ws_ref;
  ilu_apply_serial(f, r, z_ref, ws_ref);

  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  std::vector<value_t> t_ref(r.size());
  spmv_serial(a, z_ref, t_ref);

  for (int team : {1, 2, 3}) {
    ThreadCountGuard guard(team);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
    CHECK_MSG(bitwise_equal(z, z_ref), "%s apply at runtime team %d", name,
              team);
    // The mismatch re-planned instead of walking the serial order: the
    // workspace's cached schedules target exactly the runtime team. A team
    // of one left the cache empty.
    if (team > 1) {
      CHECK_MSG(ws.sched.fwd.threads == team && ws.sched.bwd.threads == team,
                "%s cached schedules target %d/%d, want %d", name,
                ws.sched.fwd.threads, ws.sched.bwd.threads, team);
      if (chunk_rows > 0) {
        CHECK_MSG(ws.sched.fwd.chunk_rows == chunk_rows &&
                      ws.sched.bwd.chunk_rows == chunk_rows,
                  "%s cached granule %lld/%lld at team %d, want %lld", name,
                  static_cast<long long>(ws.sched.fwd.chunk_rows),
                  static_cast<long long>(ws.sched.bwd.chunk_rows), team,
                  static_cast<long long>(chunk_rows));
      }
    } else {
      CHECK_MSG(cache_empty(ws.sched), "%s team 1 filled the cache", name);
    }

    // Fused pass under the shrunk team. Above one it runs the backward
    // schedule retargeted through the workspace, so the companion of the
    // plan's schedule is refused, and one built for the runtime schedule
    // runs bitwise against the references. A team of one reads no chunk.
    std::vector<value_t> zf(r.size()), tf(r.size());
    SolveWorkspace wsf;
    if (team > 1) {
      bool threw = false;
      try {
        ilu_apply_spmv(f, a, fs, r, zf, tf, wsf);
      } catch (const Error&) {
        threw = true;
      }
      CHECK_MSG(threw, "%s plan companion accepted at team %d", name, team);
    }
    const FusedApplySpmv fsr =
        build_fused_apply_spmv(f, runtime_bwd(f, wsf.sched), a);
    CHECK_MSG(fsr.threads == team, "%s runtime companion team %d != %d", name,
              fsr.threads, team);
    ilu_apply_spmv(f, a, fsr, r, zf, tf, wsf);
    CHECK_MSG(bitwise_equal(zf, z_ref), "%s fused z at team %d", name, team);
    CHECK_MSG(bitwise_equal(tf, t_ref), "%s fused t at team %d", name, team);
  }
}

/// FusedIluOperator owns its companion: under a plan of 4 it follows the
/// runtime team down and back up, under both backends, rebuilding the
/// companion for each re-planned backward schedule, and matches the serial
/// pair bitwise at every team.
void check_operator_teams(const char* name, const CsrMatrix& a) {
  const auto r = random_vector(a.rows(), 0x0FE);
  const std::size_t un = static_cast<std::size_t>(a.rows());
  for (const ExecBackend backend : {ExecBackend::kP2P, ExecBackend::kBarrier}) {
    ThreadCountGuard plan_guard(4);
    IluOptions opts;
    opts.num_threads = 4;
    opts.exec_backend = backend;
    opts.retarget_oversubscribed = false;
    const FusedIluOperator op(a, opts);
    std::vector<value_t> z_ref(un), t_ref(un);
    SolveWorkspace ws_ref;
    ilu_apply_serial(op.factorization(), r, z_ref, ws_ref);
    spmv_serial(a, z_ref, t_ref);
    for (const int team : {1, 2, 3, 4, 2}) {
      ThreadCountGuard guard(team);
      std::vector<value_t> z(un), t(un);
      op.apply_spmv(r, z, t);
      CHECK_MSG(bitwise_equal(z, z_ref) && bitwise_equal(t, t_ref),
                "%s operator under %s at team %d", name,
                exec_backend_name(backend), team);
    }
  }
}

/// The numeric phase takes its team from runtime_team like every sweep: a
/// refactor at a team below the plan fills f.numeric_cache's forward slot at
/// that team, builds no backward schedule, and reproduces the planned-team
/// factor bitwise.
void check_numeric_retarget(const char* name, const CsrMatrix& a,
                            ExecBackend backend) {
  IluOptions opts;
  opts.num_threads = 4;
  opts.exec_backend = backend;
  opts.retarget_oversubscribed = false;
  Factorization f = [&] {
    ThreadCountGuard guard(4);
    return ilu_factor(a, opts);
  }();
  CHECK_MSG(cache_empty(f.numeric_cache),
            "%s planned-team factor filled the numeric cache", name);
  const std::vector<value_t> ref(f.lu.values().begin(), f.lu.values().end());
  for (const int team : {1, 2, 3}) {
    ThreadCountGuard guard(team);
    ilu_refactor(f, a);
    CHECK_MSG(!f.numeric_cache.fwd.level_ptr.empty() &&
                  f.numeric_cache.fwd.threads == team,
              "%s numeric cache holds team %d at team %d", name,
              f.numeric_cache.fwd.threads, team);
    CHECK_MSG(f.numeric_cache.bwd.level_ptr.empty(),
              "%s numeric phase built a backward schedule", name);
    CHECK_MSG(bitwise_equal(f.lu.values(), ref),
              "%s %s refactor at team %d", name, exec_backend_name(backend),
              team);
  }
}

/// One workspace applying two factors of different size at the same
/// retargeted team: each cache slot re-plans for the factor it sweeps, in
/// either order, so every apply matches its serial reference. A slot kept
/// on the team alone would sweep the first factor's schedules, past the
/// rows of a smaller second factor.
void check_workspace_reuse() {
  const CsrMatrix small = gen::laplacian2d(30, 30, 5);
  const CsrMatrix large = gen::laplacian2d(40, 40, 5);
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  Factorization fs, fl;
  {
    ThreadCountGuard guard(4);
    fs = ilu_factor(small, opts);
    fl = ilu_factor(large, opts);
  }
  ThreadCountGuard guard(2);
  for (const bool small_first : {true, false}) {
    SolveWorkspace ws;
    for (const Factorization* f :
         {small_first ? &fs : &fl, small_first ? &fl : &fs}) {
      const auto r = random_vector(f->n(), 0x2E5);
      std::vector<value_t> z(r.size()), z_ref(r.size());
      SolveWorkspace ws_ref;
      ilu_apply(*f, r, z, ws);
      ilu_apply_serial(*f, r, z_ref, ws_ref);
      CHECK_MSG(bitwise_equal(z, z_ref), "%s first: apply of n = %lld",
                small_first ? "small" : "large",
                static_cast<long long>(f->n()));
      CHECK_MSG(ws.sched.fwd.n_total == f->n() &&
                    ws.sched.bwd.n_total == f->n(),
                "%s first: cache holds n = %lld/%lld for n = %lld",
                small_first ? "small" : "large",
                static_cast<long long>(ws.sched.fwd.n_total),
                static_cast<long long>(ws.sched.bwd.n_total),
                static_cast<long long>(f->n()));
    }
  }
}

/// Default policy: a planned team that oversubscribes the hardware retargets
/// down to the core count; a matched team leaves the cache untouched, and
/// so does a team of one (the column solve builds no schedule).
void check_oversubscription_policy(const CsrMatrix& a) {
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;  // retarget_oversubscribed stays default (true)
  Factorization f = ilu_factor(a, opts);
  const int hw = hardware_cores();
  const int expected = hw > 0 ? std::min(4, hw) : 4;

  const auto r = random_vector(f.n(), 0xB00);
  std::vector<value_t> z(r.size()), z_ref(r.size());
  SolveWorkspace ws, ws_ref;
  ilu_apply(f, r, z, ws);
  ilu_apply_serial(f, r, z_ref, ws_ref);
  CHECK(bitwise_equal(z, z_ref));
  if (expected == 4 || expected == 1) {
    CHECK_MSG(cache_empty(ws.sched),
              "a matched team or a team of one must not fill the cache");
  } else {
    CHECK_MSG(ws.sched.fwd.threads == expected &&
                  ws.sched.bwd.threads == expected,
              "oversubscribed plan retargets to %d, cache says %d/%d",
              expected, ws.sched.fwd.threads, ws.sched.bwd.threads);
  }
}

/// Barrier (CSR-LS) backend: bitwise-identical to P2P and to the serial
/// reference at every thread count, standalone and fused.
void check_backend_parity(const char* name, const CsrMatrix& a, int threads) {
  ThreadCountGuard guard(threads);
  IluOptions opts;
  opts.num_threads = threads;
  opts.retarget_oversubscribed = false;

  opts.exec_backend = ExecBackend::kP2P;
  FusedIluOperator p2p(a, opts);
  opts.exec_backend = ExecBackend::kBarrier;
  FusedIluOperator ls(a, opts);
  CHECK(ls.factorization().opts.exec_backend == ExecBackend::kBarrier);

  const auto r = random_vector(a.rows(), 0xC5A);
  const std::size_t un = static_cast<std::size_t>(a.rows());
  std::vector<value_t> z_p(un), z_b(un), z_s(un), t_p(un), t_b(un);
  p2p.apply_spmv(r, z_p, t_p);
  ls.apply_spmv(r, z_b, t_b);
  SolveWorkspace ws;
  ilu_apply_serial(p2p.factorization(), r, z_s, ws);
  CHECK_MSG(bitwise_equal(z_b, z_p), "%s z barrier vs p2p (t=%d)", name,
            threads);
  CHECK_MSG(bitwise_equal(z_b, z_s), "%s z barrier vs serial (t=%d)", name,
            threads);
  CHECK_MSG(bitwise_equal(t_b, t_p), "%s t barrier vs p2p (t=%d)", name,
            threads);

  // Full PCG trajectories must coincide exactly.
  const auto b = random_vector(a.rows(), 0x51D);
  SolverOptions sopts;
  sopts.max_iterations = 120;
  sopts.tolerance = 1e-10;
  std::vector<value_t> x_p(un, 0), x_b(un, 0);
  const SolverResult rp = pcg(a, b, x_p, p2p.fn(), sopts);
  const SolverResult rb = pcg(a, b, x_b, ls.fn(), sopts);
  CHECK_MSG(rp.iterations == rb.iterations &&
                rp.relative_residual == rb.relative_residual,
            "%s pcg it %d/%d res %.17g/%.17g", name, rp.iterations,
            rb.iterations, rp.relative_residual, rb.relative_residual);
  CHECK_MSG(bitwise_equal(x_p, x_b), "%s pcg solution p2p vs barrier (t=%d)",
            name, threads);
}

/// Co-design (paper §III): the forward sweep and the numeric phase run L's
/// own levels — f.fwd's level_ptr and serial_order are those of
/// compute_level_sets_lower(f.lu), which on a symmetric pattern are the
/// plan's levels with serial_order 0 … n-1. The backward sweep runs the
/// plan's levels last to first with rows descending, so level j of f.bwd is
/// plan level L-1-j, serial_order is n-1 … 0 and every level is one
/// contiguous row range. Returns 0 for a symmetric pattern, 1 for an
/// unsymmetric one on the plan's level count, 2 for one on fewer levels.
int check_sweep_levels(const std::string& name, const CsrMatrix& a) {
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  const Factorization f = ilu_prepare(a, opts);
  const std::vector<index_t>& plan_ptr = f.plan.level_ptr;
  const index_t n = f.n();
  const std::size_t L = plan_ptr.size() - 1;
  const LevelSets own = compute_level_sets_lower(f.lu);
  CHECK_MSG(f.fwd.num_levels == own.num_levels() &&
                f.fwd.level_ptr == own.level_ptr &&
                f.fwd.serial_order == own.rows_by_level,
            "%s fwd levels (%lld) are not L's own %lld", name.c_str(),
            static_cast<long long>(f.fwd.num_levels),
            static_cast<long long>(own.num_levels()));
  const bool symmetric = pattern_symmetric(a);
  if (symmetric) {
    bool plan_ok = f.fwd.level_ptr == plan_ptr &&
                   f.fwd.serial_order.size() == static_cast<std::size_t>(n);
    for (index_t k = 0; plan_ok && k < n; ++k) {
      plan_ok = f.fwd.serial_order[static_cast<std::size_t>(k)] == k;
    }
    CHECK_MSG(plan_ok, "%s: symmetric pattern, but fwd is not the %zu plan "
              "levels over 0 .. n-1", name.c_str(), L);
  }
  bool levels_ok = f.bwd.num_levels == static_cast<index_t>(L) &&
                   f.bwd.level_ptr.size() == plan_ptr.size();
  for (std::size_t j = 0; levels_ok && j <= L; ++j) {
    levels_ok = f.bwd.level_ptr[j] == n - plan_ptr[L - j];
  }
  CHECK_MSG(levels_ok, "%s bwd levels (%lld) are not the %zu plan levels "
            "reversed", name.c_str(), static_cast<long long>(f.bwd.num_levels),
            L);
  bool order_ok = f.bwd.serial_order.size() == static_cast<std::size_t>(n);
  for (index_t k = 0; order_ok && k < n; ++k) {
    order_ok = f.bwd.serial_order[static_cast<std::size_t>(k)] == n - 1 - k;
  }
  CHECK_MSG(order_ok, "%s bwd serial_order is not n-1 .. 0", name.c_str());
  if (symmetric) return 0;
  return f.fwd.num_levels < static_cast<index_t>(L) ? 2 : 1;
}

/// Both executor branches must run exactly the (row, thread) pairs the
/// builder assigned (producer_positions). A level of at most chunk_rows rows
/// is one item on one thread.
void check_executor_slices(const char* name, const CsrMatrix& a) {
  IluOptions opts;
  opts.num_threads = 2;
  opts.p2p_chunk_rows = 4;  // several items per level on the small fixtures
  opts.retarget_oversubscribed = false;
  const Factorization f = ilu_prepare(a, opts);
  const struct {
    const char* dir;
    const ExecSchedule& s;
    DepsFn deps;
  } sweeps[] = {{"fwd", f.fwd, lower_triangular_deps(f.lu)},
                {"bwd", f.bwd, upper_triangular_deps(f.lu)}};
  for (const auto& sw : sweeps) {
    for (int T : {2, 3, 4, 8}) {
      ThreadCountGuard guard(T);
      const ExecSchedule base = retarget(sw.s, sw.deps, T);
      std::vector<index_t> owner, item_of;
      base.producer_positions(owner, item_of);
      const auto L = static_cast<std::size_t>(base.num_levels);
      for (std::size_t l = 0; l < L; ++l) {
        std::vector<index_t> owners;
        for (index_t k = base.level_ptr[l]; k < base.level_ptr[l + 1]; ++k) {
          owners.push_back(owner[static_cast<std::size_t>(
              base.serial_order[static_cast<std::size_t>(k)])]);
        }
        const bool one_thread =
            std::adjacent_find(owners.begin(), owners.end(),
                               std::not_equal_to<>()) == owners.end();
        if (base.level_ptr[l + 1] - base.level_ptr[l] <= base.chunk_rows) {
          CHECK_MSG(one_thread, "%s %s T=%d level %zu of <= %lld rows split",
                    name, sw.dir, T, l,
                    static_cast<long long>(base.chunk_rows));
        }
      }
      for (const ExecBackend backend :
           {ExecBackend::kP2P, ExecBackend::kBarrier}) {
        const ExecSchedule& s = base;
        const char* mode = exec_backend_name(backend);
        std::vector<index_t> ran(static_cast<std::size_t>(s.n_total),
                                 kInvalidIndex);
        ProgressCounters progress;
        const ExecStatus st = exec_run(
            s, backend,
            [&](index_t row, int t) { ran[static_cast<std::size_t>(row)] = t; },
            progress);
        CHECK(st.ok());
        // A wait-free tail of two chunks per thread: every chunk runs once,
        // on its own thread, in both branches.
        std::vector<index_t> tail_ptr(static_cast<std::size_t>(T) + 1);
        for (int t = 0; t <= T; ++t) {
          tail_ptr[static_cast<std::size_t>(t)] = 2 * static_cast<index_t>(t);
        }
        const std::vector<index_t> no_waits(static_cast<std::size_t>(2 * T) + 1,
                                            0);
        std::vector<int> chunk_ran(static_cast<std::size_t>(2 * T), -1);
        std::vector<int> chunk_runs(static_cast<std::size_t>(2 * T), 0);
        const ExecStatus tst = exec_run(
            s, backend, [](index_t, int) {},
            ExecTail{tail_ptr, no_waits, {}, {}},
            [&](index_t c, int t) {
              chunk_ran[static_cast<std::size_t>(c)] = t;
              ++chunk_runs[static_cast<std::size_t>(c)];
            },
            progress);
        CHECK(tst.ok());
        bool tail_ok = true;
        for (index_t c = 0; c < 2 * T; ++c) {
          tail_ok = tail_ok && chunk_runs[static_cast<std::size_t>(c)] == 1 &&
                    chunk_ran[static_cast<std::size_t>(c)] == c / 2;
        }
        CHECK_MSG(tail_ok, "%s %s %s T=%d tail chunks off their threads",
                  name, sw.dir, mode, T);
        bool same = true;
        for (index_t k : s.serial_order) {
          const auto r = static_cast<std::size_t>(k);
          same = same && ran[r] == owner[r];
        }
        CHECK_MSG(same, "%s %s %s T=%d ran rows off the builder's threads",
                  name, sw.dir, mode, T);
      }
    }
  }
}

/// Barrier sweeps far narrower than a team of 8: n = 0, n = 1, and 3 rows
/// where rows 0 and 1 feed row 2 (two levels; with one-row items level 0
/// runs on threads 0 and 1, level 1 on thread 0). Threads with no item at a
/// level still cross its barrier. Every row runs once, on the thread the
/// builder gave it, after its dependencies — plain and instrumented.
void check_tiny_barrier_sweeps() {
  constexpr int T = 8;
  ThreadCountGuard guard(T);
  for (const index_t n : {0, 1, 3}) {
    std::vector<index_t> rp{0}, ci;
    std::vector<value_t> vv;
    for (index_t r = 0; r < n; ++r) {
      if (r == 2) {
        ci.insert(ci.end(), {0, 1});
        vv.insert(vv.end(), {0.5, 0.25});
      }
      ci.push_back(r);
      vv.push_back(1.0);
      rp.push_back(static_cast<index_t>(ci.size()));
    }
    const CsrMatrix m(n, n, std::move(rp), std::move(ci), std::move(vv));
    const DepsFn deps = lower_triangular_deps(m);
    const LevelSets ls = compute_level_sets_lower(m);
    const ExecSchedule s = build_exec_schedule(
        n, ls.level_ptr, ls.rows_by_level, deps, T, /*chunk_rows=*/1);
    const verify::VerifyReport rep = verify::verify_schedule(s, deps);
    CHECK_MSG(rep.ok(), "n=%d: %s", static_cast<int>(n),
              rep.summary().c_str());
    std::vector<index_t> owner, item_of;
    s.producer_positions(owner, item_of);
    // x[r] = 1 + Σ a_rc x[c] over r's dependencies (the diagonal is each
    // row's last entry). NaN marks a row not yet run, so a row run before
    // its inputs reads NaN.
    const auto eval = [&m](std::vector<value_t>& x, index_t r) {
      value_t acc = 1.0;
      const auto cols = m.row_cols(r);
      const auto vals = m.row_vals(r);
      for (std::size_t k = 0; k + 1 < cols.size(); ++k) {
        acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
      }
      x[static_cast<std::size_t>(r)] = acc;
    };
    const auto un = static_cast<std::size_t>(n);
    std::vector<value_t> ref(un);
    for (index_t r = 0; r < n; ++r) eval(ref, r);
    for (const bool instrumented : {false, true}) {
      std::vector<value_t> x(un, std::numeric_limits<value_t>::quiet_NaN());
      std::vector<index_t> ran(un, kInvalidIndex);
      std::vector<int> runs(un, 0);
      const auto row = [&](index_t r, int t) {
        eval(x, r);
        ran[static_cast<std::size_t>(r)] = t;
        ++runs[static_cast<std::size_t>(r)];
      };
      ProgressCounters progress;
      obs::ExecObs eo;
      const ExecStatus st =
          instrumented ? exec_run_obs(s, ExecBackend::kBarrier, row, progress,
                                      eo, obs::Region::kForward)
                       : exec_run(s, ExecBackend::kBarrier, row, progress);
      CHECK(st.ok());
      bool same = bitwise_equal(x, ref);
      for (std::size_t r = 0; r < un; ++r) {
        same = same && runs[r] == 1 && ran[r] == owner[r];
      }
      CHECK_MSG(same, "n=%d T=%d %s barrier sweep off the builder's rows",
                static_cast<int>(n), T,
                instrumented ? "instrumented" : "plain");
      if (instrumented) {
        const obs::ExecStats& es = eo.stats(obs::Region::kForward);
        CHECK_MSG(es.total.barrier_waits ==
                      static_cast<std::uint64_t>(T) *
                          static_cast<std::uint64_t>(s.num_levels),
                  "n=%d: %llu barrier crossings for %d levels",
                  static_cast<int>(n),
                  static_cast<unsigned long long>(es.total.barrier_waits),
                  static_cast<int>(s.num_levels));
      }
    }
  }
}

/// The run layer of `s`, checked independently of the builder: the runs
/// partition each thread's items in order, only a run's first item has a
/// wait list, every count a wait names ends a run, and the runs are maximal
/// (each boundary is forced by a wait list or a named count). Empty = ok.
std::string run_layer_defect(const ExecSchedule& s) {
  const auto uz = [](index_t i) { return static_cast<std::size_t>(i); };
  const int T = s.threads;
  if (s.thread_run_ptr.size() != uz(T) + 1 || s.run_ptr.empty() ||
      s.thread_run_ptr.back() != s.num_runs()) {
    return "run arrays are not sized per thread and run";
  }
  std::vector<char> named(uz(s.num_items()), 0);
  for (std::size_t w = 0; w < s.wait_thread.size(); ++w) {
    named[uz(s.thread_ptr[uz(s.wait_thread[w])] + s.wait_count[w] - 1)] = 1;
  }
  std::vector<char> ends(uz(s.num_items()), 0);
  for (int t = 0; t < T; ++t) {
    index_t next = s.thread_ptr[uz(t)];
    for (index_t r = s.thread_run_ptr[uz(t)]; r < s.thread_run_ptr[uz(t) + 1];
         ++r) {
      const index_t i0 = s.run_ptr[uz(r)];
      const index_t i1 = s.run_ptr[uz(r) + 1];
      if (i0 != next || i1 <= i0 || i1 > s.thread_ptr[uz(t) + 1]) {
        return "runs of thread " + std::to_string(t) +
               " do not partition its items in order";
      }
      for (index_t i = i0 + 1; i < i1; ++i) {
        if (s.wait_ptr[uz(i) + 1] > s.wait_ptr[uz(i)]) {
          return "item " + std::to_string(i) + " inside a run has waits";
        }
      }
      ends[uz(i1) - 1] = 1;
      next = i1;
    }
    if (next != s.thread_ptr[uz(t) + 1]) {
      return "runs of thread " + std::to_string(t) + " miss items";
    }
    for (index_t i = s.thread_ptr[uz(t)]; i + 1 < s.thread_ptr[uz(t) + 1];
         ++i) {
      if (ends[uz(i)] != 0 && named[uz(i)] == 0 &&
          s.wait_ptr[uz(i) + 2] == s.wait_ptr[uz(i) + 1]) {
        return "run ending at item " + std::to_string(i) + " is not maximal";
      }
    }
  }
  for (std::size_t i = 0; i < named.size(); ++i) {
    if (named[i] != 0 && ends[i] == 0) {
      return "a wait names item " + std::to_string(i) + " inside a run";
    }
  }
  return {};
}

/// The run layer holds on the forward and backward schedules at every team.
void check_run_layer(const std::string& name, const CsrMatrix& a) {
  IluOptions opts;
  opts.num_threads = 2;
  opts.retarget_oversubscribed = false;
  opts.verify_schedules = false;
  const Factorization f = ilu_prepare(a, opts);
  const struct {
    const char* dir;
    const ExecSchedule& s;
    DepsFn deps;
  } sweeps[] = {{"fwd", f.fwd, lower_triangular_deps(f.lu)},
                {"bwd", f.bwd, upper_triangular_deps(f.lu)}};
  for (const auto& sw : sweeps) {
    for (int T : {2, 3, 4, 8}) {
      const std::string defect = run_layer_defect(retarget(sw.s, sw.deps, T));
      CHECK_MSG(defect.empty(), "%s %s T=%d: %s", name.c_str(), sw.dir, T,
                defect.c_str());
    }
  }
}

}  // namespace

int main() {
  CsrMatrix grid = gen::laplacian2d(24, 24, 5);
  CsrMatrix chain = gen::long_chain(1400, 10, 4, 3);
  CsrMatrix fem = gen::random_fem(1000, 8, 21, 0.02);
  // Unsymmetric: L's own levels, not the plan's, drive the forward schedule.
  CsrMatrix circ = gen::circuit(1000, 5.5, 17, /*symmetric_pattern=*/false, 7);

  check_retarget_identity("grid", grid, ExecBackend::kP2P);
  check_retarget_identity("grid-ls", grid, ExecBackend::kBarrier);
  check_retarget_identity("chain", chain, ExecBackend::kP2P);
  check_retarget_identity("fem", fem, ExecBackend::kP2P);
  check_retarget_identity("circuit-unsym", circ, ExecBackend::kP2P);
  check_retarget_identity("circuit-unsym-ls", circ, ExecBackend::kBarrier);

  check_runtime_retarget("grid", grid, ExecBackend::kP2P);
  check_runtime_retarget("grid-ls", grid, ExecBackend::kBarrier);
  check_runtime_retarget("chain", chain, ExecBackend::kP2P);
  check_runtime_retarget("circuit-unsym", circ, ExecBackend::kP2P);
  check_runtime_retarget("circuit-unsym-ls", circ, ExecBackend::kBarrier);
  check_runtime_retarget("chain-c16", chain, ExecBackend::kP2P, 16);
  check_runtime_retarget("chain-c16-ls", chain, ExecBackend::kBarrier, 16);

  check_oversubscription_policy(grid);

  check_operator_teams("grid", grid);
  check_operator_teams("circuit-unsym", circ);
  check_numeric_retarget("grid", grid, ExecBackend::kP2P);
  check_numeric_retarget("circuit-unsym-ls", circ, ExecBackend::kBarrier);
  check_workspace_reuse();

  gen::SuiteOptions small;
  small.scale = 0.02;
  {
    int symmetric = 0;
    int shallower = 0;
    for (const std::string& name : gen::suite_names()) {
      const int kind =
          check_sweep_levels(name, gen::make_suite_matrix(name, small).matrix);
      symmetric += kind == 0 ? 1 : 0;
      shallower += kind == 2 ? 1 : 0;
    }
    for (const std::string& name : gen::degenerate_names()) {
      check_sweep_levels(name, gen::make_suite_matrix(name, small).matrix);
    }
    CHECK_MSG(symmetric > 0 && shallower > 0,
              "suite: %d symmetric patterns, %d with fewer forward levels "
              "than plan levels",
              symmetric, shallower);
  }
  check_executor_slices("grid", grid);
  check_executor_slices("chain", chain);
  check_executor_slices("fem", fem);
  check_executor_slices("circuit-unsym", circ);
  check_tiny_barrier_sweeps();
  for (const std::string& name : gen::suite_names()) {
    check_run_layer(name, gen::make_suite_matrix(name, small).matrix);
  }
  // A chain of one-row levels: the backward sweep's 1,200 items sit on one
  // thread with nothing to wait for, so they collapse into a few runs.
  {
    const CsrMatrix deep = gen::long_chain(1200, 12, 4, 5);
    check_run_layer("long_chain", deep);
    IluOptions opts;
    opts.num_threads = 2;
    opts.retarget_oversubscribed = false;
    const Factorization f = ilu_prepare(deep, opts);
    for (int T : {2, 4}) {
      const ExecSchedule bwd = retarget(f.bwd, upper_triangular_deps(f.lu), T);
      CHECK_MSG(bwd.num_items() == 1200 && bwd.num_runs() <= 4,
                "long_chain bwd T=%d: %lld items in %lld runs", T,
                static_cast<long long>(bwd.num_items()),
                static_cast<long long>(bwd.num_runs()));
    }
  }

  for (int threads : {1, 2, 4}) {
    check_backend_parity("grid", grid, threads);
    check_backend_parity("fem", fem, threads);
  }

  // Backend flip: one factor, both backends, one workspace. With OpenMP at
  // 2 below the plan's 4 the sweeps run the workspace's retargeted
  // schedules. The backend is the option every region reads, not part of a
  // schedule, so the flip keeps those schedules (the same row arrays) and
  // z is bitwise unchanged.
  {
    ThreadCountGuard guard(2);
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    Factorization f = ilu_factor(grid, opts);
    const auto r = random_vector(f.n(), 0xF11);
    std::vector<value_t> z1(r.size()), z2(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z1, ws);
    CHECK_MSG(ws.sched.fwd.threads == 2 && ws.sched.bwd.threads == 2,
              "cache holds team %d/%d at omp=2", ws.sched.fwd.threads,
              ws.sched.bwd.threads);
    const index_t* fwd_rows = ws.sched.fwd.rows.data();
    const index_t* bwd_rows = ws.sched.bwd.rows.data();
    f.opts.exec_backend = ExecBackend::kBarrier;
    ilu_apply(f, r, z2, ws);
    CHECK_MSG(bitwise_equal(z1, z2), "backend flip below the plan");
    CHECK_MSG(ws.sched.fwd.rows.data() == fwd_rows &&
                  ws.sched.bwd.rows.data() == bwd_rows,
              "backend flip rebuilt the retargeted schedules");
  }

  return javelin::test::finish("test_exec");
}
