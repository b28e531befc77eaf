// Property tests of the pluggable execution-backend layer (exec/):
//
//   * retarget(s, deps, T) is bitwise-identical — every schedule field — to
//     a fresh build at T, for T ∈ {1, 2, 4, 8}, forward and backward, and
//     the fused-SpMV companion rebuilt against a retargeted schedule equals
//     one built against a fresh schedule;
//   * a runtime team below the factor-time plan RETARGETS the solve paths
//     (the workspace cache fills for the real team) instead of degrading to
//     a serial sweep, and stays bitwise-identical to the serial reference;
//   * the barrier (CSR-LS) backend is bitwise-identical to the P2P backend
//     and to the serial reference at every thread count, for ilu_apply, the
//     fused apply+SpMV, and full Krylov trajectories;
//   * set_exec_backend flips a factor between backends in place;
//   * the backward schedule runs the plan's own levels reversed, each one
//     contiguous row range, serial order n-1 … 0, on every suite matrix;
//   * the barrier and hybrid executors run exactly the (row, thread) pairs
//     the builder assigned, a level of at most chunk_rows rows runs on one
//     thread, and every branch runs each tail chunk once, on its thread;
//   * the run layer (maximal runs: waits only on a run's first item, every
//     waited-for count a run end) the P2P executor walks holds for fwd and
//     bwd on every suite matrix at T in {2, 3, 4, 8}; a chain of one-row
//     levels collapses into a few runs;
//   * the fused companion of every retargeted schedule verifies clean.
#include <algorithm>
#include <functional>
#include <string>

#include "javelin/exec/run.hpp"
#include "javelin/gen/generators.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/solver/krylov.hpp"
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
  bool ok = a.backend == b.backend && a.threads == b.threads &&
            a.n_total == b.n_total && a.chunk_rows == b.chunk_rows &&
            a.num_levels == b.num_levels && a.deps_total == b.deps_total &&
            a.deps_kept == b.deps_kept;
  if (!ok) std::printf("  schedule scalars differ\n");
  ok = vec_eq("thread_ptr", a.thread_ptr, b.thread_ptr) && ok;
  ok = vec_eq("item_ptr", a.item_ptr, b.item_ptr) && ok;
  ok = vec_eq("rows", a.rows, b.rows) && ok;
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
    const ExecSchedule fresh_fwd = build_upper_forward_schedule(
        f.lu, f.plan.upper_level_ptr, backend, T, f.fwd.chunk_rows);
    const ExecSchedule fresh_bwd =
        build_backward_schedule(f.lu, f.plan.upper_level_ptr,
                                f.plan.lower_level_ptr, backend, T,
                                f.bwd.chunk_rows);
    CHECK_MSG(schedules_equal(retarget(f.fwd, low, T), fresh_fwd),
              "%s fwd retarget(%d)", name, T);
    CHECK_MSG(schedules_equal(retarget(f.bwd, up, T), fresh_bwd),
              "%s bwd retarget(%d)", name, T);
    const FusedApplySpmv fs = build_fused_apply_spmv(fresh_bwd, f.plan, a);
    CHECK_MSG(fused_equal(build_fused_apply_spmv(retarget(f.bwd, up, T),
                                                 f.plan, a),
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
/// team) and stay bitwise-identical to the serial reference.
void check_runtime_retarget(const char* name, const CsrMatrix& a,
                            ExecBackend backend) {
  Factorization f = [&] {
    ThreadCountGuard guard(4);
    IluOptions opts;
    opts.num_threads = 4;
    opts.exec_backend = backend;
    opts.retarget_oversubscribed = false;  // isolate the runtime-team clamp
    return ilu_factor(a, opts);
  }();
  const auto r = random_vector(f.n(), 0xFACE);
  std::vector<value_t> z_ref(r.size());
  SolveWorkspace ws_ref;
  ilu_apply_serial(f, r, z_ref, ws_ref);

  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  const RowPartition part = RowPartition::build(a, 1);
  std::vector<value_t> t_ref(r.size());
  spmv(a, part, z_ref, t_ref);

  for (int team : {1, 2, 3}) {
    ThreadCountGuard guard(team);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
    CHECK_MSG(bitwise_equal(z, z_ref), "%s apply at runtime team %d", name,
              team);
    // The mismatch re-planned instead of walking the serial order: the
    // workspace cache targets exactly the runtime team.
    CHECK_MSG(ws.sched.threads == team, "%s cache team %d != %d", name,
              ws.sched.threads, team);
    CHECK_MSG(ws.sched.fwd.threads == team && ws.sched.bwd.threads == team,
              "%s cached schedules target %d/%d, want %d", name,
              ws.sched.fwd.threads, ws.sched.bwd.threads, team);

    // Fused pass under the shrunk team: bitwise against the references and
    // retargeted chunk structure for team > 1.
    std::vector<value_t> zf(r.size()), tf(r.size());
    SolveWorkspace wsf;
    ilu_apply_spmv(f, a, fs, r, zf, tf, wsf);
    CHECK_MSG(bitwise_equal(zf, z_ref), "%s fused z at team %d", name, team);
    CHECK_MSG(bitwise_equal(tf, t_ref), "%s fused t at team %d", name, team);
    if (team > 1) {
      CHECK_MSG(wsf.sched.fused && wsf.sched.fused->threads == team,
                "%s fused chunks retargeted to %d", name, team);
    }
  }
}

/// Default policy: a planned team that oversubscribes the hardware retargets
/// down to the core count; a matched team leaves the cache untouched.
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
  if (expected == 4) {
    CHECK_MSG(ws.sched.threads == 0, "matched team must not fill the cache");
  } else {
    CHECK_MSG(ws.sched.threads == expected,
              "oversubscribed plan retargets to %d, cache says %d", expected,
              ws.sched.threads);
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
  CHECK(ls.factorization().fwd.backend == ExecBackend::kBarrier);

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

/// Co-design (paper §III): the backward sweep runs the plan's levels —
/// upper, then moved — last to first with rows descending, so level j of
/// f.bwd is plan level L-1-j, one contiguous row range, and serial_order is
/// n-1 … 0.
void check_bwd_on_plan_levels(const std::string& name, const CsrMatrix& a) {
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  const Factorization f = ilu_prepare(a, opts);
  std::vector<index_t> plan_ptr = f.plan.upper_level_ptr;
  for (std::size_t k = 1; k < f.plan.lower_level_ptr.size(); ++k) {
    plan_ptr.push_back(f.plan.n_upper + f.plan.lower_level_ptr[k]);
  }
  const index_t n = f.n();
  const std::size_t L = plan_ptr.size() - 1;
  bool levels_ok = f.bwd.num_levels == static_cast<index_t>(L) &&
                   f.bwd.level_ptr.size() == plan_ptr.size();
  for (std::size_t j = 0; levels_ok && j <= L; ++j) {
    levels_ok = f.bwd.level_ptr[j] == n - plan_ptr[L - j];
  }
  CHECK_MSG(levels_ok, "%s bwd levels (%lld) are not the %zu plan levels "
            "reversed", name.c_str(), static_cast<long long>(f.bwd.num_levels),
            L);
  // Descending consecutive rows: every level is a contiguous row range.
  bool order_ok = f.bwd.serial_order.size() == static_cast<std::size_t>(n);
  for (index_t k = 0; order_ok && k < n; ++k) {
    order_ok = f.bwd.serial_order[static_cast<std::size_t>(k)] == n - 1 - k;
  }
  CHECK_MSG(order_ok, "%s bwd serial_order is not n-1 .. 0", name.c_str());
}

/// Every executor branch must run exactly the (row, thread) pairs the
/// builder assigned (producer_positions): kBarrier and hybrid re-derive
/// their slices at run time, so this pins them to the builder's layout.
/// Serial-regime levels run on thread 0. A level of at most chunk_rows rows
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
      std::vector<std::uint8_t> tags(L);
      std::vector<index_t> level_of(static_cast<std::size_t>(base.n_total),
                                    kInvalidIndex);
      for (std::size_t l = 0; l < L; ++l) {
        tags[l] = static_cast<std::uint8_t>(l % 3);  // P2P, barrier, serial
        std::vector<index_t> owners;
        for (index_t k = base.level_ptr[l]; k < base.level_ptr[l + 1]; ++k) {
          const auto r =
              static_cast<std::size_t>(base.serial_order[static_cast<std::size_t>(k)]);
          level_of[r] = static_cast<index_t>(l);
          owners.push_back(owner[r]);
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
      for (const char* mode : {"p2p", "barrier", "hybrid"}) {
        ExecSchedule s = base;
        const bool hybrid = mode[0] == 'h';
        if (mode[0] == 'b') s.backend = ExecBackend::kBarrier;
        if (hybrid) apply_level_tags(s, tags);
        std::vector<index_t> ran(static_cast<std::size_t>(s.n_total),
                                 kInvalidIndex);
        const ExecStatus st = exec_run(s, [&](index_t row, int t) {
          ran[static_cast<std::size_t>(row)] = t;
        });
        CHECK(st.ok());
        // A wait-free tail of two chunks per thread: every chunk runs once,
        // on its own thread, in every branch.
        std::vector<index_t> tail_ptr(static_cast<std::size_t>(T) + 1);
        for (int t = 0; t <= T; ++t) {
          tail_ptr[static_cast<std::size_t>(t)] = 2 * static_cast<index_t>(t);
        }
        const std::vector<index_t> no_waits(static_cast<std::size_t>(2 * T) + 1,
                                            0);
        std::vector<int> chunk_ran(static_cast<std::size_t>(2 * T), -1);
        std::vector<int> chunk_runs(static_cast<std::size_t>(2 * T), 0);
        ProgressCounters progress;
        const ExecStatus tst = exec_run(
            s, [](index_t, int) {}, ExecTail{tail_ptr, no_waits, {}, {}},
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
          const bool serial =
              hybrid && tags[static_cast<std::size_t>(level_of[r])] ==
                            static_cast<std::uint8_t>(LevelRegime::kSerial);
          same = same && ran[r] == (serial ? 0 : owner[r]);
        }
        CHECK_MSG(same, "%s %s %s T=%d ran rows off the builder's threads",
                  name, sw.dir, mode, T);
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

  check_retarget_identity("grid", grid, ExecBackend::kP2P);
  check_retarget_identity("grid-ls", grid, ExecBackend::kBarrier);
  check_retarget_identity("chain", chain, ExecBackend::kP2P);
  check_retarget_identity("fem", fem, ExecBackend::kP2P);

  check_runtime_retarget("grid", grid, ExecBackend::kP2P);
  check_runtime_retarget("grid-ls", grid, ExecBackend::kBarrier);
  check_runtime_retarget("chain", chain, ExecBackend::kP2P);

  check_oversubscription_policy(grid);

  gen::SuiteOptions small;
  small.scale = 0.02;
  for (const std::string& name : gen::suite_names()) {
    check_bwd_on_plan_levels(name, gen::make_suite_matrix(name, small).matrix);
  }
  check_executor_slices("grid", grid);
  check_executor_slices("chain", chain);
  check_executor_slices("fem", fem);
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

  // In-place backend flip: one factor, both backends, one workspace.
  {
    ThreadCountGuard guard(4);
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    Factorization f = ilu_factor(grid, opts);
    const auto r = random_vector(f.n(), 0xF11);
    std::vector<value_t> z1(r.size()), z2(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z1, ws);
    set_exec_backend(f, ExecBackend::kBarrier);
    CHECK(f.bwd.backend == ExecBackend::kBarrier);
    ilu_apply(f, r, z2, ws);
    CHECK(bitwise_equal(z1, z2));
  }

  return javelin::test::finish("test_exec");
}
