// Property tests of the batched many-RHS path (ilu/batch.hpp,
// solver/batch.hpp): a batched solve of k right-hand sides must be bitwise
// equal to k independent serial-reference solves (ilu_apply_serial) at
// every thread count, under both exec backends; entry validation of every
// apply entry point must throw instead of reading or writing out of
// bounds; WorkspacePool must serve concurrent streams on one shared
// factorization; and pcg_many over k columns must reproduce its own k = 1
// runs (scalar pcg) per column.
#include <algorithm>
#include <atomic>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/solver/batch.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

/// n×k column-major panel with deterministic pseudo-random entries.
std::vector<value_t> random_panel(index_t n, index_t k, std::uint64_t seed) {
  std::vector<value_t> panel;
  panel.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    const auto col = random_vector(n, seed + static_cast<std::uint64_t>(j));
    panel.insert(panel.end(), col.begin(), col.end());
  }
  return panel;
}

std::span<value_t> panel_col(std::vector<value_t>& p, index_t n, index_t j) {
  return std::span<value_t>(p).subspan(
      static_cast<std::size_t>(j) * static_cast<std::size_t>(n),
      static_cast<std::size_t>(n));
}

/// Batched vs k-independent-serial-reference parity for one matrix under one
/// (threads, backend) configuration, across panel widths that exercise the
/// widths fixed once per call (8/4/2/1), the per-row block split of other
/// widths, and both branches of ilu_apply_panel: the column split
/// (k >= team, including one column per thread and uneven groups) and the
/// scheduled row-parallel sweep (k < team). Returns the k = 8 panel result
/// for cross-configuration comparison.
std::vector<value_t> check_batch_parity(const char* name, const CsrMatrix& a,
                                        IluOptions opts) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const Factorization f = ilu_factor(a, opts);
  SolveWorkspace ws_scalar, ws_panel;
  std::vector<value_t> k8_result;

  for (index_t k : {index_t{1}, index_t{2}, index_t{3}, index_t{4}, index_t{8},
                    index_t{17}}) {
    const std::size_t nk = un * static_cast<std::size_t>(k);
    std::vector<value_t> r = random_panel(n, k, 0xBA7C4 + static_cast<std::uint64_t>(k));

    // Reference: k independent serial applies.
    std::vector<value_t> z_ref(nk);
    for (index_t j = 0; j < k; ++j) {
      ilu_apply_serial(f, panel_col(r, n, j), panel_col(z_ref, n, j),
                       ws_scalar);
    }

    // Scheduled panel apply.
    std::vector<value_t> z(nk, 0);
    ilu_apply_panel(f, r, z, k, ws_panel);
    CHECK_MSG(bitwise_equal(z, z_ref), "%s panel vs serial (T=%d k=%d)", name,
              opts.num_threads, static_cast<int>(k));

    // solve_many splits k = 17 into panels of 8, 8 and 1; still bitwise.
    std::vector<value_t> z_many(nk, 0);
    solve_many(f, r, z_many, k, ws_panel);
    CHECK_MSG(bitwise_equal(z_many, z_ref), "%s solve_many (T=%d k=%d)", name,
              opts.num_threads, static_cast<int>(k));

    // Workspace reuse at a different width must not perturb results.
    std::vector<value_t> z2(nk, 0);
    ilu_apply_panel(f, r, z2, k, ws_panel);
    CHECK(bitwise_equal(z2, z_ref));

    if (k == 8) k8_result = std::move(z);
  }
  return k8_result;
}

/// One workspace serving panel, scalar and panel applies in turn keeps its
/// n×k panel (the scalar resize grows only) and every result stays bitwise
/// equal to a workspace that only ever served one kind.
void check_mixed_workspace(const CsrMatrix& a) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const index_t k = 8;
  const std::size_t nk = un * static_cast<std::size_t>(k);
  const Factorization f = ilu_factor(a, {});
  std::vector<value_t> r = random_panel(n, k, 0xA17E);

  SolveWorkspace ws_panel, ws_scalar;
  std::vector<value_t> zp_ref(nk), zs_ref(un);
  ilu_apply_panel(f, r, zp_ref, k, ws_panel);
  ilu_apply(f, panel_col(r, n, 0), zs_ref, ws_scalar);

  SolveWorkspace ws;
  std::vector<value_t> zp(nk), zs(un);
  ilu_apply_panel(f, r, zp, k, ws);
  CHECK_MSG(bitwise_equal(zp, zp_ref), "mixed workspace: first panel");
  ilu_apply(f, panel_col(r, n, 0), zs, ws);
  CHECK_MSG(bitwise_equal(zs, zs_ref), "mixed workspace: scalar");
  CHECK_MSG(ws.x.size() >= nk, "scalar apply shrank the panel: %zu < %zu",
            ws.x.size(), nk);
  std::fill(zp.begin(), zp.end(), 0);
  ilu_apply_panel(f, r, zp, k, ws);
  CHECK_MSG(bitwise_equal(zp, zp_ref), "mixed workspace: second panel");
  CHECK(ws.x.size() >= nk);
}

void check_validation(const CsrMatrix& a) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const Factorization f = ilu_factor(a, {});
  SolveWorkspace ws;
  std::vector<value_t> r(un * 4), z(un * 4);

  const auto throws = [](auto&& fn) {
    try {
      fn();
    } catch (const Error&) {
      return true;
    }
    return false;
  };
  CHECK(throws([&] { ilu_apply_panel(f, r, z, 0, ws); }));
  CHECK(throws([&] { ilu_apply_panel(f, r, z, -3, ws); }));
  CHECK(throws([&] { ilu_apply_panel(f, std::span<const value_t>(r).first(un * 2), z, 4, ws); }));
  CHECK(throws([&] { ilu_apply_panel(f, r, std::span<value_t>(z).first(un * 3), 4, ws); }));
  CHECK(throws([&] { solve_many(f, r, z, 0, ws); }));
  CHECK(throws([&] { solve_many(f, std::span<const value_t>(r).first(un), z, 4, ws); }));

  // Single-vector entry points: a span one entry short of n throws before
  // any sweep reads or writes it.
  const std::span<const value_t> r1 = std::span<const value_t>(r).first(un);
  const std::span<const value_t> r_short = r1.first(un - 1);
  const std::span<value_t> z1 = std::span<value_t>(z).first(un);
  const std::span<value_t> z_short = z1.first(un - 1);
  std::vector<value_t> t(un);
  const std::span<value_t> t_short = std::span<value_t>(t).first(un - 1);
  // The companion serves the backward schedule the runtime team sweeps,
  // which differs from the plan's where the cores clamp the team.
  const FusedApplySpmv fs =
      build_fused_apply_spmv(f, runtime_bwd(f, ws.sched), a);
  CHECK(throws([&] { ilu_apply(f, r_short, z1, ws); }));
  CHECK(throws([&] { ilu_apply(f, r1, z_short, ws); }));
  CHECK(throws([&] { ilu_apply_serial(f, r1, z_short, ws); }));
  CHECK(throws([&] { ilu_apply_spmv(f, a, fs, r_short, z1, t, ws); }));
  CHECK(throws([&] { ilu_apply_spmv(f, a, fs, r1, z_short, t, ws); }));
  CHECK(throws([&] { ilu_apply_spmv(f, a, fs, r1, z1, t_short, ws); }));
  CHECK(throws([&] { trsv_forward(f, z_short, ws); }));
  CHECK(throws([&] { trsv_backward(f, z_short, ws); }));
  CHECK(throws([&] { trsv_forward_serial(f, z_short); }));
  CHECK(throws([&] { trsv_backward_serial(f, z_short); }));
  // Full-length spans still solve.
  ilu_apply(f, r1, z1, ws);
  ilu_apply_spmv(f, a, fs, r1, z1, t, ws);
  CHECK(throws([&] {
    std::vector<value_t> b(un * 2), x(un * 2);
    pcg_many(a, b, x, 4, identity_panel_preconditioner());
  }));
  CHECK(throws([&] {
    std::vector<value_t> b(un), x(un);
    pcg_many(a, b, x, 0, identity_panel_preconditioner());
  }));
}

/// pcg_many over k columns at the team opts.num_threads against k scalar
/// pcg runs (pcg_many at k = 1) on one thread, on the same factorization.
/// k >= the team takes the panel apply's column split, k < the team its
/// scheduled sweeps.
void check_pcg_many(const char* name, const CsrMatrix& a, IluOptions opts,
                    index_t k) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const Factorization f = ilu_factor(a, opts);
  SolverOptions sopts;
  sopts.max_iterations = 300;
  sopts.tolerance = 1e-10;

  std::vector<value_t> b = random_panel(n, k, 0x5EED);
  // Column 1 scaled up (retires at a different iteration), the last column
  // zero (exercises the bnorm == 0 immediate-converge path).
  const std::size_t last = static_cast<std::size_t>(k - 1) * un;
  for (std::size_t i = 0; i < un; ++i) b[un + i] *= 1e3;
  for (std::size_t i = 0; i < un; ++i) b[last + i] = 0;

  // Scalar reference trajectories on the SAME factorization, preconditioned
  // by the serial reference apply. One thread: the oracle opens no OpenMP
  // region, which keeps the test cheap when ctest runs it beside another
  // multi-threaded test.
  SolveWorkspace ws_scalar;
  const PrecondFn scalar_m = [&](std::span<const value_t> r,
                                 std::span<value_t> z) {
    ilu_apply_serial(f, r, z, ws_scalar);
  };
  std::vector<value_t> x_ref(un * static_cast<std::size_t>(k), 0);
  std::vector<SolverResult> res_ref;
  {
    ThreadCountGuard serial(1);
    for (index_t j = 0; j < k; ++j) {
      res_ref.push_back(
          pcg(a, panel_col(b, n, j), panel_col(x_ref, n, j), scalar_m, sopts));
    }
  }

  // The whole batched solve (panel apply, SpMV, vector ops) at the team.
  ThreadCountGuard team(opts.num_threads);
  WorkspacePool pool;
  std::vector<value_t> x(un * static_cast<std::size_t>(k), 0);
  const std::vector<SolverResult> res =
      pcg_many(a, b, x, k, ilu_panel_preconditioner(f, pool), sopts);

  CHECK(res.size() == static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    const SolverResult& rj = res[static_cast<std::size_t>(j)];
    const SolverResult& sj = res_ref[static_cast<std::size_t>(j)];
    CHECK_MSG(rj.iterations == sj.iterations && rj.converged == sj.converged &&
                  rj.stop == sj.stop,
              "%s col %d: many it=%d conv=%d stop=%s vs scalar it=%d conv=%d "
              "stop=%s",
              name, static_cast<int>(j), rj.iterations, rj.converged,
              to_string(rj.stop), sj.iterations, sj.converged,
              to_string(sj.stop));
    CHECK_MSG(rj.relative_residual == sj.relative_residual,
              "%s col %d residual %.17g vs %.17g", name, static_cast<int>(j),
              rj.relative_residual, sj.relative_residual);
  }
  CHECK_MSG(bitwise_equal(x, x_ref),
            "%s pcg_many solutions (T=%d backend=%d k=%d)", name,
            opts.num_threads, static_cast<int>(opts.exec_backend),
            static_cast<int>(k));
  CHECK_MSG(res[0].converged && res[1].converged,
            "%s pcg_many converged (res0=%.3g res1=%.3g)", name,
            res[0].relative_residual, res[1].relative_residual);
}

void check_workspace_pool(const CsrMatrix& a) {
  const index_t n = a.rows();
  const std::size_t un = static_cast<std::size_t>(n);
  const Factorization f = ilu_factor(a, {});
  WorkspacePool pool;

  // Leases are exclusive and return their workspace on release.
  {
    auto l1 = pool.acquire();
    auto l2 = pool.acquire();
    CHECK(&*l1 != &*l2);
    CHECK(pool.idle() == 0);
  }
  CHECK(pool.idle() == 2);
  {
    auto l3 = pool.acquire();  // recycles, no new allocation needed
    CHECK(pool.idle() == 1);
  }
  CHECK(pool.idle() == 2);

  // Concurrent serving streams on ONE factorization: every stream leases its
  // own workspace, solves a private panel, and must reproduce the reference
  // bitwise — interleaving cannot leak state across streams.
  const index_t k = 6;
  const std::size_t nk = un * static_cast<std::size_t>(k);
  std::vector<value_t> r = random_panel(n, k, 0xC0FFEE);
  std::vector<value_t> z_ref(nk, 0);
  solve_many(f, r, z_ref, k);

  const int streams = 4;
  std::atomic<int> mismatches{0};
#pragma omp parallel num_threads(streams)
  {
#pragma omp for schedule(static)
    for (int s = 0; s < streams * 4; ++s) {
      std::vector<value_t> z(nk, 0);
      solve_many(f, r, z, k, pool);
      if (!bitwise_equal(z, z_ref)) mismatches.fetch_add(1);
    }
  }
  CHECK_MSG(mismatches.load() == 0, "%d stream(s) diverged", mismatches.load());
  CHECK(pool.idle() >= 1);  // the streams' workspaces were returned
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(24, 24, 5);
  CsrMatrix fem = gen::random_fem(800, 8, 21, 0.02);
  CsrMatrix chain = gen::long_chain(1200, 10, 4, 3);
  CsrMatrix cube = gen::laplacian3d(10, 10, 10, 7);
  CsrMatrix aniso = gen::anisotropic3d(10, 10, 10, 0.1, 0.01);
  CsrMatrix jump = gen::jump3d(10, 10, 10, 3, 1e3, 77);
  gen::make_diagonally_dominant(fem);
  gen::make_diagonally_dominant(chain);

  struct Entry {
    const char* name;
    const CsrMatrix* a;
  };
  const Entry entries[] = {{"grid", &grid}, {"fem", &fem},    {"chain", &chain},
                           {"cube", &cube}, {"aniso", &aniso}, {"jump", &jump}};

  // Batched parity across thread counts and both backends; panel results
  // must also be bitwise-identical ACROSS configurations.
  for (const Entry& e : entries) {
    std::vector<value_t> ref;
    for (ExecBackend backend : {ExecBackend::kP2P, ExecBackend::kBarrier}) {
      for (int threads : {1, 2, 4, 8}) {
        IluOptions opts;
        opts.num_threads = threads;
        opts.exec_backend = backend;
        opts.retarget_oversubscribed = false;  // planned-width schedules
        std::vector<value_t> z = check_batch_parity(e.name, *e.a, opts);
        if (ref.empty()) {
          ref = std::move(z);
        } else {
          CHECK_MSG(bitwise_equal(z, ref),
                    "%s panel across configs (backend=%d T=%d)", e.name,
                    static_cast<int>(backend), threads);
        }
      }
    }
  }

  check_validation(grid);
  check_mixed_workspace(fem);

  for (ExecBackend backend : {ExecBackend::kP2P, ExecBackend::kBarrier}) {
    for (int threads : {1, 2, 4}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.exec_backend = backend;
      opts.retarget_oversubscribed = false;
      check_pcg_many("grid", grid, opts, 5);
      check_pcg_many("jump", jump, opts, 5);
    }
    IluOptions opts;
    opts.num_threads = 4;
    opts.exec_backend = backend;
    opts.retarget_oversubscribed = false;
    check_pcg_many("grid", grid, opts, 3);
    check_pcg_many("jump", jump, opts, 3);
  }

  check_workspace_pool(grid);

  return javelin::test::finish("test_batch");
}
