// Property tests of the fused solve+SpMV path: ilu_apply_spmv must be
// bitwise-identical to the unfused operator (ilu_apply followed by a
// partitioned spmv) and to the serial reference (ilu_apply_serial followed
// by spmv_serial) at every thread count, and the restructured Krylov
// drivers must produce bitwise-identical trajectories whether they consume
// the fused or the unfused operator. The SpMV runs as the backward region's
// tail under both executor branches (P2P and barrier), a companion left
// stale by a re-chunked backward schedule is refused, and so is an operator
// without the partition the drivers' own SpMVs run over.
#include "javelin/gen/generators.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

/// Fused vs unfused operator outputs for one matrix at one thread count;
/// returns the fused (z, t) pair for cross-thread-count comparison.
std::pair<std::vector<value_t>, std::vector<value_t>> check_operator_parity(
    const char* name, const CsrMatrix& a, IluOptions opts) {
  FusedIluOperator fused(a, opts);
  const auto r = random_vector(a.rows(), 0xF00D);
  const std::size_t un = static_cast<std::size_t>(a.rows());

  std::vector<value_t> z_f(un), t_f(un), z_u(un), t_u(un);
  fused.apply_spmv(r, z_f, t_f);

  // Unfused reference: the same factorization applied as two kernel calls.
  const RowPartition part = RowPartition::build(a);
  fused.apply(r, z_u);
  spmv(a, part, z_u, t_u);

  CHECK_MSG(bitwise_equal(z_f, z_u), "%s z fused vs unfused (threads=%d)",
            name, opts.num_threads);
  CHECK_MSG(bitwise_equal(t_f, t_u), "%s t fused vs unfused (threads=%d)",
            name, opts.num_threads);

  // Serial reference: the independent apply and multiply.
  std::vector<value_t> z_s(un), t_s(un);
  SolveWorkspace ws_s;
  ilu_apply_serial(fused.factorization(), r, z_s, ws_s);
  spmv_serial(a, z_s, t_s);
  CHECK_MSG(bitwise_equal(z_f, z_s) && bitwise_equal(t_f, t_s),
            "%s fused vs serial reference (threads=%d)", name,
            opts.num_threads);

  // Workspace reuse must not perturb results.
  std::vector<value_t> z2(un), t2(un);
  fused.apply_spmv(r, z2, t2);
  CHECK(bitwise_equal(z2, z_f));
  CHECK(bitwise_equal(t2, t_f));
  return {std::move(z_f), std::move(t_f)};
}

void check_solver_parity(const char* name, const CsrMatrix& a, bool spd,
                         IluOptions opts, std::vector<value_t>* x_across) {
  const auto b = random_vector(a.rows(), 0x5EED);
  const std::size_t un = static_cast<std::size_t>(a.rows());
  SolverOptions sopts;
  sopts.max_iterations = 200;
  sopts.tolerance = 1e-10;

  FusedIluOperator fused(a, opts);
  const KrylovOperator unfused = unfused_operator(a, fused.fn());

  std::vector<value_t> x_f(un, 0), x_u(un, 0);
  const SolverResult rf = spd ? pcg_fused(a, b, x_f, fused.op(), sopts)
                              : gmres_fused(a, b, x_f, fused.op(), sopts);
  const SolverResult ru = spd ? pcg_fused(a, b, x_u, unfused, sopts)
                              : gmres_fused(a, b, x_u, unfused, sopts);
  CHECK_MSG(rf.iterations == ru.iterations && rf.converged == ru.converged,
            "%s fused it=%d conv=%d vs unfused it=%d conv=%d", name,
            rf.iterations, rf.converged, ru.iterations, ru.converged);
  CHECK_MSG(rf.relative_residual == ru.relative_residual,
            "%s residual fused %.17g vs unfused %.17g", name,
            rf.relative_residual, ru.relative_residual);
  CHECK_MSG(bitwise_equal(x_f, x_u), "%s solution fused vs unfused threads=%d",
            name, opts.num_threads);
  CHECK_MSG(rf.converged, "%s fused solve rel res %.3g after %d iters", name,
            rf.relative_residual, rf.iterations);

  // Across thread counts the trajectory must also be bitwise-identical
  // (deterministic blocked dot + thread-invariant apply/spmv kernels).
  if (x_across->empty()) {
    *x_across = x_f;
  } else {
    CHECK_MSG(bitwise_equal(x_f, *x_across),
              "%s solution across thread counts (threads=%d)", name,
              opts.num_threads);
  }
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(24, 24, 5);
  CsrMatrix fem = gen::random_fem(1000, 8, 21, 0.02);
  CsrMatrix power = gen::power_system(900, 18, 50, 13);
  CsrMatrix chain = gen::long_chain(1400, 10, 4, 3);

  // Operator-level parity, plus cross-thread-count bitwise identity.
  struct Entry {
    const char* name;
    const CsrMatrix* a;
  };
  for (const Entry& e : {Entry{"grid", &grid}, Entry{"fem", &fem},
                         Entry{"power", &power}, Entry{"chain", &chain}}) {
    std::vector<value_t> z_ref, t_ref;
    for (int threads : {1, 2, 4, 8}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.retarget_oversubscribed = false;  // force planned-width schedules
      auto [z, t] = check_operator_parity(e.name, *e.a, opts);
      if (z_ref.empty()) {
        z_ref = std::move(z);
        t_ref = std::move(t);
      } else {
        CHECK_MSG(bitwise_equal(z, z_ref), "%s z across thread counts (t=%d)",
                  e.name, threads);
        CHECK_MSG(bitwise_equal(t, t_ref), "%s t across thread counts (t=%d)",
                  e.name, threads);
      }
    }
  }

  // A fill-1 factor, whose pattern goes beyond A's own.
  {
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    opts.fill_level = 1;
    check_operator_parity("grid-f1", grid, opts);
  }

  // Full solver trajectories: fused vs unfused and across thread counts.
  {
    std::vector<value_t> x_pcg, x_gmres;
    for (int threads : {1, 2, 4}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.retarget_oversubscribed = false;  // force planned-width schedules
      check_solver_parity("pcg-grid", grid, /*spd=*/true, opts, &x_pcg);
      check_solver_parity("gmres-power", power, /*spd=*/false, opts, &x_gmres);
    }
  }

  // Force the SCHEDULED fused path (oversubscription retarget off) so the
  // combined backward+SpMV region and its sparsified waits are exercised
  // even on machines where the team oversubscribes the hardware and the
  // core clamp of retarget_oversubscribed would re-plan down to the core
  // count.
  for (const Entry& e : {Entry{"grid", &grid}, Entry{"fem", &fem},
                         Entry{"power", &power}, Entry{"chain", &chain}}) {
    for (int threads : {2, 4}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.retarget_oversubscribed = false;  // force planned-width schedules
      Factorization f = ilu_factor(*e.a, opts);
      FusedApplySpmv fs = build_fused_apply_spmv(f, *e.a);
      const auto r = random_vector(e.a->rows(), 0xF00D);
      const std::size_t un = static_cast<std::size_t>(e.a->rows());
      std::vector<value_t> z_f(un), t_f(un), z_u(un), t_u(un);
      SolveWorkspace ws_f, ws_u;
      ilu_apply_spmv(f, *e.a, fs, r, z_f, t_f, ws_f);
      ilu_apply_serial(f, r, z_u, ws_u);
      spmv_serial(*e.a, z_u, t_u);
      CHECK_MSG(bitwise_equal(z_f, z_u), "%s scheduled z (threads=%d)",
                e.name, threads);
      CHECK_MSG(bitwise_equal(t_f, t_u), "%s scheduled t (threads=%d)",
                e.name, threads);
    }
  }

  // The SpMV tail under the barrier branch (chunks after the final level
  // barrier), bitwise against the serial pair.
  for (const Entry& e : {Entry{"grid", &grid}, Entry{"fem", &fem},
                         Entry{"power", &power}, Entry{"chain", &chain}}) {
    for (int threads : {2, 3, 4}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.retarget_oversubscribed = false;
      opts.exec_backend = ExecBackend::kBarrier;
      Factorization f = ilu_factor(*e.a, opts);
      const FusedApplySpmv fs = build_fused_apply_spmv(f, *e.a);
      const auto r = random_vector(e.a->rows(), 0xF00D);
      const std::size_t un = static_cast<std::size_t>(e.a->rows());
      std::vector<value_t> z_f(un), t_f(un), z_u(un), t_u(un);
      SolveWorkspace ws_f, ws_u;
      ilu_apply_spmv(f, *e.a, fs, r, z_f, t_f, ws_f);
      ilu_apply_serial(f, r, z_u, ws_u);
      spmv_serial(*e.a, z_u, t_u);
      CHECK_MSG(bitwise_equal(z_f, z_u), "%s barrier z (threads=%d)", e.name,
                threads);
      CHECK_MSG(bitwise_equal(t_f, t_u), "%s barrier t (threads=%d)", e.name,
                threads);
    }
  }

  // A companion built before the backward schedule was re-chunked counts
  // the old items: the fused pass must refuse it instead of racing (a
  // smaller granule releases waits early) or hanging (a larger one never
  // reaches the counts).
  {
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    Factorization f = ilu_factor(grid, opts);
    const FusedApplySpmv fs = build_fused_apply_spmv(f, grid);
    CHECK(f.bwd.chunk_rows != 64);
    f.bwd = build_exec_schedule(f.bwd.n_total, f.bwd.level_ptr,
                                f.bwd.serial_order,
                                upper_triangular_deps(f.lu), f.bwd.threads, 64);
    const auto r = random_vector(grid.rows(), 0xF00D);
    const std::size_t un = static_cast<std::size_t>(grid.rows());
    std::vector<value_t> z(un), t(un);
    SolveWorkspace ws;
    bool threw = false;
    try {
      ilu_apply_spmv(f, grid, fs, r, z, t, ws);
    } catch (const Error&) {
      threw = true;
    }
    CHECK_MSG(threw, "stale fused companion accepted after a re-chunk");
  }

  // A non-default schedule chunk must not change any value, only the
  // synchronization granularity.
  {
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    opts.p2p_chunk_rows = 1;
    auto [z1, t1] = check_operator_parity("grid-chunk1", grid, opts);
    opts.p2p_chunk_rows = 64;
    auto [z64, t64] = check_operator_parity("grid-chunk64", grid, opts);
    CHECK(bitwise_equal(z1, z64));
    CHECK(bitwise_equal(t1, t64));
  }

  // KrylovOperator::part is required: both operator drivers refuse a null
  // one instead of building a partition per solve.
  {
    FusedIluOperator fused(grid);
    KrylovOperator op = fused.op();
    op.part.reset();
    const auto b = random_vector(grid.rows(), 0x5EED);
    std::vector<value_t> x(b.size(), 0);
    for (const bool spd : {true, false}) {
      bool threw = false;
      try {
        (void)(spd ? pcg_fused(grid, b, x, op) : gmres_fused(grid, b, x, op));
      } catch (const Error&) {
        threw = true;
      }
      CHECK_MSG(threw, "%s accepted an operator without a partition",
                spd ? "pcg_fused" : "gmres_fused");
    }
  }

  return javelin::test::finish("test_fused");
}
