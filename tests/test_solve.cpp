// Property tests of the triangular-solve subsystem: the P2P fwd+bwd sweeps
// must match the serial reference solve bitwise — also when small items
// spread the trailing levels over the team, so they carry cross-thread
// waits, and on unsymmetric patterns, whose forward sweep runs L's own
// levels under either backend — and on a matrix whose ILU(0) is exact
// (tridiagonal) ilu_apply must invert A to rounding accuracy.
#include <random>
#include <utility>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

std::vector<value_t> random_vector(index_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(-1.0, 1.0);
  std::vector<value_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = dist(rng);
  return v;
}

void check_apply_parity(const char* name, const CsrMatrix& a, IluOptions opts) {
  Factorization f = ilu_factor(a, opts);
  const auto r = random_vector(f.n(), 0xFEED);
  std::vector<value_t> z_par(r.size()), z_ser(r.size());
  SolveWorkspace ws_par, ws_ser;
  ilu_apply(f, r, z_par, ws_par);
  ilu_apply_serial(f, r, z_ser, ws_ser);
  CHECK_MSG(javelin::test::bitwise_equal(z_par, z_ser),
            "%s threads=%d chunk=%d", name, f.plan.threads,
            static_cast<int>(f.fwd.chunk_rows));

  // Repeat with the same workspace: reuse must not perturb results.
  std::vector<value_t> z2(r.size());
  ilu_apply(f, r, z2, ws_par);
  CHECK(javelin::test::bitwise_equal(z2, z_par));

  // Sweep-level parity on the permuted vectors: a full solve, forward then
  // backward, against the serial sweeps.
  auto xp = random_vector(f.n(), 0xBEEF);
  auto xs = xp;
  SolveWorkspace ws;
  ws.resize(f.n());
  trsv_forward(f, xp, ws);
  trsv_forward_serial(f, xs);
  CHECK(javelin::test::bitwise_equal(xp, xs));
  trsv_backward(f, xp, ws);
  trsv_backward_serial(f, xs);
  CHECK(javelin::test::bitwise_equal(xp, xs));
}

/// The forward schedule must hold cross-thread waits on items of its
/// trailing half of levels, so the parity checks above exercise
/// synchronization where the levels are narrow. For symmetric patterns,
/// whose forward levels are contiguous row ranges.
void check_trailing_waits(const char* name, const CsrMatrix& a,
                          const IluOptions& opts) {
  const Factorization f = ilu_prepare(a, opts);
  const ExecSchedule& s = f.fwd;
  const index_t first_row =
      s.level_ptr[static_cast<std::size_t>((s.num_levels + 1) / 2)];
  index_t waits = 0;
  for (index_t i = 0; i < s.num_items(); ++i) {
    const index_t first = s.rows[static_cast<std::size_t>(
        s.item_ptr[static_cast<std::size_t>(i)])];
    if (first >= first_row) {
      waits += s.wait_ptr[static_cast<std::size_t>(i) + 1] -
               s.wait_ptr[static_cast<std::size_t>(i)];
    }
  }
  CHECK_MSG(waits > 0, "%s: no waits in the %lld trailing rows of %lld",
            name, static_cast<long long>(f.n() - first_row),
            static_cast<long long>(f.n()));
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(24, 24, 5);
  CsrMatrix fem = gen::random_fem(1000, 8, 21, 0.02);
  CsrMatrix chain = gen::long_chain(1400, 10, 4, 3);
  CsrMatrix power = gen::power_system(900, 18, 50, 13);
  CsrMatrix circ_u =
      gen::circuit(1000, 5.5, 17, /*symmetric_pattern=*/false, 7);
  gen::SuiteOptions small;
  small.scale = 0.02;
  CsrMatrix trans4 = gen::make_suite_matrix("trans4", small).matrix;

  for (int threads : {1, 2, 4, 8}) {
    IluOptions opts;
    opts.num_threads = threads;
    opts.retarget_oversubscribed = false;  // force planned-width schedules
    check_apply_parity("grid", grid, opts);
    check_apply_parity("fem", fem, opts);
    check_apply_parity("chain", chain, opts);
    check_apply_parity("power", power, opts);

    opts.fill_level = 1;
    check_apply_parity("grid-f1", grid, opts);
    opts.fill_level = 0;

    // 4-row items spread the narrow trailing levels over the team, so they
    // carry cross-thread waits (on the defaults above each of those levels
    // fits in one item on one thread).
    IluOptions wide = opts;
    wide.p2p_chunk_rows = 4;
    check_apply_parity("grid-wide", grid, wide);
    check_apply_parity("fem-wide", fem, wide);
    if (threads == 4) {
      check_trailing_waits("grid-wide", grid, wide);
      check_trailing_waits("fem-wide", fem, wide);
    }

    // Unsymmetric patterns: the forward sweep runs L's own levels, not the
    // plan's, under both backends and every factor variant.
    for (ExecBackend backend : {ExecBackend::kP2P, ExecBackend::kBarrier}) {
      for (const auto& [name, m] :
           {std::pair<const char*, const CsrMatrix*>{"circuit-unsym", &circ_u},
            {"trans4", &trans4}}) {
        IluOptions u = opts;
        u.exec_backend = backend;
        for (int fill : {0, 1}) {
          u.fill_level = fill;
          u.modified = false;
          u.drop_tolerance = 0.0;
          check_apply_parity(name, *m, u);
          u.modified = true;
          u.drop_tolerance = 1e-3;
          check_apply_parity(name, *m, u);
        }
      }
    }
  }

  // Tridiagonal matrix: ILU(0) is the exact LU, so the preconditioner is the
  // exact inverse — A * ilu_apply(r) must reproduce r to rounding.
  CsrMatrix tri = gen::laplacian2d(600, 1, 5);
  IluOptions opts;
  opts.num_threads = 4;
  Factorization f = ilu_factor(tri, opts);
  const auto r = random_vector(tri.rows(), 0xACE);
  std::vector<value_t> z(r.size()), az(r.size());
  ilu_apply(f, r, z);
  spmv_serial(tri, z, az);
  CHECK_MSG(javelin::test::max_abs_diff(az, r) < 1e-10, "exact-LU diff %.3g",
            javelin::test::max_abs_diff(az, r));

  return javelin::test::finish("test_solve");
}
