// Property test for the claim in parallel.cpp: the level-scheduled numeric
// phase produces the serial factor bitwise at every team size, modified ILU
// included, because every row runs the shared row kernel once and each
// row's arithmetic order is fixed by its CSR layout. The unsymmetric
// fixtures, whose forward schedule runs L's own levels rather than the
// plan's, run under both backends.
// The reference always builds its pattern with ilu_symbolic, so the ILU(0)
// cases also pin ilu_prepare's shortcut of planning A's own pattern.
// The serial reference shares the row kernel, so parity cannot see a wrong
// skip inside factor_row: check_row_kernel runs the unconditional
// mark + eliminate + finish beside it on every row.
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/row_kernel.hpp"
#include "javelin/ilu/serial.hpp"
#include "javelin/ilu/symbolic.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

/// Serial up-looking factorization on the SAME permuted pattern the parallel
/// plan uses — the reference the parallel factor must match bitwise.
CsrMatrix serial_reference(const CsrMatrix& a, const Factorization& f) {
  CsrMatrix s = ilu_symbolic(a, f.opts.fill_level);
  CsrMatrix lu = permute_symmetric(s, f.plan.perm);
  const std::vector<index_t> diag = diagonal_positions(lu);
  ilu_factor_serial_inplace(lu, diag, f.opts);
  return lu;
}

/// `a` without row r's diagonal entry (r must have one).
CsrMatrix drop_diagonal(const CsrMatrix& a, index_t r) {
  const std::size_t cut = static_cast<std::size_t>(a.find(r, r));
  std::vector<index_t> rp(a.row_ptr().begin(), a.row_ptr().end());
  for (std::size_t i = static_cast<std::size_t>(r) + 1; i < rp.size(); ++i) {
    --rp[i];
  }
  std::vector<index_t> ci(a.col_idx().begin(), a.col_idx().end());
  std::vector<value_t> vv(a.values().begin(), a.values().end());
  ci.erase(ci.begin() + static_cast<std::ptrdiff_t>(cut));
  vv.erase(vv.begin() + static_cast<std::ptrdiff_t>(cut));
  return CsrMatrix(a.rows(), a.cols(), std::move(rp), std::move(ci),
                   std::move(vv));
}

void check_parity(const char* name, const CsrMatrix& a, IluOptions opts) {
  Factorization f = ilu_factor(a, opts);
  const CsrMatrix ref = serial_reference(a, f);
  CHECK_MSG(javelin::test::bitwise_equal(f.lu.values(), ref.values()),
            "%s threads=%d %s fill=%d modified=%d drop=%g", name,
            f.plan.threads, exec_backend_name(opts.exec_backend),
            opts.fill_level, opts.modified ? 1 : 0, opts.drop_tolerance);
}

/// factor_row against the unconditional mark_row + eliminate_row +
/// finish_row, row by row in the plan's order on two copies of the
/// prepared factor: same pivot verdict on every row, same values bit for
/// bit. Returns how many rows had nothing left of the diagonal, so callers
/// can require both kinds of row.
index_t check_row_kernel(const char* name, const CsrMatrix& a,
                         const IluOptions& opts) {
  const Factorization f = ilu_prepare(a, opts);
  CsrMatrix got = f.lu;
  CsrMatrix want = f.lu;
  const RowKernelParams p{opts.drop_tolerance, opts.modified,
                          opts.pivot_threshold};
  const FactorView fg{got.row_ptr(), got.col_idx(), got.values_mut(),
                      f.diag_pos};
  const FactorView fw{want.row_ptr(), want.col_idx(), want.values_mut(),
                      f.diag_pos};
  RowWorkspace wg(f.n());
  RowWorkspace ww(f.n());
  index_t verdicts = 0;
  index_t diagonal_first = 0;
  for (index_t r = 0; r < f.n(); ++r) {
    const bool ok_g = factor_row(fg, r, wg, p);
    mark_row(fw, r, ww);
    eliminate_row(fw, r, ww, p);
    const bool ok_w = finish_row(fw, r, p);
    if (ok_g != ok_w) ++verdicts;
    if (f.lu.row_cols(r).front() == r) ++diagonal_first;
  }
  CHECK_MSG(verdicts == 0, "%s: %lld rows with a different pivot verdict",
            name, static_cast<long long>(verdicts));
  CHECK_MSG(javelin::test::bitwise_equal(got.values(), want.values()),
            "%s fill=%d modified=%d drop=%g: factor_row differs from "
            "mark + eliminate + finish",
            name, opts.fill_level, opts.modified ? 1 : 0, opts.drop_tolerance);
  return diagonal_first;
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(22, 22, 5);
  CsrMatrix fem = gen::random_fem(900, 8, 11, 0.02);
  CsrMatrix circ = gen::circuit(1000, 5.0, 3, /*symmetric_pattern=*/true, 6);
  CsrMatrix chain = gen::long_chain(1200, 12, 4, 5);  // many tiny levels
  CsrMatrix power = gen::power_system(800, 16, 48, 9);
  // Unsymmetric patterns whose L levels differ from the plan's: a circuit
  // and the (nearly upper triangular) trans4 analog.
  CsrMatrix circ_u =
      gen::circuit(1000, 5.5, 17, /*symmetric_pattern=*/false, 7);
  gen::SuiteOptions small;
  small.scale = 0.02;
  CsrMatrix trans4 = gen::make_suite_matrix("trans4", small).matrix;
  for (const CsrMatrix* m : {&circ_u, &trans4}) {
    const Factorization f = ilu_prepare(*m);
    CHECK(f.fwd.num_levels < f.plan.num_levels());
  }

  struct Case {
    const char* name;
    const CsrMatrix* a;
    bool unsymmetric;
  };
  const Case cases[] = {{"grid", &grid, false},
                        {"fem", &fem, false},
                        {"circuit", &circ, false},
                        {"chain", &chain, false},
                        {"power", &power, false},
                        {"circuit-unsym", &circ_u, true},
                        {"trans4", &trans4, true}};

  for (const Case& c : cases) {
    // The forward schedules that differ from the plan's levels run under
    // both backends; test_exec's check_backend_parity covers the barrier
    // backend on the symmetric patterns.
    std::vector<ExecBackend> backends{ExecBackend::kP2P};
    if (c.unsymmetric) backends.push_back(ExecBackend::kBarrier);
    for (int threads : {1, 2, 4}) {
      for (ExecBackend backend : backends) {
        for (int fill : {0, 1}) {
          IluOptions opts;
          opts.num_threads = threads;
          opts.exec_backend = backend;
          opts.fill_level = fill;
          // The numeric phase at the planned team, also above the cores.
          opts.retarget_oversubscribed = false;
          check_parity(c.name, *c.a, opts);

          // Modified ILU folds each row's compensation into its own pivot,
          // once, inside the row kernel, so it is bitwise too.
          opts.modified = true;
          for (double drop : {0.0, 1e-3}) {
            opts.drop_tolerance = drop;
            check_parity(c.name, *c.a, opts);
          }
        }
      }
    }
  }

  // The row kernel's skip, on every row of every fixture: rows with and
  // without entries left of the diagonal both occur.
  for (const Case& c : cases) {
    for (int fill : {0, 1}) {
      IluOptions opts;
      opts.fill_level = fill;
      const index_t skipped = check_row_kernel(c.name, *c.a, opts);
      CHECK_MSG(skipped > 0 && skipped < c.a->rows(),
                "%s fill=%d: %lld of %lld rows start at the diagonal", c.name,
                fill, static_cast<long long>(skipped),
                static_cast<long long>(c.a->rows()));
      opts.modified = true;
      opts.drop_tolerance = 1e-3;
      check_row_kernel(c.name, *c.a, opts);
    }
  }

  // ILU(0) plans A's own pattern when A stores its whole diagonal; a
  // structurally missing diagonal sends it through ilu_symbolic, which adds
  // the entry. Row 250 has lower neighbours, so elimination fills its pivot.
  {
    const CsrMatrix holed = drop_diagonal(grid, 250);
    IluOptions opts;
    opts.num_threads = 4;
    opts.retarget_oversubscribed = false;
    check_parity("grid-nodiag", holed, opts);
    CHECK(ilu_prepare(holed, opts).symbolic.added_diagonals == 1);
    const Factorization f = ilu_prepare(grid, opts);
    CHECK(f.symbolic.pattern_nnz == grid.nnz() &&
          f.symbolic.added_diagonals == 0);
  }

  // Drop tolerance interacts with the kernel's in-loop dropping; parity must
  // survive it.
  IluOptions drop;
  drop.num_threads = 4;
  drop.retarget_oversubscribed = false;
  drop.drop_tolerance = 1e-3;
  check_parity("grid-drop", grid, drop);
  check_parity("chain-drop", chain, drop);

  return javelin::test::finish("test_factor_parity");
}
