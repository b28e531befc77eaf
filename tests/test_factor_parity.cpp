// Property test for the claim in parallel.cpp: the level-scheduled numeric
// phase produces the serial factor bitwise at every team size, modified ILU
// included, because every row runs the shared row kernel once and each
// row's arithmetic order is fixed by its CSR layout.
// The reference always builds its pattern with ilu_symbolic, so the ILU(0)
// cases also pin ilu_prepare's shortcut of planning A's own pattern.
#include "javelin/gen/generators.hpp"
#include "javelin/ilu/factorization.hpp"
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
            "%s threads=%d fill=%d modified=%d drop=%g", name,
            f.plan.threads, opts.fill_level, opts.modified ? 1 : 0,
            opts.drop_tolerance);
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(22, 22, 5);
  CsrMatrix fem = gen::random_fem(900, 8, 11, 0.02);
  CsrMatrix circ = gen::circuit(1000, 5.0, 3, /*symmetric_pattern=*/true, 6);
  CsrMatrix chain = gen::long_chain(1200, 12, 4, 5);  // many tiny levels
  CsrMatrix power = gen::power_system(800, 16, 48, 9);

  struct Case {
    const char* name;
    const CsrMatrix* a;
  };
  const Case cases[] = {{"grid", &grid},
                        {"fem", &fem},
                        {"circuit", &circ},
                        {"chain", &chain},
                        {"power", &power}};

  for (const Case& c : cases) {
    for (int threads : {1, 2, 4}) {
      for (int fill : {0, 1}) {
        IluOptions opts;
        opts.num_threads = threads;
        opts.fill_level = fill;
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

  // ILU(0) plans A's own pattern when A stores its whole diagonal; a
  // structurally missing diagonal sends it through ilu_symbolic, which adds
  // the entry. Row 250 has lower neighbours, so elimination fills its pivot.
  {
    const CsrMatrix holed = drop_diagonal(grid, 250);
    IluOptions opts;
    opts.num_threads = 4;
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
  drop.drop_tolerance = 1e-3;
  check_parity("grid-drop", grid, drop);
  check_parity("chain-drop", chain, drop);

  return javelin::test::finish("test_factor_parity");
}
