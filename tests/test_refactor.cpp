// Property tests for the persistent scatter map: refactorization must
// reproduce a fresh factorization bitwise, the map ilu_prepare recorded
// (by the permutation on A's own pattern, by a search on a fill pattern)
// must equal a fresh build_scatter_map, and the flat-copy scatter must
// leave exactly the values ilu_prepare places on a fresh factor of the
// same matrix.
#include <random>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

/// Copy of `a` with values remixed deterministically (pattern unchanged),
/// still diagonally dominant so the refactorization exists.
CsrMatrix remix_values(const CsrMatrix& a, std::uint64_t seed) {
  CsrMatrix b = a;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<value_t> dist(0.5, 1.5);
  for (auto& v : b.values_mut()) v *= dist(rng);
  gen::make_diagonally_dominant(b);
  return b;
}

void check_refactor(const char* name, const CsrMatrix& a, IluOptions opts) {
  Factorization f = ilu_factor(a, opts);
  CHECK(f.a_scatter.size() == static_cast<std::size_t>(a.nnz()));
  const std::vector<index_t> recorded = f.a_scatter;
  build_scatter_map(f, a);
  CHECK_MSG(f.a_scatter == recorded, "%s recorded scatter map", name);
  const std::vector<value_t> first(f.lu.values().begin(), f.lu.values().end());

  // Same matrix again: identical factor bitwise.
  ilu_refactor(f, a);
  CHECK_MSG(javelin::test::bitwise_equal(f.lu.values(), first),
            "%s same-values refactor", name);

  // New values, same pattern: refactor must equal a from-scratch factor.
  const CsrMatrix a2 = remix_values(a, 0x5EED);
  ilu_refactor(f, a2);
  Factorization fresh = ilu_factor(a2, opts);
  CHECK_MSG(javelin::test::bitwise_equal(f.lu.values(), fresh.lu.values()),
            "%s remixed refactor", name);

  // The flat-copy scatter through a factor of `a` leaves exactly the
  // unfactored values the prepare path places for `a2`.
  Factorization g = ilu_factor(a, opts);
  scatter_values(g, a2);
  CHECK_MSG(javelin::test::bitwise_equal(g.lu.values(),
                                         ilu_prepare(a2, opts).lu.values()),
            "%s scatter map vs prepare", name);
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(24, 20, 5);
  CsrMatrix fem = gen::random_fem(900, 9, 31, 0.02);
  CsrMatrix circ = gen::circuit(1000, 5.5, 17, /*symmetric_pattern=*/false, 7);
  CsrMatrix chain = gen::long_chain(1100, 14, 5, 23);
  // Full diagonals: fill 0 takes the own-pattern branch of ilu_prepare.
  CHECK(grid.has_full_diagonal() && fem.has_full_diagonal() &&
        circ.has_full_diagonal() && chain.has_full_diagonal());

  for (int threads : {1, 4}) {
    for (int fill : {0, 1}) {
      IluOptions opts;
      opts.num_threads = threads;
      opts.fill_level = fill;
      // The numeric phase at the planned team, also above the cores.
      opts.retarget_oversubscribed = false;
      check_refactor("grid", grid, opts);
      check_refactor("fem", fem, opts);
      check_refactor("circuit", circ, opts);
      check_refactor("chain", chain, opts);
    }
  }

  return javelin::test::finish("test_refactor");
}
