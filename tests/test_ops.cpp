// SpGEMM and transpose against dense references: random and structured
// matrices, rectangular shapes, empty rows, unsorted column input, and
// bitwise serial-vs-parallel parity (same discipline as test_factor_parity).
// Also the factor set-up primitives: the level sets of lower(A+Aᵀ) against
// the symmetrized reference and their lower_only report, permute_symmetric's
// slot record, and the missing-diagonal reports of diagonal_positions and
// has_full_diagonal.
#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "javelin/gen/generators.hpp"
#include "javelin/graph/levels.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;

namespace {

/// Random rectangular CSR with ~density fill; some rows intentionally empty.
CsrMatrix random_rect(index_t rows, index_t cols, double density,
                      std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_real_distribution<value_t> val(-2.0, 2.0);
  std::vector<index_t> rp(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<index_t> ci;
  std::vector<value_t> vv;
  for (index_t r = 0; r < rows; ++r) {
    const bool empty_row = coin(rng) < 0.15;  // exercise empty rows
    if (!empty_row) {
      for (index_t c = 0; c < cols; ++c) {
        if (coin(rng) < density) {
          ci.push_back(c);
          vv.push_back(val(rng));
        }
      }
    }
    rp[static_cast<std::size_t>(r) + 1] = static_cast<index_t>(ci.size());
  }
  return CsrMatrix(rows, cols, std::move(rp), std::move(ci), std::move(vv));
}

/// Deterministically shuffle each row's (col, val) pairs — spgemm and
/// transpose must accept unsorted input rows.
CsrMatrix shuffle_rows(const CsrMatrix& a, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<index_t> rp(a.row_ptr().begin(), a.row_ptr().end());
  std::vector<index_t> ci(a.col_idx().begin(), a.col_idx().end());
  std::vector<value_t> vv(a.values().begin(), a.values().end());
  for (index_t r = 0; r < a.rows(); ++r) {
    const std::size_t lo = static_cast<std::size_t>(a.row_begin(r));
    const std::size_t hi = static_cast<std::size_t>(a.row_end(r));
    for (std::size_t i = hi; i > lo + 1; --i) {
      const std::size_t j = lo + rng() % (i - lo);
      std::swap(ci[i - 1], ci[j]);
      std::swap(vv[i - 1], vv[j]);
    }
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(rp), std::move(ci),
                   std::move(vv));
}

void check_transpose(const CsrMatrix& a) {
  const CsrMatrix at = transpose(a);
  CHECK(at.rows() == a.cols() && at.cols() == a.rows());
  CHECK(at.nnz() == a.nnz());
  CHECK(at.rows_sorted_and_unique());

  // Dense cross-check.
  const auto da = to_dense(a);
  const auto dat = to_dense(at);
  bool ok = true;
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t c = 0; c < a.cols(); ++c) {
      ok = ok && da[static_cast<std::size_t>(r) * static_cast<std::size_t>(a.cols()) +
                    static_cast<std::size_t>(c)] ==
                     dat[static_cast<std::size_t>(c) * static_cast<std::size_t>(at.cols()) +
                         static_cast<std::size_t>(r)];
    }
  }
  CHECK(ok);

  // Involution (requires sorted input for exact layout equality).
  if (a.rows_sorted_and_unique()) {
    CHECK(transpose(at) == a);
  }
}

void check_spgemm_dense(const CsrMatrix& a, const CsrMatrix& b) {
  const CsrMatrix c = spgemm(a, b);
  CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  CHECK(c.rows_sorted_and_unique());

  // dense_matmul accumulates per output entry in the SAME A-row-major,
  // B-row-major order spgemm does, so stored products agree bitwise.
  const auto ref = dense_matmul(a, b);
  const auto dc = to_dense(c);
  CHECK(dc.size() == ref.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (dc[i] != ref[i]) ++mismatches;
  }
  CHECK_MSG(mismatches == 0, "%zu dense mismatches", mismatches);
}

/// Outputs must be bitwise identical at every thread count.
void check_thread_parity(const CsrMatrix& a, const CsrMatrix& b) {
  CsrMatrix c1, t1;
  {
    ThreadCountGuard g(1);
    c1 = spgemm(a, b);
    t1 = transpose(a);
  }
  for (int threads : {2, 3, 8}) {
    ThreadCountGuard g(threads);
    const CsrMatrix c = spgemm(a, b);
    const CsrMatrix t = transpose(a);
    CHECK_MSG(c == c1, "spgemm differs at %d threads", threads);
    CHECK_MSG(t == t1, "transpose differs at %d threads", threads);
  }
}

/// Plain serial counting transpose, independent of the library path, for
/// validating the chunked parallel variant on inputs big enough to take it.
CsrMatrix reference_transpose(const CsrMatrix& a) {
  std::vector<index_t> rp(static_cast<std::size_t>(a.cols()) + 1, 0);
  for (index_t c : a.col_idx()) ++rp[static_cast<std::size_t>(c) + 1];
  for (std::size_t i = 1; i < rp.size(); ++i) rp[i] += rp[i - 1];
  std::vector<index_t> cursor(rp.begin(), rp.end() - 1);
  std::vector<index_t> ci(static_cast<std::size_t>(a.nnz()));
  std::vector<value_t> vv(static_cast<std::size_t>(a.nnz()));
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      const index_t c = a.col_idx()[static_cast<std::size_t>(k)];
      const index_t pos = cursor[static_cast<std::size_t>(c)]++;
      ci[static_cast<std::size_t>(pos)] = r;
      vv[static_cast<std::size_t>(pos)] = a.values()[static_cast<std::size_t>(k)];
    }
  }
  return CsrMatrix(a.cols(), a.rows(), std::move(rp), std::move(ci),
                   std::move(vv));
}

/// Copy of square `a` without the diagonal entry of row `row`, or of every
/// row when row < 0.
CsrMatrix drop_diagonal(const CsrMatrix& a, index_t row) {
  std::vector<index_t> rp(1, 0);
  std::vector<index_t> ci;
  std::vector<value_t> vv;
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      const index_t c = a.col_idx()[static_cast<std::size_t>(k)];
      if (c == r && (row < 0 || r == row)) continue;
      ci.push_back(c);
      vv.push_back(a.values()[static_cast<std::size_t>(k)]);
    }
    rp.push_back(static_cast<index_t>(ci.size()));
  }
  return CsrMatrix(a.rows(), a.cols(), std::move(rp), std::move(ci),
                   std::move(vv));
}

/// compute_level_sets reads A's rows; the reference forms lower(A+Aᵀ). Its
/// lower_only report is true exactly when those levels are the
/// strictly-lower pattern's own. Returns lower_only.
bool check_level_oracle(const std::string& name, const CsrMatrix& a) {
  const LevelSets got = compute_level_sets(a);
  const LevelSets ref = compute_level_sets_lower(pattern_symmetrize(a));
  CHECK_MSG(got.level == ref.level && got.level_ptr == ref.level_ptr &&
                got.rows_by_level == ref.rows_by_level,
            "%s: level sets differ from those of lower(A+Aᵀ)", name.c_str());
  const LevelSets low = compute_level_sets_lower(a);
  CHECK(low.lower_only);
  const bool same = got.level == low.level && got.level_ptr == low.level_ptr &&
                    got.rows_by_level == low.rows_by_level;
  CHECK_MSG(got.lower_only == same,
            "%s: lower_only is %d, but the levels %s the strictly-lower "
            "pattern's",
            name.c_str(), got.lower_only ? 1 : 0,
            same ? "equal" : "differ from");
  return got.lower_only;
}

/// slot_of[k] names the entry of P·A·Pᵀ that A's k-th nonzero became.
void check_permute_slots(const CsrMatrix& a, std::uint64_t seed) {
  std::vector<index_t> perm(static_cast<std::size_t>(a.rows()));
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937_64 rng(seed);
  std::shuffle(perm.begin(), perm.end(), rng);
  const std::vector<index_t> inv = invert_permutation(perm);
  std::vector<index_t> slot_of;
  const CsrMatrix p = permute_symmetric(a, perm, &slot_of);
  CHECK(p == permute_symmetric(a, perm));
  CHECK(slot_of.size() == static_cast<std::size_t>(a.nnz()));
  std::size_t bad = 0;
  for (index_t r = 0; r < a.rows(); ++r) {
    const index_t pr = inv[static_cast<std::size_t>(r)];
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      const index_t s = slot_of[static_cast<std::size_t>(k)];
      const std::size_t sk = static_cast<std::size_t>(s);
      const bool ok =
          s >= p.row_begin(pr) && s < p.row_end(pr) &&
          p.col_idx()[sk] ==
              inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])] &&
          p.values()[sk] == a.values()[static_cast<std::size_t>(k)];
      if (!ok) ++bad;
    }
  }
  CHECK_MSG(bad == 0, "%zu slots of permute_symmetric misplaced", bad);
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  // Structured square: 2-D grid times itself and times its transpose.
  {
    CsrMatrix g = gen::laplacian2d(17, 13, 9);
    check_transpose(g);
    check_spgemm_dense(g, g);
    check_thread_parity(g, g);
  }

  // Random rectangular chain: (40×70)·(70×55), empty rows on both sides.
  {
    CsrMatrix a = random_rect(40, 70, 0.12, 0xA11CE);
    CsrMatrix b = random_rect(70, 55, 0.10, 0xB0B);
    check_transpose(a);
    check_transpose(b);
    check_spgemm_dense(a, b);
    check_thread_parity(a, b);

    // Unsorted input rows: same dense product (dense_matmul walks storage
    // order too, so even the accumulation order matches).
    CsrMatrix au = shuffle_rows(a, 0x5EED);
    CsrMatrix bu = shuffle_rows(b, 0xFEED);
    check_transpose(au);
    check_spgemm_dense(au, bu);
    const CsrMatrix cu = spgemm(au, bu);
    CHECK(cu.rows_sorted_and_unique());
  }

  // Unsymmetric suite-class matrix against its transpose (A·Aᵀ pattern).
  {
    CsrMatrix a = gen::circuit(500, 5.0, 99, /*symmetric_pattern=*/false, 4);
    const CsrMatrix at = transpose(a);
    check_transpose(a);
    check_spgemm_dense(a, at);
    check_thread_parity(a, at);
  }

  // Galerkin triple product R·A·P against the dense reference (the AMG
  // setup path): P is a tall-thin aggregation-like matrix.
  {
    CsrMatrix a = gen::laplacian2d(12, 12, 5);
    CsrMatrix p = random_rect(144, 30, 0.05, 0x77);
    const CsrMatrix r = transpose(p);
    const CsrMatrix ap = spgemm(a, p);
    const CsrMatrix rap = spgemm(r, ap);
    CHECK(rap.rows() == 30 && rap.cols() == 30);
    check_spgemm_dense(r, ap);  // second hop vs dense, bitwise
    // Full chain with tolerance (different association than dense·dense).
    const auto dr = to_dense(r);
    const auto dap = to_dense(ap);
    const auto drap = to_dense(rap);
    for (index_t i = 0; i < 30; ++i) {
      for (index_t j = 0; j < 30; ++j) {
        value_t s = 0;
        for (index_t k = 0; k < 144; ++k) {
          s += dr[static_cast<std::size_t>(i) * 144 + static_cast<std::size_t>(k)] *
               dap[static_cast<std::size_t>(k) * 30 + static_cast<std::size_t>(j)];
        }
        const value_t got =
            drap[static_cast<std::size_t>(i) * 30 + static_cast<std::size_t>(j)];
        CHECK_MSG(std::abs(got - s) < 1e-10, "RAP(%d,%d) %.17g vs %.17g", i, j,
                  got, s);
      }
    }
  }

  // Large structured case: nnz well past the serial-fallback cutoff, so the
  // chunked parallel transpose actually runs. Too big for dense references;
  // validated against an independent serial transpose plus symmetry of A².
  {
    CsrMatrix g3 = gen::laplacian3d(20, 20, 20, 7);
    CHECK(g3.nnz() > (1 << 15));
    const CsrMatrix ref = reference_transpose(g3);
    for (int threads : {1, 2, 4, 8}) {
      ThreadCountGuard g(threads);
      CHECK_MSG(transpose(g3) == ref, "big transpose differs at %d threads",
                threads);
    }
    const CsrMatrix sq1 = [&] {
      ThreadCountGuard g(1);
      return spgemm(g3, g3);
    }();
    CHECK(pattern_symmetric(sq1));
    CHECK(max_abs_difference(sq1, transpose(sq1)) == 0);
    for (int threads : {2, 8}) {
      ThreadCountGuard g(threads);
      CHECK_MSG(spgemm(g3, g3) == sq1, "big spgemm differs at %d threads",
                threads);
    }
  }

  // Degenerate shapes.
  {
    const CsrMatrix z = CsrMatrix::zeros(6, 4);
    const CsrMatrix zt = transpose(z);
    CHECK(zt.rows() == 4 && zt.cols() == 6 && zt.nnz() == 0);
    const CsrMatrix zz = spgemm(z, CsrMatrix::zeros(4, 3));
    CHECK(zz.rows() == 6 && zz.cols() == 3 && zz.nnz() == 0);

    const CsrMatrix i5 = CsrMatrix::identity(5);
    CHECK(transpose(i5) == i5);
    CHECK(spgemm(i5, i5) == i5);
    CsrMatrix a = random_rect(5, 5, 0.4, 0x123);
    CHECK(spgemm(i5, a) == a);
    CHECK(spgemm(a, i5) == a);
  }

  // Level sets of lower(A+Aᵀ) without forming it: suite, degenerate set,
  // an unsymmetric pattern, no diagonal at all, n = 0 and n = 1. The suite
  // holds patterns with both lower_only outcomes.
  {
    gen::SuiteOptions small;
    small.scale = 0.02;
    int lower_only = 0;
    int lifted = 0;
    for (const std::string& name : gen::suite_names()) {
      const bool own =
          check_level_oracle(name, gen::make_suite_matrix(name, small).matrix);
      (own ? lower_only : lifted) += 1;
    }
    CHECK_MSG(lower_only > 0 && lifted > 0,
              "suite: %d lower_only and %d lifted patterns", lower_only,
              lifted);
    for (const std::string& name : gen::degenerate_names()) {
      check_level_oracle(name, gen::make_suite_matrix(name, small).matrix);
    }
    const CsrMatrix circ =
        gen::circuit(800, 5.5, 17, /*symmetric_pattern=*/false, 7);
    CHECK(!pattern_symmetric(circ));
    CHECK(!check_level_oracle("circuit", circ));
    check_level_oracle("no diagonal",
                       drop_diagonal(random_rect(90, 90, 0.04, 0xD1A6), -1));
    check_level_oracle("n=0", CsrMatrix::zeros(0, 0));
    check_level_oracle("n=1", CsrMatrix::identity(1));
    check_level_oracle("n=1 empty", CsrMatrix::zeros(1, 1));
  }

  // permute_symmetric's slot record on unsymmetric patterns.
  check_permute_slots(gen::circuit(700, 5.0, 5, /*symmetric_pattern=*/false, 3),
                      0x51075);
  check_permute_slots(random_rect(120, 120, 0.05, 0xC0FFEE), 0xBEEF);

  // A structurally missing diagonal throws after the parallel region, and
  // the row-parallel has_full_diagonal reports it (ilu_prepare picks its
  // own-pattern branch with it).
  {
    const CsrMatrix g = gen::laplacian2d(30, 30, 5);
    CHECK(diagonal_positions(g).size() == static_cast<std::size_t>(g.rows()));
    CHECK(g.has_full_diagonal());
    CHECK(!drop_diagonal(g, 613).has_full_diagonal());
    CHECK(!drop_diagonal(g, 0).has_full_diagonal());
    CHECK(!drop_diagonal(g, g.rows() - 1).has_full_diagonal());
    CHECK(CsrMatrix::zeros(0, 0).has_full_diagonal());
    CHECK(!CsrMatrix::zeros(1, 1).has_full_diagonal());
    CHECK(!random_rect(6, 5, 0.5, 0x5EED).has_full_diagonal());
    bool threw = false;
    try {
      (void)diagonal_positions(drop_diagonal(g, 613));
    } catch (const Error&) {
      threw = true;
    }
    CHECK_MSG(threw, "missing diagonal not reported at %d threads",
              max_threads());
  }

  return javelin::test::finish("test_ops");
}
