#include <algorithm>
#include <cmath>

#include "javelin/gen/generators.hpp"
#include "javelin/sparse/coo.hpp"
#include "javelin/support/rng.hpp"

namespace javelin::gen {

CsrMatrix random_fem(index_t n, index_t row_degree, std::uint64_t seed,
                     double locality) {
  // Random symmetric pattern with short-range locality: neighbour j of i is
  // drawn from a window of width locality*n around i (wrapping), which gives
  // the moderate level counts (tens) of mesh problems rather than the
  // near-diagonal structure of banded matrices.
  Xoshiro256 rng(seed);
  CooMatrix coo;
  coo.rows = coo.cols = n;
  const index_t half_edges = row_degree / 2;
  const auto window =
      std::max<index_t>(2, static_cast<index_t>(locality * static_cast<double>(n)));
  coo.reserve(static_cast<std::size_t>(n) * (static_cast<std::size_t>(half_edges) * 2 + 1));
  for (index_t i = 0; i < n; ++i) {
    for (index_t e = 0; e < half_edges; ++e) {
      const index_t off = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(window))) + 1;
      const index_t j = (i + off) % n;
      if (j == i) continue;
      const value_t w = -(0.25 + rng.uniform());
      coo.push(i, j, w);
      coo.push(j, i, w);
    }
    coo.push(i, i, 1.0);
  }
  CsrMatrix a = coo_to_csr(coo);
  make_diagonally_dominant(a);
  return a;
}

CsrMatrix circuit(index_t n, double avg_degree, std::uint64_t seed,
                  bool symmetric_pattern, index_t hub_count) {
  // Power-law-ish: a ring of weak local coupling plus hubs connected to many
  // random nodes (supply nets / clock trees). Circuit matrices are very
  // sparse (RD 2.5–6.5 in Table I) and often have a few extremely dense rows.
  Xoshiro256 rng(seed);
  CooMatrix coo;
  coo.rows = coo.cols = n;
  if (hub_count == 0) hub_count = std::max<index_t>(1, n / 2000);
  const index_t local_edges =
      std::max<index_t>(1, static_cast<index_t>(avg_degree / 2.0));
  coo.reserve(static_cast<std::size_t>(n) * (static_cast<std::size_t>(local_edges) * 2 + 2));
  for (index_t i = 0; i < n; ++i) {
    for (index_t e = 0; e < local_edges; ++e) {
      const index_t off = 1 + static_cast<index_t>(rng.below(16));
      const index_t j = (i + off) % n;
      if (j == i) continue;
      const value_t w = -(0.1 + rng.uniform());
      coo.push(i, j, w);
      if (symmetric_pattern) {
        coo.push(j, i, -(0.1 + rng.uniform()));  // symmetric pattern, unsymmetric values
      }
    }
    coo.push(i, i, 1.0);
  }
  // Hubs: first hub_count rows fan out widely.
  const index_t fan = std::max<index_t>(8, n / (hub_count * 8));
  for (index_t h = 0; h < hub_count; ++h) {
    for (index_t e = 0; e < fan; ++e) {
      const index_t j = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
      if (j == h) continue;
      const value_t w = -(0.05 + 0.1 * rng.uniform());
      coo.push(h, j, w);
      if (symmetric_pattern) coo.push(j, h, w);
    }
  }
  CsrMatrix a = coo_to_csr(coo);
  make_diagonally_dominant(a);
  return a;
}

CsrMatrix power_system(index_t n, index_t dense_rows, index_t dense_row_nnz,
                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  CooMatrix coo;
  coo.rows = coo.cols = n;
  coo.reserve(static_cast<std::size_t>(n) * 4 +
              static_cast<std::size_t>(dense_rows) * static_cast<std::size_t>(dense_row_nnz));
  // Sparse admittance-like base: short-range unsymmetric pattern.
  for (index_t i = 0; i < n; ++i) {
    for (index_t e = 0; e < 3; ++e) {
      const index_t off = 1 + static_cast<index_t>(rng.below(12));
      const index_t j = (i + off) % n;
      if (j != i) coo.push(i, j, -(0.2 + rng.uniform()));
      // Unsymmetric: reverse edge only sometimes.
      if (rng.uniform() < 0.6 && j != i) coo.push(j, i, -(0.2 + rng.uniform()));
    }
    coo.push(i, i, 1.0);
  }
  // Dense rows spread through the back half of the matrix (power-flow
  // Jacobian blocks): these create the high-RD, unbalanced rows the paper's
  // Segmented-Rows lower stage was designed for (§III-B).
  for (index_t d = 0; d < dense_rows; ++d) {
    const index_t r = n / 2 + static_cast<index_t>(
        rng.below(static_cast<std::uint64_t>(std::max<index_t>(1, n / 2))));
    for (index_t e = 0; e < dense_row_nnz; ++e) {
      const index_t j = static_cast<index_t>(rng.below(static_cast<std::uint64_t>(n)));
      if (j != r) coo.push(r, j, -(0.01 + 0.05 * rng.uniform()));
    }
  }
  CsrMatrix a = coo_to_csr(coo);
  make_diagonally_dominant(a);
  return a;
}

CsrMatrix long_chain(index_t n, index_t band, index_t coupling,
                     std::uint64_t seed) {
  // Strong sequential coupling: each row depends on a few immediately
  // preceding rows, which forces hundreds of small levels (fem_filter /
  // af_shell3 class in Tables I/III).
  Xoshiro256 rng(seed);
  CooMatrix coo;
  coo.rows = coo.cols = n;
  coo.reserve(static_cast<std::size_t>(n) * (static_cast<std::size_t>(coupling) * 2 + 3));
  for (index_t i = 0; i < n; ++i) {
    for (index_t e = 1; e <= coupling; ++e) {
      if (i - e >= 0) {
        const value_t w = -(0.3 + rng.uniform());
        coo.push(i, i - e, w);
        coo.push(i - e, i, w);
      }
    }
    // Occasional wide-band entries for realism.
    if (band > coupling && rng.uniform() < 0.3) {
      const index_t off =
          coupling + 1 + static_cast<index_t>(rng.below(static_cast<std::uint64_t>(band - coupling)));
      if (i - off >= 0) {
        const value_t w = -(0.1 + 0.2 * rng.uniform());
        coo.push(i, i - off, w);
        coo.push(i - off, i, w);
      }
    }
    coo.push(i, i, 1.0);
  }
  CsrMatrix a = coo_to_csr(coo);
  make_diagonally_dominant(a);
  return a;
}

void make_diagonally_dominant(CsrMatrix& a, value_t margin) {
  const index_t n = a.rows();
#pragma omp parallel for schedule(static)
  for (index_t r = 0; r < n; ++r) {
    value_t off = 0;
    index_t diag_pos = kInvalidIndex;
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      if (a.col_idx()[static_cast<std::size_t>(k)] == r) {
        diag_pos = k;
      } else {
        off += std::abs(a.values()[static_cast<std::size_t>(k)]);
      }
    }
    JAVELIN_CHECK(diag_pos != kInvalidIndex,
                  "make_diagonally_dominant requires a full diagonal");
    a.values_mut()[static_cast<std::size_t>(diag_pos)] = off + margin;
  }
}

}  // namespace javelin::gen
