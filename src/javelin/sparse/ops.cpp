#include "javelin/sparse/ops.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "javelin/support/parallel.hpp"
#include "javelin/support/scan.hpp"

namespace javelin {

CsrMatrix transpose(const CsrMatrix& a) {
  const index_t n = a.rows();
  const index_t m = a.cols();
  const index_t nnz = a.nnz();
  const int chunks = std::max(1, max_threads());

  // Small inputs: the serial counting transpose beats any parallel setup.
  if (chunks == 1 || nnz < (1 << 15)) {
    std::vector<index_t> rp(static_cast<std::size_t>(m) + 1, 0);
    for (index_t k = 0; k < nnz; ++k) {
      ++rp[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)]) + 1];
    }
    inclusive_scan_inplace(std::span<index_t>(rp).subspan(1));
    std::vector<index_t> cursor(rp.begin(), rp.end() - 1);
    std::vector<index_t> ci(static_cast<std::size_t>(nnz));
    std::vector<value_t> vv(static_cast<std::size_t>(nnz));
    for (index_t r = 0; r < n; ++r) {
      for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
        const index_t c = a.col_idx()[static_cast<std::size_t>(k)];
        const index_t pos = cursor[static_cast<std::size_t>(c)]++;
        ci[static_cast<std::size_t>(pos)] = r;
        vv[static_cast<std::size_t>(pos)] = a.values()[static_cast<std::size_t>(k)];
      }
    }
    // Row-major traversal of A emits ascending r per column, so rows of the
    // transpose come out sorted already.
    return CsrMatrix(m, n, std::move(rp), std::move(ci), std::move(vv));
  }

  // Chunked parallel scatter: each chunk owns a contiguous row range of A and
  // a private column histogram; prefix-summing histograms across chunks gives
  // every chunk a disjoint write window per output row, so the fill pass has
  // one writer per slot. Chunks are processed in ascending row order within a
  // column, so output rows come out sorted regardless of team size.
  std::vector<index_t> hist(static_cast<std::size_t>(chunks) *
                                static_cast<std::size_t>(m),
                            0);
#pragma omp parallel for schedule(static)
  for (int ch = 0; ch < chunks; ++ch) {
    const Range rr = partition_range(n, chunks, ch);
    index_t* h = hist.data() + static_cast<std::size_t>(ch) * static_cast<std::size_t>(m);
    for (index_t k = a.row_ptr()[static_cast<std::size_t>(rr.begin)];
         k < a.row_ptr()[static_cast<std::size_t>(rr.end)]; ++k) {
      ++h[a.col_idx()[static_cast<std::size_t>(k)]];
    }
  }
  // Per-column totals and per-(chunk, column) write cursors in one sweep.
  std::vector<index_t> rp(static_cast<std::size_t>(m) + 1, 0);
  index_t running = 0;
  for (index_t c = 0; c < m; ++c) {
    rp[static_cast<std::size_t>(c)] = running;
    for (int ch = 0; ch < chunks; ++ch) {
      index_t& h = hist[static_cast<std::size_t>(ch) * static_cast<std::size_t>(m) +
                        static_cast<std::size_t>(c)];
      const index_t cnt = h;
      h = running;  // becomes chunk ch's write cursor for column c
      running += cnt;
    }
  }
  rp[static_cast<std::size_t>(m)] = running;
  std::vector<index_t> ci(static_cast<std::size_t>(nnz));
  std::vector<value_t> vv(static_cast<std::size_t>(nnz));
#pragma omp parallel for schedule(static)
  for (int ch = 0; ch < chunks; ++ch) {
    const Range rr = partition_range(n, chunks, ch);
    index_t* cursor = hist.data() + static_cast<std::size_t>(ch) * static_cast<std::size_t>(m);
    for (index_t r = rr.begin; r < rr.end; ++r) {
      for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
        const index_t c = a.col_idx()[static_cast<std::size_t>(k)];
        const index_t pos = cursor[static_cast<std::size_t>(c)]++;
        ci[static_cast<std::size_t>(pos)] = r;
        vv[static_cast<std::size_t>(pos)] = a.values()[static_cast<std::size_t>(k)];
      }
    }
  }
  return CsrMatrix(m, n, std::move(rp), std::move(ci), std::move(vv));
}

CsrMatrix spgemm(const CsrMatrix& a, const CsrMatrix& b) {
  JAVELIN_CHECK(a.cols() == b.rows(), "spgemm dimension mismatch");
  const index_t n = a.rows();
  const index_t m = b.cols();

  std::vector<index_t> rp(static_cast<std::size_t>(n) + 1, 0);

  // Symbolic pass: count distinct output columns per row with a dense marker
  // stamped by row index (no clearing between rows).
#pragma omp parallel
  {
    std::vector<index_t> marker(static_cast<std::size_t>(m), kInvalidIndex);
#pragma omp for schedule(dynamic, 256)
    for (index_t r = 0; r < n; ++r) {
      index_t cnt = 0;
      for (index_t ka = a.row_begin(r); ka < a.row_end(r); ++ka) {
        const index_t ca = a.col_idx()[static_cast<std::size_t>(ka)];
        for (index_t kb = b.row_begin(ca); kb < b.row_end(ca); ++kb) {
          const index_t cb = b.col_idx()[static_cast<std::size_t>(kb)];
          if (marker[static_cast<std::size_t>(cb)] != r) {
            marker[static_cast<std::size_t>(cb)] = r;
            ++cnt;
          }
        }
      }
      rp[static_cast<std::size_t>(r) + 1] = cnt;
    }
  }
  inclusive_scan_inplace(std::span<index_t>(rp).subspan(1));

  const std::size_t out_nnz = static_cast<std::size_t>(rp.back());
  std::vector<index_t> ci(out_nnz);
  std::vector<value_t> vv(out_nnz);

  // Numeric pass: the marker now holds the output position of each live
  // column. Every output entry accumulates its products in A-row-major,
  // B-row-major storage order — fixed by the inputs, not by the thread
  // decomposition — then the finished row is sorted by column (values carried
  // along; sorting after accumulation cannot change any sum).
#pragma omp parallel
  {
    std::vector<index_t> marker(static_cast<std::size_t>(m), kInvalidIndex);
    std::vector<std::pair<index_t, value_t>> row_buf;
#pragma omp for schedule(dynamic, 256)
    for (index_t r = 0; r < n; ++r) {
      const index_t row_beg = rp[static_cast<std::size_t>(r)];
      index_t row_end = row_beg;
      for (index_t ka = a.row_begin(r); ka < a.row_end(r); ++ka) {
        const index_t ca = a.col_idx()[static_cast<std::size_t>(ka)];
        const value_t va = a.values()[static_cast<std::size_t>(ka)];
        for (index_t kb = b.row_begin(ca); kb < b.row_end(ca); ++kb) {
          const index_t cb = b.col_idx()[static_cast<std::size_t>(kb)];
          const value_t vb = b.values()[static_cast<std::size_t>(kb)];
          // "Seen in this row" iff the stored position lies inside this
          // row's fill window. Stale marker entries from other rows land
          // strictly below row_beg or at/above this row's rp terminator
          // (>= row_end), whichever order the runtime dispatched rows in.
          const index_t pos = marker[static_cast<std::size_t>(cb)];
          if (pos < row_beg || pos >= row_end) {
            marker[static_cast<std::size_t>(cb)] = row_end;
            ci[static_cast<std::size_t>(row_end)] = cb;
            vv[static_cast<std::size_t>(row_end)] = va * vb;
            ++row_end;
          } else {
            vv[static_cast<std::size_t>(pos)] += va * vb;
          }
        }
      }
      row_buf.clear();
      for (index_t k = row_beg; k < row_end; ++k) {
        row_buf.emplace_back(ci[static_cast<std::size_t>(k)],
                             vv[static_cast<std::size_t>(k)]);
      }
      std::sort(row_buf.begin(), row_buf.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      index_t w = row_beg;
      for (const auto& [c, v] : row_buf) {
        ci[static_cast<std::size_t>(w)] = c;
        vv[static_cast<std::size_t>(w)] = v;
        ++w;
      }
    }
  }
  return CsrMatrix(n, m, std::move(rp), std::move(ci), std::move(vv));
}

CsrMatrix pattern_symmetrize(const CsrMatrix& a) {
  JAVELIN_CHECK(a.square(), "pattern_symmetrize requires a square matrix");
  const CsrMatrix at = transpose(a);
  const index_t n = a.rows();
  std::vector<index_t> rp(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> ci;
  std::vector<value_t> vv;
  ci.reserve(static_cast<std::size_t>(a.nnz()) * 2);
  vv.reserve(static_cast<std::size_t>(a.nnz()) * 2);
  for (index_t r = 0; r < n; ++r) {
    auto ac = a.row_cols(r);
    auto av = a.row_vals(r);
    auto bc = at.row_cols(r);
    auto bv = at.row_vals(r);
    std::size_t i = 0, j = 0;
    while (i < ac.size() || j < bc.size()) {
      index_t col;
      value_t val;
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        col = ac[i];
        val = av[i];
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        col = bc[j];
        val = bv[j];
        ++j;
      } else {
        col = ac[i];
        val = av[i] + bv[j];
        ++i;
        ++j;
      }
      ci.push_back(col);
      vv.push_back(val);
    }
    rp[static_cast<std::size_t>(r) + 1] = static_cast<index_t>(ci.size());
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vv));
}

bool pattern_symmetric(const CsrMatrix& a) {
  if (!a.square()) return false;
  const CsrMatrix at = transpose(a);
  return a.row_ptr().size() == at.row_ptr().size() &&
         std::equal(a.row_ptr().begin(), a.row_ptr().end(), at.row_ptr().begin()) &&
         std::equal(a.col_idx().begin(), a.col_idx().end(), at.col_idx().begin());
}

std::vector<index_t> invert_permutation(std::span<const index_t> perm) {
  std::vector<index_t> inv(perm.size(), kInvalidIndex);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<index_t>(i);
  }
  return inv;
}

CsrMatrix permute_symmetric(const CsrMatrix& a, std::span<const index_t> perm,
                            std::vector<index_t>* slot_of) {
  JAVELIN_CHECK(a.square(), "symmetric permutation requires a square matrix");
  JAVELIN_CHECK(perm.size() == static_cast<std::size_t>(a.rows()),
                "permutation length mismatch");
  const index_t n = a.rows();
  const std::vector<index_t> inv = invert_permutation(perm);

  std::vector<index_t> rp(static_cast<std::size_t>(n) + 1, 0);
  for (index_t r = 0; r < n; ++r) {
    rp[static_cast<std::size_t>(r) + 1] = a.row_nnz(perm[static_cast<std::size_t>(r)]);
  }
  inclusive_scan_inplace(std::span<index_t>(rp).subspan(1));
  std::vector<index_t> ci(static_cast<std::size_t>(a.nnz()));
  std::vector<value_t> vv(static_cast<std::size_t>(a.nnz()));
  if (slot_of != nullptr) slot_of->resize(static_cast<std::size_t>(a.nnz()));
  index_t* const slot = slot_of != nullptr ? slot_of->data() : nullptr;

  // Parallel first-touch copy into the permuted layout (paper §III: "we
  // permute the nonzeros ... while copying A into the CSR data-structure of
  // L and U in parallel allowing for first-touch"). Each row sorts
  // (new column, source position) pairs, so the write of source k is also
  // where slot_of records it; every source row is read by one output row.
#pragma omp parallel
  {
    std::vector<std::pair<index_t, index_t>> buf;
#pragma omp for schedule(dynamic, 64)
    for (index_t r = 0; r < n; ++r) {
      const index_t old_r = perm[static_cast<std::size_t>(r)];
      buf.clear();
      for (index_t k = a.row_begin(old_r); k < a.row_end(old_r); ++k) {
        buf.emplace_back(inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])],
                         k);
      }
      std::sort(buf.begin(), buf.end(),
                [](const auto& x, const auto& y) { return x.first < y.first; });
      index_t w = rp[static_cast<std::size_t>(r)];
      for (const auto& [c, k] : buf) {
        ci[static_cast<std::size_t>(w)] = c;
        vv[static_cast<std::size_t>(w)] = a.values()[static_cast<std::size_t>(k)];
        if (slot != nullptr) slot[static_cast<std::size_t>(k)] = w;
        ++w;
      }
    }
  }
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vv));
}

std::vector<index_t> diagonal_positions(const CsrMatrix& a) {
  JAVELIN_CHECK(a.square(), "diagonal_positions requires a square matrix");
  std::vector<index_t> pos(static_cast<std::size_t>(a.rows()));
  // Nothing may throw inside the region: reduce a flag, check after it.
  bool missing = false;
#pragma omp parallel for schedule(static) reduction(|| : missing)
  for (index_t r = 0; r < a.rows(); ++r) {
    const index_t p = a.find(r, r);
    if (p == kInvalidIndex) missing = true;
    pos[static_cast<std::size_t>(r)] = p;
  }
  JAVELIN_CHECK(!missing, "structurally missing diagonal entry");
  return pos;
}

value_t max_abs_difference(const CsrMatrix& a, const CsrMatrix& b) {
  JAVELIN_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
                "dimension mismatch");
  value_t worst = 0;
  for (index_t r = 0; r < a.rows(); ++r) {
    auto ac = a.row_cols(r);
    auto av = a.row_vals(r);
    auto bc = b.row_cols(r);
    auto bv = b.row_vals(r);
    std::size_t i = 0, j = 0;
    while (i < ac.size() || j < bc.size()) {
      value_t d;
      if (j >= bc.size() || (i < ac.size() && ac[i] < bc[j])) {
        d = std::abs(av[i]);
        ++i;
      } else if (i >= ac.size() || bc[j] < ac[i]) {
        d = std::abs(bv[j]);
        ++j;
      } else {
        d = std::abs(av[i] - bv[j]);
        ++i;
        ++j;
      }
      worst = std::max(worst, d);
    }
  }
  return worst;
}

std::vector<value_t> to_dense(const CsrMatrix& a) {
  std::vector<value_t> d(static_cast<std::size_t>(a.rows()) *
                             static_cast<std::size_t>(a.cols()),
                         value_t{0});
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      d[static_cast<std::size_t>(r) * static_cast<std::size_t>(a.cols()) +
        static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])] =
          a.values()[static_cast<std::size_t>(k)];
    }
  }
  return d;
}

std::vector<value_t> dense_matmul(const CsrMatrix& a, const CsrMatrix& b) {
  JAVELIN_CHECK(a.cols() == b.rows(), "dimension mismatch in matmul");
  std::vector<value_t> out(static_cast<std::size_t>(a.rows()) *
                               static_cast<std::size_t>(b.cols()),
                           value_t{0});
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      const index_t mid = a.col_idx()[static_cast<std::size_t>(k)];
      const value_t av = a.values()[static_cast<std::size_t>(k)];
      for (index_t k2 = b.row_begin(mid); k2 < b.row_end(mid); ++k2) {
        out[static_cast<std::size_t>(r) * static_cast<std::size_t>(b.cols()) +
            static_cast<std::size_t>(b.col_idx()[static_cast<std::size_t>(k2)])] +=
            av * b.values()[static_cast<std::size_t>(k2)];
      }
    }
  }
  return out;
}

}  // namespace javelin
