#include "javelin/sparse/spmv.hpp"

#include <algorithm>
#include <cmath>

#include "javelin/sparse/panel.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/support/spinwait.hpp"

namespace javelin {

namespace {

/// dot's fixed reduction block, and the length at or below which every
/// dense helper runs inline.
constexpr std::ptrdiff_t kVectorBlock = 4096;

/// The dense helpers are pure streaming passes: on a vector of at most one
/// block, or when the requested team exceeds the hardware's concurrency, a
/// parallel region buys no bandwidth and its fork/join churn dwarfs the
/// loop itself — run inline instead. Value-neutral either way: the ops are
/// elementwise (and dot's reduction tree is fixed by the vector length,
/// never the team size).
bool parallel_vectors_worthwhile(std::size_t n) noexcept {
#ifdef _OPENMP
  return n > static_cast<std::size_t>(kVectorBlock) &&
         !team_oversubscribed(max_threads());
#else
  (void)n;
  return false;
#endif
}

/// Row index at which chunk `part` of `parts` begins when splitting by
/// nonzero count: the first row whose nonzeros start at or after the chunk's
/// nnz target. Row-aligned, monotone in `part`, and covers [0, rows].
index_t nnz_split_row(const CsrMatrix& a, int parts, int part) {
  if (part <= 0) return 0;
  if (part >= parts) return a.rows();
  const index_t target = partition_range(a.nnz(), parts, part).begin;
  const auto rp = a.row_ptr();
  const auto it = std::lower_bound(rp.begin(), rp.end(), target);
  return static_cast<index_t>(it - rp.begin());
}

/// Y = A X for k-column panels X (column stride cols()) and Y (stride
/// rows()) over `part`, at the block width W fixed by with_block_width
/// (W = 0: blocks chosen per row). schedule(static, 1) so a team smaller
/// than the partition still covers every chunk (contiguous chunks stay
/// with one thread when sizes match).
template <int W>
void spmv_rows(const CsrMatrix& a, const RowPartition& part, const value_t* x,
               value_t* y, index_t k) {
  const std::size_t ldx = static_cast<std::size_t>(a.cols());
  const std::size_t ldy = static_cast<std::size_t>(a.rows());
#pragma omp parallel for schedule(static, 1)
  for (int p = 0; p < part.parts(); ++p) {
    const index_t lo = part.bounds[static_cast<std::size_t>(p)];
    const index_t hi = part.bounds[static_cast<std::size_t>(p) + 1];
    for (index_t r = lo; r < hi; ++r) {
      detail::for_each_panel_block<W>(k, [&](index_t j0, auto kb) {
        detail::spmv_row<decltype(kb)::value>(
            a, r, x + static_cast<std::size_t>(j0) * ldx, ldx,
            y + static_cast<std::size_t>(j0) * ldy, ldy);
      });
    }
  }
}

}  // namespace

RowPartition RowPartition::build(const CsrMatrix& a, int parts) {
  if (parts <= 0) parts = max_threads();
  RowPartition p;
  p.bounds.resize(static_cast<std::size_t>(parts) + 1);
  for (int t = 0; t <= parts; ++t) {
    p.bounds[static_cast<std::size_t>(t)] = nnz_split_row(a, parts, t);
  }
  return p;
}

void spmv_serial(const CsrMatrix& a, std::span<const value_t> x,
                 std::span<value_t> y) {
  JAVELIN_CHECK(x.size() >= static_cast<std::size_t>(a.cols()),
                "spmv_serial: x smaller than cols()");
  JAVELIN_CHECK(y.size() >= static_cast<std::size_t>(a.rows()),
                "spmv_serial: y smaller than rows()");
  const auto ci = a.col_idx();
  const auto vv = a.values();
  for (index_t r = 0; r < a.rows(); ++r) {
    value_t acc = 0;
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      acc += vv[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(ci[static_cast<std::size_t>(k)])];
    }
    y[static_cast<std::size_t>(r)] = acc;
  }
}

void spmv(const CsrMatrix& a, const RowPartition& part,
          std::span<const value_t> x, std::span<value_t> y) {
  spmv_panel(a, part, x, y, 1);
}

void spmv_panel(const CsrMatrix& a, const RowPartition& part,
                std::span<const value_t> x, std::span<value_t> y, index_t k) {
  JAVELIN_CHECK(k >= 1, "spmv_panel requires k >= 1 right-hand sides");
  const std::size_t ldx = static_cast<std::size_t>(a.cols());
  const std::size_t ldy = static_cast<std::size_t>(a.rows());
  JAVELIN_CHECK(x.size() >= ldx * static_cast<std::size_t>(k),
                "spmv_panel: X panel smaller than cols() x k");
  JAVELIN_CHECK(y.size() >= ldy * static_cast<std::size_t>(k),
                "spmv_panel: Y panel smaller than rows() x k");
  detail::with_block_width(k, [&](auto w) {
    spmv_rows<decltype(w)::value>(a, part, x.data(), y.data(), k);
  });
}

value_t dot(std::span<const value_t> a, std::span<const value_t> b) {
  JAVELIN_CHECK(a.size() == b.size(), "dot: vector sizes differ");
  // Fixed-block pairwise reduction: each kVectorBlock-element block
  // accumulates serially in index order, then the block partials are summed
  // serially in block order. Blocks run in parallel, but the combination
  // tree depends ONLY on the vector length — never on the thread count — so
  // every dot (and hence every Krylov trajectory built on it) is
  // bitwise-identical across thread counts. An `omp reduction` would
  // combine per-thread partials in a team-size-dependent order and break
  // that.
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(a.size());
  if (n <= kVectorBlock) {
    value_t s = 0;
    for (std::ptrdiff_t i = 0; i < n; ++i) {
      s += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    }
    return s;
  }
  const std::ptrdiff_t num_blocks = (n + kVectorBlock - 1) / kVectorBlock;
  // Grow-only per-HOST-thread scratch: dot is the hottest scalar reduction
  // in the Krylov inner loop (GMRES runs j+1 of these per Arnoldi step), so
  // keep malloc/free out of it. The OpenMP workers must all write the
  // CALLING thread's buffer — inside the parallel region a thread_local
  // name would resolve to each worker's own (empty) copy — so the region
  // sees it only through this shared plain-local pointer.
  static thread_local std::vector<value_t> scratch;
  if (scratch.size() < static_cast<std::size_t>(num_blocks)) {
    scratch.resize(static_cast<std::size_t>(num_blocks));
  }
  value_t* const partial = scratch.data();
#pragma omp parallel for schedule(static) if (parallel_vectors_worthwhile(a.size()))
  for (std::ptrdiff_t blk = 0; blk < num_blocks; ++blk) {
    const std::ptrdiff_t lo = blk * kVectorBlock;
    const std::ptrdiff_t hi = std::min(lo + kVectorBlock, n);
    value_t s = 0;
    for (std::ptrdiff_t i = lo; i < hi; ++i) {
      s += a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    }
    partial[blk] = s;
  }
  value_t s = 0;
  for (std::ptrdiff_t blk = 0; blk < num_blocks; ++blk) {
    s += partial[blk];
  }
  return s;
}

value_t norm2(std::span<const value_t> a) { return std::sqrt(dot(a, a)); }

void axpy(value_t alpha, std::span<const value_t> x, std::span<value_t> y) {
  JAVELIN_CHECK(x.size() == y.size(), "axpy: vector sizes differ");
#pragma omp parallel for schedule(static) if (parallel_vectors_worthwhile(x.size()))
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(x.size()); ++i) {
    y[static_cast<std::size_t>(i)] += alpha * x[static_cast<std::size_t>(i)];
  }
}

void xpby(std::span<const value_t> x, value_t beta, std::span<value_t> y) {
  JAVELIN_CHECK(x.size() == y.size(), "xpby: vector sizes differ");
#pragma omp parallel for schedule(static) if (parallel_vectors_worthwhile(x.size()))
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(x.size()); ++i) {
    y[static_cast<std::size_t>(i)] = x[static_cast<std::size_t>(i)] + beta * y[static_cast<std::size_t>(i)];
  }
}

void scale(value_t alpha, std::span<value_t> x) {
#pragma omp parallel for schedule(static) if (parallel_vectors_worthwhile(x.size()))
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(x.size()); ++i) {
    x[static_cast<std::size_t>(i)] *= alpha;
  }
}

void copy(std::span<const value_t> src, std::span<value_t> dst) {
  JAVELIN_CHECK(src.size() <= dst.size(), "copy: destination too small");
  std::copy(src.begin(), src.end(), dst.begin());
}

void fill(std::span<value_t> x, value_t v) {
  std::fill(x.begin(), x.end(), v);
}

}  // namespace javelin
