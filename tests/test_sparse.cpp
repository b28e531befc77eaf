// The partitioned and panel SpMV against the serial reference, the
// nnz-balanced RowPartition invariants, the vector helpers against plain
// loops at and past their inline length, short spans rejected by the
// serial SpMV and the vector helpers, and the Matrix-Market reader's
// validation.
#include <algorithm>
#include <sstream>

#include "javelin/gen/generators.hpp"
#include "javelin/sparse/io.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

void check_partition(const CsrMatrix& a, int parts) {
  const RowPartition p = RowPartition::build(a, parts);
  CHECK(p.parts() == parts);
  CHECK(p.bounds.front() == 0);
  CHECK(p.bounds.back() == a.rows());
  for (int t = 0; t < parts; ++t) {
    CHECK(p.bounds[static_cast<std::size_t>(t)] <=
          p.bounds[static_cast<std::size_t>(t) + 1]);
  }
  // Each chunk's nonzero load is within one max-row of the ideal share
  // (row-aligned splitting cannot do better than row granularity).
  index_t max_row_nnz = 0;
  for (index_t r = 0; r < a.rows(); ++r) {
    max_row_nnz = std::max(max_row_nnz, a.row_nnz(r));
  }
  const double ideal =
      static_cast<double>(a.nnz()) / static_cast<double>(parts);
  for (int t = 0; t < parts; ++t) {
    const index_t lo = p.bounds[static_cast<std::size_t>(t)];
    const index_t hi = p.bounds[static_cast<std::size_t>(t) + 1];
    const index_t load = a.row_ptr()[static_cast<std::size_t>(hi)] -
                         a.row_ptr()[static_cast<std::size_t>(lo)];
    CHECK_MSG(static_cast<double>(load) <=
                  ideal + static_cast<double>(max_row_nnz),
              "part %d load %d ideal %.1f max_row %d", t, load, ideal,
              max_row_nnz);
  }
}

void check_spmv_variants(const CsrMatrix& a, std::uint64_t seed) {
  const auto x = random_vector(a.cols(), seed);
  std::vector<value_t> y_ref(static_cast<std::size_t>(a.rows()));
  spmv_serial(a, x, y_ref);

  // Row sums accumulate in the same CSR order regardless of which thread
  // owns the row, so the parallel kernels are bitwise-identical.
  std::vector<value_t> y(static_cast<std::size_t>(a.rows()));
  for (int parts : {1, 2, 3, 7}) {
    const RowPartition p = RowPartition::build(a, parts);
    std::fill(y.begin(), y.end(), -1);
    spmv(a, p, x, y);
    CHECK(javelin::test::bitwise_equal(y, y_ref));
  }

  // A span shorter than the matrix throws instead of being read or written
  // out of bounds.
  const RowPartition p = RowPartition::build(a, 2);
  const auto throws = [](auto&& fn) {
    try {
      fn();
    } catch (const Error&) {
      return true;
    }
    return false;
  };
  CHECK(throws([&] {
    spmv(a, p, std::span<const value_t>(x).first(x.size() - 1), y);
  }));
  CHECK(throws([&] { spmv(a, p, x, std::span<value_t>(y).first(y.size() - 1)); }));
}

/// spmv_panel column j equals spmv_serial of column j bitwise, at the
/// widths fixed once per call (1, 2, 4, 8) and at widths split into
/// register blocks per row (3, 5, 11).
void check_spmv_panel(const CsrMatrix& a, std::uint64_t seed) {
  const std::size_t rows = static_cast<std::size_t>(a.rows());
  const RowPartition part = RowPartition::build(a, 3);
  for (const index_t k : {1, 2, 3, 4, 5, 8, 11}) {
    const std::size_t uk = static_cast<std::size_t>(k);
    std::vector<value_t> x, y(rows * uk, -1), y_ref(rows * uk);
    for (index_t j = 0; j < k; ++j) {
      const auto col =
          random_vector(a.cols(), seed + static_cast<std::uint64_t>(j));
      x.insert(x.end(), col.begin(), col.end());
      spmv_serial(a, col,
                  std::span<value_t>(y_ref).subspan(
                      static_cast<std::size_t>(j) * rows, rows));
    }
    spmv_panel(a, part, x, y, k);
    CHECK_MSG(javelin::test::bitwise_equal(y, y_ref), "spmv_panel k=%d",
              static_cast<int>(k));
  }
}

/// A span one element short throws, in Release builds too, instead of
/// being read or written past its end.
void check_short_spans(const CsrMatrix& a) {
  const auto expect_throw = [](const char* what, const auto& fn) {
    bool threw = false;
    try {
      fn();
    } catch (const Error&) {
      threw = true;
    }
    CHECK_MSG(threw, "%s accepted a span one element short", what);
  };
  const std::size_t n = static_cast<std::size_t>(a.rows());
  std::vector<value_t> x(n, 1.0), y(n, 0.0);
  const std::span<const value_t> xs(x);
  const std::span<value_t> ys(y);
  const std::span<const value_t> x_short = xs.first(n - 1);
  const std::span<value_t> y_short = ys.first(n - 1);
  expect_throw("spmv_serial x", [&] { spmv_serial(a, x_short, ys); });
  expect_throw("spmv_serial y", [&] { spmv_serial(a, xs, y_short); });
  expect_throw("dot a", [&] { (void)dot(x_short, xs); });
  expect_throw("dot b", [&] { (void)dot(xs, x_short); });
  expect_throw("axpy x", [&] { axpy(1.0, x_short, ys); });
  expect_throw("axpy y", [&] { axpy(1.0, xs, y_short); });
  expect_throw("xpby x", [&] { xpby(x_short, 1.0, ys); });
  expect_throw("xpby y", [&] { xpby(xs, 1.0, y_short); });
  expect_throw("copy", [&] { copy(xs, y_short); });
  // Full-size spans still run.
  spmv_serial(a, xs, ys);
  copy(xs, ys);
  CHECK(dot(xs, ys) == static_cast<value_t>(n));
}

/// At dot's block length (4096, the longest vector the helpers run inline)
/// and one past it, at teams 1 and 4, dot, axpy, xpby and scale equal plain
/// loops bitwise. dot's loop is its fixed blocking: each 4096-element block
/// summed in index order, then the block sums in block order.
void check_vector_ops() {
  constexpr std::size_t kBlock = 4096;
  for (const std::size_t n : {kBlock, kBlock + 1}) {
    const auto x = random_vector(static_cast<index_t>(n), 0xD07);
    const auto y = random_vector(static_cast<index_t>(n), 0xA11);
    value_t dot_ref = 0;
    for (std::size_t lo = 0; lo < n; lo += kBlock) {
      value_t s = 0;
      for (std::size_t i = lo; i < std::min(lo + kBlock, n); ++i) {
        const volatile value_t p = x[i] * y[i];
        s += p;
      }
      dot_ref += s;
    }
    // The products go through a volatile so this file's loops round them
    // as the library does (it builds with -ffp-contract=off; a fused
    // multiply-add would differ in the last bit).
    std::vector<value_t> axpy_ref = y, xpby_ref = y, scale_ref = y;
    for (std::size_t i = 0; i < n; ++i) {
      volatile value_t p = 0.75 * x[i];
      axpy_ref[i] += p;
      p = -1.25 * xpby_ref[i];
      xpby_ref[i] = x[i] + p;
      scale_ref[i] *= 1.5;
    }
    for (const int team : {1, 4}) {
      ThreadCountGuard guard(team);
      std::vector<value_t> ya = y, yx = y, ys = y;
      axpy(0.75, x, ya);
      xpby(x, -1.25, yx);
      scale(1.5, ys);
      const value_t d = dot(x, y);
      CHECK_MSG(bitwise_equal({&d, 1}, {&dot_ref, 1}), "dot n=%zu team %d", n,
                team);
      CHECK_MSG(bitwise_equal(ya, axpy_ref), "axpy n=%zu team %d", n, team);
      CHECK_MSG(bitwise_equal(yx, xpby_ref), "xpby n=%zu team %d", n, team);
      CHECK_MSG(bitwise_equal(ys, scale_ref), "scale n=%zu team %d", n, team);
    }
  }
}

}  // namespace

int main() {
  ThreadCountGuard guard(4);

  CsrMatrix grid = gen::laplacian2d(23, 19, 5);
  CsrMatrix circ = gen::circuit(1100, 6.0, 42, /*symmetric_pattern=*/false, 8);
  CsrMatrix power = gen::power_system(900, 20, 60, 7);

  for (const CsrMatrix* a : {&grid, &circ, &power}) {
    check_spmv_variants(*a, 123);
    check_spmv_panel(*a, 321);
    for (int parts : {1, 2, 4, 9}) check_partition(*a, parts);
  }

  check_short_spans(grid);
  check_vector_ops();

  // Degenerate shapes.
  check_partition(CsrMatrix::zeros(10, 10), 4);
  check_partition(CsrMatrix::identity(1), 3);

  // --- Matrix-Market reader: well-formed round trip -----------------------
  {
    std::stringstream ss;
    write_matrix_market(ss, grid);
    const CsrMatrix back = read_matrix_market(ss);
    CHECK(back.rows() == grid.rows() && back.nnz() == grid.nnz());
    CHECK(max_abs_difference(back, grid) == 0);
  }

  // --- Matrix-Market reader: out-of-range indices must throw --------------
  // (regression: entries used to pass through with only an integer-width
  // check, producing out-of-bounds COO entries and downstream OOB access)
  {
    const auto expect_throw = [&](const char* body, const char* what) {
      std::istringstream in(body);
      bool threw = false;
      try {
        read_matrix_market(in);
      } catch (const Error&) {
        threw = true;
      }
      CHECK_MSG(threw, "reader accepted %s", what);
    };
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n5 2 2.0\n",
        "row index above declared rows");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n2 7 1.0\n",
        "col index above declared cols");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n0 2 1.0\n",
        "zero (not 1-based) row index");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n2 -1 1.0\n",
        "negative col index");
    expect_throw(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n4 1 1.0\n",
        "out-of-range row in a symmetric file");

    // Non-finite and overflowing VALUES must be rejected at the door too
    // (regression: NaN/Inf used to pass through and poison the factor; the
    // solvers guard, but the matrix itself must never be built).
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n2 2 nan\n",
        "NaN value");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 inf\n",
        "Inf value");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 -inf\n",
        "-Inf value");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 1e999999\n",
        "value overflowing double");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n1 1 abc\n",
        "malformed value token");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n3 3 1\n99999999999999999999999999 1 1.0\n",
        "row index overflowing int64");

    // An oversized declared count is a structured error, never bad_alloc:
    // counts above rows x cols are rejected from the header, and a count
    // that fits but outruns the stream fails at its first missing entry.
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n2 2 4000000000000\n1 1 1.0\n",
        "entry count above rows x cols");
    expect_throw(
        "%%MatrixMarket matrix coordinate real symmetric\n2 2 600000000000000000\n1 1 1.0\n",
        "symmetric entry count above rows x cols");
    expect_throw(
        "%%MatrixMarket matrix coordinate real general\n1000000 1000000 999999999999\n1 1 1.0\n",
        "entry count beyond the stream");

    // The thrown message carries the 1-based ENTRY NUMBER so a bad line in a
    // million-entry file is findable.
    {
      std::istringstream in(
          "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.0\n2 2 nan\n");
      std::string what;
      try {
        read_matrix_market(in);
      } catch (const Error& e) {
        what = e.what();
      }
      CHECK_MSG(what.find("entry 2") != std::string::npos,
                "entry number missing from '%s'", what.c_str());
    }
    {
      std::istringstream in(
          "%%MatrixMarket matrix coordinate real general\n"
          "1000000 1000000 999999999999\n1 1 1.0\n");
      std::string what;
      try {
        read_matrix_market(in);
      } catch (const Error& e) {
        what = e.what();
      }
      CHECK_MSG(what.find("entry 2") != std::string::npos,
                "short stream not reported at entry 2: '%s'", what.c_str());
    }
  }

  return javelin::test::finish("test_sparse");
}
