#include "javelin/sparse/io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>

#include "javelin/sparse/coo.hpp"

namespace javelin {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  JAVELIN_CHECK(static_cast<bool>(std::getline(in, line)), "empty Matrix-Market stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  JAVELIN_CHECK(banner == "%%MatrixMarket", "missing %%MatrixMarket banner");
  object = lower(object);
  format = lower(format);
  field = lower(field);
  symmetry = lower(symmetry);
  JAVELIN_CHECK(object == "matrix", "only 'matrix' objects supported");
  JAVELIN_CHECK(format == "coordinate", "only 'coordinate' format supported");
  JAVELIN_CHECK(field == "real" || field == "integer" || field == "pattern",
                "unsupported field type: " + field);
  const bool is_pattern = field == "pattern";
  const bool is_symmetric = symmetry == "symmetric";
  const bool is_skew = symmetry == "skew-symmetric";
  JAVELIN_CHECK(is_symmetric || is_skew || symmetry == "general",
                "unsupported symmetry: " + symmetry);

  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream size_line(line);
  std::int64_t rows64 = 0, cols64 = 0, nnz64 = 0;
  size_line >> rows64 >> cols64 >> nnz64;
  JAVELIN_CHECK(!size_line.fail(), "malformed size line");
  JAVELIN_CHECK(rows64 >= 0 && cols64 >= 0 && nnz64 >= 0,
                "negative dimension or count in size line");

  CooMatrix coo;
  coo.rows = checked_cast<index_t>(rows64, "rows");
  coo.cols = checked_cast<index_t>(cols64, "cols");
  // Both dimensions now fit index_t, so their product fits int64. A larger
  // count would need duplicate coordinates.
  JAVELIN_CHECK(nnz64 <= rows64 * cols64,
                "declared entry count " + std::to_string(nnz64) +
                    " exceeds rows x cols");
  // The header is untrusted: reserve at most kMaxReserve entries up front and
  // let push grow the arrays, so a huge declared count over a short stream
  // fails at its first missing entry instead of in the allocator.
  constexpr std::int64_t kMaxReserve = std::int64_t{1} << 20;
  coo.reserve(static_cast<std::size_t>(std::min(nnz64, kMaxReserve)) *
              ((is_symmetric || is_skew) ? 2 : 1));

  for (std::int64_t k = 0; k < nnz64; ++k) {
    std::int64_t r64 = 0, c64 = 0;
    double v = 1.0;
    in >> r64 >> c64;
    if (!is_pattern) in >> v;
    // A failed extraction covers both malformed tokens and fields that
    // overflow their type (indices wider than int64, values outside double
    // range) — all must fail HERE, with the entry number, not later as
    // garbage coordinates or poisoned factor values.
    if (in.fail()) {
      throw Error("matrix-market entry " + std::to_string(k + 1) +
                  ": malformed or overflowing entry line");
    }
    if (!std::isfinite(v)) {
      // NaN/Inf values would silently poison every downstream kernel (the
      // solvers guard, but the matrix itself must be rejected at the door).
      throw Error("matrix-market entry " + std::to_string(k + 1) +
                  ": non-finite value " + std::to_string(v));
    }
    // Coordinate entries are 1-based and must land inside the declared
    // dimensions; a malformed file must fail here, not as an out-of-bounds
    // access when the COO entries reach the CSR kernels.
    if (r64 < 1 || r64 > rows64 || c64 < 1 || c64 > cols64) {
      throw Error("matrix-market entry " + std::to_string(k + 1) +
                  " index (" + std::to_string(r64) + ", " +
                  std::to_string(c64) + ") outside declared " +
                  std::to_string(rows64) + " x " + std::to_string(cols64) +
                  " matrix");
    }
    const index_t r = checked_cast<index_t>(r64 - 1, "row index");
    const index_t c = checked_cast<index_t>(c64 - 1, "col index");
    coo.push(r, c, static_cast<value_t>(v));
    if ((is_symmetric || is_skew) && r != c) {
      coo.push(c, r, static_cast<value_t>(is_skew ? -v : v));
    }
  }
  return coo_to_csr(coo);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream f(path);
  JAVELIN_CHECK(f.good(), "cannot open file: " + path);
  return read_matrix_market(f);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& a) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << a.rows() << ' ' << a.cols() << ' ' << a.nnz() << '\n';
  out.precision(17);
  for (index_t r = 0; r < a.rows(); ++r) {
    for (index_t k = a.row_begin(r); k < a.row_end(r); ++k) {
      out << (r + 1) << ' ' << (a.col_idx()[static_cast<std::size_t>(k)] + 1) << ' '
          << a.values()[static_cast<std::size_t>(k)] << '\n';
    }
  }
}

}  // namespace javelin
