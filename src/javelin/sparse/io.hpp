// Matrix-Market (.mtx) reader/writer so the library interoperates with the
// SuiteSparse collection the paper evaluates on (paper §IV cites [16]).
// Supports `matrix coordinate real|integer|pattern general|symmetric`.
#pragma once

#include <iosfwd>
#include <string>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Parse a Matrix-Market stream into CSR. Symmetric files are expanded to
/// full storage (both triangles); `pattern` files get value 1 on every entry.
CsrMatrix read_matrix_market(std::istream& in);

/// Convenience overload opening `path`; throws Error on I/O failure.
CsrMatrix read_matrix_market_file(const std::string& path);

/// Write `a` as `matrix coordinate real general` (1-based indices).
void write_matrix_market(std::ostream& out, const CsrMatrix& a);

}  // namespace javelin
