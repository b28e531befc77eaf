// Serial up-looking incomplete factorization — the reference implementation
// every parallel path is validated against (they share the row kernel, so
// results are bitwise identical).
#pragma once

#include <span>

#include "javelin/ilu/options.hpp"
#include "javelin/sparse/csr.hpp"

namespace javelin {

/// In-place numeric ILU on a matrix that already carries the target pattern
/// (output of ilu_symbolic) with A's values scattered on. After the call,
/// `lu` stores L (unit diagonal implicit, strictly-lower entries are the
/// multipliers) and U (diagonal + strictly-upper) in one CSR.
/// `diag_pos` must come from diagonal_positions(lu).
/// Throws Error on a zero/tiny pivot (row index in the message).
void ilu_factor_serial_inplace(CsrMatrix& lu, std::span<const index_t> diag_pos,
                               const IluOptions& opts);

}  // namespace javelin
