#include "javelin/ilu/serial.hpp"

#include <string>

#include "javelin/ilu/row_kernel.hpp"

namespace javelin {

void ilu_factor_serial_inplace(CsrMatrix& lu, std::span<const index_t> diag_pos,
                               const IluOptions& opts) {
  const index_t n = lu.rows();
  RowWorkspace ws(n);
  RowKernelParams params{opts.drop_tolerance, opts.modified, opts.pivot_threshold};
  FactorView f{lu.row_ptr(), lu.col_idx(), lu.values_mut(), diag_pos};
  for (index_t r = 0; r < n; ++r) {
    if (!factor_row(f, r, ws, params)) {
      throw Error("zero or near-zero pivot at row " + std::to_string(r) +
                  " (Javelin does not pivot)");
    }
  }
}

}  // namespace javelin
