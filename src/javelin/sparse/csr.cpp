#include "javelin/sparse/csr.hpp"

#include <algorithm>
#include <numeric>

namespace javelin {

CsrMatrix CsrMatrix::identity(index_t n) {
  std::vector<index_t> rp(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> ci(static_cast<std::size_t>(n));
  std::vector<value_t> vals(static_cast<std::size_t>(n), value_t{1});
  std::iota(rp.begin(), rp.end(), index_t{0});
  std::iota(ci.begin(), ci.end(), index_t{0});
  return CsrMatrix(n, n, std::move(rp), std::move(ci), std::move(vals));
}

index_t CsrMatrix::find(index_t r, index_t c) const noexcept {
  const index_t lo = row_begin(r);
  const index_t hi = row_end(r);
  const auto first = col_idx_.begin() + lo;
  const auto last = col_idx_.begin() + hi;
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return kInvalidIndex;
  return static_cast<index_t>(it - col_idx_.begin());
}

bool CsrMatrix::rows_sorted_and_unique() const noexcept {
  for (index_t r = 0; r < rows_; ++r) {
    index_t prev = -1;
    for (index_t k = row_begin(r); k < row_end(r); ++k) {
      const index_t c = col_idx_[static_cast<std::size_t>(k)];
      if (c <= prev || c < 0 || c >= cols_) return false;
      prev = c;
    }
  }
  return true;
}

bool CsrMatrix::has_full_diagonal() const noexcept {
  if (!square()) return false;
  // Row-parallel: one binary search per row, reduced to one flag.
  bool missing = false;
#pragma omp parallel for schedule(static) reduction(|| : missing)
  for (index_t r = 0; r < rows_; ++r) {
    if (find(r, r) == kInvalidIndex) missing = true;
  }
  return !missing;
}

void CsrMatrix::validate() const {
  JAVELIN_CHECK(rows_ >= 0 && cols_ >= 0, "negative dimension");
  JAVELIN_CHECK(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1,
                "row_ptr length mismatch");
  JAVELIN_CHECK(row_ptr_.front() == 0, "row_ptr must start at 0");
  for (index_t r = 0; r < rows_; ++r) {
    JAVELIN_CHECK(row_begin(r) <= row_end(r), "row_ptr must be nondecreasing");
  }
  JAVELIN_CHECK(row_ptr_.back() == nnz(), "row_ptr terminator mismatch");
  JAVELIN_CHECK(rows_sorted_and_unique(),
                "rows must be sorted by column with no duplicates");
}

}  // namespace javelin
