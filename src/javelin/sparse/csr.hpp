// Compressed Sparse Row matrix container.
//
// Javelin deliberately keeps the whole framework on plain CSR (paper §I:
// "minimal data preprocessing", §V: "very light weight data structures") —
// the factorization, spmv and stri all operate on this one structure plus
// small auxiliary index arrays.
#pragma once

#include <span>
#include <vector>

#include "javelin/support/types.hpp"

namespace javelin {

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Construct from raw CSR arrays. Rows must be sorted by column with no
  /// duplicates; validate() checks this in debug-heavy paths.
  CsrMatrix(index_t rows, index_t cols, std::vector<index_t> row_ptr,
            std::vector<index_t> col_idx, std::vector<value_t> values)
      : rows_(rows),
        cols_(cols),
        row_ptr_(std::move(row_ptr)),
        col_idx_(std::move(col_idx)),
        values_(std::move(values)) {
    JAVELIN_CHECK(row_ptr_.size() == static_cast<std::size_t>(rows_) + 1,
                  "row_ptr size must be rows+1");
    JAVELIN_CHECK(col_idx_.size() == values_.size(),
                  "col_idx and values must have equal length");
    JAVELIN_CHECK(row_ptr_.back() == static_cast<index_t>(col_idx_.size()),
                  "row_ptr terminator must equal nnz");
  }

  /// An empty rows x cols matrix (all-zero pattern).
  static CsrMatrix zeros(index_t rows, index_t cols) {
    return CsrMatrix(rows, cols,
                     std::vector<index_t>(static_cast<std::size_t>(rows) + 1, 0),
                     {}, {});
  }

  /// Identity matrix of dimension n.
  static CsrMatrix identity(index_t n);

  index_t rows() const noexcept { return rows_; }
  index_t cols() const noexcept { return cols_; }
  index_t nnz() const noexcept { return static_cast<index_t>(col_idx_.size()); }
  bool square() const noexcept { return rows_ == cols_; }

  std::span<const index_t> row_ptr() const noexcept { return row_ptr_; }
  std::span<const index_t> col_idx() const noexcept { return col_idx_; }
  std::span<const value_t> values() const noexcept { return values_; }
  std::span<value_t> values_mut() noexcept { return values_; }

  index_t row_begin(index_t r) const noexcept { return row_ptr_[static_cast<std::size_t>(r)]; }
  index_t row_end(index_t r) const noexcept { return row_ptr_[static_cast<std::size_t>(r) + 1]; }
  index_t row_nnz(index_t r) const noexcept { return row_end(r) - row_begin(r); }

  std::span<const index_t> row_cols(index_t r) const noexcept {
    return std::span<const index_t>(col_idx_).subspan(
        static_cast<std::size_t>(row_begin(r)), static_cast<std::size_t>(row_nnz(r)));
  }
  std::span<const value_t> row_vals(index_t r) const noexcept {
    return std::span<const value_t>(values_).subspan(
        static_cast<std::size_t>(row_begin(r)), static_cast<std::size_t>(row_nnz(r)));
  }

  /// Binary search for column `c` in row `r`; returns the nonzero position or
  /// kInvalidIndex. Requires sorted rows.
  index_t find(index_t r, index_t c) const noexcept;

  /// Value at (r, c), 0 if not stored.
  value_t at(index_t r, index_t c) const noexcept {
    const index_t p = find(r, c);
    return p == kInvalidIndex ? value_t{0} : values_[static_cast<std::size_t>(p)];
  }

  /// True iff every row's columns are strictly increasing and in range.
  bool rows_sorted_and_unique() const noexcept;

  /// True iff every diagonal entry is present in the pattern (required by
  /// up-looking ILU, which divides by the pivot). Parallel over rows.
  bool has_full_diagonal() const noexcept;

  /// Throws Error on any structural inconsistency.
  void validate() const;

  bool operator==(const CsrMatrix& o) const noexcept {
    return rows_ == o.rows_ && cols_ == o.cols_ && row_ptr_ == o.row_ptr_ &&
           col_idx_ == o.col_idx_ && values_ == o.values_;
  }

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<index_t> row_ptr_ = {0};
  std::vector<index_t> col_idx_;
  std::vector<value_t> values_;
};

}  // namespace javelin
