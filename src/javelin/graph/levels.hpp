// Level-set (level scheduling) computation on triangular dependency patterns.
//
// For a lower-triangular pattern L, level(i) = 1 + max{ level(j) : j < i and
// L(i, j) != 0 }, with level 0 for rows with no strictly-lower off-diagonals.
// Rows in the same level are mutually independent and can be factored/solved
// concurrently (paper §II "level scheduling", Fig. 2).
//
// Javelin computes levels on lower(A + Aᵀ) only (paper §VII recommends it
// always): it guarantees that rows inside a level have no coupling in either
// triangle, which the SR lower stage requires (paper §III-B) and which lets
// the backward U-solve run on the same levels reversed.
#pragma once

#include <span>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// The result of level scheduling.
struct LevelSets {
  /// level[i] = level of row i (in the *input* row numbering).
  std::vector<index_t> level;
  /// Rows grouped by level: rows_by_level[level_ptr[l] .. level_ptr[l+1]) are
  /// the rows of level l, listed in ascending row order.
  std::vector<index_t> level_ptr;
  std::vector<index_t> rows_by_level;

  index_t num_levels() const noexcept {
    return static_cast<index_t>(level_ptr.size()) - 1;
  }
  index_t level_size(index_t l) const noexcept {
    return level_ptr[static_cast<std::size_t>(l) + 1] - level_ptr[static_cast<std::size_t>(l)];
  }
  std::span<const index_t> level_rows(index_t l) const noexcept {
    return std::span<const index_t>(rows_by_level)
        .subspan(static_cast<std::size_t>(level_ptr[static_cast<std::size_t>(l)]),
                 static_cast<std::size_t>(level_size(l)));
  }

  /// Summary statistics over level sizes (paper Tables III/IV columns).
  struct Stats {
    index_t num_levels = 0;
    index_t min_rows = 0;
    index_t max_rows = 0;
    double median_rows = 0;
  };
  Stats stats() const;
};

/// Compute level sets of the strictly-lower pattern of a + aᵀ. The matrix
/// must be square.
LevelSets compute_level_sets(const CsrMatrix& a);

/// Level sets for a matrix that is *already* strictly lower triangular (or
/// for any matrix where only entries with col < row should be considered).
LevelSets compute_level_sets_lower(const CsrMatrix& lower);

/// New-to-old permutation that orders rows by (level, row). This is the
/// level-set ordering ("LS-*" orderings of paper Table II).
std::vector<index_t> level_order_permutation(const LevelSets& ls);

}  // namespace javelin
