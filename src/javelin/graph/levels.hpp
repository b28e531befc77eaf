// Level-set (level scheduling) computation on triangular dependency patterns.
//
// For a lower-triangular pattern L, level(i) = 1 + max{ level(j) : j < i and
// L(i, j) != 0 }, with level 0 for rows with no strictly-lower off-diagonals.
// Rows in the same level are mutually independent and can be factored/solved
// concurrently (paper §II "level scheduling", Fig. 2).
//
// Javelin plans on lower(A + Aᵀ) (paper §VII recommends it always): rows
// inside a level have no coupling in either triangle, which lets the
// backward U-solve run on the same levels reversed. One topological sweep
// over A's own rows gives those levels (Anderson & Saad, 1989); A + Aᵀ is
// never formed. The forward L-solve and the numeric factorization need only
// L's own levels. The same sweep reports whether those are the plan's
// (LevelSets::lower_only, always so on a symmetric pattern); where they are
// not, they can be far shallower and are computed apart.
#pragma once

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
  /// These are also the levels of the input's strictly-lower pattern alone,
  /// field for field. Always true from compute_level_sets_lower;
  /// compute_level_sets sets it when no c > r entry lifted a row above the
  /// level its own c < r entries give it (one compare per row).
  bool lower_only = false;

  index_t num_levels() const noexcept {
    return static_cast<index_t>(level_ptr.size()) - 1;
  }
};

/// Compute level sets of the strictly-lower pattern of a + aᵀ in one
/// ascending pass over a's rows: row r takes 1 + the level of each c < r
/// in its row, then raises each c > r in its row to at least its own level
/// + 1. The matrix must be square; its rows need not be sorted. Equal, field
/// for field, to compute_level_sets_lower(pattern_symmetrize(a)) (test_ops).
/// The same pass sets lower_only.
LevelSets compute_level_sets(const CsrMatrix& a);

/// Level sets for a matrix that is *already* strictly lower triangular (or
/// for any matrix where only entries with col < row should be considered).
LevelSets compute_level_sets_lower(const CsrMatrix& lower);

}  // namespace javelin
