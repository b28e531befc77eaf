// Bandwidth-reducing and dissection orderings (paper §IV "Preordering",
// §VII Table II). All orderings return a NEW-TO-OLD permutation: row r of the
// permuted matrix is row perm[r] of the input. Apply with permute_symmetric.
//
// The paper preorders with SYMAMD, RCM and METIS nested dissection. RCM,
// nested dissection and natural order are implemented here from scratch;
// no solve path applies them yet. There is no minimum-degree ordering: a
// greedy one took 124 s on the trans4 analog's 116,835 rows.
#pragma once

#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Reverse Cuthill–McKee on the symmetrized pattern. Processes every
/// connected component from a pseudo-peripheral start; neighbours are visited
/// in increasing-degree order; the final order is reversed.
std::vector<index_t> rcm_order(const CsrMatrix& a);

/// Options for nested dissection.
struct NdOptions {
  index_t leaf_size = 64;   ///< stop recursing below this many vertices
  int max_depth = 48;       ///< recursion guard
};

/// Recursive nested dissection: BFS-halving edge separator converted to a
/// vertex separator; parts ordered recursively, separator last. Stands in for
/// METIS ND.
std::vector<index_t> nested_dissection_order(const CsrMatrix& a,
                                             const NdOptions& opts = {});

/// Natural ordering (identity permutation of size n).
std::vector<index_t> natural_order(index_t n);

}  // namespace javelin
