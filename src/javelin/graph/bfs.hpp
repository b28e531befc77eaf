// Breadth-first traversal utilities over the symmetric adjacency of a CSR
// pattern: distances and pseudo-peripheral vertex search (George–Liu). These
// feed the RCM and nested-dissection orderings and AMG's aggregation.
#pragma once

#include <span>
#include <vector>

#include "javelin/sparse/csr.hpp"

namespace javelin {

/// Undirected adjacency of a square pattern. If the pattern is already
/// symmetric the matrix is used as-is; otherwise callers should symmetrize
/// first (the orderings do).
struct BfsResult {
  std::vector<index_t> distance;  ///< -1 for unreached vertices
  std::vector<index_t> order;     ///< vertices in visit order
  index_t eccentricity = 0;       ///< max finite distance
  index_t last_level_begin = 0;   ///< index into `order` of the last level
};

/// BFS from `source` over the pattern of `a` (treated as undirected; both
/// (r,c) and (c,r) edges must be present for symmetric traversal).
BfsResult bfs(const CsrMatrix& a, index_t source);

/// George–Liu pseudo-peripheral vertex: repeatedly BFS and jump to a
/// smallest-degree vertex of the last level until eccentricity stops growing.
index_t pseudo_peripheral_vertex(const CsrMatrix& a, index_t start);

}  // namespace javelin
