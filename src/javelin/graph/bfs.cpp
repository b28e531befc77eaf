#include "javelin/graph/bfs.hpp"

#include <algorithm>
#include <limits>

namespace javelin {

BfsResult bfs(const CsrMatrix& a, index_t source) {
  const index_t n = a.rows();
  JAVELIN_CHECK(source >= 0 && source < n, "BFS source out of range");
  BfsResult res;
  res.distance.assign(static_cast<std::size_t>(n), kInvalidIndex);
  res.order.reserve(static_cast<std::size_t>(n));
  res.distance[static_cast<std::size_t>(source)] = 0;
  res.order.push_back(source);
  std::size_t head = 0;
  index_t current_level = 0;
  res.last_level_begin = 0;
  while (head < res.order.size()) {
    const index_t v = res.order[head++];
    const index_t dv = res.distance[static_cast<std::size_t>(v)];
    if (dv > current_level) {
      current_level = dv;
      res.last_level_begin = static_cast<index_t>(head) - 1;
    }
    for (index_t c : a.row_cols(v)) {
      if (c == v) continue;
      if (res.distance[static_cast<std::size_t>(c)] == kInvalidIndex) {
        res.distance[static_cast<std::size_t>(c)] = dv + 1;
        res.order.push_back(c);
      }
    }
  }
  res.eccentricity = current_level;
  // If the frontier grew past the loop (vertices discovered at a deeper level
  // than any dequeued), recompute last level boundary precisely.
  if (!res.order.empty()) {
    const index_t deepest = res.distance[static_cast<std::size_t>(res.order.back())];
    res.eccentricity = deepest;
    index_t i = static_cast<index_t>(res.order.size()) - 1;
    while (i > 0 &&
           res.distance[static_cast<std::size_t>(res.order[static_cast<std::size_t>(i) - 1])] == deepest) {
      --i;
    }
    res.last_level_begin = i;
  }
  return res;
}

index_t pseudo_peripheral_vertex(const CsrMatrix& a, index_t start) {
  index_t v = start;
  BfsResult r = bfs(a, v);
  for (int iter = 0; iter < 8; ++iter) {  // bounded: converges in a few steps
    // Pick the minimum-degree vertex of the last level.
    index_t best = v;
    index_t best_deg = std::numeric_limits<index_t>::max();
    for (std::size_t i = static_cast<std::size_t>(r.last_level_begin); i < r.order.size(); ++i) {
      const index_t u = r.order[i];
      const index_t deg = a.row_nnz(u);
      if (deg < best_deg) {
        best_deg = deg;
        best = u;
      }
    }
    if (best == v) break;
    BfsResult r2 = bfs(a, best);
    if (r2.eccentricity <= r.eccentricity) break;
    v = best;
    r = std::move(r2);
  }
  return v;
}

}  // namespace javelin
