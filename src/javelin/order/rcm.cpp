#include <algorithm>

#include "javelin/graph/bfs.hpp"
#include "javelin/order/orderings.hpp"
#include "javelin/sparse/ops.hpp"

namespace javelin {

namespace {

std::vector<index_t> cuthill_mckee(const CsrMatrix& sym) {
  const index_t n = sym.rows();
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<index_t> degree(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) degree[static_cast<std::size_t>(v)] = sym.row_nnz(v);

  std::vector<index_t> nbrs;
  for (index_t seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    const index_t start = pseudo_peripheral_vertex(sym, seed);
    // BFS with degree-sorted neighbour expansion.
    std::size_t head = order.size();
    order.push_back(start);
    visited[static_cast<std::size_t>(start)] = true;
    while (head < order.size()) {
      const index_t v = order[head++];
      nbrs.clear();
      for (index_t c : sym.row_cols(v)) {
        if (c != v && !visited[static_cast<std::size_t>(c)]) {
          visited[static_cast<std::size_t>(c)] = true;
          nbrs.push_back(c);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&](index_t x, index_t y) {
        const index_t dx = degree[static_cast<std::size_t>(x)];
        const index_t dy = degree[static_cast<std::size_t>(y)];
        return dx != dy ? dx < dy : x < y;
      });
      order.insert(order.end(), nbrs.begin(), nbrs.end());
    }
  }
  return order;
}

}  // namespace

std::vector<index_t> rcm_order(const CsrMatrix& a) {
  JAVELIN_CHECK(a.square(), "ordering requires a square matrix");
  const CsrMatrix sym = pattern_symmetric(a) ? a : pattern_symmetrize(a);
  std::vector<index_t> order = cuthill_mckee(sym);
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<index_t> natural_order(index_t n) {
  std::vector<index_t> p(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
  return p;
}

}  // namespace javelin
