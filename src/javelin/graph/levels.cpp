#include "javelin/graph/levels.hpp"

#include <algorithm>

#include "javelin/sparse/ops.hpp"
#include "javelin/support/scan.hpp"

namespace javelin {

LevelSets compute_level_sets(const CsrMatrix& a) {
  JAVELIN_CHECK(a.square(), "level scheduling requires a square matrix");
  return compute_level_sets_lower(pattern_symmetrize(a));
}

LevelSets compute_level_sets_lower(const CsrMatrix& lower) {
  JAVELIN_CHECK(lower.square(), "level scheduling requires a square matrix");
  const index_t n = lower.rows();
  LevelSets ls;
  ls.level.assign(static_cast<std::size_t>(n), 0);
  index_t max_level = -1;
  for (index_t r = 0; r < n; ++r) {
    index_t lv = 0;
    for (index_t c : lower.row_cols(r)) {
      // Columns are sorted; only c < r are dependencies, and their level is
      // already final.
      if (c >= r) break;
      lv = std::max(lv, ls.level[static_cast<std::size_t>(c)] + 1);
    }
    ls.level[static_cast<std::size_t>(r)] = lv;
    max_level = std::max(max_level, lv);
  }
  const index_t nlev = max_level + 1;
  ls.level_ptr.assign(static_cast<std::size_t>(std::max<index_t>(nlev, 0)) + 1, 0);
  for (index_t r = 0; r < n; ++r) {
    ++ls.level_ptr[static_cast<std::size_t>(ls.level[static_cast<std::size_t>(r)]) + 1];
  }
  inclusive_scan_inplace(std::span<index_t>(ls.level_ptr).subspan(1));
  ls.rows_by_level.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(ls.level_ptr.begin(), ls.level_ptr.end() - 1);
  for (index_t r = 0; r < n; ++r) {
    ls.rows_by_level[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(ls.level[static_cast<std::size_t>(r)])]++)] = r;
  }
  return ls;
}

}  // namespace javelin
