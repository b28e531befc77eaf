#include "javelin/graph/levels.hpp"

#include <algorithm>
#include <utility>

#include "javelin/support/scan.hpp"

namespace javelin {

namespace {

/// Counting sort of the rows by `level`: fills level_ptr and rows_by_level,
/// rows ascending inside each level.
LevelSets group_by_level(std::vector<index_t> level) {
  const index_t n = static_cast<index_t>(level.size());
  LevelSets ls;
  ls.level = std::move(level);
  const index_t nlev =
      n == 0 ? 0 : *std::max_element(ls.level.begin(), ls.level.end()) + 1;
  ls.level_ptr.assign(static_cast<std::size_t>(nlev) + 1, 0);
  for (index_t lv : ls.level) ++ls.level_ptr[static_cast<std::size_t>(lv) + 1];
  inclusive_scan_inplace(std::span<index_t>(ls.level_ptr).subspan(1));
  ls.rows_by_level.resize(static_cast<std::size_t>(n));
  std::vector<index_t> cursor(ls.level_ptr.begin(), ls.level_ptr.end() - 1);
  for (index_t r = 0; r < n; ++r) {
    ls.rows_by_level[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(ls.level[static_cast<std::size_t>(r)])]++)] = r;
  }
  return ls;
}

}  // namespace

LevelSets compute_level_sets(const CsrMatrix& a) {
  JAVELIN_CHECK(a.square(), "level scheduling requires a square matrix");
  const index_t n = a.rows();
  std::vector<index_t> level(static_cast<std::size_t>(n), 0);
  bool lifted = false;
  // Row r of lower(A+Aᵀ) holds A's entries (r, c) and (c, r) with c < r.
  // Visiting rows in ascending order, each row's (c, r) entries were pushed
  // into level[r] while row c was visited, so after the row's own c < r
  // entries level[r] is final, and r pushes it to the later rows it couples.
  // While no push has lifted a row above its own c < r entries' level, every
  // level so far is the strictly-lower pattern's.
  for (index_t r = 0; r < n; ++r) {
    const auto cols = a.row_cols(r);
    index_t own = 0;
    for (index_t c : cols) {
      if (c < r) own = std::max(own, level[static_cast<std::size_t>(c)] + 1);
    }
    const index_t pushed = level[static_cast<std::size_t>(r)];
    lifted = lifted || pushed > own;
    const index_t lv = std::max(own, pushed);
    level[static_cast<std::size_t>(r)] = lv;
    for (index_t c : cols) {
      if (c > r) {
        index_t& lc = level[static_cast<std::size_t>(c)];
        lc = std::max(lc, lv + 1);
      }
    }
  }
  LevelSets ls = group_by_level(std::move(level));
  ls.lower_only = !lifted;
  return ls;
}

LevelSets compute_level_sets_lower(const CsrMatrix& lower) {
  JAVELIN_CHECK(lower.square(), "level scheduling requires a square matrix");
  const index_t n = lower.rows();
  std::vector<index_t> level(static_cast<std::size_t>(n), 0);
  for (index_t r = 0; r < n; ++r) {
    index_t lv = 0;
    for (index_t c : lower.row_cols(r)) {
      // Columns are sorted; only c < r are dependencies, and their level is
      // already final.
      if (c >= r) break;
      lv = std::max(lv, level[static_cast<std::size_t>(c)] + 1);
    }
    level[static_cast<std::size_t>(r)] = lv;
  }
  LevelSets ls = group_by_level(std::move(level));
  ls.lower_only = true;
  return ls;
}

}  // namespace javelin
