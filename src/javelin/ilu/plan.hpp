// Two-stage execution plan (paper §III, Fig. 2): which levels are factored
// by point-to-point level scheduling (upper stage) and which rows are
// permuted to the end for the Even-Rows / Segmented-Rows lower stage.
#pragma once

#include <vector>

#include "javelin/graph/levels.hpp"
#include "javelin/ilu/options.hpp"
#include "javelin/sparse/csr.hpp"

namespace javelin {

struct TwoStagePlan {
  index_t n = 0;
  /// New-to-old permutation of the symbolic factor's rows: level-set order
  /// with lower-stage rows moved to the end (they retain their level-major
  /// relative order, so the permuted matrix still eliminates top-to-bottom).
  std::vector<index_t> perm;
  /// Rows [0, n_upper) are handled by the upper stage.
  index_t n_upper = 0;
  /// Upper-stage level l covers permuted rows
  /// [upper_level_ptr[l], upper_level_ptr[l+1]); size = #upper levels + 1.
  std::vector<index_t> upper_level_ptr;
  /// Lower-stage level boundaries relative to n_upper (the trailing levels
  /// that were moved), same layout; may be empty when nothing moved.
  std::vector<index_t> lower_level_ptr;
  /// Resolved lower-stage method (never kAuto).
  LowerMethod method = LowerMethod::kNone;
  /// Thread count the plan targets.
  int threads = 1;

  // --- planning statistics (Tables III/IV) --------------------------------
  index_t total_levels = 0;   ///< levels before the split
  index_t rows_moved = 0;     ///< rows sent to the lower stage ("R-α")
  LevelSets::Stats level_stats;  ///< min/max/median level sizes

  index_t num_upper_levels() const noexcept {
    return static_cast<index_t>(upper_level_ptr.size()) - 1;
  }
  index_t num_lower_rows() const noexcept { return n - n_upper; }
};

/// Build the plan for symbolic factor pattern `s`. Heuristics (paper §III-A):
///   * levels are scanned from the END of the level order; a level is moved
///     to the lower stage while it is "too small" (< min_level_rows rows) or
///     too dense (mean row nnz > density_factor × matrix mean);
///   * the scan never crosses into the leading (1 - relative_location)
///     fraction of levels, so small levels sandwiched between large ones
///     (Fig. 3) stay in the upper stage where point-to-point sync absorbs
///     them;
///   * only whole trailing levels move, which guarantees no upper-stage row
///     ever depends on a lower-stage row.
/// Method resolution for kAuto (paper §III-B): SR when fewer moved rows than
/// threads or when their nonzero counts are highly imbalanced, otherwise ER.
TwoStagePlan build_two_stage_plan(const CsrMatrix& s, const IluOptions& opts);

}  // namespace javelin
