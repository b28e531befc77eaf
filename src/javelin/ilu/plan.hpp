// Level plan (paper §III-A, Fig. 2): the level-set permutation of the
// symbolic factor and its level boundaries. The backward solve runs these
// levels reversed; the forward solve and the numeric factorization run L's
// own levels, which are these when lower_only (always on a symmetric
// pattern) and fewer otherwise (ilu/factorization.hpp). Unlike the paper, no
// trailing levels are split off into a separate lower stage (see
// ilu/parallel.cpp).
#pragma once

#include <vector>

#include "javelin/ilu/options.hpp"
#include "javelin/sparse/csr.hpp"

namespace javelin {

struct LevelPlan {
  index_t n = 0;
  /// New-to-old permutation of the symbolic factor's rows: level-major
  /// order on lower(S+Sᵀ), rows ascending inside each level.
  std::vector<index_t> perm;
  /// Level l covers permuted rows [level_ptr[l], level_ptr[l+1]);
  /// size = #levels + 1.
  std::vector<index_t> level_ptr;
  /// Thread count the plan targets.
  int threads = 1;
  /// These are also the levels of S's strictly-lower pattern
  /// (LevelSets::lower_only), so L = lower(P S Pᵀ) has exactly these levels.
  /// False on most unsymmetric patterns, whose L is shallower.
  bool lower_only = false;

  index_t num_levels() const noexcept {
    return static_cast<index_t>(level_ptr.size()) - 1;
  }
  /// Always 0: every row is level-scheduled. Kept for callers that still
  /// pass it to SolveWorkspace::resize, whose second argument sizes nothing.
  index_t num_lower_rows() const noexcept { return 0; }
};

/// Build the plan for symbolic factor pattern `s`: level sets of
/// lower(S+Sᵀ), and the team opts.num_threads asks for (the OpenMP default
/// when <= 0).
LevelPlan build_level_plan(const CsrMatrix& s, const IluOptions& opts);

}  // namespace javelin
