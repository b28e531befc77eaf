#include <utility>

#include "javelin/graph/levels.hpp"
#include "javelin/ilu/plan.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

LevelPlan build_level_plan(const CsrMatrix& s, const IluOptions& opts) {
  JAVELIN_CHECK(s.square(), "planning requires a square matrix");
  LevelPlan plan;
  plan.n = s.rows();
  plan.threads = opts.num_threads > 0 ? opts.num_threads : max_threads();
  LevelSets ls = compute_level_sets(s);
  plan.perm = std::move(ls.rows_by_level);
  plan.level_ptr = std::move(ls.level_ptr);
  plan.lower_only = ls.lower_only;
  return plan;
}

}  // namespace javelin
