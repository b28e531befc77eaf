#include <algorithm>
#include <cmath>

#include "javelin/ilu/plan.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

const char* lower_method_name(LowerMethod m) {
  switch (m) {
    case LowerMethod::kNone: return "none";
    case LowerMethod::kEvenRows: return "ER";
    case LowerMethod::kSegmentedRows: return "SR";
    case LowerMethod::kAuto: return "auto";
  }
  return "?";
}

TwoStagePlan build_two_stage_plan(const CsrMatrix& s, const IluOptions& opts) {
  JAVELIN_CHECK(s.square(), "planning requires a square matrix");
  TwoStagePlan plan;
  plan.n = s.rows();
  plan.threads = opts.num_threads > 0 ? opts.num_threads : max_threads();

  const LevelSets ls = compute_level_sets(s);
  const index_t nlev = ls.num_levels();
  plan.total_levels = nlev;
  plan.level_stats = ls.stats();

  const index_t min_rows =
      opts.min_level_rows > 0
          ? opts.min_level_rows
          : std::max<index_t>(16, 2 * static_cast<index_t>(plan.threads));
  const double avg_rd = s.row_density();

  // Mean row density per level (for the density rule).
  const auto level_density = [&](index_t l) {
    const auto rows = ls.level_rows(l);
    if (rows.empty()) return 0.0;
    double nnz = 0;
    for (index_t r : rows) nnz += static_cast<double>(s.row_nnz(r));
    return nnz / static_cast<double>(rows.size());
  };

  // Scan trailing levels; moving is only allowed when a lower method exists.
  index_t cutoff = nlev;
  if (opts.lower_method != LowerMethod::kNone && nlev > 1) {
    const index_t earliest = static_cast<index_t>(
        std::ceil(opts.relative_location * static_cast<double>(nlev)));
    while (cutoff > std::max<index_t>(earliest, 1)) {
      const index_t l = cutoff - 1;
      const bool small = ls.level_size(l) < min_rows;
      const bool dense = opts.density_factor > 0 &&
                         level_density(l) > opts.density_factor * avg_rd;
      if (!small && !dense) break;
      --cutoff;
    }
  }

  plan.n_upper = ls.level_ptr[static_cast<std::size_t>(cutoff)];
  plan.rows_moved = plan.n - plan.n_upper;
  plan.perm = ls.rows_by_level;  // level-major order: upper levels then moved

  plan.upper_level_ptr.assign(ls.level_ptr.begin(),
                              ls.level_ptr.begin() + cutoff + 1);
  plan.lower_level_ptr.clear();
  if (cutoff < nlev) {
    for (index_t l = cutoff; l <= nlev; ++l) {
      plan.lower_level_ptr.push_back(ls.level_ptr[static_cast<std::size_t>(l)] -
                                     plan.n_upper);
    }
  }

  // Resolve the method.
  if (plan.rows_moved == 0) {
    plan.method = LowerMethod::kNone;
  } else if (opts.lower_method == LowerMethod::kEvenRows) {
    plan.method = LowerMethod::kEvenRows;
  } else if (opts.lower_method == LowerMethod::kSegmentedRows) {
    plan.method = LowerMethod::kSegmentedRows;
  } else {  // kAuto
    // Nonzero imbalance among the moved rows (permuted tail).
    index_t max_nnz = 0;
    double sum_nnz = 0;
    for (index_t i = plan.n_upper; i < plan.n; ++i) {
      const index_t nz = s.row_nnz(plan.perm[static_cast<std::size_t>(i)]);
      max_nnz = std::max(max_nnz, nz);
      sum_nnz += static_cast<double>(nz);
    }
    const double mean_nnz =
        sum_nnz / static_cast<double>(std::max<index_t>(1, plan.rows_moved));
    const bool few_rows = plan.rows_moved < static_cast<index_t>(plan.threads);
    const bool imbalanced = static_cast<double>(max_nnz) > 4.0 * mean_nnz;
    plan.method = (few_rows || imbalanced) ? LowerMethod::kSegmentedRows
                                           : LowerMethod::kEvenRows;
  }
  return plan;
}

}  // namespace javelin
