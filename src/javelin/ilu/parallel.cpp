// Two-stage parallel numeric factorization (paper §III).
//
// Upper stage: up-looking rows under the point-to-point schedule.
// Lower stage: Even-Rows (Fig. 8) or Segmented-Rows (Fig. 6) against the
// finished upper stage, then the shared corner factorization (FACTOR_LU).
// Every path calls the same row kernel, so all execution modes produce
// bitwise-identical factors (asserted by the property tests).
#include <algorithm>
#include <memory>
#include <string>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/fused.hpp"  // completes FusedApplySpmv for the cache
#include "javelin/ilu/row_kernel.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/verify/verify.hpp"

namespace javelin {

namespace {

RowKernelParams kernel_params(const IluOptions& o) {
  return RowKernelParams{o.drop_tolerance, o.modified, o.pivot_threshold};
}

/// Per-thread workspaces, lazily sized.
class WorkspacePool {
 public:
  WorkspacePool(int threads, index_t n) {
    ws_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) ws_.push_back(std::make_unique<RowWorkspace>(n));
  }
  RowWorkspace& get(int t) { return *ws_[static_cast<std::size_t>(t)]; }

 private:
  std::vector<std::unique_ptr<RowWorkspace>> ws_;
};

void throw_pivot(index_t row) {
  throw Error("zero or near-zero pivot at permuted row " + std::to_string(row) +
              " (Javelin does not pivot)");
}

/// Corner factorization (paper: FACTOR_LU): eliminate lower rows against
/// each other, restricted to corner columns [n_upper, row). Serial by
/// default; optionally level-scheduled through the barrier (CSR-LS)
/// execution backend — the corner is small by construction, so per-level
/// barriers beat spin-wait sparsification there. A bad pivot (or a
/// fault-hook veto) aborts the region cooperatively and is reported as a
/// status; nothing throws from inside the parallel region.
FactorStatus factor_corner(Factorization& f, WorkspacePool& pool) {
  const TwoStagePlan& plan = f.plan;
  const RowKernelParams params = kernel_params(f.opts);
  const FaultHook& hook = f.opts.fault_hook;
  FactorView fv{f.lu.row_ptr(), f.lu.col_idx(), f.lu.values_mut(), f.diag_pos};
  if (!f.opts.parallel_corner || plan.num_lower_rows() < 2 * plan.threads ||
      f.corner.num_levels == 0) {
    RowWorkspace& ws = pool.get(0);
    for (index_t r = plan.n_upper; r < plan.n; ++r) {
      mark_row(fv, r, ws);
      eliminate_window(fv, r, plan.n_upper, r, ws, params);
      if (!finish_row(fv, r, params) ||
          (hook && !hook(FaultSite::kFactorRow, r))) {
        return {FactorOutcome::kBadPivot, r};
      }
    }
    return {};
  }
  // Guarded (bool-returning) row function: exec_run drains the barrier
  // level-set cooperatively on the first failing row, and because no thread
  // passes a level whose barrier never completed, the reported row stays in
  // the FIRST failing level instead of a downstream inf/NaN cascade row.
  const auto corner_row = [&](index_t local, int t) -> bool {
    const index_t r = plan.n_upper + local;
    RowWorkspace& ws = pool.get(t);
    mark_row(fv, r, ws);
    eliminate_window(fv, r, plan.n_upper, r, ws, params);
    if (!finish_row(fv, r, params)) return false;
    return !hook || hook(FaultSite::kFactorRow, r);
  };
  ExecStatus st;
  if (f.opts.exec_obs != nullptr && !hook) {
    ProgressCounters progress;
    st = exec_run_obs(f.corner, corner_row, progress, *f.opts.exec_obs,
                      obs::Region::kCorner);
  } else {
    st = exec_run(f.corner, corner_row);
  }
  if (!st.ok()) {
    return {FactorOutcome::kBadPivot, plan.n_upper + st.row};
  }
  return {};
}

/// Even-Rows phase one (paper Fig. 8 FACTOR_L): every lower row eliminates
/// its upper-stage columns; rows are independent because their mutual
/// coupling lives entirely in the corner. As in Fig. 8 the rows are divided
/// evenly (one contiguous block per thread, no shared-counter dequeue per
/// row): the planner picks ER only when lower-row nnz is balanced (max <= 4x
/// mean) and Segmented-Rows otherwise. Each row is computed by the same
/// kernel whichever thread runs it, so the factor is bitwise independent of
/// the split.
void lower_even_rows(Factorization& f, WorkspacePool& pool) {
  const TwoStagePlan& plan = f.plan;
  const RowKernelParams params = kernel_params(f.opts);
  FactorView fv{f.lu.row_ptr(), f.lu.col_idx(), f.lu.values_mut(), f.diag_pos};
#pragma omp parallel num_threads(plan.threads)
  {
    RowWorkspace& ws = pool.get(thread_id());
#pragma omp for schedule(static)
    for (index_t r = plan.n_upper; r < plan.n; ++r) {
      mark_row(fv, r, ws);
      eliminate_window(fv, r, 0, plan.n_upper, ws, params);
    }
  }
}

/// Segmented-Rows (paper Fig. 6): per upper level, spawn tile tasks that
/// divide by the pivot column and apply the U-row updates (DIVIDE_COLUMNS +
/// UPDATE_BLOCK fused per entry — equivalent because same-level columns are
/// decoupled under the lower(A+Aᵀ) ordering). taskwait separates levels.
void lower_segmented_rows(Factorization& f, WorkspacePool& pool) {
  const TwoStagePlan& plan = f.plan;
  const RowKernelParams params = kernel_params(f.opts);
  FactorView fv{f.lu.row_ptr(), f.lu.col_idx(), f.lu.values_mut(), f.diag_pos};
  const SrTiling& sr = f.sr;
#pragma omp parallel num_threads(plan.threads)
#pragma omp single
  {
    for (std::size_t l = 0; l + 1 < sr.level_task_ptr.size(); ++l) {
      const index_t kb = sr.level_task_ptr[l];
      const index_t ke = sr.level_task_ptr[l + 1];
      if (kb == ke) continue;
      for (index_t k = kb; k < ke; ++k) {
        // One task per coalesced tile group (~tile_nnz nonzeros of work).
#pragma omp task firstprivate(k) shared(sr, fv, pool, params)
        {
          const index_t tb = sr.task_tile_ptr[static_cast<std::size_t>(k)];
          const index_t te = sr.task_tile_ptr[static_cast<std::size_t>(k) + 1];
          RowWorkspace& ws = pool.get(thread_id());
          for (index_t ti = tb; ti < te; ++ti) {
            const SrTile& tile = sr.tiles[static_cast<std::size_t>(ti)];
            mark_row(fv, tile.row, ws);
            eliminate_nz_range(fv, tile.row, tile.nz_begin, tile.nz_end, ws,
                               params);
          }
        }
      }
#pragma omp taskwait
    }
  }
}

}  // namespace

SrTiling build_sr_tiling(const CsrMatrix& lu, const TwoStagePlan& plan,
                         index_t tile_nnz) {
  SrTiling sr;
  const index_t nlev = plan.num_upper_levels();
  sr.tile_ptr.assign(static_cast<std::size_t>(nlev) + 1, 0);
  if (plan.num_lower_rows() == 0 || nlev == 0) return sr;

  // Per lower row, split its upper-column nonzeros at level boundaries.
  // Levels are contiguous column ranges [ulp[l], ulp[l+1]) after the plan
  // permutation, so a binary search per boundary suffices.
  std::vector<std::vector<SrTile>> by_level(static_cast<std::size_t>(nlev));
  const auto& ulp = plan.upper_level_ptr;
  for (index_t r = plan.n_upper; r < plan.n; ++r) {
    auto cols = lu.row_cols(r);
    const index_t base = lu.row_begin(r);
    std::size_t k = 0;
    while (k < cols.size() && cols[k] < plan.n_upper) {
      // Level of this column.
      const auto it = std::upper_bound(ulp.begin(), ulp.end(), cols[k]);
      const index_t lev = static_cast<index_t>(it - ulp.begin()) - 1;
      const index_t level_end_col = ulp[static_cast<std::size_t>(lev) + 1];
      std::size_t k2 = k;
      while (k2 < cols.size() && cols[k2] < level_end_col) ++k2;
      by_level[static_cast<std::size_t>(lev)].push_back(
          SrTile{r, base + static_cast<index_t>(k),
                 base + static_cast<index_t>(k2)});
      k = k2;
    }
  }
  // Emit tiles level-major. A tile is one row-level segment; a segment never
  // splits across tiles (updates stay row-owned and race-free).
  for (index_t l = 0; l < nlev; ++l) {
    auto& segs = by_level[static_cast<std::size_t>(l)];
    for (const SrTile& t : segs) sr.tiles.push_back(t);
    sr.tile_ptr[static_cast<std::size_t>(l) + 1] =
        static_cast<index_t>(sr.tiles.size());
  }
  for (index_t l = 0; l < nlev; ++l) {
    if (sr.tile_ptr[static_cast<std::size_t>(l) + 1] >
        sr.tile_ptr[static_cast<std::size_t>(l)]) {
      ++sr.active_levels;
    }
  }
  // Coalesce adjacent small same-level tiles into tasks of up to tile_nnz
  // nonzeros: one OpenMP task then amortizes its spawn/steal overhead over
  // several tiny segments (the dominant cost the paper measured with VTune
  // in §V on many-small-level matrices). A task never crosses a level
  // boundary, and a tile larger than tile_nnz still forms its own task.
  const index_t cap = std::max<index_t>(1, tile_nnz);
  sr.level_task_ptr.assign(static_cast<std::size_t>(nlev) + 1, 0);
  sr.task_tile_ptr.push_back(0);
  for (index_t l = 0; l < nlev; ++l) {
    index_t t = sr.tile_ptr[static_cast<std::size_t>(l)];
    const index_t te = sr.tile_ptr[static_cast<std::size_t>(l) + 1];
    while (t < te) {
      const auto tile_size = [&](index_t i) {
        const SrTile& tl = sr.tiles[static_cast<std::size_t>(i)];
        return tl.nz_end - tl.nz_begin;
      };
      index_t acc = tile_size(t);
      index_t t2 = t + 1;
      // Never grow past cap by merging: an oversized tile always stands
      // alone, and a near-full task does not absorb a large neighbour.
      while (t2 < te && acc + tile_size(t2) <= cap) acc += tile_size(t2++);
      sr.task_tile_ptr.push_back(t2);
      t = t2;
    }
    sr.level_task_ptr[static_cast<std::size_t>(l) + 1] =
        static_cast<index_t>(sr.task_tile_ptr.size()) - 1;
  }
  return sr;
}

void scatter_values_searched(Factorization& f, const CsrMatrix& a) {
  // Values travel: a (preordered) -> symbolic pattern -> plan permutation.
  // The factor rows are plan.perm[r] of the symbolic pattern, whose columns
  // map through the inverse permutation; we reuse the stored column indices
  // and only refresh values, walking a's rows in permuted order.
  const index_t n = f.n();
  const auto& perm = f.plan.perm;
  const std::vector<index_t> inv = invert_permutation(perm);
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t r = 0; r < n; ++r) {
    const index_t old_r = perm[static_cast<std::size_t>(r)];
    auto vals = f.lu.row_vals_mut(r);
    auto cols = f.lu.row_cols(r);
    // Zero (fill positions) then scatter a's row via the permuted columns.
    for (auto& v : vals) v = 0;
    for (index_t k = a.row_begin(old_r); k < a.row_end(old_r); ++k) {
      const index_t new_c =
          inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])];
      const auto it = std::lower_bound(cols.begin(), cols.end(), new_c);
      if (it != cols.end() && *it == new_c) {
        vals[static_cast<std::size_t>(it - cols.begin())] =
            a.values()[static_cast<std::size_t>(k)];
      }
    }
  }
}

void build_scatter_map(Factorization& f, const CsrMatrix& a) {
  // Same index chase as scatter_values_searched, performed ONCE: record
  // where each a-nonzero lands. Walking a's rows in permuted order touches
  // every original row exactly once, so writes to a_scatter never race.
  const index_t n = f.n();
  const auto& perm = f.plan.perm;
  const std::vector<index_t> inv = invert_permutation(perm);
  f.a_scatter.assign(static_cast<std::size_t>(a.nnz()), kInvalidIndex);
#pragma omp parallel for schedule(dynamic, 64)
  for (index_t r = 0; r < n; ++r) {
    const index_t old_r = perm[static_cast<std::size_t>(r)];
    auto cols = f.lu.row_cols(r);
    const index_t base = f.lu.row_begin(r);
    for (index_t k = a.row_begin(old_r); k < a.row_end(old_r); ++k) {
      const index_t new_c =
          inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])];
      const auto it = std::lower_bound(cols.begin(), cols.end(), new_c);
      if (it != cols.end() && *it == new_c) {
        f.a_scatter[static_cast<std::size_t>(k)] =
            base + static_cast<index_t>(it - cols.begin());
      }
    }
  }
}

void scatter_values(Factorization& f, const CsrMatrix& a) {
  if (f.a_scatter.size() != static_cast<std::size_t>(a.nnz())) {
    build_scatter_map(f, a);
  }
#ifndef NDEBUG
  // The nnz test above cannot see a pattern change with equal nnz (the
  // documented ilu_refactor precondition). Debug builds re-derive the map
  // and compare, catching a mismatched matrix before it corrupts the factor.
  {
    std::vector<index_t> saved = std::move(f.a_scatter);
    build_scatter_map(f, a);
    JAVELIN_CHECK(saved == f.a_scatter,
                  "scatter_values: matrix pattern differs from the factored "
                  "pattern the scatter map was built for");
  }
#endif
  // Flat O(nnz) refresh: zero everything (fill positions), then copy each
  // a-nonzero straight to its precomputed slot. Distinct slots — race-free.
  auto lv = f.lu.values_mut();
  const auto av = a.values();
  const auto& map = f.a_scatter;
  const std::ptrdiff_t lu_nnz = static_cast<std::ptrdiff_t>(lv.size());
  const std::ptrdiff_t a_nnz = static_cast<std::ptrdiff_t>(av.size());
#pragma omp parallel
  {
#pragma omp for schedule(static)
    for (std::ptrdiff_t k = 0; k < lu_nnz; ++k) {
      lv[static_cast<std::size_t>(k)] = 0;
    }
    // (implicit barrier: all zeroing precedes all scattering)
#pragma omp for schedule(static)
    for (std::ptrdiff_t k = 0; k < a_nnz; ++k) {
      const index_t p = map[static_cast<std::size_t>(k)];
      if (p != kInvalidIndex) {
        lv[static_cast<std::size_t>(p)] = av[static_cast<std::size_t>(k)];
      }
    }
  }
}

FactorStatus ilu_factor_numeric_status(Factorization& f) {
  const TwoStagePlan& plan = f.plan;
  WorkspacePool pool(plan.threads, f.n());
  const RowKernelParams params = kernel_params(f.opts);
  const FaultHook& hook = f.opts.fault_hook;
  FactorView fv{f.lu.row_ptr(), f.lu.col_idx(), f.lu.values_mut(), f.diag_pos};

  // Upper stage: level-scheduled up-looking rows under the factor's
  // execution backend. A refactorization team dialed below the plan
  // (omp_set_num_threads after factoring — the time-stepping use case)
  // retargets the schedule through the factor's own cache instead of
  // degrading to the serial order. The one-shot factor phase deliberately
  // skips the oversubscription clamp: the plan width was an explicit
  // request, and the numeric phase runs once, not thousands of times.
  const int team = std::max(1, std::min(plan.threads, max_threads()));
  const ExecSchedule* fwd = &f.fwd;
  if (team != f.fwd.threads) {
    if (f.numeric_cache.threads != team) {
      f.numeric_cache.fwd = retarget(f.fwd, lower_triangular_deps(f.lu), team);
      f.numeric_cache.bwd = ExecSchedule{};  // numeric phase never sweeps bwd
      f.numeric_cache.fused.reset();
      f.numeric_cache.threads = team;
      if (f.opts.verify_schedules) {
        verify::verify_schedule_or_throw(f.numeric_cache.fwd,
                                         lower_triangular_deps(f.lu),
                                         "numeric fwd retarget");
      }
    }
    fwd = &f.numeric_cache.fwd;
  }
  // Guarded row function: a failed pivot poisons the region, peers drain
  // out of their spin-waits, and the first failing row comes back in the
  // ExecStatus — no exception ever crosses the parallel region. f.fwd also
  // lists the moved rows; the lower stage and the corner factor those below.
  const auto numeric_row = [&](index_t r, int t) -> bool {
    if (r >= plan.n_upper) return true;
    RowWorkspace& ws = pool.get(t);
    if (!factor_row(fv, r, ws, params)) return false;
    return !hook || hook(FaultSite::kFactorRow, r);
  };
  ExecStatus st;
  if (f.opts.exec_obs != nullptr && !hook) {
    ProgressCounters progress;
    st = exec_run_obs(*fwd, numeric_row, progress, *f.opts.exec_obs,
                      obs::Region::kFactor);
  } else {
    st = exec_run(*fwd, numeric_row);
  }
  if (!st.ok()) return {FactorOutcome::kBadPivot, st.row};

  // Lower stage. The ER/SR passes only divide by already-validated upper
  // pivots, so they cannot break down; the corner can.
  switch (plan.method) {
    case LowerMethod::kNone:
      return {};
    case LowerMethod::kEvenRows:
      lower_even_rows(f, pool);
      return factor_corner(f, pool);
    case LowerMethod::kSegmentedRows:
      lower_segmented_rows(f, pool);
      return factor_corner(f, pool);
    case LowerMethod::kAuto:
      throw Error("plan method must be resolved before the numeric phase");
  }
  return {};
}

void ilu_factor_numeric(Factorization& f) {
  const FactorStatus st = ilu_factor_numeric_status(f);
  if (!st.ok()) throw_pivot(st.row);
}

Factorization ilu_prepare(const CsrMatrix& a, const IluOptions& opts) {
  JAVELIN_CHECK(a.square(), "ILU requires a square matrix");
  Factorization f;
  f.opts = opts;

  // ILU(0) of a matrix that stores its whole diagonal keeps A's own pattern,
  // where ilu_symbolic would return a copy of A, values included. Plan and
  // permute A itself: the copy is a transient as large as the factor that
  // would sit beside the factor at the peak of every ilu_prepare.
  const bool own_pattern = opts.fill_level == 0 && a.has_full_diagonal();
  CsrMatrix symbolic;
  if (own_pattern) {
    f.symbolic.pattern_nnz = a.nnz();
  } else {
    symbolic = ilu_symbolic(a, opts.fill_level, &f.symbolic);
  }
  const CsrMatrix& s = own_pattern ? a : symbolic;
  f.plan = build_two_stage_plan(s, opts);
  f.lu = permute_symmetric(s, f.plan.perm);
  f.diag_pos = diagonal_positions(f.lu);
  // Plan-time scatter map: every ilu_refactor becomes a flat O(nnz) copy.
  build_scatter_map(f, a);

  const index_t chunk =
      opts.p2p_chunk_rows > 0 ? opts.p2p_chunk_rows : kDefaultChunkRows;
  f.fwd = build_forward_schedule(f.lu, f.plan.upper_level_ptr,
                                 f.plan.lower_level_ptr, opts.exec_backend,
                                 f.plan.threads, chunk);
  f.bwd = build_backward_schedule(f.lu, f.plan.upper_level_ptr,
                                  f.plan.lower_level_ptr, opts.exec_backend,
                                  f.plan.threads, chunk);
  if (opts.verify_schedules) {
    verify::verify_schedule_or_throw(f.fwd, lower_triangular_deps(f.lu),
                                     "fwd");
    verify::verify_schedule_or_throw(f.bwd, upper_triangular_deps(f.lu),
                                     "bwd");
  }
  if (f.plan.method == LowerMethod::kSegmentedRows) {
    f.sr = build_sr_tiling(f.lu, f.plan, opts.sr_tile_nnz);
  }
  if (opts.parallel_corner && f.plan.num_lower_rows() > 0) {
    // Barrier level-set schedule over the corner block pattern (lower rows,
    // corner columns), in LOCAL indices [0, n_lower).
    const index_t n_lower = f.plan.num_lower_rows();
    std::vector<index_t> rp(static_cast<std::size_t>(n_lower) + 1, 0);
    std::vector<index_t> ci;
    for (index_t i = 0; i < n_lower; ++i) {
      const index_t r = f.plan.n_upper + i;
      for (index_t c : f.lu.row_cols(r)) {
        if (c >= f.plan.n_upper && c <= r) ci.push_back(c - f.plan.n_upper);
      }
      rp[static_cast<std::size_t>(i) + 1] = static_cast<index_t>(ci.size());
    }
    std::vector<value_t> vv(ci.size(), 1.0);
    const CsrMatrix corner_pat(n_lower, n_lower, std::move(rp), std::move(ci),
                               std::move(vv));
    const LevelSets cls = compute_level_sets_lower(corner_pat);
    f.corner = build_exec_schedule(ExecBackend::kBarrier, n_lower,
                                   cls.level_ptr, cls.rows_by_level,
                                   lower_triangular_deps(corner_pat),
                                   f.plan.threads, chunk);
    // Verified here, while corner_pat (the dependency pattern) is alive.
    if (opts.verify_schedules) {
      verify::verify_schedule_or_throw(
          f.corner, lower_triangular_deps(corner_pat), "corner");
    }
  }

  return f;
}

Factorization ilu_factor(const CsrMatrix& a, const IluOptions& opts) {
  Factorization f = ilu_prepare(a, opts);
  ilu_factor_numeric(f);
  return f;
}

void ilu_refactor(Factorization& f, const CsrMatrix& a) {
  const FactorStatus st = ilu_refactor_status(f, a);
  if (!st.ok()) throw_pivot(st.row);
}

FactorStatus ilu_refactor_status(Factorization& f, const CsrMatrix& a) {
  JAVELIN_CHECK(a.rows() == f.n() && a.cols() == f.n(),
                "refactor dimension mismatch");
  scatter_values(f, a);
  return ilu_factor_numeric_status(f);
}

}  // namespace javelin
