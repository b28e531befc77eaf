// Level-scheduled parallel numeric factorization (paper §III-A): every row
// runs the up-looking row kernel once, under the forward schedule f.fwd on
// L's own levels, which the verifier proves against exactly the
// dependencies that kernel reads. Every execution mode therefore produces
// the serial factor bitwise, modified ILU included (asserted by the
// property tests).
//
// Departure from the paper: there is no lower stage. The paper factors the
// small trailing levels apart — Even-Rows (Fig. 8) or Segmented-Rows
// (Fig. 6), then a serial corner (FACTOR_LU) — because each level costs one
// synchronization. Here a level of at most chunk_rows rows runs on one
// thread, and the executor's run layer turns a chain of such levels into
// one wait-free run, so those levels cost no synchronization at all.
#include <algorithm>
#include <memory>
#include <string>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/row_kernel.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/verify/verify.hpp"

namespace javelin {

namespace {

RowKernelParams kernel_params(const IluOptions& o) {
  return RowKernelParams{o.drop_tolerance, o.modified, o.pivot_threshold};
}

/// One row workspace per team thread.
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

}  // namespace

void build_scatter_map(Factorization& f, const CsrMatrix& a) {
  // One binary search per a-nonzero, performed ONCE: record where each
  // a-nonzero lands in the permuted factor row. Walking a's rows in permuted
  // order touches every original row exactly once, so writes to a_scatter
  // never race.
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
  const RowKernelParams params = kernel_params(f.opts);
  const FaultHook& hook = f.opts.fault_hook;
  FactorView fv{f.lu.row_ptr(), f.lu.col_idx(), f.lu.values_mut(), f.diag_pos};

  // Level-scheduled up-looking rows on the forward schedule of the runtime
  // team (runtime_team, like every sweep): a team other than the plan's —
  // omp_set_num_threads after factoring in a time-stepping loop, the
  // oversubscription clamp — re-plans through the factor's own cache
  // instead of degrading to the serial order.
  const ExecSchedule& fwd = runtime_fwd(f, f.numeric_cache);
  WorkspacePool pool(fwd.threads, f.n());
  // Guarded row function: a failed pivot poisons the region, peers drain
  // out of their spin-waits, and the failing row that aborted the region
  // comes back in the ExecStatus — no exception ever crosses the parallel
  // region.
  const auto numeric_row = [&](index_t r, int t) -> bool {
    RowWorkspace& ws = pool.get(t);
    if (!factor_row(fv, r, ws, params)) return false;
    return !hook || hook(r);
  };
  const ExecBackend backend = f.opts.exec_backend;
  ProgressCounters progress;
  const ExecStatus st =
      f.opts.exec_obs != nullptr && !hook
          ? exec_run_obs(fwd, backend, numeric_row, progress,
                         *f.opts.exec_obs, obs::Region::kFactor)
          : exec_run(fwd, backend, numeric_row, progress);
  if (!st.ok()) return {FactorOutcome::kBadPivot, st.row};
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
  f.plan = build_level_plan(s, opts);
  // Plan-time scatter map: every ilu_refactor becomes a flat O(nnz) copy.
  // On A's own pattern the permutation records it as it copies; a larger
  // factor pattern needs the search.
  f.lu = permute_symmetric(s, f.plan.perm, own_pattern ? &f.a_scatter : nullptr);
  f.diag_pos = diagonal_positions(f.lu);
  if (!own_pattern) build_scatter_map(f, a);

  const index_t chunk =
      opts.p2p_chunk_rows > 0 ? opts.p2p_chunk_rows : kDefaultChunkRows;
  // The forward sweep and the numeric phase depend on L alone, so they run
  // L's own levels: the plan's when lower_only, far fewer where c > r
  // entries deepened the plan (the trans4 analog: 2 against 24,504).
  f.fwd = build_forward_schedule(f.lu, f.plan.level_ptr, f.plan.lower_only,
                                 f.plan.threads, chunk);
  f.bwd = build_backward_schedule(f.lu, f.plan.level_ptr, f.plan.threads,
                                  chunk);
  if (opts.verify_schedules) {
    verify::verify_schedule_or_throw(f.fwd, lower_triangular_deps(f.lu),
                                     "fwd");
    verify::verify_schedule_or_throw(f.bwd, upper_triangular_deps(f.lu),
                                     "bwd");
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
