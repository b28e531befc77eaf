#include "javelin/ilu/batch.hpp"

#include <algorithm>
#include <string>
#include <type_traits>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/ilu/trsv_kernels.hpp"
#include "javelin/sparse/panel.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

using detail::backward_row_panel;
using detail::for_each_panel_block;
using detail::lower_partial_panel;

namespace {

/// Shared entry validation of the batched paths (the PR 3 Matrix-Market
/// contract: malformed dimensions throw instead of reading out of bounds).
void check_panel(const Factorization& f, std::size_t r_size, std::size_t z_size,
                 index_t k, const char* what) {
  JAVELIN_CHECK(k >= 1, std::string(what) + " requires k >= 1 right-hand sides");
  const std::size_t need =
      static_cast<std::size_t>(f.n()) * static_cast<std::size_t>(k);
  JAVELIN_CHECK(r_size >= need,
                std::string(what) + ": rhs panel smaller than n x k");
  JAVELIN_CHECK(z_size >= need,
                std::string(what) + ": solution panel smaller than n x k");
}

/// Panel gather x = P r on a team of `team` threads (columns independent;
/// elementwise, so the parallel split never changes values).
void gather_panel(std::span<const index_t> perm, std::span<const value_t> r,
                  value_t* x, index_t n, index_t k, int team) {
  const std::size_t un = static_cast<std::size_t>(n);
#pragma omp parallel for num_threads(team) collapse(2) schedule(static)
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(j) * un +
            static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
    }
  }
}

/// Panel scatter z = Pᵀ x on a team of `team` threads.
void scatter_panel(std::span<const index_t> perm, const value_t* x,
                   std::span<value_t> z, index_t n, index_t k, int team) {
  const std::size_t un = static_cast<std::size_t>(n);
#pragma omp parallel for num_threads(team) collapse(2) schedule(static)
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      z[static_cast<std::size_t>(j) * un +
        static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
          x[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)];
    }
  }
}

[[noreturn]] void throw_panel_abort(FaultSite site, index_t row) {
  throw AbortError(std::string("panel ") +
                   (site == FaultSite::kForwardRow ? "forward" : "backward") +
                   " sweep aborted at permuted row " + std::to_string(row) +
                   " (fault injection)");
}

/// Solve columns `cols` of the panel start to finish on the calling
/// thread, in the same columns of x: the straight-line forward sweep (rows
/// 0…n−1, each row's right-hand side gathered from r as it is needed) and
/// backward sweep (n−1…0, each finished row scattered to z). Every column
/// keeps the scalar accumulation order, and no other thread's work is ever
/// read. kHooked: stop before the next row once any group vetoed, and fire
/// the hook after each row; a veto requests `abort` (its site goes to
/// `vetoed`, written only by the request that wins). A hooked group leaves
/// z to the caller, which writes it only once no group vetoed.
///
/// The rows are short (a few nonzeros), so per-row overhead shows: W > 0
/// fixes the group width at compile time, which folds the per-row block
/// dispatch away, and flattening keeps every kernel inline in the row
/// loops. Each is worth about a fifth of the sweep time on thermal2.
template <bool kHooked, int W>
[[gnu::flatten]] void solve_columns(const Factorization& f,
                                    std::span<const value_t> r,
                                    std::span<value_t> z, value_t* x,
                                    Range cols, AbortFlag& abort,
                                    FaultSite& vetoed) {
  const CsrMatrix& lu = f.lu;
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  const index_t* perm = f.plan.perm.data();
  const index_t w = W > 0 ? W : cols.size();
  const std::size_t off = static_cast<std::size_t>(cols.begin) * un;
  const value_t* rg = r.data() + off;
  value_t* xg = x + off;
  value_t* zg = z.data() + off;
  const auto veto = [&](FaultSite site, index_t row) {
    if (f.opts.fault_hook(site, row)) return false;
    if (abort.request(row)) vetoed = site;
    return true;
  };
  for (index_t row = 0; row < n; ++row) {
    if (kHooked && abort.aborted()) return;
    const std::size_t p = static_cast<std::size_t>(perm[row]);
    for_each_panel_block(w, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      value_t acc[KB];
      const std::size_t c0 = static_cast<std::size_t>(j0) * un;
      lower_partial_panel<KB>(lu, row, xg + c0, un, acc);
      for (int j = 0; j < KB; ++j) {
        const std::size_t col = c0 + static_cast<std::size_t>(j) * un;
        xg[col + static_cast<std::size_t>(row)] = rg[col + p] - acc[j];
      }
    });
    if (kHooked && veto(FaultSite::kForwardRow, row)) return;
  }
  for (index_t row = n; row-- > 0;) {
    if (kHooked && abort.aborted()) return;
    for_each_panel_block(w, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      backward_row_panel<KB>(lu, f.diag_pos, row,
                             xg + static_cast<std::size_t>(j0) * un, un);
    });
    if constexpr (kHooked) {
      if (veto(FaultSite::kBackwardRow, row)) return;
    } else {
      const std::size_t p = static_cast<std::size_t>(perm[row]);
      for (std::size_t col = 0; col < static_cast<std::size_t>(w) * un;
           col += un) {
        zg[col + p] = xg[col + static_cast<std::size_t>(row)];
      }
    }
  }
}

/// fn(std::integral_constant<int, W>{}) with W = w when w columns are one
/// register block of for_each_panel_block (8, 4, 2 or 1), else with W = 0
/// (width known only at run time).
template <class Fn>
void with_block_width(index_t w, Fn&& fn) {
  switch (w) {
    case 8: return fn(std::integral_constant<int, 8>{});
    case 4: return fn(std::integral_constant<int, 4>{});
    case 2: return fn(std::integral_constant<int, 2>{});
    case 1: return fn(std::integral_constant<int, 1>{});
    default: return fn(std::integral_constant<int, 0>{});
  }
}

/// The column split of ilu_apply_panel (k >= team): thread t of the team
/// solves the t-th contiguous group of whole columns. Columns share no
/// dependencies, so the region has no progress counters, waits or
/// barriers. Under a fault hook z is written after the region, and only
/// when no group vetoed, so an aborted apply leaves it untouched.
void apply_by_columns(const Factorization& f, std::span<const value_t> r,
                      std::span<value_t> z, index_t k, int team, value_t* x) {
  const bool hooked = static_cast<bool>(f.opts.fault_hook);
  AbortFlag abort;
  FaultSite vetoed = FaultSite::kForwardRow;
#pragma omp parallel num_threads(team)
  {
    // Grouped by the team actually delivered, so a smaller (nested) team
    // still covers every column.
    const Range cols = partition_range(k, team_size(), thread_id());
    if (hooked) {
      solve_columns<true, 0>(f, r, z, x, cols, abort, vetoed);
    } else {
      with_block_width(cols.size(), [&](auto width) {
        solve_columns<false, decltype(width)::value>(f, r, z, x, cols, abort,
                                                     vetoed);
      });
    }
  }
  if (abort.aborted()) throw_panel_abort(vetoed, abort.row());
  if (hooked) scatter_panel(f.plan.perm, x, z, f.n(), k, team);
}

}  // namespace

void ilu_apply_panel(const Factorization& f, std::span<const value_t> r,
                     std::span<value_t> z, index_t k, SolveWorkspace& ws) {
  check_panel(f, r.size(), z.size(), k, "ilu_apply_panel");
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  ws.resize_panel(n, k);
  value_t* x = ws.x.data();

  const int team = runtime_team(f);
  if (k >= team && f.opts.exec_obs == nullptr) {
    apply_by_columns(f, r, z, k, team, x);
    return;
  }

  // Fewer columns than threads (or an instrumented apply): the row-parallel
  // panel sweep under the factor's schedules.
  gather_panel(f.plan.perm, r, x, n, k, team);
  const ExecStatus fst = detail::forward_sweep_panel(f, x, un, k, ws);
  if (!fst.ok()) throw_panel_abort(FaultSite::kForwardRow, fst.row);
  const CsrMatrix& lu = f.lu;
  const ExecStatus bst = detail::run_sweep(
      f, runtime_bwd(f, ws.sched), FaultSite::kBackwardRow,
      obs::Region::kBackward, ws.progress, [&](index_t row) {
        for_each_panel_block(k, [&](index_t j0, auto kb) {
          constexpr int KB = decltype(kb)::value;
          backward_row_panel<KB>(lu, f.diag_pos, row,
                                 x + static_cast<std::size_t>(j0) * un, un);
        });
      });
  // Converted OUTSIDE the parallel region: the abort itself drained
  // cooperatively; the throw is what exercises caller RAII (leases).
  if (!bst.ok()) throw_panel_abort(FaultSite::kBackwardRow, bst.row);
  scatter_panel(f.plan.perm, x, z, n, k, team);
}

WorkspacePool::Lease WorkspacePool::acquire() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!free_.empty()) {
    std::unique_ptr<SolveWorkspace> ws = std::move(free_.back());
    free_.pop_back();
    return Lease(this, std::move(ws));
  }
  return Lease(this, std::make_unique<SolveWorkspace>());
}

std::size_t WorkspacePool::idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return free_.size();
}

void WorkspacePool::put(std::unique_ptr<SolveWorkspace> ws) {
  std::lock_guard<std::mutex> lock(mu_);
  free_.push_back(std::move(ws));
}

void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k, SolveWorkspace& ws) {
  check_panel(f, r.size(), z.size(), k, "solve_many");
  const std::size_t un = static_cast<std::size_t>(f.n());
  const index_t batch = batch_rhs_of(f);
  for (index_t j0 = 0; j0 < k; j0 += batch) {
    const index_t w = std::min<index_t>(batch, k - j0);
    const std::size_t off = static_cast<std::size_t>(j0) * un;
    const std::size_t len = static_cast<std::size_t>(w) * un;
    ilu_apply_panel(f, r.subspan(off, len), z.subspan(off, len), w, ws);
  }
}

void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k, WorkspacePool& pool) {
  WorkspacePool::Lease lease = pool.acquire();
  solve_many(f, r, z, k, *lease);
}

void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k) {
  SolveWorkspace ws;
  solve_many(f, r, z, k, ws);
}

}  // namespace javelin
