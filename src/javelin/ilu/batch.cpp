#include "javelin/ilu/batch.hpp"

#include <algorithm>
#include <string>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/ilu/trsv_kernels.hpp"
#include "javelin/sparse/panel.hpp"

namespace javelin {

using detail::backward_row_panel;
using detail::for_each_panel_block;

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

/// Panel gather x = P r (columns independent; elementwise, so the parallel
/// split never changes values).
void gather_panel(std::span<const index_t> perm, std::span<const value_t> r,
                  value_t* x, index_t n, index_t k) {
  const std::size_t un = static_cast<std::size_t>(n);
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      x[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)] =
          r[static_cast<std::size_t>(j) * un +
            static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
    }
  }
}

/// Panel scatter z = Pᵀ x.
void scatter_panel(std::span<const index_t> perm, const value_t* x,
                   std::span<value_t> z, index_t n, index_t k) {
  const std::size_t un = static_cast<std::size_t>(n);
#pragma omp parallel for collapse(2) schedule(static)
  for (index_t j = 0; j < k; ++j) {
    for (index_t i = 0; i < n; ++i) {
      z[static_cast<std::size_t>(j) * un +
        static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
          x[static_cast<std::size_t>(j) * un + static_cast<std::size_t>(i)];
    }
  }
}

}  // namespace

void ilu_apply_panel(const Factorization& f, std::span<const value_t> r,
                     std::span<value_t> z, index_t k, SolveWorkspace& ws) {
  check_panel(f, r.size(), z.size(), k, "ilu_apply_panel");
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  ws.resize_panel(n, f.plan.num_lower_rows(), k);
  value_t* x = ws.x.data();

  gather_panel(f.plan.perm, r, x, n, k);
  const ExecStatus fst = detail::forward_sweep_panel(
      f,
      [x, un](index_t row, index_t j) {
        return x[static_cast<std::size_t>(row) + static_cast<std::size_t>(j) * un];
      },
      x, un, k, ws);
  if (!fst.ok()) {
    throw AbortError("panel forward sweep aborted at permuted row " +
                     std::to_string(fst.row) + " (fault injection)");
  }
  const CsrMatrix& lu = f.lu;
  const FaultHook& hook = f.opts.fault_hook;
  const auto backward_panel_row = [&](index_t row) {
    for_each_panel_block(k, [&](index_t j0, auto kb) {
      constexpr int KB = decltype(kb)::value;
      backward_row_panel<KB>(lu, f.diag_pos, row,
                             x + static_cast<std::size_t>(j0) * un, un);
    });
  };
  if (hook) {
    const ExecStatus bst = exec_run(
        runtime_bwd(f, ws.sched),
        [&](index_t row, int) -> bool {
          backward_panel_row(row);
          return hook(FaultSite::kBackwardRow, row);
        },
        ws.progress);
    if (!bst.ok()) {
      // Converted OUTSIDE the parallel region: the abort itself drained
      // cooperatively; the throw is what exercises caller RAII (leases).
      throw AbortError("panel backward sweep aborted at permuted row " +
                       std::to_string(bst.row) + " (fault injection)");
    }
  } else if (f.opts.exec_obs != nullptr) {
    exec_run_obs(
        runtime_bwd(f, ws.sched),
        [&](index_t row, int) { backward_panel_row(row); }, ws.progress,
        *f.opts.exec_obs, obs::Region::kBackward);
  } else {
    exec_run(
        runtime_bwd(f, ws.sched),
        [&](index_t row, int) { backward_panel_row(row); }, ws.progress);
  }
  scatter_panel(f.plan.perm, x, z, n, k);
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
