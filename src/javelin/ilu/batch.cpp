#include "javelin/ilu/batch.hpp"

#include <algorithm>

#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/sparse/panel.hpp"

namespace javelin {

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
  detail::check_panel(f, k, {r.size(), z.size()}, "solve_many");
  const std::size_t un = static_cast<std::size_t>(f.n());
  for (index_t j0 = 0; j0 < k; j0 += detail::kPanelBlockCols) {
    const index_t w = std::min<index_t>(detail::kPanelBlockCols, k - j0);
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
