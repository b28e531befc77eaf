// Batched many-RHS solve path — the serving axis. One immutable
// Factorization is amortized across many concurrent right-hand sides two
// complementary ways:
//
//   * PANEL APPLIES: k right-hand sides are stored column-major in an n×k
//     panel and solved together by the register-blocked row kernels — each
//     row's L/U entries are loaded once per register block of columns
//     (sparse/panel.hpp) instead of once per RHS. The scalar ilu_apply is
//     the k = 1 case of the same apply (ilu/solve.cpp), which has two
//     executions. The columns of a panel share no dependencies, so when k
//     is at least the runtime team every thread takes a contiguous group of
//     whole columns and sweeps it straight through, rows 0…n−1 then
//     n−1…0, with no progress counters, waits or barriers (a team of one
//     runs this for every k). Only with fewer columns than threads, or
//     under an ExecObs sink (which instruments schedules), does the panel
//     run the factor's row-parallel execution schedules, paying their
//     synchronization once per panel rather than once per RHS. Either way
//     the group width is fixed once per call, so no row picks a block
//     width.
//
//   * WORKSPACE POOLS: independent serving streams check SolveWorkspaces out
//     of a WorkspacePool and run concurrent ilu_apply/ilu_apply_panel calls
//     against one shared factor (the apply paths are thread-safe across
//     distinct workspaces; the factor is never written after construction).
//
// The standing bitwise guarantee extends to this path: a batched solve of k
// right-hand sides is bitwise equal to k independent serial-reference
// solves (ilu_apply_serial), at every thread count, under both exec
// backends — column j's accumulation order is the reference's by
// construction (test_batch).
#pragma once

#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/obs/trace.hpp"

namespace javelin {

/// Panel preconditioner application Z = (L U)^{-1} R for k right-hand sides
/// stored column-major (R and Z are n×k, column stride n, ORIGINAL row
/// ordering; they must not overlap). Column j is bitwise equal to
/// ilu_apply_serial(f, column j of R, column j of Z, ws) at every thread
/// count and backend; ilu_apply is this call at k = 1. With
/// k >= runtime_team(f) and no exec_obs sink, each thread solves a
/// contiguous group of whole columns in ws's n×k panel with no
/// synchronization; otherwise the panel runs the forward and backward
/// schedules row-parallel. Throws Error when k < 1 or a span is smaller
/// than n×k, before any sweep runs. Thread-safe across distinct workspaces.
void ilu_apply_panel(const Factorization& f, std::span<const value_t> r,
                     std::span<value_t> z, index_t k, SolveWorkspace& ws);

/// Pool of SolveWorkspaces for concurrent serving streams sharing one
/// factorization. acquire() hands out an exclusive lease (recycling an idle
/// workspace when one exists, allocating otherwise); the lease returns the
/// workspace — with its grown buffers, warm progress counters and retarget
/// cache — on destruction. All methods are thread-safe; the leased
/// workspace itself is exclusively owned until released.
class WorkspacePool {
 public:
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& o) noexcept
        : pool_(o.pool_), ws_(std::move(o.ws_)), trace_t0_(o.trace_t0_) {
      o.pool_ = nullptr;
      o.trace_t0_ = 0;
    }
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        pool_ = o.pool_;
        ws_ = std::move(o.ws_);
        trace_t0_ = o.trace_t0_;
        o.pool_ = nullptr;
        o.trace_t0_ = 0;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    SolveWorkspace& operator*() const noexcept { return *ws_; }
    SolveWorkspace* operator->() const noexcept { return ws_.get(); }

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, std::unique_ptr<SolveWorkspace> ws)
        : pool_(pool), ws_(std::move(ws)) {
      // Lease-lifetime tracing: acquire and release may run on different
      // threads (streams hand leases around), so the span is emitted as one
      // complete ('X') event at release instead of a B/E pair.
      if (obs::TraceSession::instance().enabled()) trace_t0_ = obs::now_ns();
    }
    void release() noexcept {
      if (pool_ && ws_) {
        if (trace_t0_ != 0) {
          obs::TraceSession& ts = obs::TraceSession::instance();
          if (ts.enabled()) {
            ts.buffer().complete("lease", trace_t0_,
                                 obs::now_ns() - trace_t0_);
          }
        }
        pool_->put(std::move(ws_));
      }
      pool_ = nullptr;
    }
    WorkspacePool* pool_ = nullptr;
    std::unique_ptr<SolveWorkspace> ws_;
    std::int64_t trace_t0_ = 0;
  };

  WorkspacePool() = default;
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  Lease acquire();

  /// Workspaces currently sitting idle in the pool (diagnostics).
  std::size_t idle() const;

 private:
  void put(std::unique_ptr<SolveWorkspace> ws);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SolveWorkspace>> free_;
};

/// Batched serving entry point: solve k right-hand sides (column-major n×k
/// panels R → Z, original row ordering) against one factorization, as
/// ilu_apply_panel calls of at most kPanelBlockCols (8) columns — one
/// register block, so wider panels would only grow the workspace without
/// loading factor entries less often. Bitwise equal to k independent
/// ilu_apply_serial calls. Throws when k < 1 or a span is smaller than n×k.
void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k, SolveWorkspace& ws);

/// solve_many over a pooled workspace (the serving-stream form: concurrent
/// callers each check a workspace out of the shared pool).
void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k, WorkspacePool& pool);

/// Convenience overload with a per-call workspace (allocates; prefer the
/// workspace or pool overloads in serving loops).
void solve_many(const Factorization& f, std::span<const value_t> r,
                std::span<value_t> z, index_t k);

}  // namespace javelin
