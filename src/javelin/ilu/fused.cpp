#include "javelin/ilu/fused.hpp"

#include <algorithm>

#include "javelin/exec/run.hpp"
#include "javelin/ilu/forward_sweep.hpp"
#include "javelin/ilu/trsv_kernels.hpp"
#include "javelin/sparse/ops.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"

namespace javelin {

using detail::backward_row;
using detail::lower_partial;
using detail::spmv_row;

FusedApplySpmv build_fused_apply_spmv(const ExecSchedule& bwd,
                                      const TwoStagePlan& plan,
                                      const CsrMatrix& a, index_t chunk_rows,
                                      const ExecSchedule* fwd) {
  JAVELIN_CHECK(a.rows() == plan.n && a.cols() == plan.n,
                "fused apply+spmv requires A with the factor's dimension");
  FusedApplySpmv fs;
  const int T = bwd.threads;
  fs.threads = T;
  fs.n = plan.n;
  fs.chunk_rows = std::max<index_t>(1, chunk_rows);
  fs.thread_ptr.assign(static_cast<std::size_t>(std::max(T, 1)) + 1, 0);
  if (T <= 1) return fs;  // the serial path never consults the chunks

  // Producer lookup: which backward item finishes each permuted row.
  std::vector<index_t> owner, item_of;
  bwd.producer_positions(owner, item_of);
  // Column c of A is finished by permuted row to_perm[c] of the backward
  // sweep (to_perm inverts the plan's new-to-old permutation).
  const std::vector<index_t> to_perm = invert_permutation(plan.perm);

  // nnz-balanced thread ranges, blocked into chunks. The chunk is the wait
  // granule: one merged wait list amortized over chunk_rows rows.
  const index_t chunk = fs.chunk_rows;
  const RowPartition part = RowPartition::build(a, T);
  for (int t = 0; t < T; ++t) {
    const index_t lo = part.bounds[static_cast<std::size_t>(t)];
    const index_t hi = part.bounds[static_cast<std::size_t>(t) + 1];
    for (index_t b = lo; b < hi; b += chunk) {
      fs.chunk_begin.push_back(b);
      fs.chunk_end.push_back(std::min<index_t>(b + chunk, hi));
    }
    fs.thread_ptr[static_cast<std::size_t>(t) + 1] =
        static_cast<index_t>(fs.chunk_begin.size());
  }
  // Sparsified waits via the shared schedule-builder machinery. The consumer
  // thread has already performed every wait of its OWN backward items before
  // it reaches the SpMV phase (program order), so those high-water marks
  // seed the pruning.
  build_sparsified_waits(
      T, fs.thread_ptr,
      /*seed=*/
      [&bwd](int t, std::span<index_t> last_wait) {
        for (index_t i = bwd.thread_ptr[static_cast<std::size_t>(t)];
             i < bwd.thread_ptr[static_cast<std::size_t>(t) + 1]; ++i) {
          for (index_t w = bwd.wait_ptr[static_cast<std::size_t>(i)];
               w < bwd.wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
            index_t& lw = last_wait[static_cast<std::size_t>(
                bwd.wait_thread[static_cast<std::size_t>(w)])];
            lw = std::max(lw, bwd.wait_count[static_cast<std::size_t>(w)]);
          }
        }
      },
      [&](int t, index_t c,
          const std::function<void(index_t, index_t)>& yield) {
        for (index_t r = fs.chunk_begin[static_cast<std::size_t>(c)];
             r < fs.chunk_end[static_cast<std::size_t>(c)]; ++r) {
          for (index_t col : a.row_cols(r)) {
            const index_t pr = to_perm[static_cast<std::size_t>(col)];
            const index_t ot = owner[static_cast<std::size_t>(pr)];
            JAVELIN_CHECK(ot != kInvalidIndex,
                          "backward schedule does not cover every row");
            if (ot == static_cast<index_t>(t)) continue;
            yield(ot, item_of[static_cast<std::size_t>(pr)] + 1);
          }
        }
      },
      fs.wait_ptr, fs.wait_thread, fs.wait_count, fs.deps_total,
      fs.deps_kept);

  // Backward-on-forward waits for the single-region pass: backward item i
  // may run once the forward items producing its rows' forward values have
  // published (on the forward counter bank). Only meaningful when the
  // forward schedule covers every row (no lower stage) and shares the team.
  if (fwd != nullptr && fwd->threads == T && plan.num_lower_rows() == 0) {
    std::vector<index_t> fowner, fitem;
    fwd->producer_positions(fowner, fitem);
    build_sparsified_waits(
        T, bwd.thread_ptr,
        // Program order: before its first backward item, thread t already
        // performed every wait of its OWN forward items.
        [fwd](int t, std::span<index_t> last_wait) {
          for (index_t i = fwd->thread_ptr[static_cast<std::size_t>(t)];
               i < fwd->thread_ptr[static_cast<std::size_t>(t) + 1]; ++i) {
            for (index_t w = fwd->wait_ptr[static_cast<std::size_t>(i)];
                 w < fwd->wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
              index_t& lw = last_wait[static_cast<std::size_t>(
                  fwd->wait_thread[static_cast<std::size_t>(w)])];
              lw = std::max(lw, fwd->wait_count[static_cast<std::size_t>(w)]);
            }
          }
        },
        [&](int t, index_t i,
            const std::function<void(index_t, index_t)>& yield) {
          for (index_t k = bwd.item_ptr[static_cast<std::size_t>(i)];
               k < bwd.item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
            const index_t r = bwd.rows[static_cast<std::size_t>(k)];
            const index_t ot = fowner[static_cast<std::size_t>(r)];
            JAVELIN_CHECK(ot != kInvalidIndex,
                          "forward schedule does not cover every row");
            if (ot == static_cast<index_t>(t)) continue;
            yield(ot, fitem[static_cast<std::size_t>(r)] + 1);
          }
        },
        fs.fwd_wait_ptr, fs.fwd_wait_thread, fs.fwd_wait_count,
        fs.fwd_deps_total, fs.fwd_deps_kept);
    fs.fwd_synced = true;
  }
  return fs;
}

FusedApplySpmv build_fused_apply_spmv(const Factorization& f,
                                      const CsrMatrix& a, index_t chunk_rows) {
  return build_fused_apply_spmv(f.bwd, f.plan, a, chunk_rows, &f.fwd);
}

namespace {

/// Forward sweep with the rhs gather folded into each row: on exit
/// L x = P r, without the separate permute-in pass. The shared forward_sweep
/// makes this bitwise-identical to trsv_forward on a pre-gathered x by
/// construction.
ExecStatus fused_forward(const Factorization& f, std::span<const value_t> rv,
                         std::span<value_t> x, SolveWorkspace& ws) {
  const auto& perm = f.plan.perm;
  return detail::forward_sweep(
      f,
      [&rv, &perm](index_t r) {
        return rv[static_cast<std::size_t>(perm[static_cast<std::size_t>(r)])];
      },
      x, ws);
}

/// Straight-line backward sweep (scatter folded in) followed by the full
/// SpMV — the single-thread execution of the fused pass (a schedule
/// retargeted to T = 1) and the last-resort path when a parallel region
/// delivers a short team. One implementation so the zero-synchronization
/// paths cannot drift apart.
ExecStatus serial_backward_spmv(const Factorization& f, const CsrMatrix& a,
                                std::span<value_t> x, std::span<value_t> z,
                                std::span<value_t> t) {
  const auto& perm = f.plan.perm;
  const FaultHook& hook = f.opts.fault_hook;
  for (index_t row : f.bwd.serial_order) {
    backward_row(f.lu, f.diag_pos, row, x);
    z[static_cast<std::size_t>(perm[static_cast<std::size_t>(row)])] =
        x[static_cast<std::size_t>(row)];
    if (hook && !hook(FaultSite::kBackwardRow, row)) {
      return {ExecOutcome::kAborted, row};
    }
  }
  for (index_t row = 0; row < a.rows(); ++row) {
    t[static_cast<std::size_t>(row)] = spmv_row(a, row, z);
  }
  return {};
}

[[noreturn]] void throw_fused_abort(index_t row) {
  throw AbortError("fused apply+spmv aborted at permuted row " +
                   std::to_string(row) + " (fault injection)");
}

}  // namespace

FusedRuntime runtime_fused_schedule(const Factorization& f, const CsrMatrix& a,
                                    const FusedApplySpmv& fs,
                                    SolveWorkspace& ws) {
  JAVELIN_CHECK(fs.n == f.n() && fs.threads == f.bwd.threads,
                "fused schedule does not match this factorization");
  // Runtime team selection: re-plan the backward schedule AND the SpMV
  // chunk structure when the team differs from the factor-time plan
  // (replaces the old oversubscription→serial policy — a mismatched team
  // retargets; only T = 1 runs the straight-line sweep, as its own plan).
  FusedRuntime rt;
  rt.bwd = &f.bwd;
  rt.chunks = &fs;
  const int team = runtime_team(f);
  if (team <= 1 || f.bwd.threads <= 1) {
    rt.team = 1;
    return rt;
  }
  rt.team = team;
  if (team != f.bwd.threads) {
    (void)runtime_bwd(f, ws.sched);  // fills ws.sched (fwd AND bwd) for `team`
    // The chunk wait lists depend on A's column structure, so the cache is
    // keyed on the matrix as well as the team — address, nnz and column
    // array together, so a recycled allocation cannot alias a different
    // matrix into a stale chunk structure.
    if (!ws.sched.fused || ws.sched.fused->threads != team ||
        ws.sched.fused_matrix != &a || ws.sched.fused_nnz != a.nnz() ||
        ws.sched.fused_cols != a.col_idx().data() ||
        ws.sched.fused->chunk_rows != fs.chunk_rows ||
        ws.sched.fused->fwd_synced != fs.fwd_synced) {
      ws.sched.fused = std::make_unique<FusedApplySpmv>(build_fused_apply_spmv(
          ws.sched.bwd, f.plan, a, fs.chunk_rows,
          fs.fwd_synced ? &ws.sched.fwd : nullptr));
      ws.sched.fused_matrix = &a;
      ws.sched.fused_cols = a.col_idx().data();
      ws.sched.fused_nnz = a.nnz();
    }
    rt.bwd = &ws.sched.bwd;
    rt.chunks = ws.sched.fused.get();
    rt.fwd = &ws.sched.fwd;
  } else {
    rt.fwd = f.fwd.threads == team ? &f.fwd : nullptr;
  }
  return rt;
}

void ilu_apply_spmv(const Factorization& f, const CsrMatrix& a,
                    const FusedApplySpmv& fs, std::span<const value_t> r,
                    std::span<value_t> z, std::span<value_t> t,
                    SolveWorkspace& ws) {
  const index_t n = f.n();
  ws.resize(n, f.plan.num_lower_rows());
  const auto& perm = f.plan.perm;
  const CsrMatrix& lu = f.lu;
  std::span<value_t> x(ws.x);

  const FusedRuntime rt = runtime_fused_schedule(f, a, fs, ws);
  const ExecSchedule* s = rt.bwd;
  const FusedApplySpmv* chunks = rt.chunks;
  const int team = rt.team;
  const FaultHook& hook = f.opts.fault_hook;
  if (team <= 1) {
    // Single-thread team: gather+forward, backward+scatter and the SpMV as
    // straight-line sweeps with zero synchronization — no point building
    // schedules this path never reads. Same accumulation orders —
    // bitwise-identical to the scheduled path.
    for (index_t row = 0; row < n; ++row) {
      x[static_cast<std::size_t>(row)] =
          r[static_cast<std::size_t>(perm[static_cast<std::size_t>(row)])] -
          lower_partial(lu, row, n, x, 0);
      if (hook && !hook(FaultSite::kForwardRow, row)) throw_fused_abort(row);
    }
    const ExecStatus bst = serial_backward_spmv(f, a, x, z, t);
    if (!bst.ok()) throw_fused_abort(bst.row);
    return;
  }

  // Single-region fast path: forward sweep, backward sweep AND SpMV in ONE
  // parallel region. Eligible when the plan has no lower stage (the forward
  // schedule covers every row, no tail/corner phases), both sweeps run
  // uniform P2P, and the pass is unguarded/uninstrumented. The forward
  // items publish on a second counter bank (ws.progress_fwd); each backward
  // item first waits for the forward items producing its rows' forward
  // values (chunks->fwd_wait_*), then for its backward producers, and
  // solves OUT OF PLACE into ws.xb so late forward rows on other threads
  // never observe a clobbered x. Same kernels, same accumulation orders —
  // bitwise equal to the two-phase pass.
  const ExecSchedule* fsched = rt.fwd;
  if (chunks->fwd_synced && !hook && f.opts.exec_obs == nullptr &&
      fsched != nullptr && fsched->threads == s->threads &&
      f.plan.num_lower_rows() == 0 && s->backend == ExecBackend::kP2P &&
      !s->hybrid() && fsched->backend == ExecBackend::kP2P &&
      !fsched->hybrid()) {
    ProgressCounters& fprog = ws.progress_fwd;
    ProgressCounters& bprog = ws.progress;
    if (fprog.num_threads() < s->threads) {
      fprog.reset(s->threads);
    } else {
      fprog.rearm();
    }
    if (bprog.num_threads() < s->threads) {
      bprog.reset(s->threads);
    } else {
      bprog.rearm();
    }
    if (ws.xb.size() < static_cast<std::size_t>(n)) {
      ws.xb.resize(static_cast<std::size_t>(n));
    }
    std::span<value_t> xb(ws.xb);
    bool merged_fallback = false;
#pragma omp parallel num_threads(s->threads)
    {
      if (team_size() < s->threads) {
        if (thread_id() == 0) merged_fallback = true;  // sole writer
      } else {
        const int tid = thread_id();
        const int spin_budget =
            s->spin_budget > 0 ? s->spin_budget : spin_budget_for(s->threads);
        // Phase 1: forward items (rhs gather folded in, as fused_forward).
        index_t fdone = 0;
        for (index_t i = fsched->thread_ptr[static_cast<std::size_t>(tid)];
             i < fsched->thread_ptr[static_cast<std::size_t>(tid) + 1]; ++i) {
          for (index_t w = fsched->wait_ptr[static_cast<std::size_t>(i)];
               w < fsched->wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
            (void)fprog.wait_for(
                static_cast<int>(
                    fsched->wait_thread[static_cast<std::size_t>(w)]),
                fsched->wait_count[static_cast<std::size_t>(w)], spin_budget,
                nullptr);
          }
          for (index_t k = fsched->item_ptr[static_cast<std::size_t>(i)];
               k < fsched->item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
            const index_t row = fsched->rows[static_cast<std::size_t>(k)];
            x[static_cast<std::size_t>(row)] =
                r[static_cast<std::size_t>(
                    perm[static_cast<std::size_t>(row)])] -
                lower_partial(lu, row, row, x, 0);
          }
          ++fdone;
          fprog.publish(tid, fdone);
        }
        // Phase 2: backward items, gated on the forward bank then their own.
        index_t done = 0;
        for (index_t i = s->thread_ptr[static_cast<std::size_t>(tid)];
             i < s->thread_ptr[static_cast<std::size_t>(tid) + 1]; ++i) {
          for (index_t w = chunks->fwd_wait_ptr[static_cast<std::size_t>(i)];
               w < chunks->fwd_wait_ptr[static_cast<std::size_t>(i) + 1];
               ++w) {
            (void)fprog.wait_for(
                static_cast<int>(
                    chunks->fwd_wait_thread[static_cast<std::size_t>(w)]),
                chunks->fwd_wait_count[static_cast<std::size_t>(w)],
                spin_budget, nullptr);
          }
          for (index_t w = s->wait_ptr[static_cast<std::size_t>(i)];
               w < s->wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
            (void)bprog.wait_for(
                static_cast<int>(
                    s->wait_thread[static_cast<std::size_t>(w)]),
                s->wait_count[static_cast<std::size_t>(w)], spin_budget,
                nullptr);
          }
          for (index_t k = s->item_ptr[static_cast<std::size_t>(i)];
               k < s->item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
            const index_t row = s->rows[static_cast<std::size_t>(k)];
            detail::backward_row_into(lu, f.diag_pos, row, x, xb);
            z[static_cast<std::size_t>(perm[static_cast<std::size_t>(row)])] =
                xb[static_cast<std::size_t>(row)];
          }
          ++done;
          bprog.publish(tid, done);
        }
        // Phase 3: SpMV chunks behind the backward sweep (existing waits).
        for (index_t c = chunks->thread_ptr[static_cast<std::size_t>(tid)];
             c < chunks->thread_ptr[static_cast<std::size_t>(tid) + 1]; ++c) {
          for (index_t w = chunks->wait_ptr[static_cast<std::size_t>(c)];
               w < chunks->wait_ptr[static_cast<std::size_t>(c) + 1]; ++w) {
            (void)bprog.wait_for(
                static_cast<int>(
                    chunks->wait_thread[static_cast<std::size_t>(w)]),
                chunks->wait_count[static_cast<std::size_t>(w)], spin_budget,
                nullptr);
          }
          for (index_t row = chunks->chunk_begin[static_cast<std::size_t>(c)];
               row < chunks->chunk_end[static_cast<std::size_t>(c)]; ++row) {
            t[static_cast<std::size_t>(row)] = spmv_row(a, row, z);
          }
        }
      }
    }
    if (merged_fallback) {
      // Short team: redo the whole pass as the straight-line serial sweep
      // (deterministic overwrite of any partial work).
      for (index_t row = 0; row < n; ++row) {
        x[static_cast<std::size_t>(row)] =
            r[static_cast<std::size_t>(perm[static_cast<std::size_t>(row)])] -
            lower_partial(lu, row, n, x, 0);
      }
      (void)serial_backward_spmv(f, a, x, z, t);  // hook-free here
    }
    return;
  }

  const ExecStatus fst = fused_forward(f, r, x, ws);
  if (!fst.ok()) throw_fused_abort(fst.row);

  if (s->hybrid()) {
    // Hybrid (per-level regime) backward schedule: the fused region's sweep
    // halves below mirror only the uniform backends, so route the backward
    // sweep through exec_run — whose hybrid branch owns the cross-regime
    // handoff protocol — with the z scatter fused into the row loop, then
    // multiply A in a second region. One extra join versus the uniform
    // fused pass; accumulation orders unchanged, so the result stays
    // bitwise equal to the unfused pair.
    const auto backward_scatter_row = [&](index_t row) {
      backward_row(lu, f.diag_pos, row, x);
      z[static_cast<std::size_t>(perm[static_cast<std::size_t>(row)])] =
          x[static_cast<std::size_t>(row)];
    };
    if (hook) {
      const ExecStatus bst = exec_run(
          *s,
          [&](index_t row, int) -> bool {
            backward_scatter_row(row);
            return hook(FaultSite::kBackwardRow, row);
          },
          ws.progress);
      if (!bst.ok()) throw_fused_abort(bst.row);
    } else if (f.opts.exec_obs != nullptr) {
      exec_run_obs(
          *s, [&](index_t row, int) { backward_scatter_row(row); },
          ws.progress, *f.opts.exec_obs, obs::Region::kFused);
    } else {
      exec_run(
          *s, [&](index_t row, int) { backward_scatter_row(row); },
          ws.progress);
    }
#pragma omp parallel for schedule(static) num_threads(team)
    for (index_t row = 0; row < a.rows(); ++row) {
      t[static_cast<std::size_t>(row)] = spmv_row(a, row, z);
    }
    return;
  }

  // Cooperative abort (fault injection only): the flag is shared by the
  // backward items and the SpMV chunk waits, so a poisoned backward row
  // drains the whole fused region — including chunks waiting on rows that
  // will never publish. Hook-free solves keep `ab` null and every wait on
  // its historical no-polling path.
  AbortFlag abort_flag;
  AbortFlag* const ab = hook ? &abort_flag : nullptr;
  // Coarse observability for the fused region (thread-level counters and
  // phase spans; no per-level attribution — the SpMV chunks have no level).
  // Gated at compile time through the `obs_on` tag below, like exec_run's
  // Obs parameter: the uninstrumented instantiation carries no clock reads
  // and no counter stores. The fault hook takes precedence.
  obs::SweepObs* so = nullptr;
  if (f.opts.exec_obs != nullptr && !hook) {
    so = &f.opts.exec_obs->begin_sweep(obs::Region::kFused, *s);
  }
  bool fallback = false;
  {
    ProgressCounters& progress = ws.progress;
    if (s->backend == ExecBackend::kP2P) {
      if (progress.num_threads() < s->threads) {
        progress.reset(s->threads);
      } else {
        progress.rearm();
      }
    }
    SpinBarrier level_barrier(s->threads);
    // One region for the backward sweep AND the SpMV: each thread solves its
    // backward items (scattering finished entries straight into z), then
    // streams its A-row chunks behind the sweep — guarded by sparsified
    // waits on the same counters (P2P) or by the final level barrier
    // (CSR-LS). The sweep halves mirror exec_run (exec/run.hpp) with the
    // scatter fused into the row loop and the SpMV epilogue interleaved on
    // the same counters — keep the synchronization structure (including the
    // abort protocol) in sync with exec_run when changing either.
    const auto fused_thread = [&](const int tid, auto obs_on) {
      constexpr bool kObs = decltype(obs_on)::value;
      const int spin_budget =
          s->spin_budget > 0 ? s->spin_budget : spin_budget_for(s->threads);
      [[maybe_unused]] obs::TraceBuffer* buf = nullptr;
      [[maybe_unused]] std::int64_t t_start = 0;
      [[maybe_unused]] std::uint64_t sync_ns = 0;
      if constexpr (kObs) {
        if (so->tracing()) buf = &obs::TraceSession::instance().buffer();
        t_start = obs::now_ns();
        if (buf != nullptr) buf->begin_at("fused_bwd", t_start);
      }
      const auto backward_scatter = [&](index_t row) -> bool {
        backward_row(lu, f.diag_pos, row, x);
        z[static_cast<std::size_t>(perm[static_cast<std::size_t>(row)])] =
            x[static_cast<std::size_t>(row)];
        if (hook && !hook(FaultSite::kBackwardRow, row)) {
          ab->request(row);
          return false;
        }
        return true;
      };
      bool live = true;
      if (s->backend == ExecBackend::kBarrier) {
        for (index_t l = 0; l < s->num_levels && live; ++l) {
          if (ab != nullptr && ab->aborted()) {
            live = false;
            break;
          }
          const index_t base = s->level_ptr[static_cast<std::size_t>(l)];
          const index_t lsz =
              s->level_ptr[static_cast<std::size_t>(l) + 1] - base;
          const Range rr = level_slice(lsz, s->threads, tid, s->chunk_rows);
          for (index_t k = base + rr.begin; k < base + rr.end; ++k) {
            if (!backward_scatter(
                    s->serial_order[static_cast<std::size_t>(k)])) {
              live = false;
              break;
            }
          }
          // A failed thread never arrives, so no peer passes this level:
          // they drain out of the abort-aware barrier wait instead.
          if (!live) break;
          if constexpr (kObs) {
            const std::int64_t b0 = obs::now_ns();
            const bool turned = level_barrier.arrive_and_wait_counted(
                spin_budget, ab, so->slot(tid));
            const std::int64_t b1 = obs::now_ns();
            so->slot(tid).barrier_ns += static_cast<std::uint64_t>(b1 - b0);
            sync_ns += static_cast<std::uint64_t>(b1 - b0);
            if (!turned) live = false;
          } else {
            if (!level_barrier.arrive_and_wait(spin_budget, ab)) live = false;
          }
        }
        if constexpr (kObs) {
          if (buf != nullptr) {
            const std::int64_t mid = obs::now_ns();
            buf->end_at("fused_bwd", mid);
            buf->begin_at("fused_spmv", mid);
          }
        }
        // The last level barrier ordered every z entry before this point;
        // the SpMV chunks run unguarded. An aborted sweep skips them.
        if (live && !(ab != nullptr && ab->aborted())) {
          for (index_t c = chunks->thread_ptr[static_cast<std::size_t>(tid)];
               c < chunks->thread_ptr[static_cast<std::size_t>(tid) + 1];
               ++c) {
            for (index_t row =
                     chunks->chunk_begin[static_cast<std::size_t>(c)];
                 row < chunks->chunk_end[static_cast<std::size_t>(c)];
                 ++row) {
              t[static_cast<std::size_t>(row)] = spmv_row(a, row, z);
            }
          }
        }
      } else {
        index_t done = 0;
        for (index_t i = s->thread_ptr[static_cast<std::size_t>(tid)];
             i < s->thread_ptr[static_cast<std::size_t>(tid) + 1] && live;
             ++i) {
          if (ab != nullptr && ab->aborted()) {
            live = false;
            break;
          }
          [[maybe_unused]] std::int64_t w0 = 0;
          if constexpr (kObs) w0 = obs::now_ns();
          for (index_t w = s->wait_ptr[static_cast<std::size_t>(i)];
               w < s->wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
            const int pt =
                static_cast<int>(s->wait_thread[static_cast<std::size_t>(w)]);
            const index_t pc = s->wait_count[static_cast<std::size_t>(w)];
            bool arrived;
            if constexpr (kObs) {
              arrived = progress.wait_for_counted(pt, pc, spin_budget, ab,
                                                  so->slot(tid));
            } else {
              arrived = progress.wait_for(pt, pc, spin_budget, ab);
            }
            if (!arrived) {
              live = false;
              break;
            }
          }
          if constexpr (kObs) {
            const std::int64_t w1 = obs::now_ns();
            so->slot(tid).wait_ns += static_cast<std::uint64_t>(w1 - w0);
            sync_ns += static_cast<std::uint64_t>(w1 - w0);
          }
          if (!live) break;
          for (index_t k = s->item_ptr[static_cast<std::size_t>(i)];
               k < s->item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
            if (!backward_scatter(s->rows[static_cast<std::size_t>(k)])) {
              live = false;
              break;
            }
          }
          // A failed item is never published: chunk waits on it observe
          // the flag and drain instead of spinning forever.
          if (!live) break;
          ++done;
          progress.publish(tid, done);
        }
        if constexpr (kObs) {
          if (buf != nullptr) {
            const std::int64_t mid = obs::now_ns();
            buf->end_at("fused_bwd", mid);
            buf->begin_at("fused_spmv", mid);
          }
        }
        for (index_t c = chunks->thread_ptr[static_cast<std::size_t>(tid)];
             c < chunks->thread_ptr[static_cast<std::size_t>(tid) + 1] &&
             live;
             ++c) {
          [[maybe_unused]] std::int64_t w0 = 0;
          if constexpr (kObs) w0 = obs::now_ns();
          for (index_t w = chunks->wait_ptr[static_cast<std::size_t>(c)];
               w < chunks->wait_ptr[static_cast<std::size_t>(c) + 1]; ++w) {
            const int pt = static_cast<int>(
                chunks->wait_thread[static_cast<std::size_t>(w)]);
            const index_t pc = chunks->wait_count[static_cast<std::size_t>(w)];
            bool arrived;
            if constexpr (kObs) {
              arrived = progress.wait_for_counted(pt, pc, spin_budget, ab,
                                                  so->slot(tid));
            } else {
              arrived = progress.wait_for(pt, pc, spin_budget, ab);
            }
            if (!arrived) {
              live = false;
              break;
            }
          }
          if constexpr (kObs) {
            const std::int64_t w1 = obs::now_ns();
            so->slot(tid).wait_ns += static_cast<std::uint64_t>(w1 - w0);
            sync_ns += static_cast<std::uint64_t>(w1 - w0);
          }
          if (!live) break;
          for (index_t row = chunks->chunk_begin[static_cast<std::size_t>(c)];
               row < chunks->chunk_end[static_cast<std::size_t>(c)]; ++row) {
            t[static_cast<std::size_t>(row)] = spmv_row(a, row, z);
          }
        }
      }
      if constexpr (kObs) {
        const std::int64_t t_end = obs::now_ns();
        if (buf != nullptr) buf->end_at("fused_spmv", t_end);
        const std::uint64_t total = static_cast<std::uint64_t>(t_end - t_start);
        so->slot(tid).busy_ns += total > sync_ns ? total - sync_ns : 0;
      }
    };
#pragma omp parallel num_threads(s->threads)
    {
      // Uniform team-size verdict, no single+barrier round (see exec_run).
      if (team_size() < s->threads) {
        if (thread_id() == 0) fallback = true;  // sole writer
      } else if (so != nullptr) {
        fused_thread(thread_id(), std::true_type{});
      } else {
        fused_thread(thread_id(), std::false_type{});
      }
    }
  }
  if (so != nullptr) f.opts.exec_obs->end_sweep(obs::Region::kFused, *s);
  if (ab != nullptr && ab->aborted()) throw_fused_abort(ab->row());
  if (fallback) {
    const ExecStatus bst = serial_backward_spmv(f, a, x, z, t);
    if (!bst.ok()) throw_fused_abort(bst.row);
  }
}

}  // namespace javelin
