// Runtime execution of an ExecSchedule under either backend.
//
// exec_run(s, backend, row_fn, progress) launches one parallel region of
// s.threads and drives row_fn(row, thread) in dependency order. The backend
// is an argument, not part of the schedule: factor-driven regions pass
// IluOptions::exec_backend, so flipping that option switches every later
// sweep of the factor without touching a schedule.
//
//   * kP2P: each thread walks its RUNS (exec/schedule.hpp): before a run it
//     performs the sparsified spin-waits of the run's first item on the
//     shared ProgressCounters, runs the run's rows as one contiguous range,
//     and then publishes its monotone counter once, at the run's last item
//     count — threads speed ahead of each other (paper §III-A). Only a run's
//     first item has waits and only its last item's count is named by the
//     schedule's waits, so every wait is released at the same producer
//     progress as a per-item walk would release it; a tail chunk waiting on
//     a mid-run count is released at the run's end.
//   * kBarrier: each thread walks its stored items level by level: at level
//     l it runs its items tagged l (ExecSchedule::item_level), one
//     contiguous row range, and the whole team crosses a spin barrier — also
//     at levels where the thread has no items — the CSR-LS baseline.
//
// Both backends run the stored items, so they execute identical (row,
// thread) assignments with identical per-row orders and are
// bitwise-interchangeable; only synchronization differs. A region runs
// uniformly under its backend — the team region has exactly these two
// branches. Every wait and barrier crossing uses the spin budget of the team
// (spin_budget_for). Teams of 1 — including schedules retargeted down to one
// thread — run the serial level-major order with zero synchronization.
//
// If the OpenMP runtime delivers a SMALLER team than scheduled (nested
// parallelism, thread limits), the region degrades to the serial order as a
// last-resort correctness path. Consumers avoid this by retargeting the
// schedule to the runtime team first (runtime_fwd/runtime_bwd, declared in
// ilu/factorization.hpp) — the serial path here is a safety net, not a
// policy. Both serial cases run one walker (detail::exec_run_serial).
//
// Cooperative abort: row_fn may return bool instead of void. A `false`
// return marks the region aborted — the failing thread records the row in
// the region's AbortFlag and stops publishing; every spin-wait (P2P counter
// waits and the level barrier alike) polls the flag, so peers drain out of
// their wait loops within a bounded number of misses instead of spinning on
// a row that will never complete. A P2P thread that is not waiting notices
// the flag at its next run boundary; a run has no waits after its first
// item, so the extra work is bounded by one run and cannot hang. No
// exception crosses the parallel region: exec_run returns a structured
// ExecStatus and the caller decides whether to throw, retry, or fall back.
// Whether a region polls is fixed at compile time by the row function's
// return type: only the numeric factorization (ilu/parallel.cpp) returns
// bool, and void-returning row functions — every sweep — compile to a loop
// with no flag at all.
//
// Observability follows the same compile-time gating pattern: the region
// body is one template, detail::exec_run_impl<Obs>. exec_run instantiates
// it with detail::NoObs — every instrumentation site is an `if constexpr`
// on Obs::kOn, and the waits get no counter sink (support/spinwait.hpp), so
// the default path compiles to exactly the historical loop (no clock reads,
// no counter stores, no trace checks). exec_run_obs instantiates with
// obs::SweepObs, which records per-thread spin-wait counters,
// per-(thread, level) busy/wait time, and (when the trace session is on)
// per-thread per-level spans — aggregated into the obs::ExecStats of the
// caller's ExecObs, returned next to the ExecStatus.
//
// Tail phase: the overloads taking an ExecTail (exec/schedule.hpp) and a
// chunk_fn(chunk, thread) append per-thread chunks to the region — the SpMV
// that the fused solve streams behind its backward sweep (ilu/fused.hpp).
// After its last item each thread runs its chunks: under P2P each chunk
// first performs its own waits on the same ProgressCounters; under kBarrier
// the final level barrier already ordered the sweep, so the chunks run
// unguarded. Tail waits poll the abort flag
// like every other wait, and an aborted region skips its tail. The serial
// paths (teams of 1, the short-team fallback) run every chunk in order
// after the serial sweep. Under exec_run_obs the tail's waits and busy time
// land in the thread's slot (no level attribution: chunks have no level).
// Like Obs, the tail is a compile-time policy (detail::NoTail by default),
// so regions without one compile to the loop they always had.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "javelin/exec/backend.hpp"
#include "javelin/exec/schedule.hpp"
#include "javelin/obs/exec_obs.hpp"
#include "javelin/obs/trace.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/support/spinwait.hpp"

namespace javelin {

enum class ExecOutcome : std::uint8_t {
  kOk,       ///< every scheduled row ran
  kAborted,  ///< a row function vetoed; the region drained cooperatively
};

/// Structured result of an exec_run region. On abort, `row` is the row of
/// the winning AbortFlag request. When a single row can fail (one bad
/// pivot, one injected fault) this is deterministic. With several failing
/// rows it is the first in serial order at a team of 1, and at a larger
/// team whichever failing row aborted first, which can differ between
/// runs.
struct ExecStatus {
  ExecOutcome outcome = ExecOutcome::kOk;
  index_t row = kInvalidIndex;

  bool ok() const noexcept { return outcome == ExecOutcome::kOk; }
};

namespace detail {

/// True when RowFn participates in cooperative abort by returning bool.
template <class RowFn>
inline constexpr bool kGuardedRowFn =
    std::is_same_v<std::invoke_result_t<RowFn&, index_t, int>, bool>;

/// Invoke a row function, mapping void returns to "keep going".
template <class RowFn>
inline bool exec_row(RowFn& row_fn, index_t row, int t) {
  if constexpr (kGuardedRowFn<RowFn>) {
    return row_fn(row, t);
  } else {
    row_fn(row, t);
    return true;
  }
}

/// Run rows order[k0 .. k1) on thread t. A vetoed row is recorded in the
/// abort flag and ends the run (returns false). Forced inline: with a large
/// row function (the factorization's) GCC would otherwise outline it and
/// pay a call per item on the hot path.
template <class RowFn>
[[gnu::always_inline]] inline bool exec_rows(RowFn& row_fn,
                                             const std::vector<index_t>& order,
                                             index_t k0, index_t k1, int t,
                                             AbortFlag* abort) {
  for (index_t k = k0; k < k1; ++k) {
    const index_t row = order[static_cast<std::size_t>(k)];
    if (!exec_row(row_fn, row, t)) {
      if (abort != nullptr) abort->request(row);
      return false;
    }
  }
  return true;
}

/// Disabled-observability policy: every instrumentation site below is
/// `if constexpr (Obs::kOn)` and the waits get no counter sink, so this
/// instantiation is the zero-overhead hot loop (bit-for-bit the
/// pre-observability code path).
struct NoObs {
  static constexpr bool kOn = false;
  static NoWaitCounts* counts(int) noexcept { return nullptr; }
};

/// Stalls shorter than this are counters-only; longer ones also get a trace
/// event (keeps trace files focused on the waits that explain lost time).
inline constexpr std::int64_t kStallSpanNs = 1000;

/// Perform wait list `i` of `w` — an ExecSchedule item or an ExecTail
/// chunk, both store wait_ptr/wait_thread/wait_count — on thread t, counted
/// into t's slot under Obs (the caller brackets the time). Returns false
/// when a wait gave up because the region aborted. Forced inline like
/// exec_rows: it runs once per item.
template <class Waits, class Obs>
[[gnu::always_inline]] inline bool exec_waits(const Waits& w, index_t i,
                                              ProgressCounters& progress,
                                              int spin_budget,
                                              const AbortFlag* abort, Obs& obs,
                                              int t) {
  for (index_t k = w.wait_ptr[static_cast<std::size_t>(i)];
       k < w.wait_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
    if (!progress.wait_for(
            static_cast<int>(w.wait_thread[static_cast<std::size_t>(k)]),
            w.wait_count[static_cast<std::size_t>(k)], spin_budget, abort,
            obs.counts(t))) {
      return false;
    }
  }
  return true;
}

/// One team barrier crossing of thread t after `level`. Under Obs it is
/// counted, its time charged to t's slot and to that level, and a long stall
/// becomes a trace event. Returns false on abort.
template <class Obs>
inline bool cross_barrier(SpinBarrier& barrier, int spin_budget,
                          const AbortFlag* abort, Obs& obs, int t,
                          index_t level) {
  if constexpr (Obs::kOn) {
    const std::int64_t b0 = obs::now_ns();
    const bool turned =
        barrier.arrive_and_wait(spin_budget, abort, obs.counts(t));
    const std::int64_t b1 = obs::now_ns();
    obs.slot(t).barrier_ns += static_cast<std::uint64_t>(b1 - b0);
    obs.add_level_wait(t, level, static_cast<std::uint64_t>(b1 - b0));
    if (obs.tracing() && b1 - b0 >= kStallSpanNs) {
      obs::TraceSession::instance().buffer().complete("barrier", b0, b1 - b0,
                                                      level);
    }
    return turned;
  } else {
    return barrier.arrive_and_wait(spin_budget, abort);
  }
}

/// Region without a tail phase: every tail site is `if constexpr`-dead.
struct NoTail {
  static constexpr bool kOn = false;
};

/// Region with a tail phase: the chunk plan and the chunk function.
template <class ChunkFn>
struct WithTail {
  static constexpr bool kOn = true;
  const ExecTail& plan;
  ChunkFn& chunk_fn;
};

/// Run chunks [c0, c1) of the tail on thread t. With `waits` (P2P)
/// each chunk first performs its own wait list; a wait that gives up (the
/// region aborted) ends the thread's tail.
template <class Tail, class Obs>
void run_tail(Tail& tail, int t, index_t c0, index_t c1, bool waits,
              ProgressCounters& progress, int spin_budget, AbortFlag* abort,
              Obs& obs) {
  [[maybe_unused]] obs::TraceBuffer* buf = nullptr;
  if constexpr (Obs::kOn) {
    if (obs.tracing()) {
      buf = &obs::TraceSession::instance().buffer();
      buf->begin_at("tail", obs::now_ns());
    }
  }
  for (index_t c = c0; c < c1; ++c) {
    if (waits) {
      std::int64_t w0 = 0;
      if constexpr (Obs::kOn) w0 = obs::now_ns();
      const bool arrived =
          exec_waits(tail.plan, c, progress, spin_budget, abort, obs, t);
      if constexpr (Obs::kOn) {
        obs.slot(t).wait_ns += static_cast<std::uint64_t>(obs::now_ns() - w0);
      }
      if (!arrived) break;
    }
    std::int64_t r0 = 0;
    if constexpr (Obs::kOn) r0 = obs::now_ns();
    tail.chunk_fn(c, t);
    if constexpr (Obs::kOn) {
      obs.slot(t).busy_ns += static_cast<std::uint64_t>(obs::now_ns() - r0);
    }
  }
  if constexpr (Obs::kOn) {
    if (buf != nullptr) buf->end_at("tail", obs::now_ns());
  }
}

/// The serial paths (teams of 1, the short-team fallback): the level-major
/// sweep over serial_order, then — unless a row vetoed — every tail chunk
/// in order. A vetoed row ends the sweep and is the status's row (there are
/// no peers to drain). Uninstrumented it is one pass over serial_order;
/// under Obs the pass is cut at the level boundaries, each level's time
/// charged to thread slot 0 and traced as a span.
template <class RowFn, class Obs, class Tail>
ExecStatus exec_run_serial(const ExecSchedule& s, RowFn& row_fn,
                           ProgressCounters& progress, Obs& obs, Tail& tail) {
  const bool by_level = Obs::kOn && !s.level_ptr.empty();
  const index_t nl = by_level ? s.num_levels : 1;
  [[maybe_unused]] obs::TraceBuffer* buf = nullptr;
  if constexpr (Obs::kOn) {
    if (obs.tracing()) buf = &obs::TraceSession::instance().buffer();
  }
  for (index_t l = 0; l < nl; ++l) {
    const index_t k0 = by_level ? s.level_ptr[static_cast<std::size_t>(l)] : 0;
    const index_t k1 = by_level
                           ? s.level_ptr[static_cast<std::size_t>(l) + 1]
                           : static_cast<index_t>(s.serial_order.size());
    [[maybe_unused]] std::int64_t t0 = 0;
    if constexpr (Obs::kOn) t0 = obs::now_ns();
    for (index_t k = k0; k < k1; ++k) {
      const index_t r = s.serial_order[static_cast<std::size_t>(k)];
      if (!exec_row(row_fn, r, 0)) return {ExecOutcome::kAborted, r};
    }
    if constexpr (Obs::kOn) {
      const std::int64_t t1 = obs::now_ns();
      obs.add_level_busy(0, l, static_cast<std::uint64_t>(t1 - t0));
      obs.slot(0).busy_ns += static_cast<std::uint64_t>(t1 - t0);
      if (buf != nullptr) {
        buf->begin_at(obs.name(), t0, l);
        buf->end_at(obs.name(), t1);
      }
    }
  }
  if constexpr (Tail::kOn) {
    run_tail(tail, 0, 0, tail.plan.num_chunks(), /*waits=*/false, progress, 0,
             nullptr, obs);
  }
  return {};
}

/// The one region body every gating level instantiates; see the header
/// comment. Structure (and, for NoObs/NoTail, codegen) matches the
/// historical exec_run exactly.
template <class RowFn, class Obs, class Tail>
ExecStatus exec_run_impl(const ExecSchedule& s, ExecBackend backend,
                         RowFn&& row_fn, ProgressCounters& progress, Obs& obs,
                         Tail tail) {
  // Only a bool-returning row function can abort the region, so only its
  // instantiation polls `flag`; every other one passes the waits a null
  // flag and compiles with zero abort polling.
  constexpr bool kGuarded = kGuardedRowFn<std::remove_reference_t<RowFn>>;
  AbortFlag flag;
  AbortFlag* const abort = kGuarded ? &flag : nullptr;

  if (s.threads <= 1) {
    return exec_run_serial(s, row_fn, progress, obs, tail);
  }

  if (backend == ExecBackend::kP2P) {
    if (progress.num_threads() < s.threads) {
      progress.reset(s.threads);
    } else {
      progress.rearm();
    }
  }
  SpinBarrier barrier(s.threads);
  bool fallback = false;
#pragma omp parallel num_threads(s.threads)
  {
    // team_size() is uniform across the team, so every thread reaches the
    // same verdict locally — no single+barrier round just to agree on it.
    // (Uniformity also keeps the level barriers below team-collective.)
    if (team_size() < s.threads) {
      if (thread_id() == 0) fallback = true;  // sole writer
    } else {
      const int t = thread_id();
      const int spin_budget = spin_budget_for(s.threads);
      // Cleared when this thread leaves its sweep early. Every early exit
      // is an abort (a vetoed row requests one; waits and barriers give up
      // only on one), which is what the tail below keys on.
      bool live = true;
      if (backend == ExecBackend::kBarrier) {
        // Thread t's items are level-ascending, so its items of level l are
        // the next ones tagged l: one contiguous range of rows.
        [[maybe_unused]] obs::TraceBuffer* buf = nullptr;
        if constexpr (Obs::kOn) {
          if (obs.tracing()) buf = &obs::TraceSession::instance().buffer();
        }
        index_t i = s.thread_ptr[static_cast<std::size_t>(t)];
        const index_t hi = s.thread_ptr[static_cast<std::size_t>(t) + 1];
        for (index_t l = 0; l < s.num_levels; ++l) {
          if (kGuarded && flag.aborted()) break;
          index_t j = i;
          while (j < hi && s.item_level[static_cast<std::size_t>(j)] == l) {
            ++j;
          }
          std::int64_t t0 = 0;
          if constexpr (Obs::kOn) t0 = obs::now_ns();
          live = exec_rows(row_fn, s.rows,
                           s.item_ptr[static_cast<std::size_t>(i)],
                           s.item_ptr[static_cast<std::size_t>(j)], t, abort);
          i = j;
          if constexpr (Obs::kOn) {
            const std::int64_t t1 = obs::now_ns();
            obs.add_level_busy(t, l, static_cast<std::uint64_t>(t1 - t0));
            obs.slot(t).busy_ns += static_cast<std::uint64_t>(t1 - t0);
            if (buf != nullptr) {
              buf->begin_at(obs.name(), t0, l);
              buf->end_at(obs.name(), t1);
            }
          }
          // A failed thread leaves without arriving, so the barrier can
          // never complete for this level: peers notice through the
          // abort-aware wait and drain. No thread ever advances past a
          // poisoned level. The last level's barrier orders the whole sweep
          // before the tail.
          if (!live || (kGuarded && flag.aborted())) break;
          live = cross_barrier(barrier, spin_budget, abort, obs, t, l);
        }
      } else {
        // P2P over the run layer: per run one wait list (its first
        // item's — the others have none), the run's rows as one contiguous
        // range, and one publish of the run's last item count (the only
        // count of the run a wait of the schedule names).
        const index_t lo = s.thread_ptr[static_cast<std::size_t>(t)];
        const index_t run_lo = s.thread_run_ptr[static_cast<std::size_t>(t)];
        const index_t run_hi =
            s.thread_run_ptr[static_cast<std::size_t>(t) + 1];
        [[maybe_unused]] obs::TraceBuffer* buf = nullptr;
        [[maybe_unused]] index_t span_level = kInvalidIndex;
        if constexpr (Obs::kOn) {
          if (obs.tracing()) buf = &obs::TraceSession::instance().buffer();
        }
        for (index_t run = run_lo; run < run_hi; ++run) {
          if (kGuarded && flag.aborted()) break;
          const index_t i0 = s.run_ptr[static_cast<std::size_t>(run)];
          const index_t i1 = s.run_ptr[static_cast<std::size_t>(run) + 1];
          [[maybe_unused]] index_t lvl = 0;
          [[maybe_unused]] std::int64_t w0 = 0;
          if constexpr (Obs::kOn) {
            lvl = s.item_level[static_cast<std::size_t>(i0)];
            w0 = obs::now_ns();
            // One span per contiguous run of same-level items per thread.
            if (buf != nullptr && lvl != span_level) {
              if (span_level != kInvalidIndex) buf->end_at(obs.name(), w0);
              buf->begin_at(obs.name(), w0, lvl);
              span_level = lvl;
            }
          }
          live = exec_waits(s, i0, progress, spin_budget, abort, obs, t);
          [[maybe_unused]] std::int64_t w1 = 0;
          if constexpr (Obs::kOn) {
            w1 = obs::now_ns();
            obs.slot(t).wait_ns += static_cast<std::uint64_t>(w1 - w0);
            obs.add_level_wait(t, lvl, static_cast<std::uint64_t>(w1 - w0));
            if (buf != nullptr && w1 - w0 >= kStallSpanNs) {
              buf->complete("stall", w0, w1 - w0, lvl);
            }
          }
          if (!live) break;
          if constexpr (Obs::kOn) {
            // Per-item clock reads inside the run keep the per-level busy
            // attribution and spans of the item model.
            std::int64_t c0 = w1;
            for (index_t i = i0; live && i < i1; ++i) {
              const index_t il = s.item_level[static_cast<std::size_t>(i)];
              if (buf != nullptr && il != span_level) {
                buf->end_at(obs.name(), c0);
                buf->begin_at(obs.name(), c0, il);
                span_level = il;
              }
              live = exec_rows(row_fn, s.rows,
                               s.item_ptr[static_cast<std::size_t>(i)],
                               s.item_ptr[static_cast<std::size_t>(i) + 1], t,
                               abort);
              const std::int64_t c1 = obs::now_ns();
              obs.slot(t).busy_ns += static_cast<std::uint64_t>(c1 - c0);
              obs.add_level_busy(t, il, static_cast<std::uint64_t>(c1 - c0));
              c0 = c1;
            }
          } else {
            live = exec_rows(row_fn, s.rows,
                             s.item_ptr[static_cast<std::size_t>(i0)],
                             s.item_ptr[static_cast<std::size_t>(i1)], t,
                             abort);
          }
          // A failed run is never published, so consumers of any row in it
          // (or after it) stall on the counter until they observe the flag.
          if (!live) break;
          progress.publish(t, i1 - lo);
        }
        if constexpr (Obs::kOn) {
          if (buf != nullptr && span_level != kInvalidIndex) {
            buf->end_at(obs.name(), obs::now_ns());
          }
        }
      }
      if constexpr (Tail::kOn) {
        // Under P2P each chunk waits for exactly the items it reads, on the
        // counters the sweep just published; under kBarrier the last level
        // barrier above already ordered the whole sweep.
        if (live && !(kGuarded && flag.aborted())) {
          run_tail(tail, t, tail.plan.thread_ptr[static_cast<std::size_t>(t)],
                   tail.plan.thread_ptr[static_cast<std::size_t>(t) + 1],
                   /*waits=*/backend == ExecBackend::kP2P, progress,
                   spin_budget, abort, obs);
        }
      }
    }
  }
  if (kGuarded && flag.aborted()) {
    return {ExecOutcome::kAborted, flag.row()};
  }
  if (fallback) return exec_run_serial(s, row_fn, progress, obs, tail);
  return {};
}

}  // namespace detail

/// Execute the schedule under `backend` with caller-provided progress
/// counters. `row_fn(row, thread)` is called once per row, in dependency
/// order, from inside a parallel region; it must not throw. Returning bool
/// (false = poison this region) opts into cooperative abort; see the header
/// comment.
///
/// `progress` is grown (reallocating) only when it is smaller than the
/// schedule's team and re-armed (zeroed) otherwise, so callers that sweep
/// thousands of times — the stri-per-Krylov-iteration profile, and the AMG
/// smoother running stri at every level of every V-cycle — pay the
/// threads×64B counter allocation once, not per sweep. (The barrier backend
/// leaves `progress` untouched; it synchronizes through a stack barrier.)
template <class RowFn>
ExecStatus exec_run(const ExecSchedule& s, ExecBackend backend,
                    RowFn&& row_fn, ProgressCounters& progress) {
  detail::NoObs no_obs;
  return detail::exec_run_impl(s, backend, std::forward<RowFn>(row_fn),
                               progress, no_obs, detail::NoTail{});
}

/// exec_run with a tail phase: after its last item, thread t runs
/// `chunk_fn(chunk, t)` for its chunks of `tail`, guarded as the header
/// comment describes. chunk_fn must not throw.
template <class RowFn, class ChunkFn>
ExecStatus exec_run(const ExecSchedule& s, ExecBackend backend,
                    RowFn&& row_fn, const ExecTail& tail, ChunkFn&& chunk_fn,
                    ProgressCounters& progress) {
  detail::NoObs no_obs;
  return detail::exec_run_impl(
      s, backend, std::forward<RowFn>(row_fn), progress, no_obs,
      detail::WithTail<std::remove_reference_t<ChunkFn>>{tail, chunk_fn});
}

/// Instrumented execution: identical scheduling and results to exec_run
/// (the row order, synchronization protocol, and hence bitwise output do
/// not change), plus spin-wait telemetry and — when the trace session is
/// enabled — per-thread per-level spans. The sweep's measurements land in
/// `eo.stats(kind)`, the ExecStats aggregate next to the returned
/// ExecStatus.
template <class RowFn>
ExecStatus exec_run_obs(const ExecSchedule& s, ExecBackend backend,
                        RowFn&& row_fn, ProgressCounters& progress,
                        obs::ExecObs& eo, obs::Region kind) {
  obs::SweepObs& so = eo.begin_sweep(kind, s);
  const ExecStatus status = detail::exec_run_impl(
      s, backend, std::forward<RowFn>(row_fn), progress, so, detail::NoTail{});
  eo.end_sweep(kind, s);
  return status;
}

/// Instrumented exec_run with a tail phase.
template <class RowFn, class ChunkFn>
ExecStatus exec_run_obs(const ExecSchedule& s, ExecBackend backend,
                        RowFn&& row_fn, const ExecTail& tail,
                        ChunkFn&& chunk_fn, ProgressCounters& progress,
                        obs::ExecObs& eo, obs::Region kind) {
  obs::SweepObs& so = eo.begin_sweep(kind, s);
  const ExecStatus status = detail::exec_run_impl(
      s, backend, std::forward<RowFn>(row_fn), progress, so,
      detail::WithTail<std::remove_reference_t<ChunkFn>>{tail, chunk_fn});
  eo.end_sweep(kind, s);
  return status;
}

}  // namespace javelin
