// Runtime execution of an ExecSchedule under either backend.
//
// exec_run(s, row_fn, progress) launches one parallel region of s.threads
// and drives row_fn(row, thread) in dependency order:
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
//   * kBarrier: each thread recomputes its slice of every level (the same
//     level_slice — a contiguous run of whole chunk_rows items — that the
//     builder assigned) and the whole team crosses a spin barrier between
//     levels — the CSR-LS baseline.
//
// Both backends execute identical (row, thread) assignments with identical
// per-row orders, so they are bitwise-interchangeable; only synchronization
// differs. Teams of 1 — including schedules retargeted down to one thread —
// run the serial level-major order with zero synchronization.
//
// If the OpenMP runtime delivers a SMALLER team than scheduled (nested
// parallelism, thread limits), the region degrades to the serial order as a
// last-resort correctness path. Consumers avoid this by retargeting the
// schedule to the runtime team first (ilu/retarget.hpp) — the serial path
// here is a safety net, not a policy.
//
// Cooperative abort: row_fn may return bool instead of void. A `false`
// return marks the region aborted — the failing thread records the row in
// an AbortFlag and stops publishing; every spin-wait (P2P counter waits and
// the level barrier alike) polls the flag, so peers drain out of their wait
// loops within a bounded number of misses instead of spinning on a row that
// will never complete. A P2P thread that is not waiting notices the flag at
// its next run boundary; a run has no waits after its first item, so the
// extra work is bounded by one run and cannot hang. No exception crosses the
// parallel region: exec_run returns a structured ExecStatus and the caller
// decides whether to throw, retry, or fall back. Void-returning row
// functions keep the historical zero-overhead hot path (no flag polling at
// all).
//
// Observability follows the same compile-time gating pattern: the region
// body is one template, detail::exec_run_impl<Obs>. exec_run instantiates
// it with detail::NoObs — every instrumentation site is an `if constexpr`
// on Obs::kOn, so the default path compiles to exactly the historical loop
// (no clock reads, no counter stores, no trace checks). exec_run_obs
// instantiates with obs::SweepObs, which records per-thread spin-wait
// counters, per-(thread, level) busy/wait time, and (when the trace
// session is on) per-thread per-level spans — aggregated into the
// obs::ExecStats of the caller's ExecObs, returned next to the ExecStatus.
//
// Tail phase: the overloads taking an ExecTail (exec/schedule.hpp) and a
// chunk_fn(chunk, thread) append per-thread chunks to the region — the SpMV
// that the fused solve streams behind its backward sweep (ilu/fused.hpp).
// After its last item each thread runs its chunks: under uniform P2P each
// chunk first performs its own waits on the same ProgressCounters; under
// kBarrier the final level barrier already ordered the sweep, so the chunks
// run unguarded; a hybrid schedule crosses one team barrier after its last
// segment, then runs the chunks unguarded. Tail waits poll the abort flag
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

/// Structured result of an exec_run region. On abort, `row` is the first
/// row recorded by the winning AbortFlag request — when a single row can
/// fail (one bad pivot, one injected fault) this is deterministic, and it
/// always lies in the earliest level that contains a failing row, because
/// no thread passes a level whose barrier never completed (kBarrier) or
/// consumes a publication that never happened (kP2P).
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
/// `if constexpr (Obs::kOn)`, so this instantiation is the zero-overhead
/// hot loop (bit-for-bit the pre-observability code path).
struct NoObs {
  static constexpr bool kOn = false;
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
    const int pt = static_cast<int>(w.wait_thread[static_cast<std::size_t>(k)]);
    const index_t pc = w.wait_count[static_cast<std::size_t>(k)];
    bool arrived;
    if constexpr (Obs::kOn) {
      arrived =
          progress.wait_for_counted(pt, pc, spin_budget, abort, obs.slot(t));
    } else {
      arrived = progress.wait_for(pt, pc, spin_budget, abort);
    }
    if (!arrived) return false;
  }
  return true;
}

/// One team barrier crossing of thread t. Under Obs it is counted, its time
/// charged to t's slot and — for a valid `level` — to that level, and a
/// long stall becomes a trace event. Returns false on abort.
template <class Obs>
inline bool cross_barrier(SpinBarrier& barrier, int spin_budget,
                          const AbortFlag* abort, Obs& obs, int t,
                          index_t level) {
  if constexpr (Obs::kOn) {
    const std::int64_t b0 = obs::now_ns();
    const bool turned =
        barrier.arrive_and_wait_counted(spin_budget, abort, obs.slot(t));
    const std::int64_t b1 = obs::now_ns();
    obs.slot(t).barrier_ns += static_cast<std::uint64_t>(b1 - b0);
    if (level != kInvalidIndex) {
      obs.add_level_wait(t, level, static_cast<std::uint64_t>(b1 - b0));
    }
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

/// Run chunks [c0, c1) of the tail on thread t. With `waits` (uniform P2P)
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

}  // namespace detail

/// Dependency-safe serial sweep (level-major order). Honors cooperative
/// abort for bool-returning row functions and an optional external flag
/// (e.g. raised by a concurrent stage sharing the same poison domain).
template <class RowFn>
ExecStatus exec_run_serial(const ExecSchedule& s, RowFn&& row_fn,
                           AbortFlag* abort = nullptr) {
  for (index_t r : s.serial_order) {
    if (abort != nullptr && abort->aborted()) {
      return {ExecOutcome::kAborted, abort->row()};
    }
    if (!detail::exec_row(row_fn, r, 0)) {
      if (abort != nullptr) abort->request(r);
      return {ExecOutcome::kAborted, r};
    }
  }
  return {};
}

namespace detail {

/// Serial sweep with per-level attribution (thread slot 0) and spans.
template <class RowFn, class Obs>
ExecStatus exec_run_serial_obs(const ExecSchedule& s, RowFn& row_fn,
                               AbortFlag* abort, Obs& obs) {
  obs::TraceBuffer* buf =
      obs.tracing() ? &obs::TraceSession::instance().buffer() : nullptr;
  const bool flat = s.level_ptr.empty();
  const index_t nl = flat ? 1 : s.num_levels;
  for (index_t l = 0; l < nl; ++l) {
    const index_t k0 = flat ? 0 : s.level_ptr[static_cast<std::size_t>(l)];
    const index_t k1 = flat ? static_cast<index_t>(s.serial_order.size())
                            : s.level_ptr[static_cast<std::size_t>(l) + 1];
    const std::int64_t t0 = obs::now_ns();
    for (index_t k = k0; k < k1; ++k) {
      const index_t r = s.serial_order[static_cast<std::size_t>(k)];
      if (abort != nullptr && abort->aborted()) {
        return {ExecOutcome::kAborted, abort->row()};
      }
      if (!exec_row(row_fn, r, 0)) {
        if (abort != nullptr) abort->request(r);
        return {ExecOutcome::kAborted, r};
      }
    }
    const std::int64_t t1 = obs::now_ns();
    obs.add_level_busy(0, l, static_cast<std::uint64_t>(t1 - t0));
    obs.slot(0).busy_ns += static_cast<std::uint64_t>(t1 - t0);
    if (buf != nullptr) {
      buf->begin_at(obs.name(), t0, l);
      buf->end_at(obs.name(), t1);
    }
  }
  return {};
}

/// The serial paths (teams of 1, the short-team fallback): the level-major
/// sweep, then — unless it aborted — every tail chunk in order.
template <class RowFn, class Obs, class Tail>
ExecStatus exec_run_serial_tail(const ExecSchedule& s, RowFn& row_fn,
                                ProgressCounters& progress, AbortFlag* abort,
                                Obs& obs, Tail& tail) {
  ExecStatus st;
  if constexpr (Obs::kOn) {
    st = exec_run_serial_obs(s, row_fn, abort, obs);
  } else {
    st = exec_run_serial(s, row_fn, abort);
  }
  if constexpr (Tail::kOn) {
    if (st.ok()) {
      run_tail(tail, 0, 0, tail.plan.num_chunks(), /*waits=*/false, progress,
               0, abort, obs);
    }
  }
  return st;
}

/// The one region body every gating level instantiates; see the header
/// comment. Structure (and, for NoObs/NoTail, codegen) matches the
/// historical exec_run exactly.
template <class RowFn, class Obs, class Tail>
ExecStatus exec_run_impl(const ExecSchedule& s, RowFn&& row_fn,
                         ProgressCounters& progress, AbortFlag* external_abort,
                         Obs& obs, Tail tail) {
  constexpr bool kGuarded = kGuardedRowFn<std::remove_reference_t<RowFn>>;
  AbortFlag local_abort;
  AbortFlag* abort = external_abort;
  if constexpr (kGuarded) {
    if (abort == nullptr) abort = &local_abort;
  }
  // `watch` folds to false for unguarded fns without an external flag, so
  // the historical hot path compiles with zero abort polling.
  const bool watch = abort != nullptr;

  if (s.threads <= 1) {
    return exec_run_serial_tail(s, row_fn, progress, abort, obs, tail);
  }

  if (s.backend == ExecBackend::kP2P || s.hybrid()) {
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
      const int spin_budget =
          s.spin_budget > 0 ? s.spin_budget : spin_budget_for(s.threads);
      // Cleared when this thread leaves its sweep early. Every early exit
      // is an abort (a vetoed row requests one; waits and barriers give up
      // only on one), which is what the tail below keys on.
      bool live = true;
      if (s.hybrid()) {
        // Hybrid per-level regimes (tune/): contiguous same-tag level
        // SEGMENTS, a team barrier at every segment entry, the regime's own
        // protocol inside. Each thread advances its item cursor and
        // publishes its progress counter across NON-P2P levels too, so P2P
        // consumers in a later segment never spin on work a barrier or
        // serial level already finished (their cross-segment waits were
        // pruned to the regime floor by apply_level_tags — every surviving
        // wait's producer is in the consumer's own P2P segment).
        const index_t chunk = s.chunk_rows > 0 ? s.chunk_rows : 1;
        // Items of this thread in level l (the builder's layout re-derived,
        // exactly as the barrier branch re-derives its row slices).
        const auto items_here = [&](index_t l) {
          const index_t lsz = s.level_ptr[static_cast<std::size_t>(l) + 1] -
                              s.level_ptr[static_cast<std::size_t>(l)];
          const index_t r = level_slice(lsz, s.threads, t, chunk).size();
          return (r + chunk - 1) / chunk;
        };
        index_t item = s.thread_ptr[static_cast<std::size_t>(t)];
        index_t done = 0;
        index_t l = 0;
        while (l < s.num_levels && live) {
          const LevelRegime reg = s.level_regime(l);
          index_t seg_end = l + 1;
          while (seg_end < s.num_levels && s.level_regime(seg_end) == reg) {
            ++seg_end;
          }
          // Segment-entry barrier: orders this segment after everything
          // before it and makes the pre-segment counter publishes visible.
          // An aborted peer never arrives, so nothing past a poisoned
          // segment boundary ever runs.
          if (!cross_barrier(barrier, spin_budget, abort, obs, t, l) ||
              (watch && abort->aborted())) {
            live = false;
            break;
          }
          if (reg == LevelRegime::kSerial) {
            // Thread 0 runs the whole segment's rows in serial order; the
            // other threads skip straight to the bookkeeping. Everyone
            // advances its own cursor past its items of these levels and
            // publishes — single-writer counters preserved. An abort inside
            // the segment is caught at the next segment-entry barrier (the
            // publishes below cannot be consumed before it).
            if (t == 0) {
              std::int64_t t0 = 0;
              if constexpr (Obs::kOn) t0 = obs::now_ns();
              live = exec_rows(row_fn, s.serial_order,
                               s.level_ptr[static_cast<std::size_t>(l)],
                               s.level_ptr[static_cast<std::size_t>(seg_end)],
                               t, abort);
              if constexpr (Obs::kOn) {
                const std::int64_t t1 = obs::now_ns();
                obs.slot(t).busy_ns += static_cast<std::uint64_t>(t1 - t0);
                obs.add_level_busy(t, l, static_cast<std::uint64_t>(t1 - t0));
              }
            }
            for (index_t lv = l; lv < seg_end; ++lv) {
              const index_t ni = items_here(lv);
              item += ni;
              done += ni;
            }
            if (live) progress.publish(t, done);
          } else if (reg == LevelRegime::kBarrier) {
            for (index_t lv = l; lv < seg_end; ++lv) {
              const index_t base = s.level_ptr[static_cast<std::size_t>(lv)];
              const index_t lsz =
                  s.level_ptr[static_cast<std::size_t>(lv) + 1] - base;
              const Range rr = level_slice(lsz, s.threads, t, chunk);
              std::int64_t t0 = 0;
              if constexpr (Obs::kOn) t0 = obs::now_ns();
              live = exec_rows(row_fn, s.serial_order, base + rr.begin,
                               base + rr.end, t, abort);
              if constexpr (Obs::kOn) {
                const std::int64_t t1 = obs::now_ns();
                obs.slot(t).busy_ns += static_cast<std::uint64_t>(t1 - t0);
                obs.add_level_busy(t, lv, static_cast<std::uint64_t>(t1 - t0));
              }
              if (!live) break;
              const index_t ni = items_here(lv);
              item += ni;
              done += ni;
              progress.publish(t, done);
              // Per-level barrier (except before a segment boundary, where
              // the next segment's entry barrier takes its place).
              if (lv + 1 < seg_end &&
                  (!cross_barrier(barrier, spin_budget, abort, obs, t, lv) ||
                   (watch && abort->aborted()))) {
                live = false;
                break;
              }
            }
          } else {  // LevelRegime::kP2P
            index_t n_items = 0;
            for (index_t lv = l; lv < seg_end; ++lv) n_items += items_here(lv);
            for (index_t e = 0; e < n_items; ++e, ++item) {
              if (watch && abort->aborted()) {
                live = false;
                break;
              }
              std::int64_t w0 = 0;
              if constexpr (Obs::kOn) w0 = obs::now_ns();
              live = exec_waits(s, item, progress, spin_budget, abort, obs, t);
              if constexpr (Obs::kOn) {
                const std::int64_t w1 = obs::now_ns();
                obs.slot(t).wait_ns += static_cast<std::uint64_t>(w1 - w0);
                obs.add_level_wait(t, l, static_cast<std::uint64_t>(w1 - w0));
              }
              if (!live) break;
              std::int64_t r0 = 0;
              if constexpr (Obs::kOn) r0 = obs::now_ns();
              live = exec_rows(row_fn, s.rows,
                               s.item_ptr[static_cast<std::size_t>(item)],
                               s.item_ptr[static_cast<std::size_t>(item) + 1],
                               t, abort);
              if constexpr (Obs::kOn) {
                const std::int64_t r1 = obs::now_ns();
                obs.slot(t).busy_ns += static_cast<std::uint64_t>(r1 - r0);
                obs.add_level_busy(t, l, static_cast<std::uint64_t>(r1 - r0));
              }
              if (!live) break;
              ++done;
              progress.publish(t, done);
            }
          }
          l = seg_end;
        }
        // Tail: one team barrier after the last segment orders the whole
        // sweep before every chunk; an aborted peer never arrives.
        if constexpr (Tail::kOn) {
          if (live && !(watch && abort->aborted())) {
            live = cross_barrier(barrier, spin_budget, abort, obs, t,
                                 kInvalidIndex);
          }
        }
      } else if (s.backend == ExecBackend::kBarrier) {
        [[maybe_unused]] obs::TraceBuffer* buf = nullptr;
        if constexpr (Obs::kOn) {
          if (obs.tracing()) buf = &obs::TraceSession::instance().buffer();
        }
        for (index_t l = 0; l < s.num_levels; ++l) {
          if (watch && abort->aborted()) break;
          const index_t base = s.level_ptr[static_cast<std::size_t>(l)];
          const index_t lsz =
              s.level_ptr[static_cast<std::size_t>(l) + 1] - base;
          const Range rr = level_slice(lsz, s.threads, t, s.chunk_rows);
          std::int64_t t0 = 0;
          if constexpr (Obs::kOn) t0 = obs::now_ns();
          live = exec_rows(row_fn, s.serial_order, base + rr.begin,
                           base + rr.end, t, abort);
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
          if (!live || (watch && abort->aborted())) break;
          live = cross_barrier(barrier, spin_budget, abort, obs, t, l);
        }
      } else {
        // Uniform P2P over the run layer: per run one wait list (its first
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
          if (watch && abort->aborted()) break;
          const index_t i0 = s.run_ptr[static_cast<std::size_t>(run)];
          const index_t i1 = s.run_ptr[static_cast<std::size_t>(run) + 1];
          [[maybe_unused]] index_t lvl = 0;
          [[maybe_unused]] std::int64_t w0 = 0;
          if constexpr (Obs::kOn) {
            lvl = obs.item_level(i0);
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
              const index_t il = obs.item_level(i);
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
        // Under uniform P2P each chunk waits for exactly the items it
        // reads, on the counters the sweep just published; otherwise a
        // team barrier above already ordered the whole sweep.
        if (live && !(watch && abort->aborted())) {
          run_tail(tail, t, tail.plan.thread_ptr[static_cast<std::size_t>(t)],
                   tail.plan.thread_ptr[static_cast<std::size_t>(t) + 1],
                   /*waits=*/!s.hybrid() && s.backend == ExecBackend::kP2P,
                   progress, spin_budget, abort, obs);
        }
      }
    }
  }
  if (abort != nullptr && abort->aborted()) {
    return {ExecOutcome::kAborted, abort->row()};
  }
  if (fallback) {
    return exec_run_serial_tail(s, row_fn, progress, abort, obs, tail);
  }
  return {};
}

}  // namespace detail

/// Execute the schedule with caller-provided progress counters. `row_fn(row,
/// thread)` is called once per row, in dependency order, from inside a
/// parallel region; it must not throw. Returning bool (false = poison this
/// region) opts into cooperative abort; see the header comment.
///
/// `progress` is grown (reallocating) only when it is smaller than the
/// schedule's team and re-armed (zeroed) otherwise, so callers that sweep
/// thousands of times — the stri-per-Krylov-iteration profile, and the AMG
/// smoother running stri at every level of every V-cycle — pay the
/// threads×64B counter allocation once, not per sweep. (The barrier backend
/// leaves `progress` untouched; it synchronizes through a stack barrier.)
///
/// `external_abort`, when provided, is both observed (rows stop being
/// issued once it is raised, waits give up) and raised on row failure, so
/// several cooperating stages can share one poison domain.
template <class RowFn>
ExecStatus exec_run(const ExecSchedule& s, RowFn&& row_fn,
                    ProgressCounters& progress,
                    AbortFlag* external_abort = nullptr) {
  detail::NoObs no_obs;
  return detail::exec_run_impl(s, std::forward<RowFn>(row_fn), progress,
                               external_abort, no_obs, detail::NoTail{});
}

/// exec_run with a tail phase: after its last item, thread t runs
/// `chunk_fn(chunk, t)` for its chunks of `tail`, guarded as the header
/// comment describes. chunk_fn must not throw.
template <class RowFn, class ChunkFn>
ExecStatus exec_run(const ExecSchedule& s, RowFn&& row_fn,
                    const ExecTail& tail, ChunkFn&& chunk_fn,
                    ProgressCounters& progress,
                    AbortFlag* external_abort = nullptr) {
  detail::NoObs no_obs;
  return detail::exec_run_impl(
      s, std::forward<RowFn>(row_fn), progress, external_abort, no_obs,
      detail::WithTail<std::remove_reference_t<ChunkFn>>{tail, chunk_fn});
}

/// Convenience overload with per-call counters (one-shot executions such as
/// the factorization numeric phase; sweep loops should pass a persistent
/// ProgressCounters instead).
template <class RowFn>
ExecStatus exec_run(const ExecSchedule& s, RowFn&& row_fn,
                    AbortFlag* external_abort = nullptr) {
  ProgressCounters progress;
  return exec_run(s, std::forward<RowFn>(row_fn), progress, external_abort);
}

/// Instrumented execution: identical scheduling and results to exec_run
/// (the row order, synchronization protocol, and hence bitwise output do
/// not change), plus spin-wait telemetry and — when the trace session is
/// enabled — per-thread per-level spans. The sweep's measurements land in
/// `eo.stats(kind)`, the ExecStats aggregate next to the returned
/// ExecStatus.
template <class RowFn>
ExecStatus exec_run_obs(const ExecSchedule& s, RowFn&& row_fn,
                        ProgressCounters& progress, obs::ExecObs& eo,
                        obs::Region kind, AbortFlag* external_abort = nullptr) {
  obs::SweepObs& so = eo.begin_sweep(kind, s);
  const ExecStatus status =
      detail::exec_run_impl(s, std::forward<RowFn>(row_fn), progress,
                            external_abort, so, detail::NoTail{});
  eo.end_sweep(kind, s);
  return status;
}

/// Instrumented exec_run with a tail phase.
template <class RowFn, class ChunkFn>
ExecStatus exec_run_obs(const ExecSchedule& s, RowFn&& row_fn,
                        const ExecTail& tail, ChunkFn&& chunk_fn,
                        ProgressCounters& progress, obs::ExecObs& eo,
                        obs::Region kind, AbortFlag* external_abort = nullptr) {
  obs::SweepObs& so = eo.begin_sweep(kind, s);
  const ExecStatus status = detail::exec_run_impl(
      s, std::forward<RowFn>(row_fn), progress, external_abort, so,
      detail::WithTail<std::remove_reference_t<ChunkFn>>{tail, chunk_fn});
  eo.end_sweep(kind, s);
  return status;
}

}  // namespace javelin
