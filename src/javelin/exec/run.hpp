// Runtime execution of an ExecSchedule under either backend.
//
// exec_run(s, row_fn, progress) launches one parallel region of s.threads
// and drives row_fn(row, thread) in dependency order:
//
//   * kP2P: each thread walks its items; before an item it performs the
//     item's sparsified spin-waits on the shared ProgressCounters, after it
//     it publishes its own monotone counter — threads speed ahead of each
//     other (paper §III-A).
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
// will never complete. No exception crosses the parallel region: exec_run
// returns a structured ExecStatus and the caller decides whether to throw,
// retry, or fall back. Void-returning row functions keep the historical
// zero-overhead hot path (no flag polling at all).
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

/// Disabled-observability policy: every instrumentation site below is
/// `if constexpr (Obs::kOn)`, so this instantiation is the zero-overhead
/// hot loop (bit-for-bit the pre-observability code path).
struct NoObs {
  static constexpr bool kOn = false;
};

/// Stalls shorter than this are counters-only; longer ones also get a trace
/// event (keeps trace files focused on the waits that explain lost time).
inline constexpr std::int64_t kStallSpanNs = 1000;

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

/// The one region body both gating levels instantiate; see the header
/// comment. Structure (and, for NoObs, codegen) matches the historical
/// exec_run exactly.
template <class RowFn, class Obs>
ExecStatus exec_run_impl(const ExecSchedule& s, RowFn&& row_fn,
                         ProgressCounters& progress, AbortFlag* external_abort,
                         Obs& obs) {
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
    if constexpr (Obs::kOn) {
      return exec_run_serial_obs(s, row_fn, abort, obs);
    } else {
      return exec_run_serial(s, row_fn, abort);
    }
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
    } else if (s.hybrid()) {
      // Hybrid per-level regimes (tune/): contiguous same-tag level
      // SEGMENTS, a team barrier at every segment entry, the regime's own
      // protocol inside. Each thread advances its item cursor and publishes
      // its progress counter across NON-P2P levels too, so P2P consumers in
      // a later segment never spin on work a barrier or serial level
      // already finished (their cross-segment waits were pruned to the
      // regime floor by apply_level_tags — every surviving wait's producer
      // is in the consumer's own P2P segment).
      const int t = thread_id();
      const int spin_budget =
          s.spin_budget > 0 ? s.spin_budget : spin_budget_for(s.threads);
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
      bool live = true;
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
        std::int64_t b0 = 0;
        if constexpr (Obs::kOn) b0 = obs::now_ns();
        bool turned;
        if constexpr (Obs::kOn) {
          turned = barrier.arrive_and_wait_counted(spin_budget, abort,
                                                   obs.slot(t));
        } else {
          turned = barrier.arrive_and_wait(spin_budget, abort);
        }
        if constexpr (Obs::kOn) {
          const std::int64_t b1 = obs::now_ns();
          obs.slot(t).barrier_ns += static_cast<std::uint64_t>(b1 - b0);
          obs.add_level_wait(t, l, static_cast<std::uint64_t>(b1 - b0));
        }
        if (!turned) break;
        if (watch && abort->aborted()) break;
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
            for (index_t k = s.level_ptr[static_cast<std::size_t>(l)];
                 k < s.level_ptr[static_cast<std::size_t>(seg_end)]; ++k) {
              const index_t row = s.serial_order[static_cast<std::size_t>(k)];
              if (!exec_row(row_fn, row, t)) {
                if (abort != nullptr) abort->request(row);
                live = false;
                break;
              }
            }
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
            for (index_t k = base + rr.begin; k < base + rr.end; ++k) {
              const index_t row = s.serial_order[static_cast<std::size_t>(k)];
              if (!exec_row(row_fn, row, t)) {
                if (abort != nullptr) abort->request(row);
                live = false;
                break;
              }
            }
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
            if (lv + 1 < seg_end) {
              bool lvl_turned;
              if constexpr (Obs::kOn) {
                const std::int64_t lb0 = obs::now_ns();
                lvl_turned = barrier.arrive_and_wait_counted(spin_budget,
                                                             abort, obs.slot(t));
                const std::int64_t lb1 = obs::now_ns();
                obs.slot(t).barrier_ns += static_cast<std::uint64_t>(lb1 - lb0);
                obs.add_level_wait(t, lv, static_cast<std::uint64_t>(lb1 - lb0));
              } else {
                lvl_turned = barrier.arrive_and_wait(spin_budget, abort);
              }
              if (!lvl_turned) {
                live = false;
                break;
              }
              if (watch && abort->aborted()) {
                live = false;
                break;
              }
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
            for (index_t w = s.wait_ptr[static_cast<std::size_t>(item)];
                 w < s.wait_ptr[static_cast<std::size_t>(item) + 1]; ++w) {
              const int pt = static_cast<int>(
                  s.wait_thread[static_cast<std::size_t>(w)]);
              const index_t pc = s.wait_count[static_cast<std::size_t>(w)];
              bool arrived;
              if constexpr (Obs::kOn) {
                arrived = progress.wait_for_counted(pt, pc, spin_budget,
                                                    abort, obs.slot(t));
              } else {
                arrived = progress.wait_for(pt, pc, spin_budget, abort);
              }
              if (!arrived) {
                live = false;
                break;
              }
            }
            if constexpr (Obs::kOn) {
              const std::int64_t w1 = obs::now_ns();
              obs.slot(t).wait_ns += static_cast<std::uint64_t>(w1 - w0);
              obs.add_level_wait(t, l, static_cast<std::uint64_t>(w1 - w0));
            }
            if (!live) break;
            std::int64_t r0 = 0;
            if constexpr (Obs::kOn) r0 = obs::now_ns();
            for (index_t k = s.item_ptr[static_cast<std::size_t>(item)];
                 k < s.item_ptr[static_cast<std::size_t>(item) + 1]; ++k) {
              const index_t row = s.rows[static_cast<std::size_t>(k)];
              if (!exec_row(row_fn, row, t)) {
                if (abort != nullptr) abort->request(row);
                live = false;
                break;
              }
            }
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
    } else if (s.backend == ExecBackend::kBarrier) {
      const int t = thread_id();
      const int spin_budget =
          s.spin_budget > 0 ? s.spin_budget : spin_budget_for(s.threads);
      [[maybe_unused]] obs::TraceBuffer* buf = nullptr;
      if constexpr (Obs::kOn) {
        if (obs.tracing()) buf = &obs::TraceSession::instance().buffer();
      }
      for (index_t l = 0; l < s.num_levels; ++l) {
        if (watch && abort->aborted()) break;
        const index_t base = s.level_ptr[static_cast<std::size_t>(l)];
        const index_t lsz = s.level_ptr[static_cast<std::size_t>(l) + 1] - base;
        const Range rr = level_slice(lsz, s.threads, t, s.chunk_rows);
        std::int64_t t0 = 0;
        if constexpr (Obs::kOn) t0 = obs::now_ns();
        bool live = true;
        for (index_t k = base + rr.begin; k < base + rr.end; ++k) {
          const index_t row = s.serial_order[static_cast<std::size_t>(k)];
          if (!exec_row(row_fn, row, t)) {
            if (abort != nullptr) abort->request(row);
            live = false;
            break;
          }
        }
        if constexpr (Obs::kOn) {
          const std::int64_t t1 = obs::now_ns();
          obs.add_level_busy(t, l, static_cast<std::uint64_t>(t1 - t0));
          obs.slot(t).busy_ns += static_cast<std::uint64_t>(t1 - t0);
          if (buf != nullptr) {
            buf->begin_at(obs.name(), t0, l);
            buf->end_at(obs.name(), t1);
          }
        }
        // A failed thread leaves without arriving, so the barrier can never
        // complete for this level: peers notice through the abort-aware
        // wait and drain. No thread ever advances past a poisoned level.
        if (!live) break;
        if (watch && abort->aborted()) break;
        if constexpr (Obs::kOn) {
          const std::int64_t b0 = obs::now_ns();
          const bool turned =
              barrier.arrive_and_wait_counted(spin_budget, abort, obs.slot(t));
          const std::int64_t b1 = obs::now_ns();
          obs.slot(t).barrier_ns += static_cast<std::uint64_t>(b1 - b0);
          obs.add_level_wait(t, l, static_cast<std::uint64_t>(b1 - b0));
          if (buf != nullptr && b1 - b0 >= kStallSpanNs) {
            buf->complete("barrier", b0, b1 - b0, l);
          }
          if (!turned) break;
        } else {
          if (!barrier.arrive_and_wait(spin_budget, abort)) break;
        }
      }
    } else {
      const int t = thread_id();
      const int spin_budget =
          s.spin_budget > 0 ? s.spin_budget : spin_budget_for(s.threads);
      const index_t lo = s.thread_ptr[static_cast<std::size_t>(t)];
      const index_t hi = s.thread_ptr[static_cast<std::size_t>(t) + 1];
      [[maybe_unused]] obs::TraceBuffer* buf = nullptr;
      [[maybe_unused]] index_t span_level = kInvalidIndex;
      if constexpr (Obs::kOn) {
        if (obs.tracing()) buf = &obs::TraceSession::instance().buffer();
      }
      index_t done = 0;
      for (index_t i = lo; i < hi; ++i) {
        if (watch && abort->aborted()) break;
        [[maybe_unused]] index_t lvl = 0;
        [[maybe_unused]] std::int64_t w0 = 0;
        if constexpr (Obs::kOn) {
          lvl = obs.item_level(i);
          w0 = obs::now_ns();
          // One span per contiguous run of same-level items per thread.
          if (buf != nullptr && lvl != span_level) {
            if (span_level != kInvalidIndex) buf->end_at(obs.name(), w0);
            buf->begin_at(obs.name(), w0, lvl);
            span_level = lvl;
          }
        }
        // One merged wait list, then the whole row block — the spin-wait
        // checks and the release store are amortized over chunk_rows rows.
        bool live = true;
        for (index_t w = s.wait_ptr[static_cast<std::size_t>(i)];
             w < s.wait_ptr[static_cast<std::size_t>(i) + 1]; ++w) {
          const int pt =
              static_cast<int>(s.wait_thread[static_cast<std::size_t>(w)]);
          const index_t pc = s.wait_count[static_cast<std::size_t>(w)];
          bool arrived;
          if constexpr (Obs::kOn) {
            arrived = progress.wait_for_counted(pt, pc, spin_budget, abort,
                                                obs.slot(t));
          } else {
            arrived = progress.wait_for(pt, pc, spin_budget, abort);
          }
          if (!arrived) {
            live = false;
            break;
          }
        }
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
        for (index_t k = s.item_ptr[static_cast<std::size_t>(i)];
             k < s.item_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
          const index_t row = s.rows[static_cast<std::size_t>(k)];
          if (!exec_row(row_fn, row, t)) {
            if (abort != nullptr) abort->request(row);
            live = false;
            break;
          }
        }
        if constexpr (Obs::kOn) {
          const std::int64_t w2 = obs::now_ns();
          obs.slot(t).busy_ns += static_cast<std::uint64_t>(w2 - w1);
          obs.add_level_busy(t, lvl, static_cast<std::uint64_t>(w2 - w1));
        }
        // A failed item is never published, so consumers of any row in it
        // (or after it) stall on the counter until they observe the flag.
        if (!live) break;
        ++done;
        progress.publish(t, done);
      }
      if constexpr (Obs::kOn) {
        if (buf != nullptr && span_level != kInvalidIndex) {
          buf->end_at(obs.name(), obs::now_ns());
        }
      }
    }
  }
  if (abort != nullptr && abort->aborted()) {
    return {ExecOutcome::kAborted, abort->row()};
  }
  if (fallback) {
    if constexpr (Obs::kOn) {
      return exec_run_serial_obs(s, row_fn, abort, obs);
    } else {
      return exec_run_serial(s, row_fn, abort);
    }
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
                               external_abort, no_obs);
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
  const ExecStatus status = detail::exec_run_impl(
      s, std::forward<RowFn>(row_fn), progress, external_abort, so);
  eo.end_sweep(kind, s);
  return status;
}

}  // namespace javelin
