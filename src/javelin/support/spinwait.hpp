// Light-weight synchronization primitives for point-to-point level-scheduled
// execution (paper §III-A).
//
// The central object is ProgressCounters: one cache-line-padded atomic per
// thread that counts how many of that thread's scheduled rows have been
// published. A consumer that needs rows {r1..rk} owned by thread t waits for
// a single counter to pass max(position(ri)) — the "sparsified" dependency
// of Park et al. [11] that Javelin builds on.
//
// Each wait primitive (ProgressCounters::wait_for, SpinBarrier::
// arrive_and_wait) is one function with an optional counter sink: the
// instrumented executor passes its per-thread obs::WaitCounters, and without
// a sink every counting statement compiles away.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

#include "javelin/support/types.hpp"

namespace javelin {

/// CPU-friendly busy-wait hint.
inline void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Hardware destructive interference size; hardcoded because
/// std::hardware_destructive_interference_size is still flaky across
/// compilers and we only target x86-64/aarch64 class machines here.
inline constexpr std::size_t kCacheLine = 64;

/// A single atomic counter padded to a cache line so neighbouring threads'
/// publishes never false-share.
struct alignas(kCacheLine) PaddedCounter {
  std::atomic<index_t> value{0};
  char pad[kCacheLine - sizeof(std::atomic<index_t>)] = {};
};
static_assert(sizeof(PaddedCounter) == kCacheLine);

/// Spin iterations between yields in wait_for (~1 µs of pause-spinning).
inline constexpr int kSpinsBeforeYield = 1024;

/// Cached hardware concurrency (the query is a syscall on some libstdc++
/// builds); 0 when unknown.
inline int hardware_cores() noexcept {
  static const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw;
}

/// A team of `threads` oversubscribes the machine: more runnable spinners
/// than cores, so a waited-on producer is likely not running.
inline bool team_oversubscribed(int threads) noexcept {
  const int hw = hardware_cores();
  return hw > 0 && threads > hw;
}

/// Spin budget for a team of `threads`: when the team oversubscribes the
/// hardware the producer we are waiting on cannot be running, so burning a
/// pause-spin window before every yield only delays its next time slice —
/// yield immediately instead.
inline int spin_budget_for(int threads) noexcept {
  return team_oversubscribed(threads) ? 1 : kSpinsBeforeYield;
}

/// Bounded exponential backoff for busy-wait loops: pause-spin windows that
/// double (1, 2, 4, … pauses) up to `max_pauses`, then escalate to
/// std::this_thread::yield on every further miss. Short waits — the common
/// case on a dedicated machine — stay in cheap pause territory; long waits
/// and oversubscribed teams (max_pauses = spin_budget_for(team) = 1) hand
/// the core to the producer almost immediately instead of starving it
/// behind a spinner.
class Backoff {
 public:
  explicit Backoff(int max_pauses) noexcept
      : max_pauses_(max_pauses < 1 ? 1 : max_pauses) {}

  /// One miss: burn the current pause window (doubling it) or yield once
  /// the window is exhausted. Returns true when the miss escalated to a
  /// yield — the pause→yield transition the stall telemetry counts; plain
  /// callers ignore the return value at zero cost.
  bool miss() noexcept {
    if (window_ <= max_pauses_) {
      for (int i = 0; i < window_; ++i) cpu_pause();
      window_ <<= 1;
      return false;
    }
    std::this_thread::yield();
    return true;
  }

 private:
  int window_ = 1;
  const int max_pauses_;
};

/// The counter sink of a wait that counts nothing: the default of
/// ProgressCounters::wait_for and SpinBarrier::arrive_and_wait.
struct NoWaitCounts {};

/// Cooperative poison flag for a parallel region: the first worker that
/// detects a condition the region cannot recover from (zero pivot,
/// injected fault, non-finite value) publishes the offending row here and
/// stops publishing progress. Every spin-wait in the region polls the flag,
/// so peers that would otherwise wait forever on the dead row drain out of
/// their wait loops within a bounded number of misses instead. The flag
/// carries the *first* reported row (CAS, first writer wins) so the caller
/// can attribute the abort deterministically when only one row can fail.
class AbortFlag {
 public:
  /// Request an abort attributed to `row`. Returns true when this call won
  /// the race to be the recorded cause.
  bool request(index_t row) noexcept {
    index_t expected = kInvalidIndex;
    return first_.compare_exchange_strong(expected, row,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire);
  }

  bool aborted() const noexcept {
    return first_.load(std::memory_order_acquire) != kInvalidIndex;
  }

  /// Row recorded by the winning request (kInvalidIndex when not aborted).
  index_t row() const noexcept {
    return first_.load(std::memory_order_acquire);
  }

 private:
  alignas(kCacheLine) std::atomic<index_t> first_{kInvalidIndex};
};

/// Per-thread monotone progress counters with acquire/release publication.
///
/// Thread t executes its scheduled items in a fixed order; after finishing
/// its i-th item (0-based) it calls publish(t, i + 1). Any thread may then
/// wait_for(t, n) to block until t has published at least n items. Because
/// counters are monotone, one wait on the *maximum* needed position per
/// producer thread subsumes all earlier dependencies on that thread.
class ProgressCounters {
 public:
  ProgressCounters() = default;
  explicit ProgressCounters(int num_threads) { reset(num_threads); }

  void reset(int num_threads) {
    // Atomics are not copyable; construct the counters in place.
    counters_ = std::vector<PaddedCounter>(static_cast<std::size_t>(num_threads));
  }

  /// Reset all counters to zero without reallocating (start of a new sweep).
  void rearm() noexcept {
    for (auto& c : counters_) c.value.store(0, std::memory_order_relaxed);
  }

  int num_threads() const noexcept { return static_cast<int>(counters_.size()); }

  /// Publish that `count` items of thread `t` are now globally visible.
  /// Release order: all stores made while computing those items happen-before
  /// any acquire load that observes the new count.
  void publish(int t, index_t count) noexcept {
    counters_[static_cast<std::size_t>(t)].value.store(count,
                                                       std::memory_order_release);
  }

  /// Current published count (acquire).
  index_t load(int t) const noexcept {
    return counters_[static_cast<std::size_t>(t)].value.load(
        std::memory_order_acquire);
  }

  /// Spin until thread `t` has published at least `count` items, under
  /// bounded exponential backoff: pause windows double up to `spin_budget`
  /// pauses, then every further miss yields the core so an oversubscribed
  /// producer (more threads than cores) can be scheduled instead of starving
  /// behind the spinner. Callers that know their team is oversubscribed pass
  /// spin_budget_for(team) so already the second miss yields.
  ///
  /// When `abort` is non-null the wait also polls the abort flag on every
  /// miss and gives up as soon as it is raised — the producer may never
  /// publish `count`. Returns false on abort, true when the count arrived.
  ///
  /// A sink `c` — any struct with the counter fields of obs::WaitCounters
  /// (duck-typed so this header stays free of obs/ includes) — counts one
  /// `waits` per call, classified `waits_immediate` (first poll succeeded)
  /// or `waits_stalled`, and per miss one `spins`, plus `yields` when the
  /// backoff escalated and `abort_polls` when a flag was polled. Time
  /// attribution is the caller's job (re-reading the clock per poll would
  /// perturb the stall being measured). Counting changes no load, backoff
  /// or abort step, so instrumented runs stay bitwise-equal in results.
  template <class Counters = NoWaitCounts>
  bool wait_for(int t, index_t count, int spin_budget = kSpinsBeforeYield,
                const AbortFlag* abort = nullptr,
                Counters* c = nullptr) const noexcept {
    constexpr bool kCount = !std::is_same_v<Counters, NoWaitCounts>;
    const auto& v = counters_[static_cast<std::size_t>(t)].value;
    if constexpr (kCount) {
      c->waits += 1;
      if (v.load(std::memory_order_acquire) >= count) {
        c->waits_immediate += 1;
        return true;
      }
      c->waits_stalled += 1;
    }
    Backoff backoff(spin_budget);
    while (v.load(std::memory_order_acquire) < count) {
      if (abort != nullptr) {
        if constexpr (kCount) c->abort_polls += 1;
        if (abort->aborted()) return false;
      }
      if constexpr (kCount) c->spins += 1;
      if (backoff.miss()) {
        if constexpr (kCount) c->yields += 1;
      }
    }
    return true;
  }

 private:
  std::vector<PaddedCounter> counters_;
};

/// Sense-reversing centralized barrier — the per-level synchronization of
/// the CSR-LS (barrier level-set) execution backend (paper §VI compares
/// point-to-point scheduling against exactly this); Javelin's own P2P
/// backend never barriers between levels. Waiters degrade under the same
/// bounded exponential backoff as the P2P spin-waits, so an oversubscribed
/// barrier team yields instead of pause-storming.
class SpinBarrier {
 public:
  explicit SpinBarrier(int parties) noexcept : parties_(parties) {}

  /// Arrive and wait for the barrier to turn. When `abort` is non-null a
  /// waiter also polls the abort flag and bails out (returning false)
  /// instead of waiting on parties that aborted before arriving; the
  /// barrier's internal state is then inconsistent, which is fine because
  /// an aborted region abandons the whole level loop — and with it this
  /// (per-call) barrier — on every thread. Returns true when the barrier
  /// completed normally.
  ///
  /// A sink `c` (duck-typed like ProgressCounters::wait_for's) counts one
  /// `barrier_waits` per crossing and `spins`/`yields`/`abort_polls` per
  /// miss while spinning on the sense flip (the last arriver spins zero
  /// times). Only barrier_* and the shared miss counters are touched — the
  /// waits/waits_immediate/waits_stalled identity of the P2P counters stays
  /// exact.
  template <class Counters = NoWaitCounts>
  bool arrive_and_wait(int spin_budget = kSpinsBeforeYield,
                       const AbortFlag* abort = nullptr,
                       Counters* c = nullptr) noexcept {
    constexpr bool kCount = !std::is_same_v<Counters, NoWaitCounts>;
    if constexpr (kCount) c->barrier_waits += 1;
    const bool my_sense = !sense_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      sense_.store(my_sense, std::memory_order_release);
      return true;
    }
    Backoff backoff(spin_budget);
    while (sense_.load(std::memory_order_acquire) != my_sense) {
      if (abort != nullptr) {
        if constexpr (kCount) c->abort_polls += 1;
        if (abort->aborted()) return false;
      }
      if constexpr (kCount) c->spins += 1;
      if (backoff.miss()) {
        if constexpr (kCount) c->yields += 1;
      }
    }
    return true;
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<bool> sense_{false};
};

}  // namespace javelin
