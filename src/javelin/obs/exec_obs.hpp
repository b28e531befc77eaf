// Spin-wait telemetry for the scheduled execution regions.
//
// Gating follows the abort pattern from exec/run.hpp: the region body
// is ONE template (detail::exec_run_impl<Obs>) instantiated either with
// detail::NoObs — every instrumentation site is `if constexpr`-eliminated,
// so the default build keeps the zero-polling hot loop and its bitwise
// serial/parallel parity — or with SweepObs, which adds per-thread wait
// counters, per-(thread, level) busy/wait attribution, and optional trace
// spans. The level of each item comes from the schedule itself
// (ExecSchedule::item_level), the index the barrier executor walks and the
// verifier proves. Nothing is measured unless a caller explicitly attaches
// an ExecObs (IluOptions::exec_obs) or enables the trace session.
//
// Aggregation model: each exec_run_obs sweep records into private
// per-thread slots (cache-line padded, owner-written only — the telemetry
// must not perturb the spin behaviour it measures) and per-(thread, level)
// scratch; at region end the owner merges them in thread-index order into
// the per-region ExecStats, so the aggregate is deterministic for a
// deterministic execution. ExecStats is what the bench exports as the
// schema-v4 `stall_profile`:
//   * level_wait_frac()  — sync-wait fraction per level,
//   * occupancy()        — Σ busy / (threads × wall), the critical-path
//                          occupancy the ROADMAP's "parallel slower than
//                          serial at 8T" fact needs explained,
//   * level_rows         — rows/level, exported as a log2 histogram.
//
// ExecObs is NOT thread-safe across concurrent solves: attach one per
// stream (the WorkspacePool serving path leaves it unset).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "javelin/exec/schedule.hpp"
#include "javelin/obs/metrics.hpp"
#include "javelin/obs/trace.hpp"
#include "javelin/support/types.hpp"

namespace javelin::obs {

/// Instrumented region kinds. Forward/backward cover both the scalar and
/// the panel sweeps (same logical region, stats merge); kFused is the
/// fused pass's backward region with its SpMV tail (exec/run.hpp), whose
/// chunk waits and busy time count per thread but not per level — the
/// chunks have no level.
enum class Region : int {
  kFactor = 0,
  kForward,
  kBackward,
  kFused,
  kCount,
};

inline constexpr int kNumRegions = static_cast<int>(Region::kCount);

inline const char* region_name(Region r) noexcept {
  switch (r) {
    case Region::kFactor: return "factor";
    case Region::kForward: return "fwd";
    case Region::kBackward: return "bwd";
    case Region::kFused: return "fused";
    default: return "?";
  }
}

/// Per-thread spin-wait counters. Accounting identities (asserted by
/// test_obs):
///   waits == waits_immediate + waits_stalled
///   spins >= waits_stalled          (every stalled wait misses at least once)
///   yields <= spins, abort_polls <= spins (polled once per miss, when armed)
struct WaitCounters {
  std::uint64_t waits = 0;            ///< wait_for calls
  std::uint64_t waits_immediate = 0;  ///< satisfied on the first poll
  std::uint64_t waits_stalled = 0;    ///< needed at least one backoff miss
  std::uint64_t spins = 0;            ///< total poll misses
  std::uint64_t yields = 0;           ///< misses escalated pause -> yield
  std::uint64_t abort_polls = 0;      ///< abort-flag polls inside waits
  std::uint64_t barrier_waits = 0;    ///< SpinBarrier crossings
  std::uint64_t wait_ns = 0;          ///< time inside stalled P2P waits
  std::uint64_t barrier_ns = 0;       ///< time inside barrier crossings
  std::uint64_t busy_ns = 0;          ///< time executing row functions

  void merge(const WaitCounters& o) noexcept {
    waits += o.waits;
    waits_immediate += o.waits_immediate;
    waits_stalled += o.waits_stalled;
    spins += o.spins;
    yields += o.yields;
    abort_polls += o.abort_polls;
    barrier_waits += o.barrier_waits;
    wait_ns += o.wait_ns;
    barrier_ns += o.barrier_ns;
    busy_ns += o.busy_ns;
  }

  /// Total synchronization time (P2P stalls + barrier crossings).
  std::uint64_t sync_ns() const noexcept { return wait_ns + barrier_ns; }
};

/// Aggregated statistics of one region kind across all its sweeps — the
/// `ExecStats` returned next to ExecStatus by the instrumented entry point
/// (exec_run_obs fills the ExecObs the caller handed in).
struct ExecStats {
  int threads = 0;          ///< widest team observed
  std::uint64_t sweeps = 0; ///< instrumented region launches
  std::uint64_t wall_ns = 0;
  index_t levels = 0;
  WaitCounters total;                    ///< merged in thread-index order
  std::vector<WaitCounters> per_thread;  ///< indexed by schedule thread id
  /// Per-level attribution summed over threads and sweeps (a tail's chunks
  /// are not attributed). level_rows comes from the schedule's level_ptr.
  std::vector<std::uint64_t> level_busy_ns;
  std::vector<std::uint64_t> level_wait_ns;
  std::vector<index_t> level_rows;
  /// Σ_level max_thread busy(level, thread): the time a perfectly
  /// synchronized sweep could not beat. wall/critical_path ≈ barrier+stall
  /// overhead factor.
  std::uint64_t critical_path_ns = 0;

  /// Σ busy / (threads × wall); 1.0 = every core computing all the time.
  double occupancy() const noexcept;
  /// sync / (busy + sync) over the whole region.
  double sync_wait_frac() const noexcept;
  /// Per-level wait / (busy + wait); empty when no per-level data.
  std::vector<double> level_wait_frac() const;

  /// Counters under "<prefix>." and a "<prefix>.rows_per_level" histogram.
  void export_metrics(MetricsRegistry& reg, const std::string& prefix) const;

  void reset() { *this = ExecStats(); }
};

/// Per-sweep collector handed into exec_run_impl (the `Obs` template
/// parameter with kOn = true). Owned and recycled by ExecObs; region
/// threads touch only their own padded slot and their own rows of the
/// level scratch.
class SweepObs {
 public:
  static constexpr bool kOn = true;

  // --- called from inside the parallel region ---
  WaitCounters& slot(int t) noexcept {
    return slots_[static_cast<std::size_t>(t)].c;
  }
  /// Thread t's slot as the counter sink of its waits (support/spinwait.hpp).
  WaitCounters* counts(int t) noexcept { return &slot(t); }
  void add_level_busy(int t, index_t level, std::uint64_t ns) noexcept {
    lvl_busy_[lvl_index(t, level)] += ns;
  }
  void add_level_wait(int t, index_t level, std::uint64_t ns) noexcept {
    lvl_wait_[lvl_index(t, level)] += ns;
  }
  bool tracing() const noexcept { return tracing_; }
  const char* name() const noexcept { return name_; }

  // --- lifecycle, driven by ExecObs ---
  void begin(Region kind, const ExecSchedule& s);
  void commit(ExecStats& dst, const ExecSchedule& s);

 private:
  std::size_t lvl_index(int t, index_t level) const noexcept {
    return static_cast<std::size_t>(t) * static_cast<std::size_t>(levels_) +
           static_cast<std::size_t>(level);
  }

  struct alignas(64) PaddedSlot {
    WaitCounters c;
  };

  int threads_ = 0;
  index_t levels_ = 0;
  bool tracing_ = false;
  const char* name_ = "?";
  std::int64_t wall_t0_ = 0;
  std::vector<PaddedSlot> slots_;
  std::vector<std::uint64_t> lvl_busy_;  // [thread][level], thread-major
  std::vector<std::uint64_t> lvl_wait_;
};

/// Owner of per-region ExecStats; attach via IluOptions::exec_obs and run
/// any solve/factor path — the instrumented template instantiations fill
/// the region stats in. Reuse across sweeps accumulates.
class ExecObs {
 public:
  SweepObs& begin_sweep(Region kind, const ExecSchedule& s);
  void end_sweep(Region kind, const ExecSchedule& s);

  const ExecStats& stats(Region r) const noexcept {
    return stats_[static_cast<std::size_t>(r)];
  }
  ExecStats& stats(Region r) noexcept {
    return stats_[static_cast<std::size_t>(r)];
  }
  bool has(Region r) const noexcept { return stats(r).sweeps > 0; }

  void reset();

  /// All regions with data, under "exec.<region>." prefixes.
  void export_metrics(MetricsRegistry& reg) const;

 private:
  std::array<ExecStats, kNumRegions> stats_;
  SweepObs sweep_;
};

}  // namespace javelin::obs
