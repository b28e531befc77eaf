// Factor-time autotuner: measure a small grid of uniform execution
// policies — backend (P2P / barrier / serial), team width and blocking
// granule — on the REAL solve path, then pin the winner into the
// factorization so every later region (the numeric phase of a refactor;
// plain, fused, panel and batched sweeps) dispatches it automatically: the
// backend and team are options every region reads, the granule is the
// schedules' own.
//
// Everything a candidate changes is a bitwise-neutral transformation of the
// same (level, thread, row) assignment: backends and teams are
// interchangeable by the standing exec/ contract, and the blocking granule
// only groups rows into items. The tuner therefore never changes results —
// only the time to produce them — and a pinned policy replays
// deterministically.
//
// Two measurement modes:
//   * wall-clock (default): each candidate is applied to the factor through
//     the cheap retarget machinery, timed over `reps` real ilu_apply
//     sweeps (min of reps), and rolled back before the next candidate;
//   * injected cost model (TuneOptions::cost_model): no clocks, no state
//     mutation during scoring — the model ranks candidates from the
//     schedule-shape context alone. This is what makes tuning decisions
//     reproducible in tests and `bench --verify` (deterministic-policy
//     mode); deterministic_cost_model() is the shared default model.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "javelin/ilu/factorization.hpp"
#include "javelin/obs/metrics.hpp"

namespace javelin::tune {

/// One point of the candidate grid. `chunk_rows == 0` keeps the granule the
/// factor was built with.
struct TuneCandidate {
  ExecBackend backend = ExecBackend::kP2P;
  int threads = 1;
  index_t chunk_rows = 0;

  /// Stable display/bench key, e.g. "serial", "p2p/t4", "barrier/t2/c16".
  std::string name() const;
};

/// What a candidate cost: wall-clock seconds (min over reps) or the cost
/// model's dimensionless score, depending on the mode.
struct TuneMeasurement {
  TuneCandidate cand;
  double seconds = 0.0;
};

/// Schedule-shape facts the cost model may consult (everything is derived
/// from the factor — no clocks, no randomness).
struct TuneContext {
  index_t n = 0;
  index_t nnz = 0;
  int plan_threads = 1;
  index_t fwd_levels = 0;
  index_t bwd_levels = 0;
  double fwd_mean_rows_per_level = 0.0;
  double bwd_mean_rows_per_level = 0.0;
};

/// Candidate scorer for deterministic-policy mode: lower is better. Must be
/// a pure function of its arguments.
using CostModelFn =
    std::function<double(const TuneContext&, const TuneCandidate&)>;

struct TuneOptions {
  /// Timed sweeps per candidate in wall-clock mode (min is kept); one
  /// untimed warm-up sweep precedes them.
  int reps = 3;
  /// Widest team to consider; 0 caps at the factor-time plan's width.
  int max_threads = 0;
  /// Extra blocking granules to try (0 entries = keep the factor's). Each
  /// granule rebuilds the schedules from the retained level structure.
  std::vector<index_t> chunk_candidates;
  /// When set, scoring runs through this model instead of the wall clock —
  /// the deterministic-policy mode tests and `bench --verify` rely on.
  CostModelFn cost_model;
};

struct TuneReport {
  std::vector<TuneMeasurement> measured;  ///< grid in evaluation order
  TuneCandidate chosen;
  double chosen_seconds = 0.0;  ///< winner's score/seconds
  double serial_seconds = 0.0;  ///< the serial candidate's score/seconds
  bool applied = false;         ///< winner pinned into the factorization

  /// Export the decision as monotone counters ("tune.candidates",
  /// "tune.chosen_threads", "tune.chosen_ns", "tune.serial_ns", ...) for the
  /// bench's metrics block.
  void export_metrics(obs::MetricsRegistry& reg) const;
};

/// Schedule-shape context of `f`.
TuneContext make_context(const Factorization& f);

/// The shared deterministic cost model: fixed closed-form arithmetic on the
/// context — work spread over the team plus a per-level synchronization
/// toll (barrier > P2P) and a mild wide-team penalty. Pure and clock-free,
/// so the chosen policy is a function of the schedule shape alone.
CostModelFn deterministic_cost_model();

/// Measure the candidate grid on `f` and pin the winner: the chosen
/// backend goes to f.opts.exec_backend, the chosen granule re-chunks
/// f.fwd/f.bwd and the chosen team width goes to f.opts.tuned_threads
/// (runtime_team consumes it — for the numeric phase as for every sweep;
/// runtime clamps still apply). The factor's results are unchanged for
/// every candidate — only synchronization and blocking differ.
/// Exception-safe: on throw the factor is restored to its pre-tune policy.
TuneReport autotune(Factorization& f, const TuneOptions& topt = {});

}  // namespace javelin::tune
