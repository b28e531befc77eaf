#include "javelin/obs/exec_obs.hpp"

#include <algorithm>

namespace javelin::obs {

double ExecStats::occupancy() const noexcept {
  if (wall_ns == 0 || threads == 0) return 0.0;
  return static_cast<double>(total.busy_ns) /
         (static_cast<double>(threads) * static_cast<double>(wall_ns));
}

double ExecStats::sync_wait_frac() const noexcept {
  const std::uint64_t denom = total.busy_ns + total.sync_ns();
  if (denom == 0) return 0.0;
  return static_cast<double>(total.sync_ns()) / static_cast<double>(denom);
}

std::vector<double> ExecStats::level_wait_frac() const {
  std::vector<double> out(level_busy_ns.size(), 0.0);
  for (std::size_t l = 0; l < out.size(); ++l) {
    const std::uint64_t denom = level_busy_ns[l] + level_wait_ns[l];
    if (denom != 0) {
      out[l] = static_cast<double>(level_wait_ns[l]) /
               static_cast<double>(denom);
    }
  }
  return out;
}

void ExecStats::export_metrics(MetricsRegistry& reg,
                               const std::string& prefix) const {
  reg.add(prefix + ".sweeps", sweeps);
  reg.add(prefix + ".wall_ns", wall_ns);
  reg.add(prefix + ".busy_ns", total.busy_ns);
  reg.add(prefix + ".wait_ns", total.wait_ns);
  reg.add(prefix + ".barrier_ns", total.barrier_ns);
  reg.add(prefix + ".critical_path_ns", critical_path_ns);
  reg.add(prefix + ".waits", total.waits);
  reg.add(prefix + ".waits_immediate", total.waits_immediate);
  reg.add(prefix + ".waits_stalled", total.waits_stalled);
  reg.add(prefix + ".spins", total.spins);
  reg.add(prefix + ".yields", total.yields);
  reg.add(prefix + ".abort_polls", total.abort_polls);
  reg.add(prefix + ".barrier_waits", total.barrier_waits);
  for (const index_t rows : level_rows) {
    reg.record(prefix + ".rows_per_level", static_cast<std::uint64_t>(rows));
  }
}

void SweepObs::begin(Region kind, const ExecSchedule& s) {
  name_ = region_name(kind);
  tracing_ = TraceSession::instance().enabled();
  threads_ = s.threads > 0 ? s.threads : 1;
  levels_ = s.num_levels > 0 ? s.num_levels : 1;

  slots_.assign(static_cast<std::size_t>(threads_), PaddedSlot{});
  const std::size_t cells =
      static_cast<std::size_t>(threads_) * static_cast<std::size_t>(levels_);
  lvl_busy_.assign(cells, 0);
  lvl_wait_.assign(cells, 0);

  wall_t0_ = now_ns();
  if (tracing_) TraceSession::instance().buffer().begin(name_);
}

void SweepObs::commit(ExecStats& dst, const ExecSchedule& s) {
  const std::int64_t wall_t1 = now_ns();
  if (tracing_) TraceSession::instance().buffer().end(name_);

  // Region shape changed (retarget between sweeps): restart the per-level
  // and per-thread aggregates at the new shape rather than mixing.
  if (dst.levels != levels_ ||
      static_cast<int>(dst.per_thread.size()) != threads_) {
    dst.levels = levels_;
    dst.per_thread.assign(static_cast<std::size_t>(threads_), WaitCounters{});
    dst.level_busy_ns.assign(static_cast<std::size_t>(levels_), 0);
    dst.level_wait_ns.assign(static_cast<std::size_t>(levels_), 0);
    dst.level_rows.assign(static_cast<std::size_t>(levels_), 0);
    if (!s.level_ptr.empty()) {
      for (index_t l = 0; l < s.num_levels; ++l) {
        dst.level_rows[static_cast<std::size_t>(l)] =
            s.level_ptr[static_cast<std::size_t>(l) + 1] -
            s.level_ptr[static_cast<std::size_t>(l)];
      }
    } else if (levels_ == 1) {
      dst.level_rows[0] = s.num_rows();
    }
  }
  dst.threads = std::max(dst.threads, threads_);
  dst.sweeps += 1;
  dst.wall_ns += static_cast<std::uint64_t>(wall_t1 - wall_t0_);

  // Deterministic merge: thread-index order, then level order.
  for (int t = 0; t < threads_; ++t) {
    const WaitCounters& c = slots_[static_cast<std::size_t>(t)].c;
    dst.per_thread[static_cast<std::size_t>(t)].merge(c);
    dst.total.merge(c);
  }
  for (index_t l = 0; l < levels_; ++l) {
    std::uint64_t max_busy = 0;
    for (int t = 0; t < threads_; ++t) {
      const std::uint64_t busy = lvl_busy_[lvl_index(t, l)];
      dst.level_busy_ns[static_cast<std::size_t>(l)] += busy;
      dst.level_wait_ns[static_cast<std::size_t>(l)] +=
          lvl_wait_[lvl_index(t, l)];
      max_busy = std::max(max_busy, busy);
    }
    dst.critical_path_ns += max_busy;
  }
}

SweepObs& ExecObs::begin_sweep(Region kind, const ExecSchedule& s) {
  sweep_.begin(kind, s);
  return sweep_;
}

void ExecObs::end_sweep(Region kind, const ExecSchedule& s) {
  sweep_.commit(stats(kind), s);
}

void ExecObs::reset() {
  for (auto& st : stats_) st.reset();
}

void ExecObs::export_metrics(MetricsRegistry& reg) const {
  for (int r = 0; r < kNumRegions; ++r) {
    const auto region = static_cast<Region>(r);
    if (has(region)) {
      stats(region).export_metrics(
          reg, std::string("exec.") + region_name(region));
    }
  }
}

}  // namespace javelin::obs
