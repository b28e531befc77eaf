// Per-layer measurements of the traced run that need no span: standalone
// kernel timings on the workload's own factor and matrix, computed bytes
// moved, and the stall telemetry of the library's public obs::ExecObs sink.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/obs/exec_obs.hpp"
#include "javelin/sparse/spmv.hpp"
#include "report.hpp"
#include "spans.hpp"

namespace ilubench {

/// Medians (seconds) of warm standalone calls, measured round-robin so slow
/// phases of the machine hit every kernel alike.
struct Kernels {
  double fwd = 0;         // trsv_forward
  double bwd = 0;         // trsv_backward
  double apply = 0;       // ilu_apply
  double apply_serial = 0;
  double many_k1 = 0;     // solve_many with one right-hand side
  double spmv = 0;        // partitioned spmv
  double spmv_panel = 0;  // spmv_panel, k = 8
};

inline Kernels time_kernels(const javelin::Factorization& f,
                            const javelin::CsrMatrix& a, int reps) {
  constexpr index_t kPanel = 8;
  const std::size_t n = static_cast<std::size_t>(a.rows());
  std::vector<value_t> r(n), z(n), xw(n), rp(n * kPanel), zp(n * kPanel);
  fill_rhs(r, 0x5EED, 0);
  fill_rhs(rp, 0x5EED, 1);
  const javelin::RowPartition part = javelin::RowPartition::build(a);
  javelin::SolveWorkspace ws;
  ws.resize(f.n(), f.plan.num_lower_rows());

  // Sweeps run in place, so each call starts from a fresh copy of r (not
  // timed): repeated in-place solves would drift toward overflow.
  const auto fwd = [&] { (void)javelin::trsv_forward(f, xw, ws); };
  const auto bwd = [&] { (void)javelin::trsv_backward(f, xw, ws); };
  const auto apply = [&] { javelin::ilu_apply(f, r, z, ws); };
  const auto serial = [&] { javelin::ilu_apply_serial(f, r, z, ws); };
  const auto k1 = [&] { javelin::solve_many(f, r, z, 1, ws); };
  const auto mv = [&] { javelin::spmv(a, part, r, z); };
  const auto mvp = [&] { javelin::spmv_panel(a, part, rp, zp, kPanel); };

  std::vector<double> t[7];
  const auto timed = [&](std::vector<double>& out, auto&& fn, bool fresh) {
    if (fresh) std::copy(r.begin(), r.end(), xw.begin());
    const std::int64_t t0 = now_ns();
    fn();
    out.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  for (int i = -1; i < reps; ++i) {  // i = -1 warms every kernel
    timed(t[0], fwd, true);
    timed(t[1], bwd, true);
    timed(t[2], apply, false);
    timed(t[3], serial, false);
    timed(t[4], k1, false);
    timed(t[5], mv, false);
    timed(t[6], mvp, false);
    if (i < 0) {
      for (auto& v : t) v.clear();
    }
  }
  return {median(t[0]), median(t[1]), median(t[2]), median(t[3]),
          median(t[4]), median(t[5]), median(t[6])};
}

/// Computed bytes of one ilu_apply, counting each array once per pass that
/// streams it: L and U values and column indices, row pointers and schedule
/// row lists in both sweeps, diagonal positions, and the vector passes
/// (gather r -> x through perm, forward and backward read-modify-write of
/// x, scatter x -> z through perm).
inline double apply_bytes(const javelin::Factorization& f) {
  const double n = f.n();
  const double nnz = f.lu.nnz();
  const double idx = sizeof(index_t), val = sizeof(value_t);
  return nnz * (val + idx) + 2 * (n + 1) * idx + n * idx + 2 * n * idx +
         n * (2 * val + idx) + 2 * (2 * n * val) + n * (2 * val + idx);
}

/// Computed bytes of one spmv: values, column indices, row pointers, x, y.
inline double spmv_bytes(const javelin::CsrMatrix& a) {
  const double n = a.rows();
  const double nnz = a.nnz();
  return nnz * (sizeof(value_t) + sizeof(index_t)) + (n + 1) * sizeof(index_t) +
         2 * n * sizeof(value_t);
}

/// ExecObs telemetry over `sweeps` preconditioner applies on a copy of the
/// factor (scalar, or k = 8 panels), plus the identity the static schedule
/// predicts: observed P2P waits per sweep equal the schedule's kept waits.
struct ExecProfile {
  javelin::obs::ExecStats fwd, bwd;
  index_t fwd_levels = 0, bwd_levels = 0;
  index_t fwd_waits = 0, bwd_waits = 0;  // kept waits of the schedules run
  bool waits_match = false;

  /// Both sweeps' counters merged.
  javelin::obs::WaitCounters total() const {
    javelin::obs::WaitCounters c = fwd.total;
    c.merge(bwd.total);
    return c;
  }
  std::uint64_t critical_path_ns() const {
    return fwd.critical_path_ns + bwd.critical_path_ns;
  }
  /// Σ busy / Σ (team × wall) over both sweeps.
  double occupancy() const {
    const double team_wall =
        static_cast<double>(fwd.threads) * static_cast<double>(fwd.wall_ns) +
        static_cast<double>(bwd.threads) * static_cast<double>(bwd.wall_ns);
    return team_wall > 0 ? static_cast<double>(total().busy_ns) / team_wall : 0;
  }
  /// `v` per preconditioner apply (one forward plus one backward sweep).
  double per_sweep(std::uint64_t v) const {
    const std::uint64_t sweeps = std::max(fwd.sweeps, bwd.sweeps);
    return sweeps > 0 ? static_cast<double>(v) / static_cast<double>(sweeps) : 0;
  }
};

inline ExecProfile exec_profile(javelin::Factorization f, bool panel,
                                int sweeps) {
  const std::size_t n = static_cast<std::size_t>(f.n());
  const index_t k = panel ? 8 : 1;
  std::vector<value_t> r(n * static_cast<std::size_t>(k)), z(r.size());
  fill_rhs(r, 0x0B5, 0);
  javelin::obs::ExecObs eo;
  f.opts.exec_obs = &eo;
  javelin::SolveWorkspace ws;
  const auto apply = [&] {
    if (panel) {
      javelin::ilu_apply_panel(f, r, z, k, ws);
    } else {
      javelin::ilu_apply(f, r, z, ws);
    }
  };
  apply();  // warm the workspace and any retargeted schedule
  eo.reset();
  for (int i = 0; i < sweeps; ++i) apply();

  ExecProfile p;
  p.fwd = eo.stats(javelin::obs::Region::kForward);
  p.bwd = eo.stats(javelin::obs::Region::kBackward);
  const javelin::ExecSchedule& fs = javelin::runtime_fwd(f, ws.sched);
  const javelin::ExecSchedule& bs = javelin::runtime_bwd(f, ws.sched);
  p.fwd_levels = fs.num_levels;
  p.bwd_levels = bs.num_levels;
  p.fwd_waits = fs.deps_kept;
  p.bwd_waits = bs.deps_kept;
  // Every apply is one instrumented sweep per direction, except on a team of
  // one, which runs the plain serial loop.
  const auto matches = [sweeps](const javelin::obs::ExecStats& st,
                                const javelin::ExecSchedule& s) {
    if (s.threads <= 1) return true;
    return st.sweeps == static_cast<std::uint64_t>(sweeps) &&
           st.total.waits == st.sweeps * static_cast<std::uint64_t>(s.deps_kept);
  };
  p.waits_match = matches(p.fwd, fs) && matches(p.bwd, bs);
  return p;
}

}  // namespace ilubench
