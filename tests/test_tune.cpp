// Tests of the factor-time autotuner (tune/):
//
//   * deterministic-policy mode: with the injected cost model the tuning
//     decision is a pure function of the schedule shape — the same factor
//     always picks the same candidate, re-tuning is idempotent, and the
//     chosen policy never beats-by-losing (chosen <= serial by argmin);
//   * every policy the tuner can pin is bitwise-neutral: the tuned factor's
//     plain, fused and panel applies stay bitwise equal to the serial
//     reference;
//   * a rigged winner (barrier backend, team 4, granule 16) is pinned
//     verbatim and survives a smaller runtime team: the workspace's
//     retargeted schedules keep its backend and granule;
//   * TuneReport::export_metrics emits the decision counters.
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/sparse/spmv.hpp"
#include "javelin/support/parallel.hpp"
#include "javelin/tune/tune.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

std::vector<value_t> serial_apply(const Factorization& f,
                                  std::span<const value_t> r) {
  std::vector<value_t> z(r.size());
  SolveWorkspace ws;
  ilu_apply_serial(f, r, z, ws);
  return z;
}

/// Plain/fused/panel applies of `f` (whatever policy it carries) vs the
/// serial reference — the bitwise-neutrality bar every pinned policy meets.
void check_policy_parity(const char* name, const char* what,
                         const Factorization& f, const CsrMatrix& a) {
  const index_t n = f.n();
  const std::size_t un = static_cast<std::size_t>(n);
  const auto r = random_vector(n, 0xAB12);
  const auto z_ref = serial_apply(f, r);

  SolveWorkspace ws;
  std::vector<value_t> z(un);
  ilu_apply(f, r, z, ws);
  CHECK_MSG(bitwise_equal(z, z_ref), "%s %s plain apply", name, what);

  // The companion of the backward schedule the pinned team runs.
  const FusedApplySpmv fs =
      build_fused_apply_spmv(f, runtime_bwd(f, ws.sched), a);
  std::vector<value_t> z_f(un), t_f(un), t_u(un);
  ilu_apply_spmv(f, a, fs, r, z_f, t_f, ws);
  CHECK_MSG(bitwise_equal(z_f, z_ref), "%s %s fused z", name, what);
  const RowPartition part = RowPartition::build(a);
  spmv(a, part, z_ref, t_u);
  CHECK_MSG(bitwise_equal(t_f, t_u), "%s %s fused t", name, what);

  const index_t k = 3;
  std::vector<value_t> rp(un * static_cast<std::size_t>(k));
  std::vector<value_t> zp(un * static_cast<std::size_t>(k));
  for (index_t j = 0; j < k; ++j) {
    const auto col = random_vector(n, 0xAB12 + static_cast<std::uint64_t>(j));
    std::copy(col.begin(), col.end(),
              rp.begin() + static_cast<std::size_t>(j) * un);
  }
  ilu_apply_panel(f, rp, zp, k, ws);
  for (index_t j = 0; j < k; ++j) {
    const std::span<const value_t> rj(rp.data() + static_cast<std::size_t>(j) * un, un);
    const std::span<const value_t> zj(zp.data() + static_cast<std::size_t>(j) * un, un);
    const auto ref = serial_apply(f, rj);
    CHECK_MSG(bitwise_equal(zj, ref), "%s %s panel col %d", name, what,
              static_cast<int>(j));
  }
}

void check_deterministic_tuner(const char* name, const CsrMatrix& a) {
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  Factorization f = ilu_factor(a, opts);

  tune::TuneOptions topt;
  topt.cost_model = tune::deterministic_cost_model();
  topt.max_threads = 8;
  topt.chunk_candidates = {16, 64};
  const tune::TuneReport rep1 = tune::autotune(f, topt);
  CHECK(rep1.applied);
  CHECK(!rep1.measured.empty());
  CHECK_MSG(rep1.measured.front().cand.threads == 1,
            "%s grid does not lead with serial", name);
  CHECK_MSG(rep1.chosen_seconds <= rep1.serial_seconds,
            "%s chosen %.3g worse than serial %.3g", name, rep1.chosen_seconds,
            rep1.serial_seconds);

  // Pure function of the schedule shape: a fresh identical factor picks the
  // same candidate...
  Factorization f2 = ilu_factor(a, opts);
  const tune::TuneReport rep2 = tune::autotune(f2, topt);
  CHECK_MSG(rep1.chosen.name() == rep2.chosen.name(), "%s chose %s then %s",
            name, rep1.chosen.name().c_str(), rep2.chosen.name().c_str());
  // ...and re-tuning the already-tuned factor is idempotent.
  const tune::TuneReport rep3 = tune::autotune(f, topt);
  CHECK_MSG(rep3.chosen.name() == rep1.chosen.name(), "%s re-tune %s vs %s",
            name, rep3.chosen.name().c_str(), rep1.chosen.name().c_str());

  // The pinned winner changes nothing numerically.
  check_policy_parity(name, "tuned", f, a);

  // Decision counters for the bench's metrics block.
  obs::MetricsRegistry reg;
  rep1.export_metrics(reg);
  CHECK(reg.counters().at("tune.candidates") == rep1.measured.size());
  CHECK(reg.counters().at("tune.chosen_threads") ==
        static_cast<std::uint64_t>(rep1.chosen.threads));
  CHECK(reg.counters().count("tune.chosen_ns") == 1);
  CHECK(reg.counters().count("tune.serial_ns") == 1);
}

/// A rigged cost model must be obeyed verbatim — this is how tests and
/// bench --verify pin an exact policy. The pinned granule must also reach
/// the schedules a smaller runtime team retargets to (the workspace cache
/// keys on team and granule), and the pinned backend is the option every
/// region reads.
void check_forced_winner(const char* name, const CsrMatrix& a) {
  ThreadCountGuard guard(4);
  IluOptions opts;
  opts.num_threads = 4;
  opts.retarget_oversubscribed = false;
  Factorization f = ilu_factor(a, opts);

  tune::TuneOptions topt;
  topt.chunk_candidates = {16};
  topt.cost_model = [](const tune::TuneContext&,
                       const tune::TuneCandidate& c) {
    return (c.backend == ExecBackend::kBarrier && c.threads == 4 &&
            c.chunk_rows == 16)
               ? 1.0
               : 100.0;
  };
  const tune::TuneReport rep = tune::autotune(f, topt);
  CHECK_MSG(rep.chosen.name() == "barrier/t4/c16", "%s chose %s", name,
            rep.chosen.name().c_str());
  CHECK(f.opts.exec_backend == ExecBackend::kBarrier);
  CHECK(f.fwd.chunk_rows == 16 && f.bwd.chunk_rows == 16);
  CHECK(f.opts.tuned_threads == 4);
  check_policy_parity(name, "forced-barrier", f, a);

  // OpenMP at 2 below the tuned 4: the apply retargets through ws.sched.
  ThreadCountGuard half(2);
  const auto r = random_vector(f.n(), 0xC16);
  std::vector<value_t> z(r.size());
  SolveWorkspace ws;
  ilu_apply(f, r, z, ws);
  CHECK_MSG(ws.sched.fwd.threads == runtime_team(f) &&
                ws.sched.bwd.threads == runtime_team(f) &&
                ws.sched.fwd.threads < 4,
            "%s cache holds team %d/%d", name, ws.sched.fwd.threads,
            ws.sched.bwd.threads);
  CHECK(ws.sched.fwd.chunk_rows == 16 && ws.sched.bwd.chunk_rows == 16);
  CHECK_MSG(bitwise_equal(z, serial_apply(f, r)), "%s retargeted apply",
            name);
}

/// Wall-clock mode smoke: times real sweeps, applies the argmin, results
/// unchanged. (Timings are noise on a loaded runner; only the invariants
/// are asserted.)
void check_wallclock_smoke(const char* name, const CsrMatrix& a) {
  ThreadCountGuard guard(2);
  IluOptions opts;
  opts.num_threads = 2;
  opts.retarget_oversubscribed = false;
  Factorization f = ilu_factor(a, opts);

  tune::TuneOptions topt;
  topt.reps = 1;
  const tune::TuneReport rep = tune::autotune(f, topt);
  CHECK(rep.applied);
  CHECK(rep.serial_seconds > 0.0);
  CHECK(rep.chosen_seconds <= rep.serial_seconds);
  check_policy_parity(name, "wallclock-tuned", f, a);
}

}  // namespace

int main() {
  const CsrMatrix grid = gen::laplacian2d(20, 20, 5);
  const CsrMatrix chain = gen::long_chain(1200, 10, 4, 3);

  check_deterministic_tuner("grid", grid);
  check_deterministic_tuner("chain", chain);

  check_forced_winner("chain", chain);
  check_wallclock_smoke("grid", grid);

  return javelin::test::finish("test_tune");
}
