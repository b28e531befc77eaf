// Property tests of the observability layer (obs/):
//
//   * the instrumented template instantiations are BITWISE inert: factor,
//     ilu_apply and the fused apply+SpMV with an ExecObs attached reproduce
//     the uninstrumented and serial results exactly, at T ∈ {1, 2, 4, 8}
//     under both backends;
//   * trace sessions record well-formed streams: balanced B/E pairs with
//     per-thread monotone timestamps, and the Chrome JSON export parses as
//     one traceEvents object;
//   * the spin-wait counters obey their accounting identities
//     (waits == waits_immediate + waits_stalled, spins >= waits_stalled,
//     per-thread slots sum to the region total) and their deterministic
//     components (wait calls per sweep == deps_kept — for the fused pass,
//     the backward schedule's plus the SpMV tail's, also on a deep chain
//     whose sweeps run as a few long runs of items; for an instrumented
//     panel apply, which keeps the scheduled sweep, the forward and
//     backward schedules' own; barrier crossings == sweeps × levels ×
//     threads) are exact;
//   * MetricsRegistry merges are order-invariant and the schedule-shape
//     metrics (rows_per_level) are identical across thread counts.
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "javelin/gen/generators.hpp"
#include "javelin/ilu/batch.hpp"
#include "javelin/ilu/fused.hpp"
#include "javelin/ilu/solve.hpp"
#include "javelin/obs/exec_obs.hpp"
#include "javelin/obs/metrics.hpp"
#include "javelin/obs/trace.hpp"
#include "javelin/solver/krylov.hpp"
#include "javelin/support/parallel.hpp"
#include "test_util.hpp"

using namespace javelin;
using javelin::test::bitwise_equal;
using javelin::test::random_vector;

namespace {

CsrMatrix test_matrix() { return gen::laplacian3d(12, 12, 12, 7); }

IluOptions base_opts(ExecBackend be, int t) {
  IluOptions opts;
  opts.num_threads = t;
  opts.exec_backend = be;
  opts.retarget_oversubscribed = false;
  return opts;
}

// --- (a) instrumentation is bitwise inert --------------------------------

void check_parity(const CsrMatrix& a, ExecBackend be, int t) {
  ThreadCountGuard guard(t);
  const char* bname = be == ExecBackend::kP2P ? "p2p" : "barrier";

  const Factorization f_plain = ilu_factor(a, base_opts(be, t));

  obs::ExecObs eo;
  IluOptions iopts = base_opts(be, t);
  iopts.exec_obs = &eo;
  const Factorization f_obs = ilu_factor(a, iopts);
  CHECK_MSG(bitwise_equal(f_plain.lu.values(), f_obs.lu.values()),
            "%s t=%d instrumented factor", bname, t);
  CHECK_MSG(eo.has(obs::Region::kFactor), "%s t=%d factor stats", bname, t);

  const auto r = random_vector(a.rows(), 0xFACE);
  std::vector<value_t> z_plain(r.size()), z_obs(r.size()), z_ser(r.size());
  SolveWorkspace ws_plain, ws_obs, ws_ser;
  ilu_apply(f_plain, r, z_plain, ws_plain);
  ilu_apply(f_obs, r, z_obs, ws_obs);
  ilu_apply_serial(f_plain, r, z_ser, ws_ser);
  CHECK_MSG(bitwise_equal(z_obs, z_plain), "%s t=%d apply obs vs plain",
            bname, t);
  CHECK_MSG(bitwise_equal(z_obs, z_ser), "%s t=%d apply obs vs serial",
            bname, t);
  CHECK_MSG(eo.has(obs::Region::kForward) && eo.has(obs::Region::kBackward),
            "%s t=%d sweep stats", bname, t);

  // Fused apply+SpMV: the backward region with its SpMV tail.
  const FusedApplySpmv fs_plain = build_fused_apply_spmv(f_plain, a);
  const FusedApplySpmv fs_obs = build_fused_apply_spmv(f_obs, a);
  std::vector<value_t> t_plain(r.size()), t_obs(r.size());
  ilu_apply_spmv(f_plain, a, fs_plain, r, z_plain, t_plain, ws_plain);
  ilu_apply_spmv(f_obs, a, fs_obs, r, z_obs, t_obs, ws_obs);
  CHECK_MSG(bitwise_equal(z_obs, z_plain), "%s t=%d fused z", bname, t);
  CHECK_MSG(bitwise_equal(t_obs, t_plain), "%s t=%d fused t", bname, t);
  CHECK_MSG(t <= 1 || eo.has(obs::Region::kFused), "%s t=%d fused stats",
            bname, t);
}

// --- (b) trace streams are well-formed -----------------------------------

void check_trace_stream() {
  obs::TraceSession& ts = obs::TraceSession::instance();
  ts.clear();
  ts.enable();
  {
    const CsrMatrix a = test_matrix();
    ThreadCountGuard guard(4);
    obs::ExecObs eo;
    IluOptions iopts = base_opts(ExecBackend::kP2P, 4);
    iopts.exec_obs = &eo;
    Factorization f = ilu_factor(a, iopts);
    const auto r = random_vector(a.rows(), 0xCAFE);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
    // A short Krylov run for the per-iteration spans.
    SolverOptions so;
    so.max_iterations = 3;
    so.tolerance = 0;
    std::vector<value_t> x(r.size(), 0);
    pcg(
        a, r, x,
        [&](std::span<const value_t> rr, std::span<value_t> zz) {
          ilu_apply(f, rr, zz, ws);
        },
        so);
  }
  ts.disable();

  CHECK_MSG(ts.event_count() > 0, "no trace events recorded");
  bool saw_level_span = false, saw_iter_span = false;
  for (const auto& [tid, events] : ts.snapshot()) {
    std::vector<const char*> stack;
    std::int64_t last_ts = 0;
    bool first = true;
    for (const obs::TraceEvent& e : events) {
      if (e.ph == 'X') continue;  // cross-thread spans carry their own start
      CHECK_MSG(first || e.ts_ns >= last_ts,
                "tid %d: non-monotone ts for %s", tid, e.name);
      first = false;
      last_ts = e.ts_ns;
      if (e.ph == 'B') {
        stack.push_back(e.name);
        // Per-level sweep spans reuse the region name with the level index
        // as the argument (the arg-less span of the same name is the region
        // envelope).
        if ((std::strcmp(e.name, "fwd") == 0 ||
             std::strcmp(e.name, "bwd") == 0) &&
            e.arg != kInvalidIndex) {
          saw_level_span = true;
        }
        if (std::strcmp(e.name, "pcg_iter") == 0) saw_iter_span = true;
      } else if (e.ph == 'E') {
        CHECK_MSG(!stack.empty(), "tid %d: E(%s) without B", tid, e.name);
        if (!stack.empty()) {
          CHECK_MSG(std::strcmp(stack.back(), e.name) == 0,
                    "tid %d: E(%s) closes B(%s)", tid, e.name, stack.back());
          stack.pop_back();
        }
      }
    }
    CHECK_MSG(stack.empty(), "tid %d: %zu unbalanced B events", tid,
              stack.size());
  }
  CHECK_MSG(saw_level_span, "no per-level sweep spans recorded");
  CHECK_MSG(saw_iter_span, "no Krylov iteration spans recorded");

  std::ostringstream os;
  ts.write_chrome_json(os);
  const std::string json = os.str();
  CHECK_MSG(json.find("\"traceEvents\"") != std::string::npos,
            "chrome export missing traceEvents");
  // Structural smoke parse: brackets and braces must balance.
  long braces = 0, brackets = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_str = !in_str;
    if (in_str) continue;
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  CHECK_MSG(braces == 0 && brackets == 0,
            "chrome export unbalanced: braces %ld brackets %ld", braces,
            brackets);
  ts.clear();
}

// --- (c) counter accounting identities -----------------------------------

void check_counter_identities(const CsrMatrix& a, ExecBackend be, int t) {
  ThreadCountGuard guard(t);
  const char* bname = be == ExecBackend::kP2P ? "p2p" : "barrier";
  obs::ExecObs eo;
  IluOptions iopts = base_opts(be, t);
  iopts.exec_obs = &eo;
  Factorization f = ilu_factor(a, iopts);
  eo.reset();  // keep the sweep arithmetic below to the applies

  const auto r = random_vector(a.rows(), 0xB00);
  std::vector<value_t> z(r.size());
  SolveWorkspace ws;
  constexpr int kSweeps = 3;
  for (int i = 0; i < kSweeps; ++i) ilu_apply(f, r, z, ws);

  for (const obs::Region reg :
       {obs::Region::kForward, obs::Region::kBackward}) {
    const obs::ExecStats& st = eo.stats(reg);
    const char* rname = obs::region_name(reg);
    CHECK_MSG(st.sweeps == static_cast<std::uint64_t>(kSweeps),
              "%s %s t=%d sweeps %llu", bname, rname, t,
              static_cast<unsigned long long>(st.sweeps));
    const obs::WaitCounters& c = st.total;
    CHECK_MSG(c.waits == c.waits_immediate + c.waits_stalled,
              "%s %s t=%d waits identity", bname, rname, t);
    CHECK_MSG(c.spins >= c.waits_stalled, "%s %s t=%d spins vs stalled",
              bname, rname, t);
    CHECK_MSG(c.yields <= c.spins, "%s %s t=%d yields vs spins", bname, rname,
              t);
    CHECK_MSG(c.busy_ns > 0, "%s %s t=%d zero busy time", bname, rname, t);
    CHECK_MSG(st.wall_ns > 0, "%s %s t=%d zero wall time", bname, rname, t);

    // Per-thread slots merge to the total, field by field.
    obs::WaitCounters sum;
    for (const obs::WaitCounters& pc : st.per_thread) sum.merge(pc);
    CHECK_MSG(sum.waits == c.waits && sum.spins == c.spins &&
                  sum.busy_ns == c.busy_ns && sum.wait_ns == c.wait_ns &&
                  sum.barrier_ns == c.barrier_ns &&
                  sum.barrier_waits == c.barrier_waits,
              "%s %s t=%d per-thread sum != total", bname, rname, t);

    const ExecSchedule& s =
        reg == obs::Region::kForward ? f.fwd : f.bwd;
    CHECK_MSG(st.levels == s.num_levels, "%s %s t=%d levels", bname, rname, t);
    if (t == 1) {
      // Serial dispatch: no synchronization of either kind.
      CHECK_MSG(c.waits == 0 && c.barrier_waits == 0,
                "%s %s t=1 sync counters nonzero", bname, rname);
    } else if (be == ExecBackend::kP2P) {
      // One wait_for call per stored (pruned) dependency, per sweep.
      CHECK_MSG(c.waits == static_cast<std::uint64_t>(kSweeps) *
                               static_cast<std::uint64_t>(s.deps_kept),
                "%s %s t=%d waits %llu != sweeps*deps_kept %llu", bname,
                rname, t, static_cast<unsigned long long>(c.waits),
                static_cast<unsigned long long>(kSweeps) *
                    static_cast<unsigned long long>(s.deps_kept));
      CHECK_MSG(c.barrier_waits == 0, "%s %s t=%d p2p barrier_waits", bname,
                rname, t);
    } else {
      // Every thread crosses every level barrier, every sweep.
      CHECK_MSG(c.barrier_waits == static_cast<std::uint64_t>(kSweeps) *
                                       static_cast<std::uint64_t>(t) *
                                       static_cast<std::uint64_t>(s.num_levels),
                "%s %s t=%d barrier_waits %llu != sweeps*t*levels", bname,
                rname, t, static_cast<unsigned long long>(c.barrier_waits));
      CHECK_MSG(c.waits == 0, "%s %s t=%d barrier-path waits", bname, rname,
                t);
    }

    // Per-level attribution covers every level and accounts the rows.
    CHECK_MSG(st.level_rows.size() == static_cast<std::size_t>(s.num_levels),
              "%s %s t=%d level_rows size", bname, rname, t);
    std::uint64_t rows = 0;
    for (index_t lr : st.level_rows) rows += static_cast<std::uint64_t>(lr);
    CHECK_MSG(rows == static_cast<std::uint64_t>(s.num_rows()),
              "%s %s t=%d level_rows sum", bname, rname, t);
    CHECK_MSG(st.critical_path_ns <= st.wall_ns * static_cast<std::uint64_t>(
                                                      std::max(1, t)),
              "%s %s t=%d critical path exceeds t*wall", bname, rname, t);
  }
}

/// The fused pass under P2P: one region whose waits are the backward
/// items' stored waits plus the SpMV tail's — each executed exactly once
/// per sweep, so the observed count pins the tail to its stored lists.
void check_fused_waits(const CsrMatrix& a, int t) {
  ThreadCountGuard guard(t);
  obs::ExecObs eo;
  IluOptions iopts = base_opts(ExecBackend::kP2P, t);
  iopts.exec_obs = &eo;
  const Factorization f = ilu_factor(a, iopts);
  const FusedApplySpmv fs = build_fused_apply_spmv(f, a);
  CHECK_MSG(fs.deps_kept > 0, "t=%d fused tail stores no waits", t);
  eo.reset();

  const auto r = random_vector(a.rows(), 0xF05);
  std::vector<value_t> z(r.size()), tt(r.size());
  SolveWorkspace ws;
  constexpr int kSweeps = 3;
  for (int i = 0; i < kSweeps; ++i) ilu_apply_spmv(f, a, fs, r, z, tt, ws);

  const obs::ExecStats& st = eo.stats(obs::Region::kFused);
  CHECK_MSG(st.sweeps == static_cast<std::uint64_t>(kSweeps),
            "fused t=%d sweeps %llu", t,
            static_cast<unsigned long long>(st.sweeps));
  const std::uint64_t per_sweep =
      static_cast<std::uint64_t>(f.bwd.deps_kept + fs.deps_kept);
  CHECK_MSG(st.total.waits == static_cast<std::uint64_t>(kSweeps) * per_sweep,
            "fused t=%d waits %llu != sweeps*(bwd %lld + tail %lld)", t,
            static_cast<unsigned long long>(st.total.waits),
            static_cast<long long>(f.bwd.deps_kept),
            static_cast<long long>(fs.deps_kept));
  CHECK_MSG(st.total.barrier_waits == 0, "fused t=%d p2p barrier_waits", t);
}

/// An instrumented k = 8 panel apply at a team of at most 8: ExecObs
/// instruments schedules, so the apply keeps the scheduled row-parallel
/// sweep — one sweep per direction per call, each making exactly the
/// schedule's kept waits — and stays bitwise equal to the uninstrumented
/// apply, which splits the columns across the team instead.
void check_panel_waits(const CsrMatrix& a, int t) {
  ThreadCountGuard guard(t);
  obs::ExecObs eo;
  IluOptions iopts = base_opts(ExecBackend::kP2P, t);
  iopts.exec_obs = &eo;
  const Factorization f = ilu_factor(a, iopts);
  Factorization f_plain = f;
  f_plain.opts.exec_obs = nullptr;
  eo.reset();

  const index_t k = 8;
  const auto r = random_vector(a.rows() * k, 0x9A7E);
  std::vector<value_t> z(r.size()), z_plain(r.size());
  SolveWorkspace ws, ws_plain;
  constexpr int kCalls = 3;
  for (int i = 0; i < kCalls; ++i) ilu_apply_panel(f, r, z, k, ws);
  ilu_apply_panel(f_plain, r, z_plain, k, ws_plain);
  CHECK_MSG(bitwise_equal(z, z_plain), "panel t=%d obs vs plain", t);

  for (const obs::Region reg :
       {obs::Region::kForward, obs::Region::kBackward}) {
    const obs::ExecStats& st = eo.stats(reg);
    const ExecSchedule& s = reg == obs::Region::kForward ? f.fwd : f.bwd;
    const char* rname = obs::region_name(reg);
    CHECK_MSG(s.deps_kept > 0, "panel %s t=%d stores no waits", rname, t);
    CHECK_MSG(st.sweeps == static_cast<std::uint64_t>(kCalls),
              "panel %s t=%d sweeps %llu", rname, t,
              static_cast<unsigned long long>(st.sweeps));
    CHECK_MSG(st.total.waits == static_cast<std::uint64_t>(kCalls) *
                                    static_cast<std::uint64_t>(s.deps_kept),
              "panel %s t=%d waits %llu != calls*deps_kept %llu", rname, t,
              static_cast<unsigned long long>(st.total.waits),
              static_cast<unsigned long long>(kCalls) *
                  static_cast<unsigned long long>(s.deps_kept));
  }
}

// --- (d) deterministic metrics -------------------------------------------

void check_metrics_determinism(const CsrMatrix& a) {
  // Merge-order invariance on synthetic registries.
  obs::MetricsRegistry r1, r2, r3;
  r1.add("x", 3);
  r1.record("h", 0);
  r1.record("h", 7);
  r2.add("x", 5);
  r2.add("y", 1);
  r2.record("h", 1u << 20);
  r3.record("g", 42);
  obs::MetricsRegistry ab, ba;
  ab.merge(r1);
  ab.merge(r2);
  ab.merge(r3);
  ba.merge(r3);
  ba.merge(r2);
  ba.merge(r1);
  CHECK_MSG(ab == ba, "registry merge is order-dependent");
  CHECK(ab.counters().at("x") == 8);
  CHECK(ab.histograms().at("h").total() == 3);

  // Log2 bucket arithmetic.
  obs::FixedHistogram h;
  h.record(0);
  h.record(1);
  h.record(2);
  h.record(3);
  CHECK(h.count(0) == 1 && h.count(1) == 1 && h.count(2) == 2);
  CHECK(obs::FixedHistogram::bucket_of(~std::uint64_t{0}) ==
        obs::FixedHistogram::kBuckets - 1);

  // Exported metrics: identical key sets and identical schedule-shape
  // histograms across thread counts (the timing counters differ, the
  // structure must not), and the deterministic counters repeat exactly.
  const auto run_metrics = [&](int t) {
    ThreadCountGuard guard(t);
    obs::ExecObs eo;
    IluOptions iopts = base_opts(ExecBackend::kP2P, t);
    iopts.exec_obs = &eo;
    Factorization f = ilu_factor(a, iopts);
    eo.reset();
    const auto r = random_vector(a.rows(), 0xD1CE);
    std::vector<value_t> z(r.size());
    SolveWorkspace ws;
    ilu_apply(f, r, z, ws);
    obs::MetricsRegistry reg;
    eo.export_metrics(reg);
    return reg;
  };
  const obs::MetricsRegistry m2 = run_metrics(2);
  const obs::MetricsRegistry m4 = run_metrics(4);
  const obs::MetricsRegistry m4b = run_metrics(4);

  std::set<std::string> k2, k4;
  for (const auto& [name, v] : m2.counters()) k2.insert(name);
  for (const auto& [name, v] : m4.counters()) k4.insert(name);
  CHECK_MSG(k2 == k4, "metric key sets differ across thread counts");
  CHECK_MSG(m2.histograms().at("exec.fwd.rows_per_level") ==
                m4.histograms().at("exec.fwd.rows_per_level"),
            "rows_per_level differs across thread counts");
  // Deterministic counters repeat bit-for-bit between identical runs.
  for (const char* key : {"exec.fwd.waits", "exec.fwd.sweeps",
                          "exec.bwd.waits", "exec.bwd.sweeps"}) {
    CHECK_MSG(m4.counters().at(key) == m4b.counters().at(key),
              "counter %s not deterministic", key);
  }

  std::ostringstream os;
  m4.export_json(os);
  CHECK_MSG(os.str().find("\"counters\"") != std::string::npos,
            "metrics export missing counters object");
}

}  // namespace

int main() {
  const CsrMatrix a = test_matrix();
  for (const ExecBackend be : {ExecBackend::kP2P, ExecBackend::kBarrier}) {
    for (const int t : {1, 2, 4, 8}) {
      check_parity(a, be, t);
      check_counter_identities(a, be, t);
    }
  }
  for (const int t : {2, 4, 8}) check_fused_waits(a, t);
  for (const int t : {2, 4}) check_panel_waits(a, t);
  // Deep chain of narrow levels: the P2P executor runs whole runs of items,
  // and still performs every stored wait exactly once per sweep.
  const CsrMatrix chain = gen::long_chain(1200, 12, 4, 5);
  for (const int t : {2, 4, 8}) {
    check_counter_identities(chain, ExecBackend::kP2P, t);
    check_fused_waits(chain, t);
  }
  check_trace_stream();
  check_metrics_determinism(a);
  return javelin::test::finish("test_obs");
}
