// Benchmark program: one workload per process.
//
//   ilubench --workload NAME --seed S --seconds T [--traced TRACE.json]
//   ilubench --workload machine
//
// Untraced, it measures the end-to-end metrics on the production path: the
// median set-up time, the median operation time over T seconds of closed-
// loop operations, converged right-hand sides per second, and the process
// peak RSS. With --traced it measures the per-layer metrics instead (spans
// around the bench's calls into ilu, sparse and solver, standalone kernel
// timings, ExecObs stall telemetry), runs the bitwise checks, and writes
// the spans as a Chrome trace. `machine` measures the machine ceilings.
//
// The last line of standard output is the result object. The exit status
// is 1 when any output failed its check or a bitwise check broke, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "javelin/support/parallel.hpp"
#include "layers.hpp"
#include "machine.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace ilubench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  std::string traced;  // trace output path; empty = untraced run
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: ilubench --workload NAME [--seed S] [--seconds T] "
               "[--traced TRACE.json]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::atof(v.c_str());
      if (!(a.seconds > 0)) usage("--seconds must be positive");
    } else if (arg == "--traced") {
      a.traced = v;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

void count(Result& res, const Op& op) {
  res.attempted += op.rhs;
  res.failed += op.failed;
}

Result untraced(Workload& w, double seconds) {
  Result res;
  w.setup(nullptr);               // discarded
  count(res, w.run(0, nullptr));  // warm-up, checked but not timed
  // The timed set-ups are spread evenly over the window, between operations,
  // so that setup_s samples the same machine conditions as the operations:
  // on a shared host a burst of set-ups at start-up reads whatever the
  // neighbours were doing in those few seconds.
  const int reps = w.setup_reps();
  std::vector<double> setups, times;
  double busy = 0;
  long solved = 0;
  const std::int64_t start = now_ns();
  const std::int64_t window = static_cast<std::int64_t>(seconds * 1e9);
  const auto setup_due = [&] {
    const auto k = static_cast<std::int64_t>(setups.size()) + 1;
    return k <= reps && now_ns() - start >= window * k / (reps + 1);
  };
  for (int i = 1; i == 1 || now_ns() - start < window; ++i) {
    while (setup_due()) setups.push_back(w.setup(nullptr));
    const Op op = w.run(i, nullptr);
    count(res, op);
    times.push_back(op.seconds);
    busy += op.seconds;
    solved += op.rhs - op.failed;
  }
  while (setups.size() < static_cast<std::size_t>(reps)) {
    setups.push_back(w.setup(nullptr));
  }
  res.correct = res.failed == 0;
  res.add("setup_s", median(setups), "s");
  res.add("op_s_p50", median(times), "s");
  res.add("rhs_per_s", static_cast<double>(solved) / busy, "1/s");
  res.add("peak_rss_mb", peak_rss_mb(), "MB");
  return res;
}

/// What the spans of one traced operation add up to.
struct OpSplit {
  double apply = 0, spmv = 0, solve = 0;
  int apply_calls = 0, spmv_calls = 0;
};

Result traced(Workload& w, double seconds, const std::string& trace_path) {
  Result res;
  SpanLog log;
  bool parity = true;
  const auto check = [&parity](bool ok, const char* what) {
    if (!ok) std::fprintf(stderr, "ilubench: bitwise check failed: %s\n", what);
    parity = parity && ok;
  };

  // Set-up, with ilu_factor split into its two halves; the first call of
  // each is discarded, as in the untraced run.
  for (int r = 0; r <= w.setup_reps(); ++r) w.setup(&log);
  const auto after_first = [](std::vector<double> v) {
    v.erase(v.begin());
    return median(v);
  };
  const double prepare = after_first(log.durations("ilu.prepare"));
  const double numeric = after_first(log.durations("ilu.numeric"));

  // Operation 0 warms both paths. Every operation then runs on the
  // production path and again, with identical inputs, on the traced path.
  count(res, w.run(0, nullptr));
  const std::uint64_t d0 = w.digest();
  log.set_op(0);
  count(res, w.run(0, &log));
  log.set_op(-1);
  check(d0 == w.digest(), "traced vs production operator");

  std::vector<double> plain, iters;
  std::vector<std::uint64_t> digests;
  const std::int64_t end =
      now_ns() + static_cast<std::int64_t>(seconds * 0.5e9);
  for (int i = 1; i == 1 || now_ns() < end; ++i) {
    const Op op = w.run(i, nullptr);
    count(res, op);
    plain.push_back(op.seconds);
    iters.push_back(op.iterations);
    digests.push_back(w.digest());
  }
  const int ops = static_cast<int>(plain.size());
  std::vector<double> traced_s;
  for (int i = 1; i <= ops; ++i) {
    log.set_op(i);
    const Op op = w.run(i, &log);
    count(res, op);
    traced_s.push_back(op.seconds);
    check(digests[static_cast<std::size_t>(i - 1)] == w.digest(),
          "traced vs production operator");
  }
  log.set_op(-1);
  check(w.extra_parity(), "pcg_many column 0 vs scalar pcg");

  // Standalone timings and the bitwise apply check on the production factor.
  const javelin::Factorization& f = w.factor();
  const javelin::CsrMatrix& a = w.matrix();
  const Kernels k = time_kernels(f, a, 200);
  {
    std::vector<value_t> r(static_cast<std::size_t>(a.rows())), z1(r.size()),
        z2(r.size());
    fill_rhs(r, 0xA11, 0);
    javelin::SolveWorkspace ws;
    javelin::ilu_apply(f, r, z1, ws);
    javelin::ilu_apply_serial(f, r, z2, ws);
    check(z1 == z2, "ilu_apply vs ilu_apply_serial");
  }

  // Refactor spans: the steps' own when the workload refactors, else a
  // standalone loop on a copy of the factor.
  if (log.durations("ilu.refactor").empty()) {
    javelin::Factorization fc = f;
    for (int i = 0; i < 11; ++i) {
      Scoped s(&log, "ilu.refactor");
      javelin::ilu_refactor(fc, a);
    }
  }
  const double refactor = median(log.durations("ilu.refactor"));

  const ExecProfile ep = exec_profile(f, w.panel(), 20);
  check(ep.waits_match, "observed P2P waits per sweep vs kept waits");

  // The serial baseline: one operation at one thread, after one that warms
  // the schedules retargeted to that team.
  double t1 = 0;
  {
    javelin::ThreadCountGuard one(1);
    count(res, w.run(ops + 1, nullptr));
    const Op op = w.run(ops + 2, nullptr);
    count(res, op);
    t1 = op.seconds;
  }

  // Split of the traced operations by their spans.
  std::vector<OpSplit> split(static_cast<std::size_t>(ops) + 1);
  std::vector<double> apply_spans, spmv_spans;
  for (const Span& sp : log.spans()) {
    if (sp.op < 1) continue;  // warm-up and standalone spans
    OpSplit& s = split[static_cast<std::size_t>(sp.op)];
    if (sp.is("ilu.apply")) {
      s.apply += sp.seconds();
      ++s.apply_calls;
      apply_spans.push_back(sp.seconds());
    } else if (sp.is("sparse.spmv")) {
      s.spmv += sp.seconds();
      ++s.spmv_calls;
      spmv_spans.push_back(sp.seconds());
    } else if (sp.is("solver.solve")) {
      s.solve += sp.seconds();
    }
  }
  std::vector<double> apply_calls, spmv_calls, self;
  double op_sum = 0, apply_sum = 0, spmv_sum = 0, self_sum = 0;
  for (int i = 1; i <= ops; ++i) {
    OpSplit& s = split[static_cast<std::size_t>(i)];
    if (w.panel()) {
      // pcg_many multiplies inside the library, out of the bench's reach:
      // one panel SpMV for the initial residual and one per iteration, each
      // costed at the standalone spmv_panel median.
      s.spmv_calls = static_cast<int>(iters[static_cast<std::size_t>(i - 1)]) + 1;
      s.spmv = s.spmv_calls * k.spmv_panel;
    }
    apply_calls.push_back(s.apply_calls);
    spmv_calls.push_back(s.spmv_calls);
    self.push_back(s.solve - s.apply - s.spmv);
    op_sum += traced_s[static_cast<std::size_t>(i - 1)];
    apply_sum += s.apply;
    spmv_sum += s.spmv;
    self_sum += self.back();
  }

  res.add("ilu.prepare_s", prepare, "s");
  res.add("ilu.numeric_s", numeric, "s");
  res.add("ilu.refactor_ms_p50", refactor * 1e3, "ms");
  res.add("ilu.apply_us_p50", median(apply_spans) * 1e6, "us");
  res.add("ilu.apply_calls", median(apply_calls), "count");
  res.add("ilu.apply_share", apply_sum / op_sum, "ratio");
  res.add("ilu.fwd_us", k.fwd * 1e6, "us");
  res.add("ilu.bwd_us", k.bwd * 1e6, "us");
  res.add("ilu.apply_serial_us", k.apply_serial * 1e6, "us");
  res.add("ilu.apply_speedup", k.apply_serial / k.apply, "ratio");
  res.add("ilu.apply_gbs", apply_bytes(f) / k.apply * 1e-9, "GB/s");
  res.add("ilu.k1_over_scalar", k.many_k1 / k.apply, "ratio");
  res.add("sparse.spmv_us_p50",
          (w.panel() ? k.spmv_panel : median(spmv_spans)) * 1e6, "us");
  res.add("sparse.spmv_calls", median(spmv_calls), "count");
  res.add("sparse.spmv_share", spmv_sum / op_sum, "ratio");
  res.add("sparse.spmv_gbs", spmv_bytes(a) / k.spmv * 1e-9, "GB/s");
  res.add("sparse.spmv_panel_ms", k.spmv_panel * 1e3, "ms");
  res.add("solver.iterations", median(iters), "count");
  res.add("solver.self_s", median(self), "s");
  res.add("solver.self_share", self_sum / op_sum, "ratio");
  res.add("solver.solve_t1_s", t1, "s");
  res.add("exec.fwd_levels", ep.fwd_levels, "count");
  res.add("exec.bwd_levels", ep.bwd_levels, "count");
  res.add("exec.fwd_waits", ep.fwd_waits, "count");
  res.add("exec.bwd_waits", ep.bwd_waits, "count");
  res.add("exec.fwd_wait_frac", ep.fwd.sync_wait_frac(), "ratio");
  res.add("exec.bwd_wait_frac", ep.bwd.sync_wait_frac(), "ratio");
  res.add("exec.occupancy", ep.occupancy(), "ratio");
  res.add("exec.critical_path_us", ep.per_sweep(ep.critical_path_ns()) * 1e-3,
          "us");
  res.add("exec.spins_per_sweep", ep.per_sweep(ep.total().spins), "count");
  res.add("exec.yields_per_sweep", ep.per_sweep(ep.total().yields), "count");
  res.add("trace.overhead", median(traced_s) / median(plain), "ratio");

  res.correct = res.failed == 0 && parity;
  if (!log.write_chrome(trace_path)) {
    std::fprintf(stderr, "ilubench: cannot write %s\n", trace_path.c_str());
    res.correct = false;
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result res;
  if (args.workload == "machine") {
    res = run_machine();
  } else {
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    if (!w) usage(("unknown workload " + args.workload).c_str());
    res = args.traced.empty() ? untraced(*w, args.seconds)
                              : traced(*w, args.seconds, args.traced);
  }
  res.print();
  return res.correct ? 0 : 1;
}
