#!/usr/bin/env python3
"""Runner of the javelin ILU benchmark (see ilubench/README.md).

Builds the benchmark program from source on first use, runs each workload in
its own process with OMP_NUM_THREADS=2, and prints the result object as the
last line of standard output.

  run.py --workload W --seed S --seconds T --trace 0|1   one workload
  run.py [--seed S] [--seconds T] [--trace 0|1] [--out F]  every workload
  run.py --sets 2 --runs 10 [--seconds T] [--out F]      calibration
  run.py --check F                                        validate a result file

A traced run (--trace 1) also runs the machine-ceiling probe in a process of
its own and reports the per-layer metrics; an untraced run reports the
end-to-end metrics. Exit status 0 means every output was correct.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREADS = "2"
DEADLINE_S = 175  # one invocation of this script, build excluded


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "ilubench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark program (both incremental);
    returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src", "javelin"))):
        raise RuntimeError("the library sources are not beside ilubench/ "
                           "(run from a checkout of the repository)")
    out = build_dir()
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "ilubench", "-j",
                 str(min(4, os.cpu_count() or 1))]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise RuntimeError("build failed: " + " ".join(cmd))
    return os.path.join(out, "ilubench")


def run_child(exe, args, deadline):
    """Runs the program once; returns (exit code, result object or None)."""
    env = dict(os.environ, OMP_NUM_THREADS=THREADS)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for " + " ".join(args))
    p = subprocess.run([exe] + args, stdout=subprocess.PIPE, env=env,
                       timeout=timeout, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result


def run_workload(exe, spec, workload, seed, seconds, trace):
    """One workload, untraced (end-to-end metrics) or traced (per-layer)."""
    deadline = time.monotonic() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    machine = None
    if trace:
        code, machine = run_child(exe, ["--workload", "machine"], deadline)
        if code or machine is None:
            raise RuntimeError("machine probe failed")
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--traced", os.path.join(traces, "%s-seed%d.json" % (workload, seed))]
    code, res = run_child(exe, args, deadline)
    if res is None:
        raise RuntimeError("%s printed no result (exit %d)" % (workload, code))
    metrics = res["metrics"]
    if trace:
        metrics.update(machine["metrics"])
        triad = metrics["machine.triad_gbs_t2"]["value"]
        # Achieved bandwidth over the two-thread triad ceiling (computed bytes).
        for layer in ("ilu.apply", "sparse.spmv"):
            metrics[layer + "_roof_frac"] = {
                "value": metrics[layer + "_gbs"]["value"] / triad, "unit": "ratio"}
    declared = spec["per_layer" if trace else "end_to_end"]
    res["metrics"] = {m["name"]: metrics[m["name"]] for m in declared
                      if m["name"] in metrics}
    res["correct"] = bool(res["correct"]) and code == 0
    bad = problems(spec, workload, res, trace)
    if bad:
        raise RuntimeError("; ".join(bad))
    return res


def problems(spec, workload, res, trace):
    """What keeps `res` from being a complete result: its keys, and every
    declared metric present with its unit and a finite value."""
    out = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        out.append("%s: keys %s" % (workload, sorted(res)))
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = res.get("metrics", {}).get(m["name"])
        if got is None:
            out.append("%s: %s missing" % (workload, m["name"]))
        elif got.get("unit") != m["unit"]:
            out.append("%s: %s unit %r, declared %r" % (
                workload, m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or \
                not math.isfinite(got["value"]):
            out.append("%s: %s value %r" % (workload, m["name"], got.get("value")))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def calibrate(exe, spec, args):
    """Alternates runs of `sets` sets, each run with its own seed. Per set and
    end-to-end metric it reports the quartiles and the spread (interquartile
    range over median). Fails when two set medians differ by more than the
    metric's bound, when a spread other than setup_s's exceeds it, or when
    any output failed."""
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    ok = True
    summary = {}
    for w in names:
        sets = [[] for _ in range(args.sets)]
        for r in range(args.runs):
            for s in range(args.sets):
                seed = args.seed + r * args.sets + s
                res = run_workload(exe, spec, w, seed, args.seconds, False)
                sets[s].append(res)
                log("%s set %d run %d seed %d: %s" % (
                    w, s, r, seed, " ".join("%s=%.6g" % (k, v["value"])
                                            for k, v in res["metrics"].items())))
        summary[w] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            quarts = [quartiles([r["metrics"][name]["value"] for r in runs])
                      for runs in sets]
            meds = [q[1] for q in quarts]
            spreads = [(q[2] - q[0]) / q[1] for q in quarts]
            drift = (max(meds) - min(meds)) / min(meds)
            summary[w][name] = {"set_quartiles": quarts, "set_spreads": spreads,
                                "set_drift": drift, "bound": bound}
            flags = []
            if drift > bound:
                flags.append("DRIFT > BOUND")
            if name != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD > BOUND")
            ok = ok and not flags
            print("%-15s %-12s medians %s  spreads %s  drift %.4f  bound %.2f  %s" % (
                w, name, " ".join("%.6g" % x for x in meds),
                " ".join("%.4f" % x for x in spreads), drift, bound, " ".join(flags)))
        failed = sum(r["failed"] for runs in sets for r in runs)
        attempted = sum(r["attempted"] for runs in sets for r in runs)
        summary[w]["fail_frac"] = failed / attempted
        print("%-15s fail_frac    %d / %d" % (w, failed, attempted))
        if failed or not all(r["correct"] for runs in sets for r in runs):
            ok = False
    return ok, summary


def check(spec, path):
    """Every declared metric present, with its unit, for every workload."""
    with open(path) as f:
        doc = json.load(f)
    found = [] if doc.get("traces") else ["no results"]
    for trace in doc.get("traces", []):
        results = doc["results"][str(trace)]
        for w in spec["workloads"]:
            res = results.get(w["name"])
            if res is None:
                found.append("%s: no %s result" % (w["name"], "traced" if trace else "untraced"))
                continue
            if not res.get("correct"):
                found.append("%s: outputs not correct" % w["name"])
            found += problems(spec, w["name"], res, trace)
    for p in found:
        print(p)
    return not found


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"])
    ap.add_argument("--sets", type=int, default=0)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out")
    ap.add_argument("--check")
    args = ap.parse_args()
    spec = load_spec()
    if args.check:
        return 0 if check(spec, args.check) else 1
    names = [w["name"] for w in spec["workloads"]]
    if args.workload and args.workload not in names:
        ap.error("unknown workload %s (known: %s)" % (args.workload, ", ".join(names)))
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    exe = build()

    if args.sets:
        ok, summary = calibrate(exe, spec, args)
        if args.out:
            with open(args.out, "w") as f:
                json.dump(summary, f, indent=1)
        return 0 if ok else 1

    if args.workload:
        if args.trace is None:
            ap.error("--trace 0|1 is required with --workload")
        res = run_workload(exe, spec, args.workload, args.seed, args.seconds,
                           args.trace == "1")
        print(json.dumps(res))
        return 0 if res["correct"] else 1

    # Every workload, untraced then traced unless --trace picks one.
    traces = [int(args.trace)] if args.trace else [0, 1]
    doc = {"traces": traces, "seed": args.seed, "seconds": args.seconds,
           "results": {}}
    ok = True
    for trace in traces:
        doc["results"][str(trace)] = {}
        for w in names:
            res = run_workload(exe, spec, w, args.seed, args.seconds, trace == 1)
            doc["results"][str(trace)][w] = res
            ok = ok and res["correct"]
            print("%s%s: correct=%s attempted=%d failed=%d" % (
                w, " (traced)" if trace else "", res["correct"], res["attempted"],
                res["failed"]))
            for name, v in res["metrics"].items():
                print("  %-26s %.6g %s" % (name, v["value"], v["unit"]))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("run.py: %s" % e)
        sys.exit(1)
