#!/usr/bin/env python3
"""Parent/change A/B of the repository benchmark (ilubench), in pairs.

Extracts the committed files of --base into a temporary directory (removed
on exit) and compares them with the working tree this script sits in, or,
with --change, with the committed files of a second revision extracted the
same way. Each tree runs its own `ilubench/run.py --trace 0`, with
CARGO_TARGET_DIR unset so each builds beside its own sources. Pair i uses
seed K+i for both sides; the base runs first in even pairs and the change
in odd ones.

  ab.py --base REV [--change REV] --workload W [--pairs N] [--seconds S]
        [--seed0 K] [--out F]
  ab.py --selftest

For every end-to-end metric of BENCHMARK.json it prints one Markdown table
row: each side's median [q1, q3], the change/base ratio of the medians, the
pairs the change won in the metric's `better` direction (ties count for
neither side), and a verdict:

  change wins        at least 0.9 N wins, and the medians differ in the
                     change's favour by more than the base's IQR (q3 - q1)
  change loses       the mirror (at least 0.9 N losses and a median gap
                     beyond the base's IQR), or a median worse than the
                     base's by more than the metric's `bound`
  tie within spread  anything else

The base's IQR over its median is listed beside it: where that spread
exceeds the bound, a tie does not show that the metric held. A last row
gives failed/attempted operations per side. --out writes every run's
metrics and the table's figures as JSON. Exit status 1 when any run was
incorrect or printed no result.

Revisions are extracted with `git archive`: the same files a fresh checkout
holds, and an interrupted run leaves nothing registered in the repository.
"""
import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def quartiles(values):
    """(q1, median, q3), as ilubench/run.py computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base, change, better, bound):
    """Pairwise comparison of one metric; base[i] and change[i] share pair i."""
    sign = 1.0 if better == "lower" else -1.0
    bq = quartiles(base)
    cq = quartiles(change)
    n = len(base)
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (b - c) < 0)
    gain = sign * (bq[1] - cq[1])  # > 0: the change's median is better
    iqr = bq[2] - bq[0]
    if wins >= 0.9 * n and gain > iqr:
        verdict = "change wins"
    elif (losses >= 0.9 * n and -gain > iqr) or -gain > bound * abs(bq[1]):
        verdict = "change loses"
    else:
        verdict = "tie within spread"
    return {"base": bq, "change": cq, "wins": wins, "losses": losses,
            "pairs": n, "base_spread": iqr / bq[1] if bq[1] else float("inf"),
            "verdict": verdict}


def extract(rev, dest):
    """The committed files of `rev` under `dest`; returns the full hash."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                          rev + "^{commit}"], check=True, stdout=subprocess.PIPE,
                         text=True).stdout.strip()
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", sha],
                         check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        if hasattr(tarfile, "data_filter"):  # Python >= 3.11.4
            t.extractall(dest, filter="data")
        else:
            t.extractall(dest)
    return sha


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run of `tree`; (exit code, result or None)."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    p = subprocess.run([sys.executable, os.path.join(tree, "ilubench", "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", "0"],
                       cwd=tree, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1]) if lines else None
    except ValueError:
        res = None
    if p.returncode or res is None:
        log(p.stderr[-4000:])
    return p.returncode, res


def fmt(x):
    return "%.4g" % x


def table(title, rows, fails):
    out = ["### " + title, "",
           "| metric | base median [q1, q3] | change median [q1, q3] | "
           "change/base | change better | base IQR/median (bound) | verdict |",
           "|---|---|---|---|---|---|---|"]
    for name, unit, bound, c in rows:
        b, ch = c["base"], c["change"]
        ratio = fmt(ch[1] / b[1]) if b[1] else "-"
        out.append("| %s (%s) | %s [%s, %s] | %s [%s, %s] | %s | %d/%d | %.3f (%.2f) | %s |" % (
            name, unit, fmt(b[1]), fmt(b[0]), fmt(b[2]), fmt(ch[1]), fmt(ch[0]),
            fmt(ch[2]), ratio, c["wins"], c["pairs"], c["base_spread"], bound,
            c["verdict"]))
    out.append("| failed/attempted | %d/%d | %d/%d | | | | |" % (
        fails["base"][0], fails["base"][1], fails["change"][0], fails["change"][1]))
    return "\n".join(out)


def ab(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise SystemExit("unknown workload %s (known: %s)" % (
            args.workload, ", ".join(names)))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    metrics = spec["end_to_end"]
    tmp = tempfile.mkdtemp(prefix="ab-")
    try:
        base_tree = os.path.join(tmp, "base")
        sha = extract(args.base, base_tree)
        trees = {"base": base_tree, "change": ROOT}
        change_sha = None
        if args.change:
            trees["change"] = os.path.join(tmp, "change")
            change_sha = extract(args.change, trees["change"])
        runs = {"base": [], "change": []}
        bad = 0
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                code, res = run_once(trees[side], args.workload, seed, seconds)
                if res is None:
                    raise SystemExit("%s pair %d (seed %d) printed no result "
                                     "(exit %d)" % (side, i, seed, code))
                if code or not res.get("correct"):
                    bad += 1
                runs[side].append(res)
                log("pair %d seed %d %-6s correct=%s %s" % (
                    i, seed, side, res.get("correct"), " ".join(
                        "%s=%s" % (m["name"], fmt(res["metrics"][m["name"]]["value"]))
                        for m in metrics)))
        rows = []
        for m in metrics:
            vals = {s: [r["metrics"][m["name"]]["value"] for r in runs[s]]
                    for s in runs}
            rows.append((m["name"], m["unit"], m["bound"],
                         compare(vals["base"], vals["change"], m["better"],
                                 m["bound"])))
        fails = {s: (sum(r["failed"] for r in runs[s]),
                     sum(r["attempted"] for r in runs[s])) for s in runs}
        title = "%s: %d pairs x %g s, seeds %d-%d, base %s vs %s" % (
            args.workload, args.pairs, seconds, args.seed0,
            args.seed0 + args.pairs - 1, sha[:10],
            change_sha[:10] if change_sha else "working tree")
        print(table(title, rows, fails))
        if args.out:
            with open(args.out, "w") as f:
                json.dump({"workload": args.workload, "base": sha,
                           "change": change_sha, "seconds": seconds,
                           "seed0": args.seed0, "runs": runs,
                           "metrics": {name: c for name, _, _, c in rows},
                           "failed_attempted": fails}, f, indent=1)
        return 1 if bad else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def selftest():
    """The verdict rule on fixed samples: 10 pairs whose base IQR is 5.5
    around a median of 14.5, bound 0.25 unless a case names another."""
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    cases = [
        ("half the time", base, [b * 0.5 for b in base], "lower", 0.25,
         "change wins"),
        ("1.5x the time", base, [b * 1.5 for b in base], "lower", 0.25,
         "change loses"),
        ("same samples", base, list(base), "lower", 0.25, "tie within spread"),
        # 9/10 wins, but the 0.1 median gap is inside the base IQR.
        ("small gap", base, [b - 0.1 for b in base[:9]] + [20.0], "lower", 0.25,
         "tie within spread"),
        # 8/10 wins with a wide gap: too few wins.
        ("8 of 10", base, [b * 0.5 for b in base[:8]] + [30.0, 30.0], "lower",
         0.25, "tie within spread"),
        # 9/10 wins with a wide gap: enough.
        ("9 of 10", base, [b * 0.5 for b in base[:9]] + [30.0], "lower", 0.25,
         "change wins"),
        # Higher is better: doubling wins, halving loses.
        ("rate doubled", base, [b * 2 for b in base], "higher", 0.25,
         "change wins"),
        ("rate halved", base, [b * 0.5 for b in base], "higher", 0.25,
         "change loses"),
        # 10/10 losses, but the 2.9 gap is inside the IQR and the bound.
        ("1.2x slower", base, [b * 1.2 for b in base], "lower", 0.25,
         "tie within spread"),
        # 10/10 losses by 6 > IQR, with a bound too wide to fire: the mirror.
        ("mirror", base, [b + 6.0 for b in base], "lower", 1.0, "change loses"),
        # 7/10 losses and a 4.35 gap inside the IQR, but a median 30% worse.
        ("over bound", base, [1.3 * (29.0 - b) for b in base], "lower", 0.25,
         "change loses"),
        ("one pair", [1.0], [0.5], "lower", 0.25, "change wins"),
    ]
    failed = 0
    for name, b, c, better, bound, want in cases:
        got = compare(b, c, better, bound)["verdict"]
        ok = got == want
        failed += not ok
        print("%-4s %-14s %s%s" % ("ok" if ok else "FAIL", name, got,
                                   "" if ok else " (want %s)" % want))
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base")
    ap.add_argument("--change", help="a revision instead of the working tree")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.base or not args.workload or args.pairs < 1:
        ap.error("--base and --workload are required, and --pairs >= 1")
    return ab(args)


if __name__ == "__main__":
    sys.exit(main())
