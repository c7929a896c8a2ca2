#!/usr/bin/env python3
"""Measure how steady the end-to-end benchmark is, and check its bounds.

    python3 e2ebench/steady.py [--workloads mixed,ingest] [--runs 5]
                               [--seconds N] [--first-seed 1]

Run it from the root of a checkout. For each workload it makes two sets
of --runs untraced runs through run.py, every run with its own seed, and
prints for every end-to-end metric in BENCHMARK.json each set's median,
quartiles, min and max, and its spread: the distance between the
quartiles (statistics.quantiles, n=4) as a share of the median. The
same figures follow for both sets together. A metric passes when each
set's spread is within its bound (setup_s excepted), the second set's
median is not worse than the first's by more than the bound, and the
share of failed operations is the same in both sets. The last column
compares the pooled spread with a third of the bound, the margin the
bounds are sized for. It exits 1 if any check fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(ROOT / "e2ebench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit("{} seed {}: exit {}".format(workload, seed, out.returncode))
    return json.loads(lines[-1])


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "spread": (q3 - q1) / med if med else float("inf")}


def worse(a, b, better):
    """How much worse b's median is than a's, as a share of a's."""
    d = (b - a) / a if a else 0.0
    return -d if better == "higher" else d


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=5, help="runs per set")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()

    ok = True
    for wl in a.workloads.split(","):
        sets = []
        for s in range(2):
            seeds = range(a.first_seed + s * a.runs, a.first_seed + (s + 1) * a.runs)
            runs = []
            for seed in seeds:
                r = run_once(wl, seed, a.seconds)
                runs.append(r)
                print("{} seed {}: correct={} attempted={} failed={}".format(
                    wl, seed, r["correct"], r["attempted"], r["failed"]), flush=True)
            sets.append(runs)
        shares = [{r["failed"] / r["attempted"] for r in runs} for runs in sets]
        same_share = len(shares[0] | shares[1]) == 1
        correct = all(r["correct"] for runs in sets for r in runs)
        print("\n{}: failed share {} in both sets: {}; all correct: {}".format(
            wl, sorted(shares[0] | shares[1]), same_share, correct))
        ok &= same_share and correct
        print("{:18s} {:5s} {:>12s} {:>12s} {:>12s} {:>12s} {:>12s} {:>7s} {:>6s}  {}".format(
            "metric", "set", "median", "q1", "q3", "min", "max", "spread", "bound", "verdict"))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            st = [stats([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            pooled = stats([r["metrics"][name]["value"] for runs in sets for r in runs])
            drift = worse(st[0]["median"], st[1]["median"], m["better"])
            spread_ok = name == "setup_s" or all(x["spread"] <= bound for x in st)
            agree = spread_ok and drift <= bound
            ok &= agree
            for label, x in (("A", st[0]), ("B", st[1]), ("A+B", pooled)):
                verdict = ""
                if label == "B":
                    verdict = "{} (B worse by {:+.1%})".format("agree" if agree else "DISAGREE", drift)
                if label == "A+B":
                    verdict = "spread {} bound/3".format("within" if x["spread"] <= bound / 3 else "ABOVE")
                print("{:18s} {:5s} {:12.6g} {:12.6g} {:12.6g} {:12.6g} {:12.6g} {:6.1%} {:6.2f}  {}".format(
                    name, label, x["median"], x["q1"], x["q3"], x["min"], x["max"], x["spread"], bound, verdict))
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
