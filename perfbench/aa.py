#!/usr/bin/env python3
"""A/A noise floor: two interleaved sets of runs of the same build.

    python3 perfbench/aa.py [--runs 10] [--workloads a,b] [--seconds S]

Run it from the repository root. For every workload it runs set A and set
B in pairs, each run with its own seed, through run.py with tracing off;
the set that runs first alternates from pair to pair (A1 B1 B2 A2 A3 B3
...). For each end-to-end metric it prints both sets' medians and
quartiles, the gap between the medians as a share of set A's median and
each set's quartile spread as a share of its own median, against the
metric's bound in BENCHMARK.json. A metric whose gap or either spread
exceeds its bound prints `unresolvable`: a change of that size cannot be
told from noise on this host. `steady` means both spreads are also below
a third of the bound, `pass` that they are within it.
Each workload's line of host steal (from the runs' provenance lines) tells
a slow host from slow code. The raw values are written to
<target>/perfbench-work/aa.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    wall = time.monotonic() - start
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"aa.py: {workload} seed {seed} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"aa.py: {workload} seed {seed} failed its checks")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # The host's share of the run's CPU time it stole, to tell a slow
    # host from slow code.
    prov = json.loads(next(l for l in lines if l.startswith("provenance "))
                      .split(" ", 1)[1])
    values["steal_frac"] = prov["steal_s"] / (prov["nproc"] * prov["wall_s"])
    values["run_wall_s"] = wall
    return values


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1000)
    args = p.parse_args()
    workloads = args.workloads.split(",")
    metrics = bench["end_to_end"]

    raw = {w: {"A": [], "B": []} for w in workloads}
    seed = args.first_seed
    for i in range(args.runs):
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                raw[w][side].append(run_once(w, seed, args.seconds))
                seed += 1
        print(f"aa.py: round {i + 1}/{args.runs} done", file=sys.stderr)

    verdicts = []
    print(f"{'workload':26s} {'metric':16s} {'median A':>12s} {'q1..q3 A':>25s} "
          f"{'median B':>12s} {'q1..q3 B':>25s} {'gap':>7s} {'spreadA':>8s} "
          f"{'spreadB':>8s} {'bound':>6s} verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = summary([r[name] for r in raw[w]["A"]])
            b = summary([r[name] for r in raw[w]["B"]])
            gap = abs(b[0] - a[0]) / a[0]
            spread_a = (a[2] - a[1]) / a[0]
            spread_b = (b[2] - b[1]) / b[0]
            spreads = [spread_a, spread_b]
            if gap > bound or any(s > bound for s in spreads):
                verdict = "unresolvable"
            elif all(s < bound / 3 for s in spreads):
                verdict = "steady"
            else:
                verdict = "pass"
            verdicts.append(verdict)
            print(f"{w:26s} {name:16s} {a[0]:12.6g} {a[1]:12.6g}..{a[2]:<12.6g} "
                  f"{b[0]:12.6g} {b[1]:12.6g}..{b[2]:<12.6g} {gap:7.2%} "
                  f"{spread_a:8.2%} {spread_b:8.2%} {bound:6.2f} {verdict}")
        steal = [r["steal_frac"] for side in "AB" for r in raw[w][side]]
        walls = [r["run_wall_s"] for side in "AB" for r in raw[w][side]]
        print(f"{w:26s} host steal: median {statistics.median(steal):.1%}, "
              f"max {max(steal):.1%} of CPU time over {len(steal)} runs; "
              f"run wall: median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(HERE, "target"))
    out = os.path.join(target, "perfbench-work", "aa.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seconds": args.seconds, "runs": args.runs, "raw": raw}, f, indent=1)
    print(f"raw values: {out}")
    return 1 if "unresolvable" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
