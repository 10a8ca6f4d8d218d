#!/usr/bin/env python3
"""Steadiness mode and cross-run comparison for the glitchmask benchmark.

Run every workload k times, each with another seed, and report each
end-to-end metric's median, quartiles and relative spread (interquartile
distance over the median, as `statistics.quantiles(values, n=4)` gives
the quartiles), with the bound from BENCHMARK.json and the bound the
measured spread suggests:

    python3 glitchbench/steady.py --runs 10 [--workloads a,b]

Run i uses seed i. The runs are saved (with the host fingerprint of
every run) to glitchbench/out/steady-<time>.json. Two saved sets compare
with

    python3 glitchbench/steady.py --compare OLD.json NEW.json

which fails when a metric's median got worse by more than its bound.
Sets measured on different hosts or builds are compared too, but flagged:
HOST MISMATCH is printed and every row is marked [cross-host].

Run from the root of the repository.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

SPEC = "BENCHMARK.json"
OUT_DIR = os.path.join("glitchbench", "out")
# Host fields that must match for two sets to be comparable; git_rev and
# dirty say which code ran, which is what a comparison varies.
HOST_KEYS = ("nproc", "cpu_model", "target_cpu", "rustc")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = next((json.loads(l) for l in lines if l.startswith('{"host"')), {})
    return {"seed": seed, "wall_s": wall, "result": result,
            "host": host.get("host", {}), "fingerprint": host.get("result", {})}


def summarize(spec, runs_by_workload):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = {}
    rows = []
    for workload, runs in runs_by_workload.items():
        failed = sum(r["result"]["failed"] for r in runs)
        names = sorted(runs[0]["result"]["metrics"])
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            q1, med, q3 = quartiles(values)
            s = spread(values)
            worst[name] = max(worst.get(name, 0.0), s)
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                verdict = "steady" if s < bound / 3 else ("within bound" if s <= bound else "TOO WIDE")
            rows.append((workload, name, unit, len(values), med, q1, q3, s, bound, verdict))
        rows.append((workload, "failed_frac", "ratio", len(runs),
                     failed / max(1, sum(r["result"]["attempted"] for r in runs)),
                     None, None, None, None, ""))
    print(f"{'workload':<16} {'metric':<14} {'n':>3} {'median':>16} {'q1':>16} {'q3':>16} "
          f"{'spread':>8} {'bound':>6}")
    for w, name, unit, n, med, q1, q3, s, bound, verdict in rows:
        if q1 is None:
            print(f"{w:<16} {name:<14} {n:>3} {med:>16.6g}")
            continue
        b = f"{bound:.2f}" if bound is not None else "-"
        print(f"{w:<16} {name:<14} {n:>3} {med:>16.6g} {q1:>16.6g} {q3:>16.6g} "
              f"{100 * s:>7.2f}% {b:>6} {verdict} [{unit}]")
    print("\nsuggested bounds (3x the widest spread seen, rounded up, at most 0.25):")
    for name, s in sorted(worst.items()):
        print(f"  {name:<14} {min(0.25, math.ceil(300 * s) / 100 or 0.01):.2f}"
              f"   (widest spread {100 * s:.2f}%)")


def same_host(a, b):
    return all(a.get(k) == b.get(k) for k in HOST_KEYS)


def compare(spec, old_path, new_path):
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    hosts = [r["host"] for s in (old, new) for runs in s["runs"].values() for r in runs]
    cross = any(not same_host(hosts[0], h) for h in hosts)
    if cross:
        print("HOST MISMATCH: the two sets were not all measured on one host and build:")
        for k in HOST_KEYS:
            vals = sorted({str(h.get(k)) for h in hosts})
            if len(vals) > 1:
                print(f"  {k}: {vals}")
    flag = " [cross-host]" if cross else ""
    worse_is = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in sorted(set(old["runs"]) & set(new["runs"])):
        for name in sorted(bounds):
            a = [r["result"]["metrics"][name]["value"] for r in old["runs"][workload]]
            b = [r["result"]["metrics"][name]["value"] for r in new["runs"][workload]]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = -change if worse_is[name] == "higher" else change
            ok = worse <= bounds[name]
            status |= 0 if ok else 1
            print(f"{workload:<16} {name:<14} {ma:>16.6g} -> {mb:>16.6g} "
                  f"({100 * change:+.2f}%, bound {100 * bounds[name]:.0f}%) "
                  f"{'ok' if ok else 'WORSE'}{flag}")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    if args.compare:
        sys.exit(compare(spec, *args.compare))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {}
    for w in workloads:
        runs[w] = []
        for i in range(args.runs):
            r = run_once(spec, w, i + 1, seconds)
            runs[w].append(r)
            m = {k: v["value"] for k, v in r["result"]["metrics"].items()}
            print(f"# {w} seed {r['seed']}: {r['wall_s']:.1f} s wall, "
                  f"failed {r['result']['failed']}/{r['result']['attempted']}, {m}", flush=True)
    summarize(spec, runs)
    hosts = [r["host"] for rs in runs.values() for r in rs]
    if any(not same_host(hosts[0], h) for h in hosts):
        print("HOST MISMATCH within this set: its spreads mix hosts")
    out = os.path.join(OUT_DIR, time.strftime("steady-%Y%m%d-%H%M%S.json"))
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(out, "w") as f:
        json.dump({"seconds": seconds, "runs": runs}, f, indent=1)
    print(f"saved {out}")


if __name__ == "__main__":
    main()
