#!/usr/bin/env python3
"""Steadiness check of the benchmark.

Runs each workload a number of times with seeds 1..N, one or two sets of
runs, and prints per end-to-end metric the median, the quartiles and their
spread ((q3 - q1) / median, with statistics.quantiles(n=4)) next to the
metric's bound in BENCHMARK.json; every metric, setup_s included, fails the
check when its spread exceeds the bound. With two sets it also checks that
the two medians differ by at most the bound (|second - first| / first, in
either direction), that the share of failed operations is the same, and
that the simulated metrics repeat exactly for every seed. Run from the root
of the repository:

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --runs 5 --workloads serve_mixed --sets 1

Exits 1 when any check fails. --out writes every run's result object to a
JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

EXACT = ("sim_makespan_s", "sim_shuffle_gb")


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def shift(first, second):
    """Signed share by which `second` differs from `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return (second - first) / first


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--workloads", default="",
                        help="comma-separated subset (default: all)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == 0 else [
        dict(m, bound=None) for m in bench["per_layer"]]

    ok = True
    record = {}
    walls = []
    for name in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for seed in range(1, args.runs + 1):
                result, elapsed = run_once(bench, name, seed, args.trace)
                runs.append(result)
                walls.append(elapsed)
                print(f"{name} set {s + 1} seed {seed}: "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']} wall={elapsed:.1f}s",
                      flush=True)
            sets.append(runs)
        record[name] = sets

        print(f"\n== {name}: {args.runs} runs x {args.sets} set(s)")
        print(f"{'metric':30} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                q1, med, q3, sp = spread(values)
                medians.append(med)
                bound = m.get("bound")
                verdict = ""
                if bound is not None:
                    verdict = "ok" if sp <= bound else "SPREAD > BOUND"
                    if sp <= bound and sp >= bound / 3:
                        verdict += " (above a third of the bound)"
                    ok = ok and sp <= bound
                print(f"{m['name']:30} {s + 1:>3} {med:12.6g} {q1:12.6g} "
                      f"{q3:12.6g} {sp:7.3f} "
                      f"{'' if bound is None else bound:>6}  {verdict}")
            if len(medians) == 2 and m.get("bound") is not None:
                change = shift(medians[0], medians[1])
                good = abs(change) <= m["bound"]
                ok = ok and good
                print(f"{'':30} second median differs by {change:+.3f}: "
                      f"{'ok' if good else 'BEYOND BOUND'}")
        if len(sets) == 2:
            shares = [sum(r["failed"] for r in runs) /
                      sum(r["attempted"] for r in runs) for runs in sets]
            same = shares[0] == shares[1]
            ok = ok and same
            print(f"failed share: {shares[0]:.6f} vs {shares[1]:.6f}: "
                  f"{'ok' if same else 'DIFFERENT'}")
            if args.trace == 0:
                for m in EXACT:
                    repeat = all(a["metrics"][m]["value"] ==
                                 b["metrics"][m]["value"]
                                 for a, b in zip(*sets))
                    ok = ok and repeat
                    print(f"{m} repeats per seed: "
                          f"{'ok' if repeat else 'NO'}")
        correct = all(r["correct"] for runs in sets for r in runs)
        ok = ok and correct
        print(f"all runs correct: {correct}\n", flush=True)

    # A full evaluation makes 4 + 22 runs per workload, besides two builds.
    total = (4 + 22 * len(bench["workloads"])) * max(walls)
    print(f"longest run {max(walls):.1f}s; {4 + 22 * len(bench['workloads'])} "
          f"runs of that length take {total:.0f}s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print("steady: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
