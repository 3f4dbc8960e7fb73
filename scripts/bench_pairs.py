#!/usr/bin/env python3
"""Paired before/after runs of the DDUp benchmark (perfbench/run.py).

Runs `perfbench/run.py` in two checkouts, a baseline and a change, once per
seed for each, alternating which side goes first (the baseline leads on the
first seed). Prints, for every metric of the result line, the two medians,
how many pairs the change won, and the baseline's interquartile range:

    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --workload mixed --seeds 401-410 --seconds 45

A metric's direction (`better`: lower or higher) comes from BENCHMARK.json
in the change checkout; metrics it does not name count lower-is-better. Each
checkout builds into its own .bench_build/ on first use. Exits non-zero when
a run fails or reports "correct": false. Nothing under perfbench/ changes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    """'401-410' or '1,5,9' -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds, trace):
    """Runs perfbench in `checkout`; returns the parsed result line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          universal_newlines=True)
    if proc.returncode != 0:
        raise RuntimeError("%s: run.py exited with %d" % (checkout, proc.returncode))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def directions(checkout):
    """Metric name -> 'lower'/'higher' from the checkout's BENCHMARK.json."""
    path = os.path.join(checkout, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            out[m["name"]] = m.get("better", "lower")
    return out


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="baseline checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 401-410 or 1,2,3")
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jsonl", help="also append every result line here")
    args = parser.parse_args()

    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    better = directions(sides["change"])
    results = {"base": [], "change": []}
    for i, seed in enumerate(parse_seeds(args.seeds)):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds,
                              args.trace)
            if not result.get("correct"):
                print("seed %d, %s: \"correct\": false" % (seed, side),
                      file=sys.stderr)
                return 1
            results[side].append(result)
            if args.jsonl:
                with open(args.jsonl, "a") as f:
                    f.write(json.dumps({"side": side, "seed": seed,
                                        "workload": args.workload,
                                        "result": result}) + "\n")
            print("seed %d %-6s done" % (seed, side), file=sys.stderr)

    pairs = len(results["base"])
    names = sorted(set(results["base"][0]["metrics"]) &
                   set(results["change"][0]["metrics"]))
    print("%-34s %14s %14s %6s %12s" %
          ("metric (%s, %d pairs)" % (args.workload, pairs), "base median",
           "change median", "wins", "base IQR"))
    for name in names:
        base = [r["metrics"][name]["value"] for r in results["base"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        lower = better.get(name, "lower") == "lower"
        wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
        print("%-34s %14.6g %14.6g %3d/%-2d %12.6g" %
              (name, statistics.median(base), statistics.median(change), wins,
               pairs, iqr(base)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
