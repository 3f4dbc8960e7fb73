#!/usr/bin/env python3
"""Builds and runs the DDUp benchmark for one workload and one seed.

Run from the repository root:

    python3 perfbench/run.py --workload drift_stream --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the benchmark binary
from source into .bench_build/ (CARGO_TARGET_DIR names the directory when
set); later runs reuse the build. The binary's output is passed through, and
its last line is the result: one JSON object with the keys correct,
attempted, failed and metrics. Exits non-zero, without a result, when the
build or the run fails. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The binary stops starting rounds after 2 x --seconds; this margin covers
# the round in flight, the closing checks and the two host probes.
RUN_MARGIN_S = 60


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    exe = os.path.join(build_dir, "ddup_perfbench")
    steps = []
    if not os.path.exists(exe):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build output goes to stderr so standard output stays the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            return None
    return exe if os.path.exists(exe) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(build_dir, "work",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    timeout_s = 2 * args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout_s,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % timeout_s, file=sys.stderr)
        return 1
    finally:
        # Checkpoints go; span files of traced runs stay.
        try:
            for name in os.listdir(workdir):
                if name.endswith(".ckpt"):
                    os.remove(os.path.join(workdir, name))
            if not os.listdir(workdir):
                os.rmdir(workdir)
        except OSError:
            pass
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = (proc.returncode == 0 and
              set(result) == {"correct", "attempted", "failed", "metrics"})
    except ValueError:
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        print("perfbench: ddup_perfbench exited with %d and no result" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
