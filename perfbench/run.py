#!/usr/bin/env python3
"""Build and run the fpgadbg end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload debug|emulate --seed N \
        --seconds S --trace 0|1 [--short]

The first run configures and builds perfbench_driver (Release) under
.bench_build/perfbench from ../src; later runs only re-check the build.
perfbench_driver's stdout is passed through.  Its provenance line gains the
commit (when the tree is a git checkout), a digest of the sources it was built
from and the seed log from seeds.json.  The last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is perfbench_driver's: 0 when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
OUT = os.path.join(WORK, "perfbench-out")
DRIVER = os.path.join(BUILD, "perfbench_driver")
RUN_TIMEOUT_S = 170


def env():
    e = dict(os.environ)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    e["TMPDIR"] = tmp  # compiler and library temporaries stay in the checkout
    return e


def build():
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env())
        if proc.returncode != 0:
            return False
    return True


def source_digest():
    """sha256 over the sources perfbench_driver is built from (commit stand-in
    when the tree is not a git checkout)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["debug", "emulate"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--short", action="store_true",
                    help="minimum phase sizes (the benchmark's own tests)")
    args = ap.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", OUT]
    if args.short:
        cmd.append("--short")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT, env=env())
    except subprocess.TimeoutExpired:
        print("perfbench: perfbench_driver exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 4
    lines = proc.stdout.splitlines()
    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    for line in lines:
        if line.startswith('{"provenance"'):
            doc = json.loads(line)
            doc["provenance"].update({
                "commit": commit(),
                "source_digest": source_digest(),
                "seed_log": seeds,
                "seed_held_out": args.seed in seeds["held_out"],
            })
            line = json.dumps(doc)
        print(line)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
