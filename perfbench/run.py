#!/usr/bin/env python3
"""Build and run the costar benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs one workload, echoes its report,
and checks that the last line is a JSON result carrying exactly the metrics
BENCHMARK.json declares (end_to_end with --trace 0, per_layer with
--trace 1).  Exits non-zero, without a result line, when the sources are
missing, the build fails, the run fails or times out, or the result does
not match the declaration.  See perfbench/README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_group(cmd, timeout, stdout):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    for path in ("dune-project", "lib"):
        if not os.path.exists(path):
            fail("%s not found: run from the root of a costar checkout" % path)

    # The first build in a fresh checkout compiles the whole library.
    code, _ = run_group(
        ["dune", "build", "--root", ".", "perfbench/main.exe"], 900, sys.stderr
    )
    if code != 0:
        fail("build failed")

    code, out = run_group(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        RUN_TIMEOUT_S,
        subprocess.PIPE,
    )
    lines = out.decode().splitlines()
    if code != 0 or not lines:
        fail("benchmark exited with code %d" % code)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line is not JSON: " + lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want)))
    print(lines[-1])


if __name__ == "__main__":
    main()
