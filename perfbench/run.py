#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; see perfbench/NOTES.md.

usage: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                                [--smoke]

Builds perfbench/ (with the library sources under src/) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
measured invocation, then repeats one untimed repeat of the same workload
and seed under a perturbed malloc layout and requires the same
deterministic digest. The last stdout line is the result record:
{"correct", "attempted", "failed", "metrics"}. Build output and tables go
to stderr. Exits non-zero, printing no record, when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady-suite", "compile-replay", "traffic-churn")
# The heap-layout check: glibc fills freed and fresh chunks with this byte,
# which moves every pointer-valued decision if one exists.
PERTURBED_MALLOC = "glibc.malloc.perturb=85"


def build(out_dir):
    # Configuring every time is cheap once configured, and recovers a build
    # tree whose earlier configure failed.
    subprocess.run(["cmake", "-S", HERE, "-B", out_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out_dir, "incline_e2e")


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark printed no result")
    return json.loads(lines[-1])


def run_binary(argv, timeout, env=None):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                          timeout=timeout, env=env, check=True)
    return last_json_line(proc.stdout)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for checking the benchmark")
    args = parser.parse_args()

    out_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        exe = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"build failed: {err}", file=sys.stderr)
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")
    measured = [exe] + common + ["--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(os.path.dirname(out_dir), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        measured += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.jsonl")]

    env = dict(os.environ)
    tunables = env.get("GLIBC_TUNABLES")
    env["GLIBC_TUNABLES"] = (f"{tunables}:{PERTURBED_MALLOC}" if tunables
                             else PERTURBED_MALLOC)
    try:
        result = run_binary(measured, timeout=args.seconds + 100)
        perturbed = run_binary([exe] + common + ["--digest-only"],
                               timeout=40, env=env)
    except (OSError, ValueError, subprocess.SubprocessError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 1

    digest = result.pop("digest")
    result["attempted"] += 1
    if perturbed["digest"] != digest:
        print(f"nondeterministic: digest {digest} becomes "
              f"{perturbed['digest']} under {PERTURBED_MALLOC}",
              file=sys.stderr)
        result["failed"] += 1
    result["correct"] = result["correct"] and result["failed"] == 0
    if not args.trace:
        result["metrics"]["ok_frac"] = {
            "value": (result["attempted"] - result["failed"])
            / result["attempted"],
            "unit": "ratio"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
