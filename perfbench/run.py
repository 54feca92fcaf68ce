#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The last line of stdout is the result: one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. An untraced run
splits --seconds over five driver processes and reports each metric's
median over them: every process gets its own memory layout, which moves
short solves by up to 30%, and the node, probe, conflict and visit counts
must repeat across the processes. --self-test runs one ar_t1 repetition and a few
ar_service jobs in both modes and checks that every metric is present and
every oracle passed. Build products and run files stay under .bench_build/
in the checkout.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
RUN_DIR = os.path.join(WORK, "run")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("dct_t3", "synth_wf", "ar_t1", "ar_service")
RUN_TIMEOUT_S = 170
BUILD_JOBS = 4
PROCESSES = 5


def child_env():
    """Keeps compiler and driver temporaries inside the checkout."""
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = tmp
    return env


def build():
    generator = []
    if (shutil.which("ninja")
            and not os.path.exists(os.path.join(BUILD, "Makefile"))):
        generator = ["-G", "Ninja"]
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   stdout=sys.stderr, env=child_env(), check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                    "-j", str(BUILD_JOBS)],
                   stdout=sys.stderr, env=child_env(), check=True)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_driver(workload, seed, seconds, trace, reps=0,
               timeout=RUN_TIMEOUT_S):
    """Runs one workload. Returns the parsed result (None on failure) and
    the counts signature the driver printed (None for ar_service)."""
    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if reps:
        cmd += ["--reps", str(reps)]
    proc = subprocess.run(cmd, cwd=RUN_DIR, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    signature = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("signature "):
            signature = line.split()[1]
    if proc.returncode != 0 or not lines:
        print(f"perfbench: driver exited with {proc.returncode}",
              file=sys.stderr)
        return None, None
    result = json.loads(lines[-1])
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if result["correct"] and got != want:
        print(f"perfbench: metrics {sorted(got.items())} do not match "
              f"BENCHMARK.json {sorted(want.items())}", file=sys.stderr)
        return None, None
    return result, signature


def measure(workload, seed, seconds, trace):
    """One benchmark run: a traced run is one driver process; an untraced
    one is PROCESSES processes sharing the time, each metric their median."""
    if trace:
        return run_driver(workload, seed, seconds, trace)[0]
    results = []
    signatures = set()
    for i in range(PROCESSES):
        result, signature = run_driver(
            workload, seed * PROCESSES + i, seconds / PROCESSES, trace,
            timeout=RUN_TIMEOUT_S / PROCESSES)
        if result is None:
            return None
        results.append(result)
        signatures.add(signature)
    # A failed process's metrics may be incomplete; the run is then
    # reported incorrect with the metrics of the others.
    measured = [r for r in results if r["correct"]] or results[:1]
    metrics = {}
    for name, metric in measured[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in measured]
        metrics[name] = {"value": statistics.median(values),
                         "unit": metric["unit"]}
    combined = {"correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics}
    if len(signatures) > 1:
        print("perfbench: FAILED: node/probe/conflict/visit counts differ "
              "between processes at threads=1", file=sys.stderr)
        combined["correct"] = False
        combined["failed"] += 1
    return combined


def self_test():
    ok = True
    for workload, reps in (("ar_t1", 1), ("ar_service", 8)):
        for trace in (0, 1):
            result = run_driver(workload, 1, 60, trace, reps)[0]
            passed = (result is not None and result["correct"]
                      and result["failed"] == 0 and result["attempted"] >= 1)
            ok &= passed
            print(f"self-test {workload} trace={trace}: "
                  f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
        if args.self_test:
            return self_test()
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, subprocess.SubprocessError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
