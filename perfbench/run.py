"""Benchmark entry point.  Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectrum_renorm --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One run starts the workload process (perfbench/workload.py) once for the
measured loop and, untraced, SETUP_RUNS - 1 more times up to the end of its
warm-up, and reports the median set-up time of all of them.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  The line before it holds the run's details:
environment, sample counts, failure notes and the host-speed probe.

`--workload all` runs every workload and prints its metrics as a table.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD = os.path.join(HERE, "workload.py")
WORKLOADS = ("spectrum_renorm", "green")
SETUP_RUNS = 3
MAIN_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 20.0

END_TO_END = {
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    pass


def spawn(args, timeout):
    """Run the workload process; return (monotonic spawn time, its result)."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKLOAD, *args], capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out after {timeout:.0f} s: {args}")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"workload process exited with {proc.returncode}: {args}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"workload process printed no result: {args}")
    return started, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    common = ["--workload", name, "--seed", str(seed)]
    started, res = spawn(common + ["--seconds", str(seconds), "--trace", str(trace)],
                         MAIN_TIMEOUT_S)
    details = {k: v for k, v in res.items() if k != "layers"}
    if trace:
        metrics = res["layers"]
    else:
        setups = [res["ready"] - started]
        for _ in range(SETUP_RUNS - 1):
            t, r = spawn(common + ["--setup-only"], SETUP_TIMEOUT_S)
            setups.append(r["ready"] - t)
        details["setup_samples_s"] = setups
        res["setup_s"] = statistics.median(setups)
        metrics = {k: {"value": res[k], "unit": unit} for k, unit in END_TO_END.items()}
    summary = {"correct": res["correct"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    return details, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description="fractal-spectra benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the workload process before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join("src", "fractal_spectra", "__init__.py")):
        print("run from the root of a fractal-spectra checkout: src/fractal_spectra is missing",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            details, summary = run_workload(args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"details": details}))
            print(json.dumps(summary))
            return 0
        results = {}
        for name in WORKLOADS:
            _, summary = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = summary
            print(f"{name}: correct={summary['correct']} attempted={summary['attempted']} "
                  f"failed={summary['failed']}")
            for metric, m in summary["metrics"].items():
                print(f"  {metric:32s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
