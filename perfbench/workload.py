"""One workload process: set up, warm up, then a timed closed loop of ops.

Started by run.py from the root of a source checkout:

    python3 perfbench/workload.py --workload spectrum_renorm --seed 1 --seconds 40 --trace 0
    python3 perfbench/workload.py --workload spectrum_renorm --seed 1 --setup-only

BLAS and the library's grid pool (FRACTAL_SPECTRA_THREADS) are pinned to
one thread before numpy loads: on a shared two-core host, ops that need
both cores at once slow down whenever a neighbour takes one (see README).  The process prints
one JSON object as its last stdout line: op times, oracle verdicts, peak
memory, the monotonic time at which set-up ended, the host-speed probe
and, with --trace 1, per-layer metrics from the traced rounds.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["FRACTAL_SPECTRA_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import fractal_spectra as fs  # noqa: E402

import ops  # noqa: E402
import tracing  # noqa: E402

# p90 needs ten samples beyond it.
MIN_OPS = 100
# Hard stop for the timed loop, so a slow host still exits in time.
MAX_LOOP_S = 120.0
SPANS_DIR = os.path.join(os.getcwd(), ".bench_build", "perfbench")
REF_EIGH_N = 600
REF_EIGH_REPS = 3

# Per-op layer metrics: span name -> metric.  Everything else an op spends
# is reported as op.other_s.
LAYER_TIMES = {
    "selfsim.assemble": "selfsim.assemble_s",
    "linalg.eig": "linalg.eig_s",
    "spectra.level_spectrum": "spectra.level_spectrum_s",
    "spectra.neumann": "spectra.neumann_s",
    "spectra.dirichlet": "spectra.dirichlet_s",
    "spectra.nd": "spectra.nd_s",
    "spectra.cluster": "spectra.cluster_s",
    "spectra.dos_histogram": "spectra.dos_histogram_s",
    "spectra.green_proxy": "spectra.green_proxy_s",
    "spectra.char_det": "spectra.char_det_s",
    "network.trace_map": "network.trace_map_s",
    "grassmann.exp_eta": "grassmann.exp_eta_s",
    "grassmann.mul": "grassmann.mul_s",
    "grassmann.reindex": "grassmann.reindex_s",
    "grassmann.interior_reduce": "grassmann.interior_reduce_s",
    "grassmann.reduced_product": "grassmann.reduced_product_s",
    "grassmann.renorm_lift": "grassmann.renorm_lift_s",
    "symplectic.from_sym": "symplectic.from_sym_s",
    "symplectic.reduce_frame": "symplectic.reduce_frame_s",
    "symplectic.reduction_defect": "symplectic.reduction_defect_s",
    "renorm.t_map": "renorm.t_map_s",
    "renorm.g_map": "renorm.g_map_s",
}
# Per-op call counts and summed work of spans.
LAYER_CALLS = {
    "linalg.eig": "linalg.eig_calls",
    "spectra.char_det": "spectra.char_det_calls",
    "grassmann.mul": "grassmann.mul_calls",
}
LAYER_WORK = {
    "linalg.eig": "linalg.eig_dim",
    "grassmann.mul": "grassmann.mul_pairs",
}
# Counts taken from op outputs by the oracles.
OUTPUT_COUNTS = ("spectra.clusters", "spectra.nonfinite")
# First calls that fill the library's caches: their time in the set-up
# phase, children included.
SETUP_TIMES = {
    "selfsim.build_lattice": "selfsim.build_lattice_s",
    "grassmann.lift_plan": "grassmann.lift_plan_s",
    "symplectic.w_renorm": "symplectic.w_renorm_s",
}


def ref_eigh_s():
    """Median time of a fixed seeded 600x600 symmetric eigensolve."""
    a = np.random.default_rng(600).standard_normal((REF_EIGH_N, REF_EIGH_N))
    a = a + a.T
    times = []
    for _ in range(REF_EIGH_REPS):
        t = time.perf_counter()
        np.linalg.eigh(a)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "FRACTAL_SPECTRA_THREADS": os.environ.get("FRACTAL_SPECTRA_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def nearest_rank(values, q):
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_op(workload, inp):
    """Time one op.  Returns (seconds, output or None, typed error or None)."""
    t = time.perf_counter()
    try:
        out = workload.run(inp)
    except fs.FractalSpectraError as exc:
        return time.perf_counter() - t, None, exc
    return time.perf_counter() - t, out, None


def per_op_layers(spans, op_time):
    """Layer metrics of one traced op from its spans."""
    selfs = tracing.self_times(spans)
    calls, work = tracing.work_counts(spans)
    out = {metric: selfs.get(name, 0.0) for name, metric in LAYER_TIMES.items()}
    out.update({metric: calls.get(name, 0) for name, metric in LAYER_CALLS.items()})
    out.update({metric: work.get(name, 0) for name, metric in LAYER_WORK.items()})
    out["op.other_s"] = op_time - sum(out[m] for m in LAYER_TIMES.values())
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.abspath(fs.__file__).startswith(SRC + os.sep):
        sys.exit(f"imported fractal_spectra from {fs.__file__}, not from {SRC}")

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = ops.WORKLOADS[args.workload](args.seed)
    inputs = []

    def op_input(i):
        while len(inputs) <= i:
            inputs.append(workload.next_input(len(inputs)))
        return inputs[i]

    # Warm-up: the first op, untimed and uncounted; it fills the lattice,
    # lift-plan and reduction caches.
    workload.run(op_input(0))
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if tracer:
        tracer.uninstall()
        setup_spans = list(tracer.spans)

    host_start = ref_eigh_s()
    times, traced_rounds, untraced_rounds = [], [], []
    round_layers, counts_per_round = [], []
    failed = 0
    correct = True
    notes = {}
    i = 0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if i % workload.round_size == 0:
            if (elapsed >= args.seconds and i >= MIN_OPS) or elapsed >= MAX_LOOP_S:
                break
            rnd = i // workload.round_size
            traced = tracer is not None and rnd % 2 == 1
            round_ops, round_times, round_out_counts = [], [], []
            if traced:
                first_span = len(tracer.spans)
                tracer.install()
        inp = op_input(i)
        if traced:
            tracer.op = i
            with tracer.span("op"):
                dt, out, err = run_op(workload, inp)
        else:
            dt, out, err = run_op(workload, inp)
        times.append(dt)
        round_times.append(dt)
        round_ops.append(i)
        if err is not None:
            verdict = ops.Verdict(False, False, f"{type(err).__name__}: {err}")
        else:
            try:
                verdict = workload.check(inp, out)
            except fs.FractalSpectraError as exc:
                verdict = ops.Verdict(False, False, f"oracle: {type(exc).__name__}: {exc}")
        if not verdict.ok:
            failed += 1
            correct = correct and not verdict.wrong
            notes[verdict.note] = notes.get(verdict.note, 0) + 1
        round_out_counts.append(verdict.counts)
        i += 1
        if i % workload.round_size == 0:
            n = workload.round_size
            counts_per_round.append(
                {c: sum(v.get(c, 0) for v in round_out_counts) / n for c in OUTPUT_COUNTS})
            if traced:
                tracer.uninstall()
                spans = tracing.by_op(tracer.spans[first_span:])
                per_op = [per_op_layers(spans.get(k, []), t)
                          for k, t in zip(round_ops, round_times)]
                round_layers.append({m: sum(p[m] for p in per_op) / n for m in per_op[0]})
                traced_rounds.append(sum(round_times) / n)
            else:
                untraced_rounds.append(sum(round_times) / n)
    loop_s = time.perf_counter() - t0
    host_end = ref_eigh_s()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "ready": ready,
        "attempted": len(times),
        "failed": failed,
        "correct": correct,
        "failures": notes,
        "op_p50_s": statistics.median(times),
        "op_p90_s": nearest_rank(times, 0.9),
        "samples": len(times),
        "samples_beyond_p90": sum(1 for t in times if t > nearest_rank(times, 0.9)),
        "ops_per_s": len(times) / loop_s,
        "loop_s": loop_s,
        "ok_ratio": (len(times) - failed) / len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host.ref_eigh_start_s": host_start,
        "host.ref_eigh_end_s": host_end,
        "env": environment(),
    }
    if tracer:
        layers = {m: statistics.median(r[m] for r in round_layers) for m in round_layers[0]}
        for c in OUTPUT_COUNTS:
            layers[c] = statistics.median(r[c] for r in counts_per_round)
        setup_times = tracing.inclusive_times(setup_spans)
        for name, metric in SETUP_TIMES.items():
            layers[metric] = setup_times.get(name, 0.0)
        layers["op.traced_s"] = statistics.median(traced_rounds)
        layers["op.untraced_s"] = statistics.median(untraced_rounds)
        layers["trace.overhead_s"] = layers["op.traced_s"] - layers["op.untraced_s"]
        layers["host.ref_eigh_s"] = (host_start + host_end) / 2.0
        counts = set(LAYER_CALLS.values()) | set(LAYER_WORK.values()) | set(OUTPUT_COUNTS)
        result["layers"] = {m: {"value": v, "unit": "count" if m in counts else "s"}
                            for m, v in layers.items()}
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump(tracer.to_json(), fh)
        result["spans_file"] = os.path.relpath(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
