"""Runs one workload in a fresh process and prints its raw timings as JSON.

Started by run.py with PYTHONPATH=src and the BLAS thread count fixed.
Untraced: the closed loop runs for the whole budget. Traced: the first half
runs untraced, then the same inputs run again with spans around each layer,
and the span file is written to perfbench/out/.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np
import scipy

import spans
import workloads

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
SMOKE_CALLS = {"oracle-suite": 1, "small-scans": 12}


def closed_loop(workload, entry, seed, seconds, max_calls, tracer=None):
    """Calls back to back until the next one would end more than half a
    mean call past `seconds`, so that the measured time stays close to it.

    Returns per-call (seconds, attempted, failed, unstable) and the first
    problem seen. Inputs are made and outputs checked outside the timed call,
    and each output is released before the next call starts.
    """
    inputs = workload.inputs(seed)
    samples = []
    problem = ""
    spent = 0.0
    began = time.perf_counter()
    while True:
        if tracer:
            tracer.active = False
        item = next(inputs)
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        output = workload.call(entry, item)
        elapsed = time.perf_counter() - start
        if tracer:
            tracer.active = False
        outcome = workload.check(item, output)
        del output
        samples.append((elapsed, outcome.attempted, outcome.failed, outcome.unstable))
        problem = problem or outcome.problem
        spent += elapsed
        typical = spent / len(samples)
        if len(samples) >= max_calls or time.perf_counter() - began + typical / 2 > seconds:
            return samples, problem


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](workloads.load_reference(), args.smoke)
    max_calls = SMOKE_CALLS[args.workload] if args.smoke else sys.maxsize
    budget = args.seconds / 2 if args.trace else args.seconds
    plain, problem = closed_loop(workload, workload.entry, args.seed, budget, max_calls)
    result = {"env": environment(), "samples": plain, "problem": problem}
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
        module = workload.entry.__module__.removeprefix("chiralpol.")
        entry = tracer.entry(workload.entry, f"{module}.{workload.entry.__name__}")
        traced, problem = closed_loop(workload, entry, args.seed, budget, max_calls, tracer)
        result["traced_samples"] = traced
        result["problem"] = result["problem"] or problem
        result["layers"] = tracer.summary()
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz")
        tracer.write(path, json.dumps({"workload": args.workload, "seed": args.seed}))
        result["span_file"] = os.path.relpath(path)

    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
