"""Benchmark of the chiralpol package: one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run from the repository root. Workloads: small-scans, oracle-suite
(README.md says why each exists). The untraced run prints every end-to-end
metric of BENCHMARK.json; the traced run prints every per-layer metric. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. This script needs only the standard library;
the workload runs in a child process (child.py).
"""

import argparse
import glob
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("small-scans", "oracle-suite")
# One BLAS thread, fixed on both commits of a comparison: two threads made
# the oracle slices slower and twice as spread on a 2-core machine.
BLAS_THREADS = "1"
# setup_s is the median of this many fresh imports before the workload and
# as many after it, so that its samples span the run as run_s does.
SETUP_REPEATS = 3
SMALL_BATCH = 100  # small-scans: run_s is the time of a batch of this many calls
DEADLINE_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def setup_seconds(env, warm_up) -> list:
    """Wall time of fresh interpreters importing chiralpol.cli."""
    times = []
    for _ in range(SETUP_REPEATS + warm_up):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import chiralpol.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return times[warm_up:]


def nearest_rank(ordered, fraction):
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def tail(ordered):
    """The highest of p50..p99.9 with at least ten samples beyond it."""
    for percent in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1 - percent / 100) >= 10:
            return percent, nearest_rank(ordered, percent / 100)
    return None, None


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob("src/**/*.py", recursive=True)):
        digest.update(path.encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    sha = None
    if os.path.isfile(".git/HEAD"):
        with open(".git/HEAD", encoding="utf-8") as handle:
            head = handle.read().strip()
        sha = head
        if head.startswith("ref: ") and os.path.isfile(os.path.join(".git", head[5:])):
            with open(os.path.join(".git", head[5:]), encoding="utf-8") as handle:
                sha = handle.read().strip()
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def end_to_end(workload, samples, setup, peak_rss_kb, lines) -> dict:
    """Time metrics are whole-run means, not medians: the host's speed drifts
    between two states about 1.5x apart, and a median jumps with whichever
    state held most of the run while a mean moves with the share of each."""
    calls = [s[0] for s in samples]
    attempted = sum(s[1] for s in samples)
    failed = sum(s[2] for s in samples)
    per_unit = SMALL_BATCH if workload == "small-scans" and len(calls) >= SMALL_BATCH else 1
    unit = f"batch of {per_unit} calls" if per_unit > 1 else "call"
    units = sorted(
        sum(calls[i : i + per_unit]) for i in range(0, len(calls) - per_unit + 1, per_unit)
    )
    ordered = sorted(calls)
    run_p, run_hi = tail(units)
    call_p, call_hi = tail(ordered)
    values = {
        "setup_s": statistics.median(setup),
        "run_s": per_unit * statistics.fmean(calls),
        "rows_per_s": (attempted - failed) / sum(calls),
        "call_p99_ms": 1e3 * (nearest_rank(ordered, 0.99) if len(ordered) >= 1000 else ordered[-1]),
        "peak_rss_mb": peak_rss_kb * 1024 / 1e6,
        "ok_frac": 1 - failed / attempted,
    }
    lines.append(
        f"setup_s: median of {len(setup)} fresh imports of chiralpol.cli, "
        "half before the workload and half after"
    )
    lines.append(
        f"run_s: mean time of one {unit} over {len(calls)} calls; {len(units)} samples, "
        f"median {statistics.median(units):.6g} s"
        + (f", p{run_p:g} {run_hi:.6g} s" if run_p else "; no percentile has ten samples beyond it")
    )
    lines.append(
        f"calls: {len(ordered)}; p50 {1e3 * statistics.median(ordered):.6g} ms"
        + (f"; p{call_p:g} {1e3 * call_hi:.6g} ms" if call_p else "")
        + ("" if len(ordered) >= 1000 else "; fewer than 1000 calls, so call_p99_ms is the maximum")
    )
    return values


def per_layer(samples, traced, layers, lines) -> dict:
    values = dict(layers)
    n = min(len(samples), len(traced))
    plain = statistics.median(s[0] for s in samples[:n])
    values["trace.overhead_frac"] = statistics.median(s[0] for s in traced[:n]) / plain - 1
    rows = sum(s[1] for s in traced)
    values["hopfield.stable_frac"] = (rows - sum(s[3] for s in traced)) / rows
    lines.append(
        f"trace: {n} calls per half; fock_oracle.dim.c* and fock_oracle.h_bytes.c* "
        "are computed from (C+1)^2, not measured"
    )
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, a few calls")
    args = parser.parse_args()
    began = time.monotonic()

    if not os.path.isfile(os.path.join("src", "chiralpol", "cli.py")):
        return fail("src/chiralpol/cli.py not found; run from the repository root")
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = child_env()
    setup = [] if args.trace else setup_seconds(env, warm_up=1)
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    try:
        child = subprocess.run(
            command, env=env, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.monotonic() - began),
        )
    except subprocess.TimeoutExpired:
        return fail("workload did not finish in time")
    if child.returncode != 0:
        return fail(f"workload process exited with {child.returncode}")
    raw = json.loads(child.stdout.strip().splitlines()[-1])

    samples = raw["samples"]
    lines = []
    if args.trace:
        values = per_layer(samples, raw["traced_samples"], raw["layers"], lines)
        samples = samples + raw["traced_samples"]
        lines.append(f"spans written to {raw['span_file']}")
    else:
        setup += setup_seconds(env, warm_up=0)
        values = end_to_end(args.workload, samples, setup, raw["peak_rss_kb"], lines)
    attempted = sum(s[1] for s in samples)
    failed = sum(s[2] for s in samples)

    metrics = {}
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value!r} {metric['unit']}")
    for line in lines:
        print(line)
    if raw["problem"]:
        print(f"first failed check: {raw['problem']}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **source_identity(), **raw["env"],
    }
    print("env " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
