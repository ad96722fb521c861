"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute. It checks that:
- each workload, run in smoke mode (tiny inputs), prints every metric of
  BENCHMARK.json by name with its unit, traced and untraced, and passes its
  output checks;
- a perturbed output value, a wrong unstable flag, a changed oracle
  parameter and a non-zero exit count as failed;
- run.py exits non-zero without a result where the package is missing.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402
from chiralpol import cli  # noqa: E402


def run_bench(workload, trace, cwd="."):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "5", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_smoke(spec):
    for workload in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = run_bench(workload, trace)
            assert out.returncode == 0, (workload, trace, out.stderr)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["correct"] and result["failed"] == 0, (workload, out.stdout)
            assert result["attempted"] >= 1
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, kind, set(got) ^ set(expected))
            for name, unit in expected.items():
                assert any(
                    line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines
                ), (workload, name)
            print(f"smoke {workload} trace={trace}: {len(expected)} metrics, "
                  f"{result['attempted']} operations checked")


def perturb(text, row, column, new_value):
    """The CSV with one field of data row `row` replaced."""
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    header = lines[data[0]].rstrip("\n").split(",")
    target = data[1 + row]
    fields = lines[target].rstrip("\n").split(",")
    fields[header.index(column)] = new_value(fields[header.index(column)])
    lines[target] = ",".join(fields) + "\n"
    return "".join(lines)


def failed(workload, item, output):
    return workload.check(item, output).failed


def check_perturbations(reference):
    nudge = lambda by: lambda field: f"{float(field) + by:.17g}"  # noqa: E731
    flip = lambda field: "0" if float(field) else "1"  # noqa: E731

    small = workloads.SmallScans(reference)
    grid = ("scan-cavity", workloads.REFERENCE_STRIDE)
    code, text = small.call(cli.main, grid)
    assert failed(small, grid, (code, text)) == 0
    assert failed(small, grid, (code, perturb(text, 0, "omega_plus", nudge(1e-13)))) == 1
    assert failed(small, grid, (code, perturb(text, 5, "unstable", flip))) == 1
    assert failed(small, grid, (code, perturb(text, 3, "xi", nudge(1e-9)))) == 1
    assert failed(small, grid, (1, text)) == workloads.CAVITY_POINTS**2

    item = ("scan-n collective", workloads.XI_POOL[0])
    code, text = small.call(cli.main, item)
    assert failed(small, item, (code, text)) == 0
    assert failed(small, item, (code, perturb(text, 0, "delta_e_vac", nudge(1e-11)))) == 1
    assert failed(small, item, (code, perturb(text, 60, "unstable", flip))) == 1
    assert failed(small, item, (code, perturb(text, 1, "unstable", flip))) == 1
    widened = "".join(
        line if line.startswith("#") else line.rstrip("\n") + ",9\n"
        for line in text.splitlines(keepends=True)
    )
    assert failed(small, item, (code, widened)) == 0  # extra columns are ignored
    truncated = "".join(text.splitlines(keepends=True)[:-1])
    assert failed(small, item, (code, truncated)) == 61

    suite = workloads.OracleSuite(reference, smoke=True)
    seed = workloads.ORACLE_SEEDS[0]
    code, text = suite.call(cli.main, seed)
    assert failed(suite, seed, (code, text)) == 0
    assert failed(suite, seed, (code, perturb(text, 1, "coupling", nudge(1e-15)))) == 1
    assert failed(suite, seed, (code, perturb(text, 0, "dev_minus", lambda _: "2e-7"))) == 1
    assert failed(suite, seed, (2, text)) == suite.sets

    print("perturbed outputs, flags, parameters and exit codes count as failed")


def check_missing_package():
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
    out = run_bench("small-scans", 0, cwd=bare)
    shutil.rmtree(bare)
    assert out.returncode != 0 and not out.stdout.strip(), (out.returncode, out.stdout)
    print(f"without src/: exit {out.returncode}, no result printed")


def main():
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    check_perturbations(workloads.load_reference())
    check_missing_package()
    check_smoke(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
