"""Structural guards: every import in the package sits at module level, so a
dependency cycle between its modules cannot hide inside a function body;
no module of the package or of the tests imports a name it never uses; every
name the package defines is read by the package or by the acceptance
criteria; the scan subcommands load no SciPy submodule, no process-pool
machinery and no numpy.random; the names the traced benchmark rebinds still
exist and its smoke run passes; and each scan evaluates its points in
batches, not point by point."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from chiralpol import hopfield, scans

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "chiralpol"


def test_no_imports_inside_function_bodies():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert not found, f"imports inside function bodies: {sorted(found)}"


def test_no_unused_imports():
    # an AST walk, since no linter is a dependency: a name bound by an import
    # must be read somewhere in its module (the package's __init__ re-exports)
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((REPO / "tests").glob("*.py"))
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                    for alias in node.names
                    if (alias.asname or alias.name.split(".")[0]) not in used
                ]
    assert not found, f"unused imports: {found}"


# Names that the gate below would flag but that stay, one reason each. The
# test fails when one of them gains a reader or disappears.
UNREAD_BUT_KEPT = {
    "hopfield.hopfield_coefficients": "perfbench/spans.py rebinds it as a traced stage",
    "config.read_csv_metadata": "the documented way to rerun from a CSV header",
    "fock_oracle.low_levels": "perfbench/spans.py rebinds it; the tests' fixed-cutoff solver",
}


def _definitions(tree):
    """(qualified name, bare name, node) of each module-level function, class
    and constant, and of each non-dunder method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, target.id, None


def _reads(tree):
    """Names the tree reads: Name loads, attribute names and the original
    names of aliased imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names if alias.asname)


def test_every_package_name_has_a_reader():
    # a definition counts as read when the package, outside the definition
    # itself, or the paper's acceptance criteria read its name; the
    # package's __init__ re-exports are not reads
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    readers = modules + [REPO / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = set()
    for path in modules:
        for qualified, name, node in _definitions(trees[path]):
            own = sum(read == name for read in _reads(node)) if node else 0
            if reads[name] == own:
                unread.add(f"{path.stem}.{qualified}")
    assert sorted(unread - UNREAD_BUT_KEPT.keys()) == [], "names nothing reads"
    assert sorted(UNREAD_BUT_KEPT.keys() - unread) == [], "kept names now read or gone"


def test_scan_subcommands_load_no_scipy_submodules():
    # the module set pins the CLI's start-up cost without a wall-clock bound:
    # scipy.linalg and what it pulls in took ~60% of `import chiralpol.cli`,
    # and only the oracle's band solver needs it
    script = """
import contextlib, io, json, sys
from chiralpol import cli

for argv in (
    ["scan-cavity", "--set", "omega_k_points=3", "--set", "xi_points=3"],
    ["scan-n", "--set", "n_max_exp=4", "--set", "roll_delta=1"],
    ["scan-dispersion", "--set", "k_par_points=3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
heavy = ("scipy.linalg", "scipy.sparse", "scipy.spatial", "scipy.special")
print(json.dumps([name for name in heavy if name in sys.modules]))
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_scan_subcommands_load_no_process_pool_or_random_machinery():
    # the oracle forks its children with os alone, and only the oracle draws
    # random sets, so a scan process needs none of these (41 modules)
    script = """
import contextlib, io, json, sys
from chiralpol import cli

for argv in (
    ["scan-cavity", "--set", "omega_k_points=3", "--set", "xi_points=3"],
    ["scan-n", "--set", "n_max_exp=4", "--set", "roll_delta=1"],
    ["scan-dispersion", "--set", "k_par_points=3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
unused = ("multiprocessing", "concurrent.futures", "numpy.random")
print(json.dumps([name for name in unused if name in sys.modules]))
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


def test_benchmark_tracer_installs():
    # perfbench/spans.py rebinds public names in the modules that call them;
    # a rename breaks it here instead of only when the benchmark runs
    path = os.pathsep.join([str(REPO / "src"), str(REPO / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", "import spans; spans.install(spans.Tracer())"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_benchmark_smoke_run_is_correct():
    # runs the batched scans against perfbench/reference.json through the
    # tracer's rebound names
    result = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "small-scans",
            "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


def test_benchmark_oracle_smoke_run_is_correct():
    # the oracle's cutoff searches run in worker processes while the tracer's
    # rebound names, which cannot be pickled, stay in the calling process;
    # the searches bypass low_levels, so oracle_check is the span around them
    result = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "oracle-suite",
            "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke",
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["metrics"]["fock_oracle.oracle_check.calls"]["value"] > 0
    assert summary["metrics"]["fock_oracle.fit_ladder.calls"]["value"] > 0


@pytest.fixture
def stage_calls(monkeypatch):
    """Counts calls of the solver stages the scans go through."""
    counts = Counter()

    def count(module, name):
        stage = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return stage(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(scans, "derive_couplings")
    count(scans, "solve_polaritons")
    count(hopfield, "derive_couplings")
    count(hopfield, "polariton_frequencies")
    return counts


@pytest.mark.parametrize(
    "scan, defaults, sizes",
    [
        (scans.scan_n, scans.N_SCAN_DEFAULTS, ({"n_max_exp": "2"}, {"n_max_exp": "60"})),
        (
            scans.scan_cavity,
            scans.CAVITY_DEFAULTS,
            (
                {"omega_k_points": "1", "xi_points": "2"},
                {"omega_k_points": "41", "xi_points": "21"},
            ),
        ),
    ],
    ids=["scan-n", "scan-cavity"],
)
def test_stage_calls_do_not_grow_with_the_point_count(stage_calls, scan, defaults, sizes):
    per_size = []
    for size in sizes:
        stage_calls.clear()
        scan({**defaults, **size})
        per_size.append(dict(stage_calls))
    assert per_size[0] == per_size[1]
    assert sum(per_size[0].values()) <= 3


@pytest.mark.parametrize("xi_points", ["1", "2", "21", "101"])
def test_scan_cavity_builds_one_emitter_batch(monkeypatch, xi_points):
    # the reference emitter that checks the inputs, then one emitter whose
    # xi_scale is the whole xi axis
    built = []

    def counted(*args, **kwargs):
        built.append(kwargs.get("xi_scale"))
        return emitter(*args, **kwargs)

    emitter = scans.Emitter
    monkeypatch.setattr(scans, "Emitter", counted)
    scans.scan_cavity({**scans.CAVITY_DEFAULTS, "xi_points": xi_points})
    assert len(built) == 2
    assert np.shape(built[1]) == (int(xi_points),)
