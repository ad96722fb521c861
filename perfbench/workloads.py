"""Workloads of the chiralpol benchmark: seeded inputs, the timed calls and
the checks on their outputs.

Every workload drives the package through its public entry point,
`chiralpol.cli.main`, as a single closed-loop caller: the next call starts when the previous one returned.
Outputs are checked against `reference.json`, which `make_reference.py`
writes; README.md states what each check tolerates and why.
"""

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass

from chiralpol import cli

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The reference lattice in (omega_k, xi): 201 x 201 points from OMEGA_LOW
# plus up to OMEGA_SHIFTS - 1 whole omega_k steps, of which every
# REFERENCE_STRIDE-th point in each direction is stored. scan-cavity calls
# run a CAVITY_POINTS x CAVITY_POINTS grid whose points are all stored ones.
GRID_POINTS = 201
GRID_SPAN = GRID_POINTS - 1
OMEGA_LOW = 0.08
OMEGA_STEP = 0.0002
OMEGA_SHIFTS = 21
XI_LOW = -1.0
XI_STEP = 2.0 / GRID_SPAN
REFERENCE_STRIDE = 20
CAVITY_POINTS = 6
CAVITY_N = 100

# small-scans draws xi for scan-n from a fixed pool, so that every call has a
# stored reference; scan-dispersion runs at its defaults.
XI_POOL = tuple(f"{10 ** (-5 + j / 15):.4g}" for j in range(16))
N_MAX_EXP = 60
SMALL_KINDS = ("scan-n collective", "scan-n local", "scan-dispersion", "scan-cavity")

# oracle-suite runs 20-set suites whose seeds come from a stored pool.
ORACLE_SEEDS = tuple(range(20240, 20256))
ORACLE_SETS = 20
ORACLE_CUTOFF = 40
ORACLE_FOCK_TOL = 1e-8
ORACLE_TOL = 1e-7
ORACLE_PARAMS = ("omega_k_bar", "omega_m_tilde", "coupling", "xi_lambda")

# Tolerance (rtol, atol) per CSV column: |got - ref| <= atol + rtol * |ref|.
# Each is no looser than the tier-1 tests allow for the same quantity.
TOLERANCES = {
    # lattice keys: a linspace endpoint or a symmetric-grid fix moves an ulp
    "omega_k": (0.0, 1e-12),
    "xi": (0.0, 1e-12),
    # frequencies: the scan-vs-solver test uses rel 1e-14
    "omega_k_bar": (1e-14, 0.0),
    "omega_m_tilde": (1e-14, 0.0),
    "omega_plus": (1e-14, 0.0),
    "omega_minus": (1e-14, 0.0),
    "e_vac": (1e-14, 0.0),
    # fractions: the mirror test uses atol 1e-12
    "photon_frac_plus": (0.0, 1e-12),
    "matter_frac_plus": (0.0, 1e-12),
    "photon_frac_minus": (0.0, 1e-12),
    "matter_frac_minus": (0.0, 1e-12),
    # enantiomer differences: rtol 1e-10 (discrimination mirror test) with the
    # atol 1e-12 of acceptance criterion 3, since they cancel to ~1e-7 rel
    "n": (0.0, 0.0),
    "delta_omega_plus": (1e-10, 1e-12),
    "delta_omega_minus": (1e-10, 1e-12),
    "delta_e_vac": (1e-10, 1e-12),
    # log-log slopes: the N-scaling tests use abs 0.01
    "slope_delta_e_vac": (0.0, 1e-6),
    # dispersion: the Tavis-Cummings scan tests use rel 1e-14
    "k_par": (1e-14, 0.0),
    "omega_mode": (1e-14, 0.0),
    "effective_coupling": (1e-14, 0.0),
    "polariton_upper": (1e-14, 0.0),
    "polariton_lower": (1e-14, 0.0),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Outcome:
    """Checked result of one call. An operation is one CSV row or one oracle set."""

    attempted: int
    failed: int
    unstable: int = 0
    problem: str = ""


def run_cli(entry, argv):
    """One CLI invocation with its CSV captured in memory: (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = entry(argv)
    return code, buf.getvalue()


def split_csv(text):
    """Header names and data lines of a CSV, skipping `#` metadata lines."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), lines[1:]


def within(name, got, ref) -> bool:
    rtol, atol = TOLERANCES[name]
    return math.isfinite(got) and abs(got - ref) <= atol + rtol * abs(ref)


def check_rows(code, text, expected) -> Outcome:
    """Compare scan rows with expectations, row for row, columns by name.

    `expected` holds one (keys, flag, values) triple per row: key columns are
    always compared, `flag` is the expected `unstable` value (None when the
    scan has no such column) and `values` are compared only on stable rows
    whose reference is stored. Extra columns and metadata are ignored. A
    non-zero exit or a wrong row count fails every row.
    """
    attempted = len(expected)
    header, lines = split_csv(text)
    if code != 0:
        return Outcome(attempted, attempted, problem=f"exit code {code}")
    if len(lines) != attempted:
        return Outcome(attempted, attempted, problem=f"{len(lines)} rows, expected {attempted}")
    index = {name: i for i, name in enumerate(header)}
    failed = unstable = 0
    problem = ""
    for number, (line, (keys, flag, values)) in enumerate(zip(lines, expected)):
        fields = line.split(",")
        try:
            ok = all(within(name, float(fields[index[name]]), ref) for name, ref in keys.items())
            if flag is not None:
                got_flag = float(fields[index["unstable"]])
                unstable += got_flag == 1.0
                ok = ok and got_flag == flag
            if ok and values and not flag:
                ok = all(
                    within(name, float(fields[index[name]]), ref) for name, ref in values.items()
                )
        except (KeyError, IndexError, ValueError):
            ok = False
        if not ok:
            failed += 1
            problem = problem or f"row {number}: {line}"
    return Outcome(attempted, failed, unstable, problem)


class CavityScan:
    """scan-cavity calls on grids of the stored lattice, with N = 100."""

    def __init__(self, reference, points=CAVITY_POINTS):
        ref = reference["scan-cavity"]
        self.columns = ref["columns"]
        self.stored = {(io, ix): row for io, ix, *row in ref["points"]}
        self.unstable = {tuple(p) for p in ref["unstable"]}
        self.points = points

    @staticmethod
    def shift(rng):
        """A window shift on which every point of the grid is a stored one."""
        return rng.randrange(0, OMEGA_SHIFTS, REFERENCE_STRIDE)

    def argv(self, shift):
        low = OMEGA_LOW + shift * OMEGA_STEP
        return [
            "scan-cavity",
            "--set", f"omega_k_min={low:.4f}",
            "--set", f"omega_k_max={low + GRID_SPAN * OMEGA_STEP:.4f}",
            "--set", f"omega_k_points={self.points}",
            "--set", f"xi_points={self.points}",
            "--set", f"n_emitters={CAVITY_N}",
        ]

    def expected(self, shift):
        stride = GRID_SPAN // (self.points - 1)
        rows = []
        for a in range(self.points):
            io = shift + a * stride
            for b in range(self.points):
                ix = b * stride
                keys = {"omega_k": OMEGA_LOW + io * OMEGA_STEP, "xi": XI_LOW + ix * XI_STEP}
                stored = self.stored.get((io, ix))
                values = dict(zip(self.columns, stored)) if stored else None
                rows.append((keys, float((io, ix) in self.unstable), values))
        return rows


class SmallScans:
    """A seeded mix of short scan-n, scan-dispersion and scan-cavity CLI calls."""

    name = "small-scans"
    entry = staticmethod(cli.main)

    def __init__(self, reference, smoke=False):
        self.ref = reference["small-scans"]
        self.cavity = CavityScan(reference)

    def inputs(self, seed):
        # each kind once per block of four, so the mix is the same on every seed
        rng = random.Random(seed)
        while True:
            for kind in rng.sample(SMALL_KINDS, len(SMALL_KINDS)):
                if kind == "scan-cavity":
                    yield kind, self.cavity.shift(rng)
                elif kind == "scan-dispersion":
                    yield kind, None
                else:
                    yield kind, rng.choice(XI_POOL)

    def argv(self, kind, arg):
        if kind == "scan-cavity":
            return self.cavity.argv(arg)
        if kind == "scan-dispersion":
            return ["scan-dispersion"]
        selfpol = kind.split()[1]
        return [
            "scan-n",
            "--set", f"n_max_exp={N_MAX_EXP}",
            "--set", f"selfpol={selfpol}",
            "--set", f"xi={arg}",
        ]

    def expected(self, kind, arg):
        if kind == "scan-cavity":
            return self.cavity.expected(arg)
        if kind == "scan-dispersion":
            ref = self.ref["scan-dispersion"]
            return [({}, None, dict(zip(ref["columns"], row))) for row in ref["rows"]]
        ref = self.ref["scan-n"]
        table = ref["tables"][f"{kind.split()[1]} {arg}"]
        stored = {k: row for k, *row in table["rows"]}
        rows = []
        for k, flag in enumerate(table["flags"]):
            values = dict(zip(ref["columns"], stored[k])) if k in stored else None
            rows.append(({"n": float(2**k)}, float(flag), values))
        return rows

    def call(self, entry, item):
        return run_cli(entry, self.argv(*item))

    def check(self, item, output) -> Outcome:
        return check_rows(*output, self.expected(*item))


class OracleSuite:
    """The `oracle` CLI on 20-set suites at cutoff 40, convergence check off."""

    name = "oracle-suite"
    entry = staticmethod(cli.main)
    sets = ORACLE_SETS

    def __init__(self, reference, smoke=False):
        self.ref = reference["oracle-suite"]
        if smoke:
            self.sets = 2

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield rng.choice(ORACLE_SEEDS)

    def argv(self, oracle_seed):
        return [
            "oracle",
            "--set", f"oracle_sets={self.sets}",
            "--set", f"fock_cutoff={ORACLE_CUTOFF}",
            "--set", f"fock_tol={ORACLE_FOCK_TOL}",
            "--set", f"tol={ORACLE_TOL}",
            "--set", "check_convergence=0",
            "--seed", str(oracle_seed),
        ]

    def call(self, entry, oracle_seed):
        return run_cli(entry, self.argv(oracle_seed))

    def check(self, oracle_seed, output) -> Outcome:
        """Exit 0, parameters equal to the stored strings, deviations within tol."""
        code, text = output
        attempted = self.sets
        header, lines = split_csv(text)
        if code != 0:
            return Outcome(attempted, attempted, problem=f"exit code {code}")
        if len(lines) != attempted:
            return Outcome(attempted, attempted, problem=f"{len(lines)} sets, expected {attempted}")
        index = {name: i for i, name in enumerate(header)}
        stored = self.ref[str(oracle_seed)]
        failed = 0
        problem = ""
        for number, line in enumerate(lines):
            fields = line.split(",")
            try:
                ok = (
                    float(fields[index["set_index"]]) == number
                    and [fields[index[name]] for name in ORACLE_PARAMS] == stored[number]
                    and float(fields[index["dev_plus"]]) <= ORACLE_TOL
                    and float(fields[index["dev_minus"]]) <= ORACLE_TOL
                )
            except (KeyError, IndexError, ValueError):
                ok = False
            if not ok:
                failed += 1
                problem = problem or f"seed {oracle_seed} set {number}: {line}"
        return Outcome(attempted, failed, problem=problem)


WORKLOADS = {w.name: w for w in (SmallScans, OracleSuite)}
