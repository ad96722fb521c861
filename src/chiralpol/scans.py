"""Deterministic parameter scans over the analytic solvers, as CSV tables.

Each scan consumes a flat string config table (defaults overlaid by config
file and --set pairs, see `config`). A scan runner parses every key once,
`auto` values resolved, into one dict of typed values, and the table
metadata echoes that dict, so the CSV header reproduces the run; the oracle
echoes its string table as given. Instabilities become rows flagged
unstable=1 with zeroed value columns rather than aborting the scan; any
other failure raises, and `cli.main` alone maps it to an exit code. Each
runner declares its columns once, in CSV order, as one dict from column
name to values.

Default system values: the fundamental coupling eta = 0.001 and the
chirality estimate xi = 3.712e-5 for the ensemble-size scan are the
published figure parameters; omega_m = 0.1 a.u. and mu = (2, 0, 0) a.u. are
placeholder dye-like values (the source work cites these to external data
without printing them) and can be overridden per run.
"""

from typing import Callable

import numpy as np

from .config import (
    ConfigError,
    config_bool,
    config_choice,
    config_float,
    config_floats,
    config_int,
    render_value,
)
from .couplings import (
    DerivedCouplings,
    InstabilityError,
    derive_couplings,
    elementwise,
)
from .emitters import Emitter, chiral_tdm_vector
from .fields import SPEED_OF_LIGHT_AU, CavityMode
from .fock_oracle import FockConfig, oracle_check
from .hopfield import (
    discrimination,
    polariton_frequencies,
    solve_polaritons,
    stability_factors,
)
from .scantable import ScanTable
from .tavis_cummings import dispersion_scan as tc_dispersion_scan

# Rejection thresholds for the randomized oracle suite: both stability
# factors must clear a 10% margin (thermodynamic stability, not merely real
# Omega) and the gap ratio must keep Omega_plus within the first soft-mode
# rungs, which stay converged only while their occupation is well below the
# Fock cutoff — hence the cutoff/3 scaling of the admissible ratio.
ORACLE_STABILITY_MARGIN = 0.1
ORACLE_MAX_GAP_RATIO = 12.0


def _max_gap_ratio(cutoff: int) -> float:
    return min(ORACLE_MAX_GAP_RATIO, cutoff / 3.0)

_SYSTEM_DEFAULTS = {
    "handedness": "1",
    "eta": "0.001",
    "omega_m": "0.1",
    "mu": "2,0,0",
    "quadrupole": "0,0,0,0,0,0,0,0,0",
    "chi_m": "0,0,0,0,0,0,0,0,0",
    "xi_rotation": "1,0,0,0,1,0,0,0,1",
    "roll_delta": "0",
    "z": "0",
    "k_z": "auto",
}

CAVITY_DEFAULTS = {
    **_SYSTEM_DEFAULTS,
    "n_emitters": "100",
    "omega_k_min": "auto",
    "omega_k_max": "auto",
    "omega_k_points": "41",
    "xi_min": "-1",
    "xi_max": "1",
    "xi_points": "21",
}

N_SCAN_DEFAULTS = {
    **_SYSTEM_DEFAULTS,
    "xi": "3.712e-5",
    "omega_k": "auto",
    "n_max_exp": "20",
    "selfpol": "collective",
}

DISPERSION_DEFAULTS = {
    **_SYSTEM_DEFAULTS,
    "xi": "0.5",
    "n_emitters": "100",
    "k_par_min": "0",
    "k_par_max": "auto",
    "k_par_points": "41",
}

ORACLE_DEFAULTS = {
    "oracle_sets": "200",
    "fock_cutoff": "40",
    "fock_tol": "1e-8",
    "tol": "1e-7",
    "check_convergence": "0",
    "seed": "20240",
}


def _require(ok: bool, key: str, value, requirement: str = "must be positive") -> None:
    if not ok:
        raise ConfigError(f"key '{key}': {requirement}, got {value}")


def _stage(values: dict, compute: Callable[[dict], object]):
    """compute(values); an OverflowError it raises is named by its key.

    On an OverflowError, compute runs again with every system key at its
    parsed default, except mu, which keeps its direction and is divided by
    its largest |component| when that is above 1. If that runs, the keys go
    back one at a time, in `_system_from` order, and the first whose own
    value brings the failure back is named ("numeric overflow in chi_m").
    Otherwise the stage's own error stands.
    """
    try:
        return compute(values)
    except OverflowError as err:
        neutral = _system_from(_SYSTEM_DEFAULTS)
        neutral["mu"] = values["mu"] / max(1.0, np.max(np.abs(values["mu"])))
        trial = {**values, **neutral}
        if _runs(compute, trial):
            for key in neutral:
                trial[key] = values[key]
                if not _runs(compute, trial):
                    raise OverflowError(f"numeric overflow in {key}") from err
        raise


def _runs(compute: Callable[[dict], object], values: dict) -> bool:
    """Whether compute(values) runs without a failure."""
    try:
        compute(values)
    except (ArithmeticError, ValueError, InstabilityError):
        return False
    return True


def _auto(table: dict, key: str, value: float) -> float:
    """value where the key reads 'auto', else the key's own number."""
    return value if table[key] == "auto" else config_float(table, key)


@elementwise
def _system_from(table: dict) -> dict:
    """The ten system keys, typed, with k_z resolved.

    One reference emitter and mode run the model's own input checks
    (omega_m > 0, orthogonal xi_rotation, a roll axis, handedness +-1, ...)
    under the package floating-point policy, so an input that overflows
    there is one error and no warning. The emitter's check runs through
    `_stage`, whose rerun rule names the key that overflowed, as it does for
    a scan stage; that rerun's neutral values are `_SYSTEM_DEFAULTS` parsed here.
    """
    omega_m = config_float(table, "omega_m")
    # `_stage` puts keys back in this order and names the first that brings
    # an overflow back. Mode keys and z go first, so the emitter key that
    # meets their field is named (at z = 0 a quadrupole sees no x gradient).
    # mu goes last, so a huge mu is named rather than the roll that reads |mu|.
    system = {
        "omega_m": omega_m,
        # k_z = omega_m/c is the resonant vertical vacuum mode; it only enters
        # through quadrupole/self-magnetization contractions and the dispersion
        "k_z": _auto(table, "k_z", omega_m / SPEED_OF_LIGHT_AU),
        "handedness": config_int(table, "handedness"),
        "eta": config_float(table, "eta"),
        "z": config_float(table, "z"),
        "xi_rotation": config_floats(table, "xi_rotation", 9).reshape(3, 3),
        "quadrupole": config_floats(table, "quadrupole", 9).reshape(3, 3),
        "chi_m": config_floats(table, "chi_m", 9).reshape(3, 3),
        "roll_delta": config_float(table, "roll_delta"),
        "mu": config_floats(table, "mu", 3),
    }
    _stage(system, lambda v: chiral_tdm_vector(_emitter(v, 0.0)))
    _mode(system, omega_m)
    return system


def _emitter(values: dict, xi) -> Emitter:
    """The configured emitter at chirality scale xi (a number or an array)."""
    return Emitter(
        omega_m=values["omega_m"],
        mu=values["mu"],
        quadrupole=values["quadrupole"],
        xi_scale=xi,
        xi_rotation=values["xi_rotation"],
        roll_delta=values["roll_delta"],
        chi_m=values["chi_m"],
    )


def _mode(values: dict, omega_k) -> CavityMode:
    """The configured cavity mode at frequency omega_k (a number or an array)."""
    return CavityMode(
        handedness=values["handedness"],
        omega_k=omega_k,
        eta=values["eta"],
        k_z=values["k_z"],
        z=values["z"],
    )


def _n_emitters(table: dict) -> int:
    n_emitters = config_int(table, "n_emitters")
    _require(n_emitters >= 1, "n_emitters", n_emitters, "must be at least 1")
    # NumPy takes N as an unsigned 64-bit integer
    _require(n_emitters < 2**64, "n_emitters", n_emitters, "must be below 2**64")
    return n_emitters


def _table(
    command: str, defaults: dict, values: dict, columns: dict, failure: str = ""
) -> ScanTable:
    """The run's CSV table. `columns` maps each column name to its values, in
    CSV order; they broadcast to one shape, and each cell of it is a row. The
    metadata is the command, then each config key in defaults order with its
    parsed value, so the header reproduces the run."""
    cells = np.broadcast_arrays(*columns.values())
    return ScanTable(
        column_names=tuple(columns),
        rows=np.stack(cells, axis=-1).reshape(-1, len(cells)),
        metadata=(("command", command),)
        + tuple((key, render_value(values[key])) for key in defaults),
        failure=failure,
    )


def _grid(values: dict, axis: str) -> np.ndarray:
    """Evenly spaced points from <axis>_min to <axis>_max, <axis>_points of them.

    Whenever low == -high the grid is exactly antisymmetric: the reversed
    grid is its bitwise negation, the endpoints are exactly low and high,
    and an odd count puts exactly 0 at the centre. Plain linspace is not
    (linspace(-1, 1, 11) holds 0.6000000000000001 but -0.6), and the
    handedness mirror (xi, lambda) -> (-xi, -lambda) must find every
    row's partner on the same grid.
    """
    key = f"{axis}_points"
    low, high, points = values[f"{axis}_min"], values[f"{axis}_max"], values[key]
    _require(points >= 1, key, points, "needs at least one point")
    # NumPy's own size limit: the grid's bytes must fit a signed index
    _require(points <= np.iinfo(np.intp).max // 8, key, points, "too many points for one array")
    if points == 1:
        return np.array([low])
    # linspace steps across high - low, which must not overflow to inf
    _require(np.isfinite(high - low), f"{axis}_max", high, f"too far from {axis}_min")
    grid = np.linspace(low, high, points)
    if low == -high:
        grid = 0.5 * (grid - grid[::-1])
    return grid


def scan_cavity(table: dict) -> ScanTable:
    """Polariton spectra and fractions over an (omega_k, xi) grid.

    The xi = 0 slice is the standard (achiral) Hopfield model; the minimum
    splitting closes at xi_tilde*lambda = -1 as the mismatched enantiomer
    decouples. xi_tilde carries the self-polarization dressing (see
    `DerivedCouplings`), so for a collinear emitter the gap closes at bare
    xi = -omega_m*omega_k_bar/(omega_m_tilde*omega_k), slightly inside
    xi = -1.
    """
    values = _system_from(table)
    n_emitters = values["n_emitters"] = _n_emitters(table)
    values["omega_k_min"] = _auto(table, "omega_k_min", 0.8 * values["omega_m"])
    values["omega_k_max"] = _auto(table, "omega_k_max", 1.2 * values["omega_m"])
    for key in ("omega_k_min", "omega_k_max"):
        _require(values[key] > 0, key, values[key])
    values["omega_k_points"] = config_int(table, "omega_k_points")
    omegas = _grid(values, "omega_k")
    values["xi_min"] = config_float(table, "xi_min")
    values["xi_max"] = config_float(table, "xi_max")
    values["xi_points"] = config_int(table, "xi_points")
    xis = _grid(values, "xi")

    # one batch over the grid: omega_k down the rows, xi along them
    def solve(v: dict):
        c = derive_couplings(_emitter(v, xis), _mode(v, omegas[:, None]), n_emitters)
        return c, solve_polaritons(c)

    c, sol = _stage(values, solve)
    unstable = np.isnan(sol.omega_plus)
    results = {
        "omega_k_bar": c.omega_k_bar,
        "omega_m_tilde": c.omega_m_tilde,
        "omega_plus": sol.omega_plus,
        "omega_minus": sol.omega_minus,
        "photon_frac_plus": sol.photon_fraction_plus,
        "matter_frac_plus": sol.matter_fraction_plus,
        "photon_frac_minus": sol.photon_fraction_minus,
        "matter_frac_minus": sol.matter_fraction_minus,
        "e_vac": sol.e_vac,
    }
    columns = {
        "omega_k": omegas[:, None],
        "xi": xis,
        **{name: np.where(unstable, 0.0, v) for name, v in results.items()},
        "unstable": unstable,
    }
    return _table("scan-cavity", CAVITY_DEFAULTS, values, columns)


def _loglog_slopes(n_values, deltas, usable) -> np.ndarray:
    """Centered log-log slope of |delta| vs N, each side falling back to the
    point itself where its neighbour is not usable; 0.0 where undefined."""
    index = np.arange(len(n_values))
    left = np.where((index > 0) & np.roll(usable, 1), index - 1, index)
    right = np.where((index + 1 < len(index)) & np.roll(usable, -1), index + 1, index)
    defined = usable & (left != right)
    log_n = np.log(n_values)
    log_d = np.log(np.abs(np.where(usable, deltas, 1.0)))
    span = np.where(defined, log_n[right] - log_n[left], 1.0)
    return np.where(defined, (log_d[right] - log_d[left]) / span, 0.0)


def scan_n(table: dict) -> ScanTable:
    """Enantio-discrimination observables over N in {1, 2, 4, ..., 2^n_max_exp}.

    delta quantities are spectra at xi = +|xi| minus xi = -|xi| at fixed
    everything else. selfpol='local' switches to the cancelling-
    intermolecular variant whose lower branch goes unstable at a finite N.
    """
    values = _system_from(table)
    xi = values["xi"] = config_float(table, "xi")
    omega_k = values["omega_k"] = _auto(table, "omega_k", values["omega_m"])
    _require(omega_k > 0, "omega_k", omega_k)
    n_max_exp = values["n_max_exp"] = config_int(table, "n_max_exp")
    _require(0 <= n_max_exp <= 60, "n_max_exp", n_max_exp, "expected 0..60")
    selfpol = values["selfpol"] = config_choice(table, "selfpol", ("collective", "local"))
    n_values = 2 ** np.arange(n_max_exp + 1)
    deltas = _stage(
        values, lambda v: discrimination(_emitter(v, xi), _mode(v, omega_k), n_values, selfpol)
    )
    unstable = np.isnan(deltas.delta_e_vac)
    d_evac = np.where(unstable, 0.0, deltas.delta_e_vac)
    columns = {
        "n": n_values,
        "delta_omega_plus": np.where(unstable, 0.0, deltas.delta_omega_plus),
        "delta_omega_minus": np.where(unstable, 0.0, deltas.delta_omega_minus),
        "delta_e_vac": d_evac,
        "slope_delta_e_vac": _loglog_slopes(n_values, d_evac, ~unstable & (d_evac != 0.0)),
        "unstable": unstable,
    }
    return _table("scan-n", N_SCAN_DEFAULTS, values, columns)


def scan_dispersion(table: dict) -> ScanTable:
    """Bright-sector Tavis-Cummings polaritons along the in-plane dispersion."""
    values = _system_from(table)
    k_z = values["k_z"]
    _require(k_z > 0, "k_z", k_z)
    n_emitters = values["n_emitters"] = _n_emitters(table)
    xi = values["xi"] = config_float(table, "xi")
    values["k_par_min"] = config_float(table, "k_par_min")
    values["k_par_max"] = _auto(table, "k_par_max", k_z)
    for key in ("k_par_min", "k_par_max"):
        _require(values[key] >= 0, key, values[key], "must be nonnegative")
    values["k_par_points"] = config_int(table, "k_par_points")
    k_pars = _grid(values, "k_par")
    base = _mode(values, SPEED_OF_LIGHT_AU * k_z)
    # a k_par/k_z above ~1e16 rounds the incidence angle to pi/2
    core = _stage(values, lambda v: tc_dispersion_scan(_emitter(v, xi), base, k_pars, n_emitters))
    columns = dict(zip(core.column_names, core.rows.T))
    return _table("scan-dispersion", DISPERSION_DEFAULTS, values, columns)


def sample_stable_couplings(
    rng: "np.random.Generator", max_gap_ratio: float = ORACLE_MAX_GAP_RATIO
) -> DerivedCouplings:
    """One random thermodynamically stable parameter set for the oracle.

    omega_k_bar, omega_m_tilde uniform on [0.5, 2], sqrt(N)*g uniform on
    [0, 0.3*omega_m_tilde], xi*lambda uniform on [-1, 1]; rejected until the
    stability factors clear ORACLE_STABILITY_MARGIN and the gap ratio stays
    below max_gap_ratio (identifiability of the stiff gap at finite cutoff).
    """
    for _ in range(10_000):
        w_photon = rng.uniform(0.5, 2.0)
        w_matter = rng.uniform(0.5, 2.0)
        coupling = rng.uniform(0.0, 0.3 * w_matter)
        chirality = rng.uniform(-1.0, 1.0)
        c = DerivedCouplings(
            omega_k_bar=w_photon,
            omega_m_tilde=w_matter,
            g_tilde=coupling,
            xi_tilde=chirality,
            g_bar=coupling,
            xi_bar=chirality,
            n_emitters=1,
            handedness=1,
        )
        f1, f2 = stability_factors(c)
        if min(f1, f2) < ORACLE_STABILITY_MARGIN * w_photon * w_matter:
            continue
        upper, lower = polariton_frequencies(c)
        if upper > max_gap_ratio * lower:
            continue
        return c
    raise RuntimeError("rejection sampling failed to find a stable parameter set")


def run_oracle_suite(table: dict) -> ScanTable:
    """Randomized analytic-vs-Fock regression grid.

    Each set is solved at the smallest cutoff step whose residual bound
    certifies the levels its fit reads, up to fock_cutoff; the `cutoff`
    column gives that box and `certified` whether the bound held there.
    With check_convergence, `converged` repeats `certified`; without it,
    it is NaN. Deterministic for a fixed seed. A worst relative deviation of
    either branch or of E0 above tol sets the table's `failure` (CLI exit
    status 2).
    """
    n_sets = config_int(table, "oracle_sets")
    _require(n_sets >= 1, "oracle_sets", n_sets, "must be at least 1")
    cutoff = config_int(table, "fock_cutoff")
    fock_tol = config_float(table, "fock_tol")
    tol = config_float(table, "tol")
    _require(tol > 0, "tol", tol)
    check_convergence = config_bool(table, "check_convergence")
    seed = config_int(table, "seed")
    _require(seed >= 0, "seed", seed, "must be nonnegative")
    fock_config = FockConfig(fock_cutoff=cutoff, fock_tol=fock_tol)

    rng = np.random.default_rng(seed)
    max_ratio = _max_gap_ratio(cutoff)
    sets = [sample_stable_couplings(rng, max_ratio) for _ in range(n_sets)]
    reports = oracle_check(sets, fock_config)
    columns = {
        "set_index": range(n_sets),
        "omega_k_bar": [c.omega_k_bar for c in sets],
        "omega_m_tilde": [c.omega_m_tilde for c in sets],
        "coupling": [c.g_tilde for c in sets],
        "xi_lambda": [c.xi_tilde * c.handedness for c in sets],
        "oracle_plus": [r.omega_plus for r in reports],
        "oracle_minus": [r.omega_minus for r in reports],
        "e0": [r.e0 for r in reports],
        "analytic_plus": [r.analytic_plus for r in reports],
        "analytic_minus": [r.analytic_minus for r in reports],
        "dev_plus": [r.deviation_plus for r in reports],
        "dev_minus": [r.deviation_minus for r in reports],
        "e0_dev": [r.e0_deviation for r in reports],
        "ladder_residual": [r.ladder_residual for r in reports],
        "degenerate": [r.degenerate for r in reports],
        "ambiguous": [r.ambiguous for r in reports],
        # None is NaN: the check did not run
        "converged": [r.certified if check_convergence else None for r in reports],
        "cutoff": [r.cutoff for r in reports],
        "certified": [r.certified for r in reports],
    }
    worst = max(0.0, *columns["dev_plus"], *columns["dev_minus"], *columns["e0_dev"])
    failure = f"oracle deviation {worst:.3e} exceeds tol {tol:.3e}" if worst > tol else ""
    return _table("oracle", ORACLE_DEFAULTS, table, columns, failure)


SCAN_COMMANDS: dict[str, tuple[dict, Callable]] = {
    "scan-cavity": (CAVITY_DEFAULTS, scan_cavity),
    "scan-n": (N_SCAN_DEFAULTS, scan_n),
    "scan-dispersion": (DISPERSION_DEFAULTS, scan_dispersion),
    "oracle": (ORACLE_DEFAULTS, run_oracle_suite),
}
