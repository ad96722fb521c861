"""Acceptance suite: one test per criterion, each ending with a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import dataclasses
import time

import numpy as np
import pytest

from chiralpol.couplings import (
    DerivedCouplings,
    derive_couplings,
    orientation_averaged_coupling_sq,
    sample_orientation_coupling,
)
from chiralpol.emitters import Emitter
from chiralpol.fields import SPEED_OF_LIGHT_AU, CavityMode
from chiralpol.fock_oracle import FockConfig, oracle_check
from chiralpol.hopfield import (
    SYMPLECTIC_METRIC,
    find_critical_n,
    polariton_frequencies,
    solve_polaritons,
)
from chiralpol.scans import (
    CAVITY_DEFAULTS,
    N_SCAN_DEFAULTS,
    ORACLE_DEFAULTS,
    run_oracle_suite,
    scan_cavity,
    scan_n,
)
from chiralpol.tavis_cummings import single_excitation_spectrum

ETA = 1e-3  # published fundamental coupling strength sqrt(1/eps0 V)
XI_DYE = 3.712e-5  # published conservative chirality estimate


def report(number, message):
    print(f"\n[criterion {number}] PASS — {message}")


def make_couplings(w_photon=1.0, w_matter=1.0, g=0.1, xi=0.0, lam=1):
    return DerivedCouplings(
        omega_k_bar=w_photon,
        omega_m_tilde=w_matter,
        g_tilde=g,
        xi_tilde=xi,
        g_bar=g,
        xi_bar=xi,
        n_emitters=1,
        handedness=lam,
    )


def dye_system(xi=XI_DYE, lam=1, omega_m=0.1, mu=2.0):
    emitter = Emitter.collinear(omega_m=omega_m, mu=[mu, 0, 0], xi=xi)
    mode = CavityMode(
        handedness=lam,
        omega_k=omega_m,
        eta=ETA,
        k_z=omega_m / SPEED_OF_LIGHT_AU,
        z=0.0,
    )
    return emitter, mode


def least_squares_slope(n_values, deltas):
    x = np.log(np.asarray(n_values, dtype=float))
    y = np.log(np.abs(np.asarray(deltas, dtype=float)))
    return np.polyfit(x, y, 1)[0]


def test_criterion_1_oracle_equivalence_on_200_random_sets():
    start = time.perf_counter()
    table = run_oracle_suite(dict(ORACLE_DEFAULTS))
    elapsed = time.perf_counter() - start
    assert len(table.rows) == 200
    worst = max(table.column("dev_plus") + table.column("dev_minus"))
    assert worst < 1e-7
    assert elapsed < 120.0
    report(
        1,
        f"200 randomized stable sets at cutoff 40: worst relative deviation "
        f"{worst:.2e} < 1e-7 in {elapsed:.0f}s",
    )


def test_criterion_2_clean_chiral_resonance():
    c = make_couplings(g=0.1, xi=1.0)
    upper, lower = polariton_frequencies(c)
    assert upper == pytest.approx(1.2, abs=1e-12)
    assert lower == pytest.approx(0.8, abs=1e-12)
    fock = oracle_check(c, FockConfig(fock_cutoff=40))
    assert fock.certified
    assert abs(fock.omega_plus - 1.2) < 1e-8
    assert abs(fock.omega_minus - 0.8) < 1e-8
    report(
        2,
        "resonant xi*lam=+1 with sqrt(N)g=0.1 gives (1.2, 0.8) to 12 digits, "
        f"oracle deviations ({fock.deviation_plus:.1e}, {fock.deviation_minus:.1e})",
    )


def test_criterion_3_mismatched_enantiomer_decouples():
    c = make_couplings(w_photon=1.1, g=0.07, xi=-1.0)
    tc = single_excitation_spectrum(c, omega_m=1.0, n_emitters=40)
    assert tc.effective_coupling == 0.0
    assert tc.polariton_upper == 1.1 and tc.polariton_lower == 1.0
    assert tc.dark_energy == 1.0 and tc.dark_count == 39

    upper, lower = polariton_frequencies(make_couplings(g=0.1, xi=-1.0))
    assert upper - lower <= 1e-12
    report(
        3,
        "TC coupling exactly 0 at xi_bar*lam=-1 with bare spectrum "
        "{omega_m x N, omega_k_bar}; resonant Hopfield splitting "
        f"{upper - lower:.1e} <= 1e-12",
    )


def test_criterion_4_handedness_symmetry_across_scan_grids():
    base = {**CAVITY_DEFAULTS, "omega_k_points": "21", "xi_points": "11"}
    left = scan_cavity(base)
    right = scan_cavity({**base, "handedness": "-1"})
    xi_idx = left.column_names.index("xi")
    mirrored = {(row[0], -row[xi_idx]): row for row in right.rows}
    worst = 0.0
    for row in left.rows:
        partner = mirrored[(row[0], row[xi_idx])]
        worst = max(worst, float(np.max(np.abs(np.array(row[2:]) - partner[2:]))))
    assert worst <= 1e-12

    n_base = {**N_SCAN_DEFAULTS, "n_max_exp": "12"}
    deltas_left = np.array(scan_n(n_base).rows)
    deltas_right = np.array(scan_n({**n_base, "handedness": "-1"}).rows)
    delta_cols = slice(1, 4)
    assert np.max(np.abs(deltas_left[:, delta_cols] + deltas_right[:, delta_cols])) <= 1e-12
    report(
        4,
        f"(xi -> -xi, lambda -> -lambda) leaves spectra, fractions and "
        f"delta-observables invariant to {max(worst, 1e-16):.1e} <= 1e-12",
    )


def test_criterion_5_symplectic_normalization_everywhere():
    rng = np.random.default_rng(2024)
    worst_norm = 0.0
    worst_sum = 0.0
    checked = 0
    while checked < 120:
        c = make_couplings(
            w_photon=rng.uniform(0.5, 2.0),
            w_matter=rng.uniform(0.5, 2.0),
            g=rng.uniform(0.0, 0.25),
            xi=rng.uniform(-1.0, 1.0),
            lam=rng.choice([1, -1]),
        )
        try:
            sol = solve_polaritons(c)
        except Exception:
            continue
        checked += 1
        for vec in (sol.coeffs_plus, sol.coeffs_minus):
            norm = float(np.real(vec.conj() @ SYMPLECTIC_METRIC @ vec))
            worst_norm = max(worst_norm, abs(norm - 1.0))
        worst_sum = max(
            worst_sum,
            abs(sol.photon_fraction_plus + sol.matter_fraction_plus - 1.0),
            abs(sol.photon_fraction_minus + sol.matter_fraction_minus - 1.0),
        )
    assert worst_norm <= 1e-10
    assert worst_sum <= 1e-10
    report(
        5,
        f"|x|^2-|y|^2+|z|^2-|u|^2 = 1 within {worst_norm:.1e} and fraction "
        f"sums within {worst_sum:.1e} over {checked} solved branches",
    )


def test_criterion_6_n_scaling_slopes():
    table = scan_n({**N_SCAN_DEFAULTS, "n_max_exp": "24"})
    n_values = np.array(table.column("n"))
    deltas = np.array(table.column("delta_e_vac"))
    assert np.all(np.array(table.column("unstable")) == 0.0)

    low = n_values <= 10
    slope_low = least_squares_slope(n_values[low], deltas[low])
    deep = n_values >= n_values[-1] / 10
    slope_deep = least_squares_slope(n_values[deep], deltas[deep])
    assert slope_low == pytest.approx(1.0, abs=0.05)
    assert slope_deep == pytest.approx(0.5, abs=0.05)
    report(
        6,
        f"delta E_vac slope {slope_low:.3f} (=1.00+-0.05) over the low-N "
        f"decade and {slope_deep:.3f} (=0.50+-0.05) in the deepest-USC decade",
    )


def test_criterion_7_orientation_average():
    omega_type_rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    collinear = Emitter.collinear(omega_m=0.1, mu=[2.0, 0, 0], xi=1.0)
    omega_type = Emitter(
        omega_m=0.1, mu=[2.0, 0, 0], xi_scale=1.0, xi_rotation=omega_type_rotation
    )
    _, mode_left = dye_system()
    mode_right = dataclasses.replace(mode_left, handedness=-1)

    matched = orientation_averaged_coupling_sq(collinear, mode_left, 12)
    mismatched = orientation_averaged_coupling_sq(collinear, mode_right, 12)
    cross_left = orientation_averaged_coupling_sq(omega_type, mode_left, 12)
    cross_right = orientation_averaged_coupling_sq(omega_type, mode_right, 12)
    assert mismatched == pytest.approx(0.0, abs=1e-30)
    assert matched / cross_left == pytest.approx(2.0, rel=1e-12)  # 4 vs (1+s^2)
    assert cross_left == pytest.approx(cross_right, rel=1e-12)

    mc = sample_orientation_coupling(
        omega_type, mode_left, 12, seed=17, n_samples=100_000
    )
    exact = cross_left
    assert abs(mc.value - exact) < 3 * mc.stderr
    report(
        7,
        "collinear s=1 brackets give 4|mu|^2 vs 0 and Omega-type coupling is "
        f"handedness-blind; MC at 1e5 samples off by {abs(mc.value - exact) / mc.stderr:.2f} "
        "standard errors (< 3)",
    )


def test_criterion_8_local_selfpol_instability_contrast():
    emitter, mode = dye_system()
    grid = [2**k for k in range(21)]
    critical = find_critical_n(emitter, mode, grid)
    assert critical is not None and critical <= 2**20
    for n in grid:
        polariton_frequencies(derive_couplings(emitter, mode, n))  # must not raise
    report(
        8,
        f"local self-polarization variant turns unstable at N = {critical} "
        "while the full model stays stable over the whole grid",
    )


def test_criterion_9_cavity_scan_phenomenology():
    emitter, mode = dye_system()
    n_emitters = 100
    omega_m_tilde = derive_couplings(emitter, mode, n_emitters).omega_m_tilde
    omega_grid = np.append(np.linspace(0.08, 0.12, 41), omega_m_tilde)

    # The model decouples at xi_tilde*lambda = -1, and xi_tilde carries the
    # dressing ratio omega_m_tilde*omega_k/(omega_m*omega_k_bar) (1.004 at
    # N = 100), so each emitter's bare xi is chosen to put xi_tilde*lambda
    # on the intended value at the resonant grid point omega_k = omega_m_tilde.
    resonant_mode = dataclasses.replace(mode, omega_k=omega_m_tilde)
    resonant = derive_couplings(emitter, resonant_mode, n_emitters)

    def chiral_emitter(xi_lambda):
        xi = (
            xi_lambda
            * mode.handedness
            * emitter.omega_m
            * resonant.omega_k_bar
            / (resonant.omega_m_tilde * resonant_mode.omega_k)
        )
        e = Emitter.collinear(0.1, [2.0, 0, 0], xi=xi)
        c = derive_couplings(e, resonant_mode, n_emitters)
        assert c.xi_tilde * c.handedness == pytest.approx(xi_lambda, abs=1e-15)
        return e

    min_splitting = {}
    for xi in (-1.0, -0.5, 0.0, 0.5, 1.0):
        e = chiral_emitter(xi)
        splittings = []
        for omega_k in omega_grid:
            c = derive_couplings(e, dataclasses.replace(mode, omega_k=omega_k), n_emitters)
            upper, lower = polariton_frequencies(c)
            splittings.append(upper - lower)
        min_splitting[xi] = min(splittings)
    ordered = [min_splitting[x] for x in (-1.0, -0.5, 0.0, 0.5, 1.0)]
    assert min_splitting[-1.0] <= 1e-12
    assert all(np.diff(ordered) > 0)

    # lower-branch photon fraction crosses 1/2 at resonance for xi_tilde*lam = +1
    matched = chiral_emitter(1.0)
    fractions = []
    for omega_k in omega_grid:
        c = derive_couplings(matched, dataclasses.replace(mode, omega_k=omega_k), n_emitters)
        fractions.append(solve_polaritons(c).photon_fraction_minus)
    fractions = np.array(fractions)
    at_resonance = fractions[-1]
    assert at_resonance == pytest.approx(0.5, abs=1e-2)
    below = fractions[omega_grid < omega_m_tilde - 1e-4]
    above = fractions[(omega_grid > omega_m_tilde + 1e-4) & (omega_grid <= 0.12)]
    assert np.all(below > 0.5) and np.all(above < 0.5)
    report(
        9,
        "minimum resonant splitting grows strictly with xi_tilde*lambda from 0 at "
        f"-1, and the lower-branch photon fraction crosses 0.5 at resonance "
        f"({at_resonance:.4f})",
    )
