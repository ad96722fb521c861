import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralpol.couplings import DerivedCouplings, derive_couplings
from chiralpol.emitters import Emitter, chiral_tdm_vector
from chiralpol.fields import SPEED_OF_LIGHT_AU, CavityMode
from chiralpol.hopfield import polariton_frequencies
from chiralpol.tavis_cummings import dispersion_scan, single_excitation_spectrum
from reference_forms import standing_wave_polarization_oblique


def couplings(w_photon=1.0, g_bar=0.01, xi_bar=0.0, lam=1):
    return DerivedCouplings(
        omega_k_bar=w_photon,
        omega_m_tilde=1.0,
        g_tilde=g_bar,
        xi_tilde=xi_bar,
        g_bar=g_bar,
        xi_bar=xi_bar,
        n_emitters=1,
        handedness=lam,
    )


def dense_single_excitation_spectrum(omega_m, omega_cavity, g_eff, n):
    """Oracle: full (N+1)x(N+1) single-excitation matrix, basis
    {photon, emitter_1, ..., emitter_N} with per-emitter coupling i*g_eff."""
    h = np.zeros((n + 1, n + 1), dtype=complex)
    h[0, 0] = omega_cavity
    for i in range(1, n + 1):
        h[i, i] = omega_m
        h[0, i] = -1j * g_eff
        h[i, 0] = 1j * g_eff
    return np.sort(np.linalg.eigvalsh(h))


class TestSingleExcitationSpectrum:
    def test_mismatched_enantiomer_decouples(self):
        c = couplings(w_photon=1.3, g_bar=0.2, xi_bar=-1.0, lam=1)
        spectrum = single_excitation_spectrum(c, omega_m=1.0, n_emitters=8)
        assert spectrum.effective_coupling == 0.0
        assert spectrum.polariton_upper == 1.3
        assert spectrum.polariton_lower == 1.0
        assert spectrum.dark_energy == 1.0
        assert spectrum.dark_count == 7

    def test_resonant_quadruplet(self):
        # N=4, g=0.01, xi*lam=+1: effective coupling 2*sqrt(4)*0.01 = 0.04
        c = couplings(g_bar=0.01, xi_bar=1.0)
        spectrum = single_excitation_spectrum(c, omega_m=1.0, n_emitters=4)
        assert spectrum.polariton_upper == pytest.approx(1.04, abs=1e-14)
        assert spectrum.polariton_lower == pytest.approx(0.96, abs=1e-14)
        oracle = dense_single_excitation_spectrum(1.0, 1.0, 0.01 * 2, 4)
        assert oracle[0] == pytest.approx(0.96, abs=1e-12)
        assert oracle[-1] == pytest.approx(1.04, abs=1e-12)
        assert_allclose(oracle[1:-1], 1.0, atol=1e-12)

    def test_jaynes_cummings_limit(self):
        c = couplings(g_bar=0.03, xi_bar=0.0)
        spectrum = single_excitation_spectrum(c, omega_m=1.0, n_emitters=1)
        assert spectrum.polariton_upper - spectrum.polariton_lower == pytest.approx(
            2 * 0.03, abs=1e-14
        )
        assert spectrum.dark_count == 0
        oracle = dense_single_excitation_spectrum(1.0, 1.0, 0.03, 1)
        assert_allclose(
            [spectrum.polariton_lower, spectrum.polariton_upper], oracle, atol=1e-14
        )

    @given(
        n=st.sampled_from([1, 2, 4, 16, 64]),
        g=st.floats(0.0, 0.2),
        xi=st.floats(-1.0, 1.0),
        detuning=st.floats(-0.5, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_form_matches_dense_oracle(self, n, g, xi, detuning):
        c = couplings(w_photon=1.0 + detuning, g_bar=g, xi_bar=xi)
        spectrum = single_excitation_spectrum(c, omega_m=1.0, n_emitters=n)
        oracle = dense_single_excitation_spectrum(
            1.0, 1.0 + detuning, g * (1 + xi), n
        )
        closed = np.sort(
            [spectrum.polariton_lower]
            + [spectrum.dark_energy] * spectrum.dark_count
            + [spectrum.polariton_upper]
        )
        assert_allclose(closed, oracle, atol=1e-12)

    @given(
        n=st.integers(1, 64), g=st.floats(0.0, 0.2), xi=st.floats(-1.0, 1.0)
    )
    @settings(max_examples=60)
    def test_trace_conservation(self, n, g, xi):
        c = couplings(w_photon=1.2, g_bar=g, xi_bar=xi)
        spectrum = single_excitation_spectrum(c, omega_m=1.0, n_emitters=n)
        total = (
            spectrum.polariton_upper
            + spectrum.polariton_lower
            + spectrum.dark_count * spectrum.dark_energy
        )
        assert total == pytest.approx(n * 1.0 + 1.2, rel=1e-13)

    def test_consistent_with_hopfield_at_weak_coupling(self):
        # first polariton manifold: TC splitting 2G vs Hopfield Omega+ - Omega-
        emitter = Emitter.collinear(omega_m=0.1, mu=[1.0, 0, 0], xi=0.4)
        mode = CavityMode(1, 0.1, 1e-4, 0.1 / SPEED_OF_LIGHT_AU, 0.0)
        c = derive_couplings(emitter, mode, 10)
        tc = single_excitation_spectrum(c, 0.1, 10)
        upper, lower = polariton_frequencies(c)
        tc_split = tc.polariton_upper - tc.polariton_lower
        assert upper - lower == pytest.approx(tc_split, rel=2e-3)


class TestDispersionScan:
    def setup_method(self):
        self.omega_m = 0.1
        self.k_z = self.omega_m / SPEED_OF_LIGHT_AU
        self.mode = CavityMode(
            handedness=1,
            omega_k=SPEED_OF_LIGHT_AU * self.k_z,
            eta=1e-3,
            k_z=self.k_z,
            z=0.0,
        )

    def test_vertical_row_reproduces_single_excitation_spectrum(self):
        emitter = Emitter.collinear(self.omega_m, [1.5, 0, 0], xi=0.3)
        table = dispersion_scan(emitter, self.mode, [0.0], n_emitters=25)
        row = dict(zip(table.column_names, table.rows[0]))
        c = derive_couplings(emitter, self.mode, 25)
        spectrum = single_excitation_spectrum(c, self.omega_m, 25)
        assert row["omega_mode"] == pytest.approx(self.mode.omega_k, rel=1e-14)
        assert row["polariton_upper"] == pytest.approx(
            spectrum.polariton_upper, rel=1e-12
        )
        assert row["polariton_lower"] == pytest.approx(
            spectrum.polariton_lower, rel=1e-12
        )
        assert row["effective_coupling"] == pytest.approx(
            abs(spectrum.effective_coupling), rel=1e-12
        )

    def test_mismatched_enantiomer_never_splits(self):
        emitter = Emitter.collinear(self.omega_m, [1.5, 0, 0], xi=1.0)
        mode = CavityMode(
            handedness=-1,
            omega_k=self.mode.omega_k,
            eta=1e-3,
            k_z=self.k_z,
            z=0.0,
        )
        k_pars = np.linspace(0, self.k_z, 7)
        table = dispersion_scan(emitter, mode, k_pars, n_emitters=25)
        for row in table.rows:
            record = dict(zip(table.column_names, row))
            assert record["effective_coupling"] == 0.0
            # one branch is the bare photon on the dispersion curve
            omega = SPEED_OF_LIGHT_AU * np.hypot(self.k_z, record["k_par"])
            assert record["omega_mode"] == pytest.approx(omega, rel=1e-14)
            branches = {record["polariton_upper"], record["polariton_lower"]}
            assert any(b == pytest.approx(omega, rel=1e-14) for b in branches)
            assert any(b == pytest.approx(self.omega_m, rel=1e-14) for b in branches)

    def test_photon_branch_follows_dispersion(self):
        emitter = Emitter.collinear(self.omega_m, [1.5, 0, 0], xi=0.2)
        k_pars = np.linspace(0, 2 * self.k_z, 9)
        table = dispersion_scan(emitter, self.mode, k_pars, n_emitters=25)
        omega = table.column("omega_mode")
        expected = SPEED_OF_LIGHT_AU * np.hypot(self.k_z, k_pars)
        assert_allclose(omega, expected, rtol=1e-14)
        # far off resonance the upper branch is asymptotically the photon line
        record = dict(zip(table.column_names, table.rows[-1]))
        assert record["polariton_upper"] == pytest.approx(
            record["omega_mode"], rel=1e-3
        )

    def test_omega_mode_is_c_times_the_wavenumber(self):
        emitter = Emitter.collinear(self.omega_m, [1.5, 0, 0], xi=0.2)
        k_pars = [0.0, 0.75 * self.k_z, 1.5e-3, 3 * self.k_z]
        table = dispersion_scan(emitter, self.mode, k_pars, n_emitters=25)
        omega = table.column("omega_mode")
        assert omega == (SPEED_OF_LIGHT_AU * np.hypot(self.k_z, k_pars)).tolist()
        assert omega[0] == SPEED_OF_LIGHT_AU * self.k_z

    def test_chiral_factor_is_k_par_independent(self):
        matched = Emitter.collinear(self.omega_m, [1.5, 0, 0], xi=0.5)
        blind = Emitter.collinear(self.omega_m, [1.5, 0, 0], xi=0.0)
        k_pars = np.linspace(0, self.k_z, 5)
        t_matched = dispersion_scan(matched, self.mode, k_pars, n_emitters=9)
        t_blind = dispersion_scan(blind, self.mode, k_pars, n_emitters=9)
        ratio = np.array(t_matched.column("effective_coupling")) / np.array(
            t_blind.column("effective_coupling")
        )
        assert_allclose(ratio, 1.5, rtol=1e-12)

    def test_decoupled_rows_do_not_overflow(self):
        # the mismatched enantiomer at omega_m ~ 1e308: only the bare pair is formed
        omega_m = 1e308
        k_z = omega_m / SPEED_OF_LIGHT_AU
        mode = CavityMode(1, SPEED_OF_LIGHT_AU * k_z, 1e-3, k_z)
        emitter = Emitter.collinear(omega_m, [2.0, 0, 0], xi=-1.0)
        table = dispersion_scan(emitter, mode, np.linspace(0, k_z, 5), n_emitters=100)
        omega = np.array(table.column("omega_mode"))
        assert table.column("effective_coupling") == [0.0] * 5
        assert table.column("polariton_upper") == np.maximum(omega, omega_m).tolist()
        assert table.column("polariton_lower") == np.minimum(omega, omega_m).tolist()

    def test_rejects_a_grazing_incidence_angle(self):
        # and every other k_par for which no mode on omega = c|k| exists
        emitter = Emitter.collinear(self.omega_m, [1.5, 0, 0], xi=0.2)
        with pytest.raises(ValueError, match=r"k_par/k_z = 1e\+300/0.00072"):
            dispersion_scan(emitter, self.mode, [0.0, 1e300], n_emitters=4)
        backwards = dataclasses.replace(self.mode, k_z=-self.k_z)
        with pytest.raises(ValueError, match="k_par/k_z = 0.0/-0.00072.* pi/2 or above"):
            dispersion_scan(emitter, backwards, [0.0], n_emitters=4)
        for k_pars in ([-1e-4], [0.0, np.nan]):
            with pytest.raises(ValueError, match="k_par must be nonnegative"):
                dispersion_scan(emitter, self.mode, k_pars, n_emitters=4)
        flat = dataclasses.replace(self.mode, k_z=0.0)
        with pytest.raises(ValueError, match=r"c\*hypot\(k_z, k_par\) must be positive, got 0.0"):
            dispersion_scan(emitter, flat, [0.0], n_emitters=4)


def reference_dispersion_rows(emitter, mode, k_pars, n_emitters):
    """One scalar angle, frequency and complex polarization per k_par."""
    combined = emitter.mu + mode.handedness * chiral_tdm_vector(emitter)
    rows = []
    for k_par in k_pars:
        # numpy's hypot, as dispersion_scan: math.hypot can differ in the last bit
        theta = float(np.arctan2(k_par, mode.k_z))
        omega = SPEED_OF_LIGHT_AU * float(np.hypot(mode.k_z, k_par))
        eps = standing_wave_polarization_oblique(mode, theta, x=0.0)
        coupling = math.sqrt(n_emitters) * mode.eta * math.sqrt(omega / 2.0)
        coupling *= float(abs(np.sum(eps * combined)))
        omega_m = emitter.omega_m
        if coupling == 0.0:
            upper, lower = max(omega_m, omega), min(omega_m, omega)
        else:
            detuning = omega_m - omega
            split = np.sqrt(0.25 * detuning * detuning + coupling * coupling)
            upper, lower = 0.5 * (omega_m + omega) + split, 0.5 * (omega_m + omega) - split
        rows.append((k_par, omega, coupling, upper, lower))
    return np.array(rows, dtype=float)


class TestDispersionBatch:
    @seed(20242)
    @settings(max_examples=120, deadline=None, database=None)
    @given(
        z=st.floats(0.0, 1e4),
        roll_delta=st.floats(0.0, 6.28),
        mu=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        xi=st.just(-1.0) | st.floats(-1.5, 1.5),
        lam=st.sampled_from([1, -1]),
        k_par_max=st.floats(0.0, 0.01),
        n_emitters=st.sampled_from([1, 7, 100, 10**6]),
    )
    def test_batch_is_bitwise_the_per_k_par_reference(
        self, z, roll_delta, mu, xi, lam, k_par_max, n_emitters
    ):
        if np.linalg.norm(mu) < 0.1:  # the roll needs an axis
            mu = [1.0, 0.0, 0.0]
        emitter = Emitter(0.1, mu, xi_scale=xi, roll_delta=roll_delta)
        k_z = 0.1 / SPEED_OF_LIGHT_AU
        mode = CavityMode(lam, SPEED_OF_LIGHT_AU * k_z, 1e-3, k_z, z=z)
        k_pars = np.linspace(0.0, k_par_max, 41)
        table = dispersion_scan(emitter, mode, k_pars, n_emitters)
        expected = reference_dispersion_rows(emitter, mode, k_pars, n_emitters)
        assert table.rows.view(np.int64).tolist() == expected.view(np.int64).tolist()
