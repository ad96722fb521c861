import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralpol.couplings import DerivedCouplings, derive_couplings
from chiralpol.emitters import Emitter
from chiralpol.fields import CavityMode
from chiralpol.hopfield import (
    SYMPLECTIC_METRIC,
    PolaritonInstabilityError,
    discrimination,
    dynamical_matrix,
    find_critical_n,
    hopfield_coefficients,
    polariton_frequencies,
    polariton_frequencies_local_selfpol,
    solve_polaritons,
    stability_factors,
)


def couplings(w_photon=1.0, w_matter=1.0, g=0.1, xi=0.0, lam=1, n=1):
    return DerivedCouplings(
        omega_k_bar=w_photon,
        omega_m_tilde=w_matter,
        g_tilde=g,
        xi_tilde=xi,
        g_bar=g,
        xi_bar=xi,
        n_emitters=n,
        handedness=lam,
    )


def stable_couplings_strategy():
    def build(w1, w2, frac, xi, lam):
        g = frac * 0.3 * w2
        c = couplings(w1, w2, g, xi, lam)
        f1, f2 = stability_factors(c)
        if min(f1, f2) < 0.05 * w1 * w2:
            return None
        return c

    return st.builds(
        build,
        st.floats(0.5, 2.0),
        st.floats(0.5, 2.0),
        st.floats(0.0, 1.0),
        st.floats(-1.0, 1.0),
        st.sampled_from([1, -1]),
    ).filter(lambda c: c is not None)


class TestPolaritonFrequencies:
    def test_uncoupled_oscillators(self):
        upper, lower = polariton_frequencies(couplings(1.4, 0.6, g=0.0, xi=0.7))
        assert upper == pytest.approx(1.4, rel=1e-15)
        assert lower == pytest.approx(0.6, rel=1e-15)

    def test_clean_chiral_resonance(self):
        # sqrt(N) g = 0.1, xi*lam = +1 at resonance: exactly 1.2 and 0.8
        upper, lower = polariton_frequencies(couplings(g=0.1, xi=1.0))
        assert upper == pytest.approx(1.2, abs=1e-12)
        assert lower == pytest.approx(0.8, abs=1e-12)

    def test_achiral_resonance(self):
        upper, lower = polariton_frequencies(couplings(g=0.1, xi=0.0))
        assert upper == pytest.approx(1.0954451150103322, rel=1e-14)
        assert lower == pytest.approx(0.8944271909999159, rel=1e-14)

    def test_mismatched_enantiomer_closes_the_splitting(self):
        upper, lower = polariton_frequencies(couplings(g=0.1, xi=-1.0))
        assert upper == pytest.approx(0.9797958971132712, rel=1e-14)
        assert upper - lower == pytest.approx(0.0, abs=1e-12)

    def test_ensemble_factor_matches_explicit_n(self):
        bulk = polariton_frequencies(couplings(g=0.01, xi=0.4, n=100))
        collapsed = polariton_frequencies(couplings(g=0.1, xi=0.4, n=1))
        assert bulk == collapsed

    def test_instability_reports_value(self):
        # omega_k_bar*omega_m_tilde < 4Ng^2 at xi=0
        with pytest.raises(PolaritonInstabilityError) as err:
            polariton_frequencies(couplings(g=0.6, xi=0.0))
        assert err.value.value < 0

    def test_both_factors_negative_is_unstable(self):
        # both stability factors negative: the frequencies stay real (2.48,
        # 0.40) but H is not bounded below, so there is no polariton basis
        c = couplings(g=0.6, xi=1.5)
        assert max(stability_factors(c)) < 0
        with pytest.raises(PolaritonInstabilityError) as err:
            polariton_frequencies(c)
        assert err.value.value == min(stability_factors(c))
        with pytest.raises(PolaritonInstabilityError):
            solve_polaritons(c)

    def test_zero_factor_is_unstable(self):
        # f1 == 0 exactly: a zero mode, not a polariton basis
        c = DerivedCouplings(1, 1, 0.5, 0, 0.5, 0, 1, 1)
        assert stability_factors(c) == (0.0, 1.0)
        for solver in (polariton_frequencies, solve_polaritons):
            with pytest.raises(PolaritonInstabilityError) as err:
                solver(c)
            assert err.value.value == 0.0

    def test_complex_pair_instability(self):
        # inner radicand negative: strong detuned coupling with xi*lam < -1
        with pytest.raises(PolaritonInstabilityError, match="complex"):
            polariton_frequencies(couplings(1.0, 2.0, g=1.1, xi=-1.8))

    @given(c=stable_couplings_strategy())
    @settings(max_examples=150)
    def test_handedness_symmetry(self, c):
        flipped = dataclasses.replace(
            c, xi_tilde=-c.xi_tilde, xi_bar=-c.xi_bar, handedness=-c.handedness
        )
        up, low = polariton_frequencies(c)
        up_f, low_f = polariton_frequencies(flipped)
        assert abs(up - up_f) <= 1e-12 * up
        assert abs(low - low_f) <= 1e-12 * up

    @given(c=stable_couplings_strategy())
    @settings(max_examples=150)
    def test_ordering_and_positivity(self, c):
        upper, lower = polariton_frequencies(c)
        assert upper >= lower > 0

    def test_splitting_monotonic_in_chirality_at_resonance(self):
        grid = np.linspace(-1.0, 1.0, 41)
        splittings = []
        for xi in grid:
            upper, lower = polariton_frequencies(couplings(g=0.05, xi=float(xi)))
            splittings.append(upper - lower)
        assert all(np.diff(splittings) > 0)
        assert splittings[0] == pytest.approx(0.0, abs=1e-12)

    def test_weak_coupling_slope_matches_perturbation_theory(self):
        # second-order shifts: photon branch g+^2/(w1-w2) - g-^2/(w1+w2)
        w1, w2, p = 1.3, 0.7, 0.4
        step = 1e-4
        up0, low0 = polariton_frequencies(couplings(w1, w2, 0.0, p))
        up1, low1 = polariton_frequencies(couplings(w1, w2, step, p))
        gp_sq, gm_sq = (1 + p) ** 2 * step**2, (1 - p) ** 2 * step**2
        photon_shift = gp_sq / (w1 - w2) - gm_sq / (w1 + w2)
        matter_shift = -gp_sq / (w1 - w2) - gm_sq / (w1 + w2)
        assert up1 - up0 == pytest.approx(photon_shift, rel=1e-4)
        assert low1 - low0 == pytest.approx(matter_shift, rel=1e-4)


class TestHopfieldCoefficients:
    def test_bare_photon(self):
        c = couplings(1.2, 0.7, g=0.0)
        branch = hopfield_coefficients(c, 1.2)
        assert not branch.degenerate
        assert_allclose(branch.vectors[0], [1, 0, 0, 0], atol=1e-14)

    def test_bare_exciton(self):
        c = couplings(1.2, 0.7, g=0.0)
        branch = hopfield_coefficients(c, 0.7)
        assert_allclose(branch.vectors[0], [0, 0, 1, 0], atol=1e-14)

    def test_wrong_frequency_rejected(self):
        c = couplings(g=0.05)
        with pytest.raises(ValueError, match="not a polariton frequency"):
            hopfield_coefficients(c, 0.5)

    def test_equal_mixing_near_rwa(self):
        c = couplings(g=0.01, xi=0.0)
        sol = solve_polaritons(c)
        for fraction in (sol.photon_fraction_plus, sol.photon_fraction_minus):
            assert fraction == pytest.approx(0.5, abs=1e-3)

    def test_decoupling_sweep_purifies_branches(self):
        # near resonance the branches migrate from hybridized at xi*lam = 0
        # to bare light/matter as xi*lam -> -1 (the avoided crossing closes);
        # exactly on resonance the mixing stays 50/50 until the degenerate
        # endpoint, so probe the transition a hair off resonance
        purities = []
        for xi in (0.0, -0.9, -0.99, -0.999):
            sol = solve_polaritons(couplings(1.002, 1.0, g=0.05, xi=xi))
            purities.append(
                max(sol.photon_fraction_plus, sol.photon_fraction_minus)
            )
        assert purities[0] < 0.6
        assert all(np.diff(purities) > 0)
        assert purities[-1] > 0.99
        assert min(
            solve_polaritons(couplings(1.002, 1.0, g=0.05, xi=-0.999)).photon_fraction_plus,
            solve_polaritons(couplings(1.002, 1.0, g=0.05, xi=-0.999)).photon_fraction_minus,
        ) < 0.01

    @given(c=stable_couplings_strategy())
    @settings(max_examples=100, deadline=None)
    def test_normalization_and_residual(self, c):
        sol = solve_polaritons(c)
        for vec, omega in (
            (sol.coeffs_plus, sol.omega_plus),
            (sol.coeffs_minus, sol.omega_minus),
        ):
            norm = float(np.real(vec.conj() @ SYMPLECTIC_METRIC @ vec))
            assert norm == pytest.approx(1.0, abs=1e-10)
            residual = np.linalg.norm(dynamical_matrix(c, omega) @ vec)
            assert residual <= 1e-8 * max(c.omega_k_bar, c.omega_m_tilde, 1.0)

    @given(c=stable_couplings_strategy())
    @settings(max_examples=100, deadline=None)
    def test_fraction_sum_and_handedness_symmetry(self, c):
        sol = solve_polaritons(c)
        assert sol.photon_fraction_plus + sol.matter_fraction_plus == pytest.approx(
            1.0, abs=1e-10
        )
        assert sol.photon_fraction_minus + sol.matter_fraction_minus == pytest.approx(
            1.0, abs=1e-10
        )
        flipped = solve_polaritons(
            dataclasses.replace(
                c, xi_tilde=-c.xi_tilde, xi_bar=-c.xi_bar, handedness=-c.handedness
            )
        )
        if not sol.degenerate:
            assert_allclose(
                np.abs(flipped.coeffs_plus), np.abs(sol.coeffs_plus), atol=1e-12
            )
            assert_allclose(
                np.abs(flipped.coeffs_minus), np.abs(sol.coeffs_minus), atol=1e-12
            )

    def test_degenerate_pair_is_orthogonal_and_flagged(self):
        c = couplings(g=0.1, xi=-1.0)
        upper, _ = polariton_frequencies(c)
        branch = hopfield_coefficients(c, upper)
        assert branch.degenerate
        v1, v2 = branch.vectors
        cross = v1.conj() @ SYMPLECTIC_METRIC @ v2
        assert abs(cross) < 1e-10
        for vec in (v1, v2):
            norm = float(np.real(vec.conj() @ SYMPLECTIC_METRIC @ vec))
            assert norm == pytest.approx(1.0, abs=1e-10)
        sol = solve_polaritons(c)
        assert sol.degenerate
        pair = np.array([sol.coeffs_plus, sol.coeffs_minus])
        gram = pair.conj() @ SYMPLECTIC_METRIC @ pair.T
        assert_allclose(gram, np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("softness", [10.0**-k for k in range(1, 7)])
    def test_soft_mode_normalization(self, softness):
        # f1 = omega_k_bar*omega_m_tilde*softness: the lower branch softens
        # as sqrt(softness) while the measured norm stays exact
        rng = np.random.default_rng(2209)
        for _ in range(300):
            w_photon, w_matter = rng.uniform(0.5, 2.0, 2)
            g = np.sqrt(w_photon * w_matter * (1.0 - softness) / 4.0)
            c = couplings(w_photon, w_matter, g, rng.uniform(-1.0, 1.0))
            assert stability_factors(c)[0] == pytest.approx(
                softness * w_photon * w_matter, rel=1e-6
            )
            sol = solve_polaritons(c)
            for vec, omega in (
                (sol.coeffs_plus, sol.omega_plus),
                (sol.coeffs_minus, sol.omega_minus),
            ):
                norm = float(np.real(vec.conj() @ SYMPLECTIC_METRIC @ vec))
                assert abs(norm - 1.0) <= 5e-13
                # Omega + max(w) is the largest entry of K(Omega)
                residual = np.linalg.norm(dynamical_matrix(c, omega) @ vec)
                scale = omega + max(c.omega_k_bar, c.omega_m_tilde)
                assert residual <= 1e-8 * scale * np.linalg.norm(vec)

    def test_soft_mode_fractions_match_40_digit_reference(self):
        # fractions from an independent 40-digit eigensolution of -K(0),
        # whose eigenvalues are +-Omega; f1/(wk wm) from 1e-1 down to 1e-6
        rng = np.random.default_rng(2209)
        j = mpmath.mpc(0, 1)
        for softness in np.repeat(10.0 ** -np.arange(1, 7), 10):
            w_photon, w_matter = rng.uniform(0.5, 2.0, 2)
            g = np.sqrt(w_photon * w_matter * (1.0 - softness) / 4.0)
            c = couplings(w_photon, w_matter, g, rng.uniform(-1.0, 1.0))
            sol = solve_polaritons(c)
            with mpmath.workdps(40):
                w1, w2, p = map(mpmath.mpf, (w_photon, w_matter, c.xi_tilde))
                gp, gm = (1 + p) * mpmath.mpf(g), (1 - p) * mpmath.mpf(g)
                values, vectors = mpmath.eig(
                    mpmath.matrix(
                        [
                            [w1, 0, -j * gp, j * gm],
                            [0, -w1, j * gm, -j * gp],
                            [j * gp, j * gm, w2, 0],
                            [j * gm, j * gp, 0, -w2],
                        ]
                    )
                )
                order = sorted(range(4), key=lambda i: -mpmath.re(values[i]))
                for branch, index in zip(("plus", "minus"), order[:2]):
                    weights = [abs(vectors[k, index]) ** 2 for k in range(4)]
                    norm = weights[0] - weights[1] + weights[2] - weights[3]
                    photon = getattr(sol, f"photon_fraction_{branch}")
                    matter = getattr(sol, f"matter_fraction_{branch}")
                    assert abs(photon - (weights[0] - weights[1]) / norm) <= 2e-14
                    assert abs(matter - (weights[2] - weights[3]) / norm) <= 2e-14

    def test_phase_convention(self):
        sol = solve_polaritons(couplings(g=0.08, xi=0.3))
        for vec in (sol.coeffs_plus, sol.coeffs_minus):
            lead = vec[np.flatnonzero(np.abs(vec) > 1e-10)[0]]
            assert lead.imag == pytest.approx(0.0, abs=1e-14)
            assert lead.real > 0


def make_system(xi=3.712e-5, mu=2.0, omega_m=0.1, eta=1e-3, lam=1):
    emitter = Emitter.collinear(omega_m=omega_m, mu=[mu, 0, 0], xi=xi)
    mode = CavityMode(
        handedness=lam, omega_k=omega_m, eta=eta, k_z=omega_m / 137.035999, z=0.0
    )
    return emitter, mode


class TestDiscrimination:
    def test_achiral_emitter_shows_nothing(self):
        emitter, mode = make_system(xi=0.0)
        result = discrimination(emitter, mode, 50)
        assert result == (0.0, 0.0, 0.0)

    def test_cavity_handedness_flip_negates_deltas(self):
        emitter, mode_left = make_system(xi=1e-3)
        mode_right = dataclasses.replace(mode_left, handedness=-1)
        left = discrimination(emitter, mode_left, 200)
        right = discrimination(emitter, mode_right, 200)
        assert_allclose(
            np.array(right), -np.array(left), rtol=1e-10, atol=1e-300
        )

    def test_weak_coupling_discrimination_linear_in_n(self):
        emitter, mode = make_system(xi=1e-4)
        small = discrimination(emitter, mode, 10)
        large = discrimination(emitter, mode, 40)
        assert large.delta_e_vac / small.delta_e_vac == pytest.approx(4.0, rel=0.05)

    def test_vacuum_energy_accessor(self):
        sol = solve_polaritons(couplings(g=0.1, xi=1.0))
        assert sol.e_vac == pytest.approx((1.2 + 0.8) / 2, abs=1e-12)


class TestLocalSelfPolarization:
    def test_single_emitter_is_identical_to_full_model(self):
        emitter, mode = make_system(xi=0.5, mu=1.0)
        local = polariton_frequencies_local_selfpol(emitter, mode, 1)
        full = polariton_frequencies(derive_couplings(emitter, mode, 1))
        assert local == full

    def test_weak_coupling_agreement_with_full_model(self):
        emitter, mode = make_system(xi=0.3)
        for n in (2, 8, 32):
            local = polariton_frequencies_local_selfpol(emitter, mode, n)
            full = polariton_frequencies(derive_couplings(emitter, mode, n))
            assert local[0] == pytest.approx(full[0], rel=1e-2)
            assert local[1] == pytest.approx(full[1], rel=1e-2)

    def test_large_n_instability_names_n(self):
        emitter, mode = make_system()
        with pytest.raises(PolaritonInstabilityError, match="N=1048576"):
            polariton_frequencies_local_selfpol(emitter, mode, 2**20)

    def test_critical_n_found_while_full_model_survives(self):
        emitter, mode = make_system()
        grid = [2**k for k in range(21)]
        critical = find_critical_n(emitter, mode, grid)
        assert critical is not None
        # expected onset: 4 N g^2 = wk * wm_local -> N ~ wm^2/(2 eta^2 mu^2 wm)
        assert 2**13 < critical <= 2**14
        for n in grid:
            polariton_frequencies(derive_couplings(emitter, mode, n))
