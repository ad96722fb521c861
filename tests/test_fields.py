import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chiralpol.fields import (
    CavityMode,
    polarization_gradient,
    standing_wave_polarization,
)
from reference_forms import standing_wave_polarization_oblique


def make_mode(lam=1, omega=1.0, eta=0.001, k_z=1.0, z=0.0):
    return CavityMode(handedness=lam, omega_k=omega, eta=eta, k_z=k_z, z=z)


finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


class TestVerticalPolarization:
    def test_at_origin(self):
        assert_allclose(standing_wave_polarization(make_mode(lam=1)), [1.0, 0.0, 0.0])

    def test_quarter_wave_left(self):
        mode = make_mode(lam=1, k_z=1.0, z=np.pi / 2)
        assert_allclose(
            standing_wave_polarization(mode), [0.0, -1.0, 0.0], atol=1e-15
        )

    def test_quarter_wave_right_flips_sign(self):
        mode = make_mode(lam=-1, k_z=1.0, z=np.pi / 2)
        assert_allclose(standing_wave_polarization(mode), [0.0, 1.0, 0.0], atol=1e-15)

    @given(k_z=st.floats(0.01, 20.0), z=finite, lam=st.sampled_from([1, -1]))
    def test_unit_norm_everywhere(self, k_z, z, lam):
        eps = standing_wave_polarization(make_mode(lam=lam, k_z=k_z, z=z))
        assert np.linalg.norm(eps) == pytest.approx(1.0, abs=1e-14)

    @given(k_z=st.floats(0.1, 5.0), z=st.floats(-5.0, 5.0), lam=st.sampled_from([1, -1]))
    @settings(max_examples=50)
    def test_curl_identity(self, k_z, z, lam):
        # curl eps = lambda k eps for the z-dependent field, by central differences
        step = 1e-6

        def eps_at(zz):
            return standing_wave_polarization(make_mode(lam=lam, k_z=k_z, z=zz))

        d_eps = (eps_at(z + step) - eps_at(z - step)) / (2 * step)
        curl = np.array([-d_eps[1], d_eps[0], 0.0])
        assert_allclose(curl, lam * k_z * eps_at(z), atol=1e-6 * max(1.0, k_z**2))

    def test_handedness_overlap_vanishes_over_a_period(self):
        from scipy.integrate import quad

        k_z = 1.3

        def overlap(z):
            left = standing_wave_polarization(make_mode(lam=1, k_z=k_z, z=z))
            right = standing_wave_polarization(make_mode(lam=-1, k_z=k_z, z=z))
            return float(left @ right)

        value, _ = quad(overlap, 0.0, 2 * np.pi / k_z)
        assert abs(value) < 1e-10
        # pointwise the two handednesses are generally NOT orthogonal
        assert abs(overlap(0.3)) > 1e-3


class TestObliquePolarization:
    def test_reduces_to_vertical_at_zero_angle(self):
        mode = make_mode(k_z=2.0, z=0.7)
        assert_allclose(
            standing_wave_polarization_oblique(mode, 0.0),
            standing_wave_polarization(mode).astype(complex),
        )

    def test_continuous_in_angle(self):
        mode = make_mode(k_z=2.0, z=0.7)
        assert_allclose(
            standing_wave_polarization_oblique(mode, 1e-9),
            standing_wave_polarization(mode).astype(complex),
            atol=1e-8,
        )

    def test_half_pi_quarter_wave(self):
        # theta=pi/6, k_z z = pi/2: (cos(pi/6) cos(pi/2), -1, -i/2)
        mode = make_mode(lam=1, k_z=1.0, z=np.pi / 2)
        assert_allclose(
            standing_wave_polarization_oblique(mode, np.pi / 6),
            [0.0, -1.0, -0.5j],
            atol=1e-15,
        )

    def test_grazing_limit_kills_field(self):
        # theta -> pi/2 at fixed total wavenumber: k_z = k cos(theta) -> 0 and
        # the polarization vector vanishes componentwise
        k_total = 1.0
        theta = np.pi / 2 - 1e-7
        mode = make_mode(k_z=k_total * np.cos(theta), z=1.3)
        vec = standing_wave_polarization_oblique(mode, theta)
        assert np.max(np.abs(vec)) < 1e-6

    def test_in_plane_phase(self):
        mode = make_mode(k_z=1.0, z=0.5)
        k_x = np.tan(0.4)
        at_x = standing_wave_polarization_oblique(mode, 0.4, x=2.0)
        at_origin = standing_wave_polarization_oblique(mode, 0.4, x=0.0)
        assert_allclose(at_x, at_origin * np.exp(1j * k_x * 2.0))


class TestPolarizationGradient:
    def test_origin(self):
        grad = polarization_gradient(make_mode(lam=1, k_z=2.0, z=0.0))
        expected = np.zeros((3, 3))
        expected[2, 1] = -2.0
        assert_allclose(grad, expected)

    @given(z=finite, k_z=st.floats(0.01, 10.0), lam=st.sampled_from([1, -1]))
    def test_frobenius_norm_is_k_z(self, z, k_z, lam):
        grad = polarization_gradient(make_mode(lam=lam, k_z=k_z, z=z))
        assert np.linalg.norm(grad) == pytest.approx(k_z, rel=1e-12)

    def test_quarter_wave_right_handed(self):
        mode = make_mode(lam=-1, k_z=3.0, z=np.pi / 6)  # k_z z = pi/2
        grad = polarization_gradient(mode)
        expected = np.zeros((3, 3))
        expected[2, 0] = -3.0
        assert_allclose(grad, expected, atol=1e-14)

    @given(z=st.floats(-5.0, 5.0), k_z=st.floats(0.1, 5.0), lam=st.sampled_from([1, -1]))
    @settings(max_examples=50)
    def test_matches_central_difference(self, z, k_z, lam):
        step = 1e-6

        def eps_at(zz):
            return standing_wave_polarization(make_mode(lam=lam, k_z=k_z, z=zz))

        numeric = (eps_at(z + step) - eps_at(z - step)) / (2 * step)
        grad = polarization_gradient(make_mode(lam=lam, k_z=k_z, z=z))
        assert_allclose(grad[2], numeric, atol=1e-6 * max(1.0, k_z**2))
        assert_allclose(grad[:2], 0.0)


class TestCavityMode:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(lam=2),
            dict(omega=-1.0),
            dict(omega=0.0),
            dict(eta=-0.1),
            dict(omega=np.nan),
            dict(eta=np.nan),
            dict(omega=np.array([1.0, 0.0])),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_mode(**kwargs)
