import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import chiralpol.couplings as couplings_module
from chiralpol.couplings import (
    MagneticInstabilityError,
    derive_couplings,
    dressed_matter_frequency,
    dressed_photon_frequency,
)
from chiralpol.emitters import Emitter
from chiralpol.fields import CavityMode, standing_wave_polarization


def make_mode(lam=1, omega=0.1, eta=0.001, k_z=None, z=0.0):
    k_z = omega / 137.035999 if k_z is None else k_z
    return CavityMode(handedness=lam, omega_k=omega, eta=eta, k_z=k_z, z=z)


def test_free_fields():
    e = Emitter(omega_m=0.2, mu=[0.0, 0.0, 0.0])
    c = derive_couplings(e, make_mode(omega=0.3), 5)
    assert c.omega_k_bar == 0.3
    assert c.omega_m_tilde == 0.2
    assert c.g_tilde == 0.0 and c.g_bar == 0.0
    assert c.decoupled


def test_frozen_reference_point():
    # eta=1e-3, N=100, omega_m=omega_k=0.1, mu.eps=1, Q=0, chi=0;
    # expected values recomputed with 30-digit arithmetic and frozen
    e = Emitter.collinear(omega_m=0.1, mu=[1.0, 0, 0], xi=0.3)
    c = derive_couplings(e, make_mode(omega=0.1, eta=1e-3), 100)
    assert c.omega_m_tilde == pytest.approx(0.100099950049937587, rel=1e-15)
    assert c.g_tilde == pytest.approx(2.2349513389606127e-4, rel=1e-14)
    # collinear scalar case with Q=0, chi=0: xi_tilde = xi * wt/wm exactly
    assert c.xi_tilde == pytest.approx(0.3 * 1.00099950049937587, rel=1e-14)
    assert c.xi_bar == pytest.approx(0.3, rel=1e-14)
    assert c.g_bar == pytest.approx(1e-3 * np.sqrt(0.1 / 2.0), rel=1e-14)


def test_replace_cannot_carry_a_stale_stability_factor():
    e = Emitter.collinear(omega_m=0.1, mu=[1.0, 0, 0], xi=0.3)
    c = derive_couplings(e, make_mode(), 100)
    with pytest.raises(ValueError, match="f1"):
        dataclasses.replace(c, g_tilde=2 * c.g_tilde)


def test_coupling_formulas_reassembled_from_parts():
    # exact formula check against independently recomputed contractions
    rng = np.random.default_rng(5)
    quad = rng.normal(size=(3, 3))
    quad = (quad + quad.T) / 2
    e = Emitter(omega_m=0.17, mu=[0.8, -0.3, 0.4], quadrupole=quad, xi_scale=0.45)
    mode = make_mode(omega=0.21, eta=2e-3, k_z=0.013, z=0.9)
    n = 37
    c = derive_couplings(e, mode, n)

    eps = standing_wave_polarization(mode)
    step = 1e-6
    grad_fd = np.zeros((3, 3))
    for b in range(3):
        up = standing_wave_polarization(
            CavityMode(1, 0.21, 2e-3, 0.013, 0.9 + step)
        )[b]
        down = standing_wave_polarization(
            CavityMode(1, 0.21, 2e-3, 0.013, 0.9 - step)
        )[b]
        grad_fd[2, b] = (up - down) / (2 * step)
    electric = float(e.mu @ eps) + float(np.sum(quad * grad_fd))
    wt = np.sqrt(0.17**2 + 2 * n * 0.17 * (2e-3) ** 2 * float(e.mu @ eps) ** 2)

    assert c.omega_m_tilde == pytest.approx(wt, rel=1e-13)
    assert c.g_tilde == pytest.approx(
        2e-3 * np.sqrt(0.21 * 0.17 / (2 * wt)) * electric, rel=1e-7
    )
    assert c.xi_tilde == pytest.approx(
        (wt * 0.21) / (0.17 * 0.21) * 0.45 * float(e.mu @ eps) / electric, rel=1e-7
    )
    assert c.g_bar == pytest.approx(2e-3 * np.sqrt(0.21 / 2) * electric, rel=1e-7)
    assert c.xi_bar == pytest.approx(0.45 * float(e.mu @ eps) / electric, rel=1e-7)


def test_g_bar_linear_in_eta_without_self_magnetization():
    e = Emitter.collinear(omega_m=0.1, mu=[1.0, 0, 0], xi=0.1)
    small = derive_couplings(e, make_mode(eta=1e-4), 10)
    large = derive_couplings(e, make_mode(eta=3e-4), 10)
    assert large.g_bar == pytest.approx(3.0 * small.g_bar, rel=1e-14)
    # xi factors follow the exact formula, not approximate eta-constancy
    assert small.xi_bar == large.xi_bar
    assert small.xi_tilde == pytest.approx(
        0.1 * small.omega_m_tilde / 0.1, rel=1e-14
    )
    assert large.xi_tilde == pytest.approx(
        0.1 * large.omega_m_tilde / 0.1, rel=1e-14
    )


@given(
    n=st.integers(1, 10**6),
    eta=st.floats(0.0, 0.01),
    mu_x=st.floats(-3, 3),
    omega_m=st.floats(0.01, 2.0),
)
@settings(max_examples=100)
def test_matter_dressing_only_blueshifts(n, eta, mu_x, omega_m):
    e = Emitter(omega_m=omega_m, mu=[mu_x, 0.2, 0])
    assert dressed_matter_frequency(e, make_mode(eta=eta), n) >= omega_m


def test_local_dressing_drops_the_ensemble_factor():
    e = Emitter(omega_m=0.1, mu=[1.0, 0, 0])
    mode = make_mode()
    local = dressed_matter_frequency(e, mode, 1000, collective=False)
    single = dressed_matter_frequency(e, mode, 1, collective=True)
    assert local == single
    assert dressed_matter_frequency(e, mode, 1000) > local


class TestDressedPhotonFrequency:
    def test_no_self_magnetization(self):
        assert dressed_photon_frequency(np.zeros((3, 3)), make_mode(omega=0.4), 50) == 0.4

    def test_physical_magnitude_shift_is_tiny(self):
        # chi_m = mu^2 * identity at figure-like parameters: relative shift
        # far below 1e-3 (the k_z^2 = (omega/c)^2 factor suppresses it)
        mode = make_mode(omega=0.1, eta=1e-3)
        chi = 4.0 * np.eye(3)  # mu^2 with |mu| = 2
        shifted = dressed_photon_frequency(chi, mode, 100)
        assert abs(shifted - 0.1) / 0.1 < 1e-3

    def test_compensated_shift_visible_but_bounded(self):
        # scaling chi_m by c^2 undoes the wavenumber suppression
        mode = make_mode(omega=0.1, eta=1e-3)
        chi = 4.0 * 137.035999**2 * np.eye(3)
        shifted = dressed_photon_frequency(chi, mode, 100)
        relative = (shifted - 0.1) / 0.1
        assert 1e-6 < relative < 0.05

    def test_magnetic_instability_carries_value(self):
        mode = make_mode(omega=0.1, eta=1e-3)
        chi = -1e12 * np.eye(3)
        with pytest.raises(MagneticInstabilityError) as err:
            dressed_photon_frequency(chi, mode, 100)
        assert err.value.value < 0

    def test_asymmetric_tensor_rejected(self):
        chi = np.zeros((3, 3))
        chi[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            dressed_photon_frequency(chi, make_mode(), 1)


def test_perpendicular_dipole_is_decoupled_not_an_error():
    # mu orthogonal to the polarization at z=0 and no quadrupole
    e = Emitter.collinear(omega_m=0.1, mu=[0.0, 0, 1.5], xi=0.8)
    c = derive_couplings(e, make_mode(), 20)
    assert c.decoupled
    assert c.g_tilde == 0.0 and c.xi_tilde == 0.0


def test_selfpol_argument_validated():
    e = Emitter(omega_m=0.1, mu=[1, 0, 0])
    with pytest.raises(ValueError, match="selfpol"):
        derive_couplings(e, make_mode(), 2, selfpol="bogus")


def test_module_is_c_free():
    source = inspect.getsource(couplings_module)
    assert "SPEED_OF_LIGHT" not in source
    assert "137.03" not in source
