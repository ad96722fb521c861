"""Faithful dense forms of the model, which the package solves in cheaper
ones, kept here as the references its solvers are tested against: the
complex Hermitian Fock Hamiltonian (the oracle solves real banded parity
sectors), the 4x4 equation-of-motion matrix (the Hopfield solver uses two
real 2x2 blocks) and the complex oblique polarization (the dispersion scan
contracts it in real arithmetic)."""

import numpy as np

from chiralpol.couplings import DerivedCouplings
from chiralpol.fields import CavityMode
from chiralpol.fock_oracle import FockConfig


def _destroy(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1)


def build_fock_hamiltonian(c: DerivedCouplings, config: FockConfig) -> np.ndarray:
    """Two-mode Hamiltonian in the basis |n_photon, n_matter>, row-major
    (index = n_photon*(cutoff+1) + n_matter), dimension (cutoff+1)^2.

    H = wk(a'a + 1/2) + wm(B'B + 1/2)
        - i sqrt(N) g [(B' + B)(a - a') + xi lam (B' - B)(a + a')]
    with dressed frequencies; Hermitian by construction.
    """
    dim = config.fock_cutoff + 1
    single = np.eye(dim)
    a = np.kron(_destroy(dim), single)
    b = np.kron(single, _destroy(dim))
    ad, bd = a.T.copy(), b.T.copy()
    ident = np.eye(dim * dim)

    g_root = np.sqrt(c.n_emitters) * c.g_tilde
    p = c.xi_tilde * c.handedness
    h0 = c.omega_k_bar * (ad @ a + 0.5 * ident) + c.omega_m_tilde * (
        bd @ b + 0.5 * ident
    )
    coupling = (bd + b) @ (a - ad) + p * (bd - b) @ (a + ad)
    return h0.astype(complex) - 1j * g_root * coupling


def dynamical_matrix(c: DerivedCouplings, omega: float) -> np.ndarray:
    """4x4 system K(Omega) whose null vector holds the (x, y, z, u) coefficients.

    Equals the determinant matrix of the eigenvalue condition evaluated at
    -Omega, matching the annihilation convention [P, H] = Omega P.
    """
    w1, w2 = c.omega_k_bar, c.omega_m_tilde
    g_root = np.sqrt(c.n_emitters) * c.g_tilde
    p = c.xi_tilde * c.handedness
    gp, gm = (1.0 + p) * g_root, (1.0 - p) * g_root
    return np.array(
        [
            [omega - w1, 0.0, 1j * gp, -1j * gm],
            [0.0, omega + w1, -1j * gm, 1j * gp],
            [-1j * gp, -1j * gm, omega - w2, 0.0],
            [-1j * gm, -1j * gp, 0.0, omega + w2],
        ],
        dtype=complex,
    )


def standing_wave_polarization_oblique(
    mode: CavityMode, theta: float, x: float = 0.0
) -> np.ndarray:
    """Complex polarization of a standing wave with in-plane momentum, at
    incidence angle theta and the vertical wavenumber, handedness and z of mode.

    Returns (cos(theta) cos(k_z z), -lambda sin(k_z z), -i sin(theta) sin(k_z z))
    times the in-plane phase exp(i k_x x), with k_x = k_z tan(theta).
    Reduces to standing_wave_polarization at theta = 0.
    """
    lam = mode.handedness
    arg = mode.k_z * mode.z
    k_x = mode.k_z * np.tan(theta)
    vec = np.array(
        [
            np.cos(theta) * np.cos(arg),
            -lam * np.sin(arg),
            -1j * np.sin(theta) * np.sin(arg),
        ],
        dtype=complex,
    )
    return vec * np.exp(1j * k_x * x)
