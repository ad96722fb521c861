"""Chiral Tavis-Cummings solver in the single-excitation subspace.

The model keeps the rotating-wave approximation and drops self-polarization
by construction; the Hopfield solver is the place where those terms live.
Energies are excitation energies relative to the vacuum (the photon
zero-point omega_k_bar/2 is dropped), so the N-1 dark states sit exactly at
the bare matter frequency.
"""

from dataclasses import dataclass

import numpy as np

from .couplings import DerivedCouplings, elementwise
from .emitters import Emitter, chiral_tdm_vector, require_one_xi
from .fields import SPEED_OF_LIGHT_AU, CavityMode
from .scantable import ScanTable


@dataclass(frozen=True)
class TCSpectrum:
    """Single-excitation spectrum: two bright polaritons plus N-1 dark states."""

    polariton_upper: float
    polariton_lower: float
    dark_energy: float
    dark_count: int
    effective_coupling: float

    def __post_init__(self):
        if self.polariton_upper < self.polariton_lower:
            raise ValueError("polariton_upper must be >= polariton_lower")


def _bright_doublet(omega_m, omega_cavity, coupling):
    """Eigenvalues (upper, lower) of [[omega_m, G], [G, omega_cavity]], entry by
    entry; a decoupled entry (G = 0) is exactly the bare pair, with no roundoff
    and no overflow from the formula it does not use."""
    decoupled = np.equal(coupling, 0.0)
    w_m, w_c = (np.where(decoupled, 0.0, w) for w in (omega_m, omega_cavity))
    mean = 0.5 * (w_m + w_c)
    detuning = w_m - w_c
    split = np.sqrt(0.25 * detuning * detuning + coupling * coupling)
    upper = np.where(decoupled, np.maximum(omega_m, omega_cavity), mean + split)
    lower = np.where(decoupled, np.minimum(omega_m, omega_cavity), mean - split)
    return upper, lower


def single_excitation_spectrum(
    c: DerivedCouplings, omega_m: float, n_emitters: int
) -> TCSpectrum:
    """Eigenvalues of the bright 2x2 block [[omega_m, G], [G, omega_k_bar]]
    with G = sqrt(N) g_bar (1 + xi_bar lambda), plus N-1 dark states at omega_m.

    At xi_bar*lambda = -1 the coupling vanishes exactly and the mismatched
    enantiomer decouples: the spectrum is {omega_m (xN), omega_k_bar}.
    """
    if n_emitters < 1:
        raise ValueError(f"n_emitters must be at least 1, got {n_emitters}")
    coupling = (
        np.sqrt(n_emitters) * c.g_bar * (1.0 + c.xi_bar * c.handedness)
    )
    upper, lower = _bright_doublet(omega_m, c.omega_k_bar, coupling)
    return TCSpectrum(
        polariton_upper=float(upper),
        polariton_lower=float(lower),
        dark_energy=float(omega_m),
        dark_count=n_emitters - 1,
        effective_coupling=float(coupling),
    )


@elementwise
def dispersion_scan(
    emitter: Emitter, mode: CavityMode, k_par_list, n_emitters: int
) -> ScanTable:
    """Bright-sector polaritons along the in-plane dispersion omega = c|k|.

    A regular in-plane emitter lattice makes the momentum sectors block
    diagonal, so each k_par is an independent 2x2 problem with coupling
    sqrt(N) * eta * sqrt(omega/2) * |eps(z, x=0) . (1 + lambda xi) mu| using
    the oblique polarization at the emitter plane: the k_z of `mode` (its
    omega_k is not read), omega = c*sqrt(k_z^2 + k_par^2) and an incidence
    angle atan(k_par/k_z) below pi/2. The chiral factor (1 + lambda xi) is
    k_par-independent. Quadrupole and self-correction terms are dropped by
    the model's construction, and eta is held fixed per mode (no volume
    rescaling with the number of retained sectors). The k_par = 0 row
    reproduces the vertical-mode single-excitation spectrum for Q = 0,
    chi_m = 0 emitters. Takes one emitter (a scalar xi_scale).
    """
    require_one_xi(emitter, "dispersion_scan")
    k_par = np.asarray(k_par_list, dtype=float)
    if not np.all(k_par >= 0):
        raise ValueError(f"k_par must be nonnegative, got {float(np.min(k_par))!r}")
    theta = np.arctan2(k_par, mode.k_z)
    omega = SPEED_OF_LIGHT_AU * np.hypot(mode.k_z, k_par)
    if not np.all(omega > 0):
        raise ValueError(f"c*hypot(k_z, k_par) must be positive, got {float(np.min(omega))!r}")
    if not np.all(theta < np.pi / 2):  # k_z <= 0, or k_par/k_z above ~1e16
        ratio = f"{float(np.max(k_par))!r}/{mode.k_z!r}"
        raise ValueError(f"k_par/k_z = {ratio} puts the incidence angle at pi/2 or above")
    # |eps . (mu + lambda m)| in real arithmetic, with the oblique polarization
    # at x = 0, eps = (cos(theta) cos(a), -lambda sin(a), -i sin(theta) sin(a)), a = k_z z
    arg = mode.k_z * mode.z
    c0, c1, c2 = emitter.mu + mode.handedness * chiral_tdm_vector(emitter)
    contraction = np.hypot(
        np.cos(theta) * np.cos(arg) * c0 - mode.handedness * np.sin(arg) * c1,
        -np.sin(theta) * np.sin(arg) * c2,
    )
    # a NumPy product, so that an overflow raises under the policy
    coupling = np.sqrt(n_emitters) * mode.eta * np.sqrt(omega / 2.0) * contraction
    upper, lower = _bright_doublet(emitter.omega_m, omega, coupling)
    return ScanTable(
        column_names=(
            "k_par",
            "omega_mode",
            "effective_coupling",
            "polariton_upper",
            "polariton_lower",
        ),
        rows=np.stack([k_par, omega, coupling, upper, lower], axis=-1),
        metadata=(),
    )
