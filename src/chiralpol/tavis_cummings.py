"""Chiral Tavis-Cummings solver in the single-excitation subspace.

The model keeps the rotating-wave approximation and drops self-polarization
by construction; the Hopfield solver is the place where those terms live.
Energies are excitation energies relative to the vacuum (the photon
zero-point omega_k_bar/2 is dropped), so the N-1 dark states sit exactly at
the bare matter frequency.
"""

import math
from dataclasses import dataclass

import numpy as np

from .couplings import DerivedCouplings
from .emitters import Emitter, chiral_tdm_vector
from .fields import CavityMode, oblique_mode, standing_wave_polarization_oblique
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


def _bright_doublet(omega_m: float, omega_cavity: float, coupling: float):
    if coupling == 0.0:  # decoupled: exact bare energies, no roundoff
        return max(omega_m, omega_cavity), min(omega_m, omega_cavity)
    mean = 0.5 * (omega_m + omega_cavity)
    detuning = omega_m - omega_cavity
    split = np.sqrt(0.25 * detuning * detuning + coupling * coupling)
    return float(mean + split), float(mean - split)


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
        polariton_upper=upper,
        polariton_lower=lower,
        dark_energy=float(omega_m),
        dark_count=n_emitters - 1,
        effective_coupling=float(coupling),
    )


def dispersion_scan(
    emitter: Emitter, mode: CavityMode, k_par_list, n_emitters: int
) -> ScanTable:
    """Bright-sector polaritons along the in-plane dispersion omega = c|k|.

    A regular in-plane emitter lattice makes the momentum sectors block
    diagonal, so each k_par is an independent 2x2 problem with coupling
    sqrt(N) * eta * sqrt(omega/2) * |eps(z, x=0) . (1 + lambda xi) mu| using
    the oblique polarization at the emitter plane. The chiral factor
    (1 + lambda xi) is k_par-independent. Quadrupole and self-correction
    terms are dropped by the model's construction, and eta is held fixed per
    mode (no volume rescaling with the number of retained sectors). The
    k_par = 0 row reproduces the vertical-mode single-excitation spectrum
    for Q = 0, chi_m = 0 emitters.
    """
    lam = mode.handedness
    combined = emitter.mu + lam * chiral_tdm_vector(emitter)
    rows = []
    for k_par in k_par_list:
        row_mode = oblique_mode(mode, float(k_par))
        eps = standing_wave_polarization_oblique(row_mode, x=0.0)
        # Python floats: an overflow gives inf, which ScanTable rejects, not a warning
        coupling = math.sqrt(n_emitters) * mode.eta * math.sqrt(row_mode.omega_k / 2.0)
        coupling *= float(abs(np.sum(eps * combined)))
        upper, lower = _bright_doublet(emitter.omega_m, row_mode.omega_k, coupling)
        rows.append((float(k_par), row_mode.omega_k, coupling, upper, lower))
    return ScanTable(
        column_names=(
            "k_par",
            "omega_mode",
            "effective_coupling",
            "polariton_upper",
            "polariton_lower",
        ),
        rows=tuple(rows),
        metadata=(),
    )
