"""Classical mode functions of a single-handedness chiral standing wave.

Atomic units throughout (hbar = 1). The fundamental coupling
eta = sqrt(1/eps0*V) is a single primitive input, so eps0 and the mode
volume never appear separately. CavityMode is the vertical standing wave;
the speed of light enters only through omega = c*|k|, which the in-plane
dispersion scan applies per k_par, and every coupled-model formula
downstream is c-free.
"""

from dataclasses import dataclass

import numpy as np

# a.u.; used only for omega = c*|k|: the in-plane dispersion and the scans' k_z
SPEED_OF_LIGHT_AU = 137.035999


@dataclass(frozen=True)
class CavityMode:
    """Single-handedness vertical standing-wave mode of a chiral cavity.

    handedness : helicity eigenvalue, +1 (LH) or -1 (RH)
    omega_k    : photon frequency (a.u.); an array makes a batch of modes
                 that differ only in frequency
    eta        : fundamental coupling sqrt(1/eps0*V) (a.u.)
    k_z        : vertical wavenumber component (a.u.); equals omega_k/c for
                 the vertical vacuum mode, but is kept as an independent
                 input so the coupled-model formulas never reference c
    z          : emitter height inside the cavity (a.u.); free parameter,
                 the mirror placement is not modelled
    """

    handedness: int
    omega_k: float
    eta: float
    k_z: float
    z: float = 0.0

    def __post_init__(self):
        if self.handedness not in (+1, -1):
            raise ValueError(f"handedness must be +1 or -1, got {self.handedness}")
        if not np.all(np.greater(self.omega_k, 0.0)):
            raise ValueError(f"omega_k must be positive, got {self.omega_k}")
        if not self.eta >= 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")


def standing_wave_polarization(mode: CavityMode) -> np.ndarray:
    """Polarization vector (cos(k_z z), -lambda sin(k_z z), 0) of the vertical mode.

    Real unit vector for every z.
    """
    arg = mode.k_z * mode.z
    return np.array([np.cos(arg), -mode.handedness * np.sin(arg), 0.0])


def polarization_gradient(mode: CavityMode) -> np.ndarray:
    """Gradient d_a eps_b of the vertical polarization as a 3x3 matrix.

    Row index a, column index b; only the a=z row is nonzero:
    k_z * (-sin(k_z z), -lambda cos(k_z z), 0). Returned as the full matrix
    so the quadrupole contraction Q_ab d_a eps_b lives with the emitter
    couplings, not here.
    """
    arg = mode.k_z * mode.z
    grad = np.zeros((3, 3))
    grad[2, 0] = -mode.k_z * np.sin(arg)
    grad[2, 1] = -mode.handedness * mode.k_z * np.cos(arg)
    return grad

