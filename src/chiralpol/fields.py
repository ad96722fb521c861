"""Classical mode functions of a single-handedness chiral standing wave.

Atomic units throughout (hbar = 1). The fundamental coupling
eta = sqrt(1/eps0*V) is a single primitive input, so eps0 and the mode
volume never appear separately. The speed of light enters only through
the dispersion omega = c*|k| when oblique modes are constructed; every
coupled-model formula downstream is c-free.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

# a.u.; used only for the dispersion omega(k_par) = c*|k| of oblique modes
SPEED_OF_LIGHT_AU = 137.035999


@dataclass(frozen=True)
class CavityMode:
    """Single-handedness standing-wave mode of a chiral cavity.

    handedness : helicity eigenvalue, +1 (LH) or -1 (RH)
    omega_k    : photon frequency (a.u.); an array makes a batch of modes
                 that differ only in frequency (and in theta_inc, see
                 oblique_mode)
    eta        : fundamental coupling sqrt(1/eps0*V) (a.u.)
    k_z        : vertical wavenumber component (a.u.); equals omega_k/c for
                 the vertical vacuum mode, but is kept as an independent
                 input so the coupled-model formulas never reference c
    z          : emitter height inside the cavity (a.u.); free parameter,
                 the mirror placement is not modelled
    theta_inc  : incidence angle of the two circulating waves (rad);
                 0 for the vertical standing wave
    """

    handedness: int
    omega_k: float
    eta: float
    k_z: float
    z: float = 0.0
    theta_inc: float = 0.0

    def __post_init__(self):
        if self.handedness not in (+1, -1):
            raise ValueError(f"handedness must be +1 or -1, got {self.handedness}")
        if not np.all(np.greater(self.omega_k, 0.0)):
            raise ValueError(f"omega_k must be positive, got {self.omega_k}")
        if not self.eta >= 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        theta = np.ravel(self.theta_inc)
        outside = theta[~((0.0 <= theta) & (theta < np.pi / 2))]
        if outside.size:
            raise ValueError(f"theta_inc must lie in [0, pi/2), got {float(outside[0])!r}")


def standing_wave_polarization(mode: CavityMode) -> np.ndarray:
    """Polarization vector (cos(k_z z), -lambda sin(k_z z), 0) of the vertical mode.

    Real unit vector for every z.
    """
    if mode.theta_inc != 0.0:
        raise ValueError("mode is oblique (theta_inc != 0); this holds for the vertical mode only")
    arg = mode.k_z * mode.z
    return np.array([np.cos(arg), -mode.handedness * np.sin(arg), 0.0])


def polarization_gradient(mode: CavityMode) -> np.ndarray:
    """Gradient d_a eps_b of the vertical polarization as a 3x3 matrix.

    Row index a, column index b; only the a=z row is nonzero:
    k_z * (-sin(k_z z), -lambda cos(k_z z), 0). Returned as the full matrix
    so the quadrupole contraction Q_ab d_a eps_b lives with the emitter
    couplings, not here.
    """
    if mode.theta_inc != 0.0:
        raise ValueError("mode is oblique (theta_inc != 0); this holds for the vertical mode only")
    arg = mode.k_z * mode.z
    grad = np.zeros((3, 3))
    grad[2, 0] = -mode.k_z * np.sin(arg)
    grad[2, 1] = -mode.handedness * mode.k_z * np.cos(arg)
    return grad


def oblique_mode(base: CavityMode, k_par) -> CavityMode:
    """Mode with in-plane momentum k_par on the dispersion omega = c*|k|.

    Keeps the vertical wavenumber, handedness, eta and z of `base`;
    sets omega_k = c*sqrt(k_z^2 + k_par^2) and theta_inc = atan(k_par/k_z).
    An array k_par gives a batch of modes, one per entry.
    """
    if np.any(np.less(k_par, 0)):
        raise ValueError(f"k_par must be nonnegative, got {float(np.min(k_par))!r}")
    k_total = np.hypot(base.k_z, k_par)
    return dataclasses.replace(
        base,
        omega_k=SPEED_OF_LIGHT_AU * k_total,
        theta_inc=np.arctan2(k_par, base.k_z),
    )
