"""Dressed frequencies and effective couplings consumed by the analytic solvers,
and orientation averages of the squared coupling.

All formulas here are c-free: the self-magnetization dressing is written in
terms of the mode wavenumber k_z (equal to omega_k/c for a physical vacuum
mode), and the factor c in m = -i c xi mu cancels against the magnetic mode
normalization.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.spatial.transform import Rotation

from .emitters import Emitter, chiral_tdm_vector
from .fields import CavityMode, polarization_gradient, standing_wave_polarization


class InstabilityError(Exception):
    """A dressed frequency or polariton branch turned non-real."""

    def __init__(self, message: str, value: float):
        super().__init__(f"{message} (offending value {value:.6e})")
        self.value = value


class MagneticInstabilityError(InstabilityError):
    """Self-magnetization drove the dressed photon frequency squared negative."""


@dataclass(frozen=True)
class DerivedCouplings:
    """The numbers the polariton eigenvalue formula consumes.

    omega_k_bar   : dressed photon frequency (a.u.)
    omega_m_tilde : self-polarization-dressed matter frequency (a.u.)
    g_tilde       : effective Hopfield coupling (a.u.)
    xi_tilde      : effective Hopfield chirality factor (dimensionless),
                    (omega_m_tilde*omega_k)/(omega_m*omega_k_bar) times the
                    magnetic-to-electric contraction ratio. omega_m_tilde/
                    omega_m is the self-polarization dressing of the matter
                    quadratures: (b+b') -> sqrt(omega_m/omega_m_tilde)(B+B')
                    scales the electric term, (b-b') ->
                    sqrt(omega_m_tilde/omega_m)(B-B') the magnetic one. The
                    mismatched enantiomer decouples and the resonant gap
                    closes at xi_tilde*lambda = -1; for a collinear emitter
                    that is bare
                    xi = -omega_m*omega_k_bar/(omega_m_tilde*omega_k)
    g_bar         : Tavis-Cummings coupling (a.u.)
    xi_bar        : Tavis-Cummings chirality factor (dimensionless)
    n_emitters    : ensemble size N
    handedness    : cavity helicity, +1 or -1
    decoupled     : True when the electric contraction (mu + Q).eps vanishes,
                    in which case g and xi are defined as 0
    f1, f2        : stability factors ww - 4Ng^2, ww - 4Ng^2 xi^2 (ww = wk*wm):
                    cancellation-free from derive_couplings, else (None) the
                    dressed differences, which a given value must match
    """

    omega_k_bar: float
    omega_m_tilde: float
    g_tilde: float
    xi_tilde: float
    g_bar: float
    xi_bar: float
    n_emitters: int
    handedness: int
    decoupled: bool = False
    f1: float | None = None
    f2: float | None = None

    def __post_init__(self):
        if not self.omega_k_bar > 0:
            raise ValueError(f"omega_k_bar must be positive, got {self.omega_k_bar}")
        if not self.omega_m_tilde > 0:
            raise ValueError(
                f"omega_m_tilde must be positive, got {self.omega_m_tilde}"
            )
        if self.handedness not in (+1, -1):
            raise ValueError(f"handedness must be +1 or -1, got {self.handedness}")
        if self.n_emitters < 1:
            raise ValueError(f"n_emitters must be at least 1, got {self.n_emitters}")
        coupling = 4.0 * self.n_emitters * self.g_tilde**2
        product = self.omega_k_bar * self.omega_m_tilde
        tol = 1e-12 * (product + coupling * max(1.0, self.xi_tilde**2))
        for name, xi_sq in (("f1", 1.0), ("f2", self.xi_tilde**2)):
            dressed, given = product - coupling * xi_sq, getattr(self, name)
            if given is None:
                object.__setattr__(self, name, dressed)
            elif np.isfinite(dressed) and not abs(given - dressed) <= tol:
                raise ValueError(f"{name}={given!r} is not the dressed value {dressed!r}")


def dressed_photon_frequency(chi_m, mode: CavityMode, n_emitters: int) -> float:
    """Photon frequency dressed by the parametric self-magnetization.

    omega_k_bar^2 = omega_k^2 + 2 N k_z^2 eta^2 (eps' chi_m eps); raises
    MagneticInstabilityError carrying the chi_m contraction if the square
    turns nonpositive.
    """
    chi = np.asarray(chi_m, dtype=float)
    if chi.shape != (3, 3):
        raise ValueError(f"chi_m must be a 3x3 matrix, got shape {chi.shape}")
    if np.linalg.norm(chi - chi.T) > 1e-12:
        raise ValueError("chi_m must be symmetric")
    eps = standing_wave_polarization(mode)
    contraction = float(eps @ chi @ eps)
    wbar_sq = mode.omega_k**2 + 2.0 * n_emitters * mode.k_z**2 * mode.eta**2 * contraction
    if wbar_sq <= 0.0:
        raise MagneticInstabilityError(
            f"self-magnetization contraction {contraction:.6e} makes "
            "omega_k_bar^2 nonpositive",
            wbar_sq,
        )
    return float(np.sqrt(wbar_sq))


def dressed_matter_frequency(
    emitter: Emitter, mode: CavityMode, n_emitters: int, collective: bool = True
) -> float:
    """Matter frequency dressed by the self-polarization term.

    Collective form omega_m_tilde^2 = omega_m^2 + 2 N omega_m eta^2 (eps.mu)^2.
    With collective=False the factor N is dropped (local self-polarization
    only, the alternative model in which intermolecular contributions are
    assumed to cancel). Always >= omega_m: a sum of squares.
    """
    eps = standing_wave_polarization(mode)
    mu_proj = float(emitter.mu @ eps)
    factor = n_emitters if collective else 1
    wt_sq = emitter.omega_m**2 + 2.0 * factor * emitter.omega_m * mode.eta**2 * mu_proj**2
    if not wt_sq > 0.0:  # a sum of squares unless an input is not finite
        raise ValueError(f"omega_m_tilde^2 must be positive, got {wt_sq}")
    return float(np.sqrt(wt_sq))


def derive_couplings(
    emitter: Emitter,
    mode: CavityMode,
    n_emitters: int,
    selfpol: str = "collective",
) -> DerivedCouplings:
    """Evaluate the dressed frequencies and effective couplings.

    selfpol='collective' uses the N-dressed matter frequency of the full
    model; selfpol='local' drops the factor N (cancelling-intermolecular
    variant, unstable for large N). The quadrupole enters only through the
    scalar contraction Q_ab d_a eps_b, added to mu.eps with the paper's +Q
    sign. A vanishing electric contraction yields g = xi = 0 with the
    decoupled flag instead of an error, so orientation scans do not abort.
    """
    if selfpol not in ("collective", "local"):
        raise ValueError(f"selfpol must be 'collective' or 'local', got {selfpol!r}")
    eps = standing_wave_polarization(mode)
    grad = polarization_gradient(mode)

    mu_proj = float(emitter.mu @ eps)
    quad_proj = float(np.sum(emitter.quadrupole * grad))
    electric = mu_proj + quad_proj
    magnetic = float(chiral_tdm_vector(emitter) @ eps)

    omega_k_bar = dressed_photon_frequency(emitter.chi_m, mode, n_emitters)
    omega_m_tilde = dressed_matter_frequency(
        emitter, mode, n_emitters, collective=(selfpol == "collective")
    )
    omega_m = emitter.omega_m
    omega_k = mode.omega_k

    if electric == 0.0:
        return DerivedCouplings(
            omega_k_bar=omega_k_bar,
            omega_m_tilde=omega_m_tilde,
            g_tilde=0.0,
            xi_tilde=0.0,
            g_bar=0.0,
            xi_bar=0.0,
            n_emitters=n_emitters,
            handedness=mode.handedness,
            decoupled=True,
        )

    g_tilde = mode.eta * np.sqrt(omega_k_bar * omega_m / (2.0 * omega_m_tilde)) * electric
    xi_tilde = (omega_m_tilde * omega_k) / (omega_m * omega_k_bar) * magnetic / electric
    g_bar = mode.eta * np.sqrt(omega_k_bar / 2.0) * electric
    xi_bar = (omega_k / omega_k_bar) * magnetic / electric

    # omega_m_tilde^2 cancels the dipole part of 4Ng^2 = 2N eta^2 omega_m e^2
    # omega_k_bar/omega_m_tilde exactly (factor is the N of that dressing);
    # no frequency is squared, so tiny frequencies do not go subnormal
    factor = n_emitters if selfpol == "collective" else 1
    scale = 2.0 * mode.eta**2
    excess = factor * quad_proj * (2.0 * mu_proj + quad_proj)
    excess += (n_emitters - factor) * electric**2
    magnetic_sq = n_emitters * scale * omega_m * (omega_k * magnetic / omega_m) ** 2
    f1 = omega_k_bar * (omega_m / omega_m_tilde) * (omega_m - scale * excess)
    f2 = omega_m_tilde * (omega_k_bar - magnetic_sq / omega_k_bar)

    return DerivedCouplings(
        omega_k_bar=float(omega_k_bar),
        omega_m_tilde=float(omega_m_tilde),
        g_tilde=float(g_tilde),
        xi_tilde=float(xi_tilde),
        g_bar=float(g_bar),
        xi_bar=float(xi_bar),
        n_emitters=n_emitters,
        handedness=mode.handedness,
        f1=float(f1),
        f2=float(f2),
    )


def _coupling_sq_prefactor(emitter: Emitter, mode: CavityMode, n_emitters: int) -> float:
    # hbar*omega_m_tilde*omega_k^2 / (2*eps0*V*omega_k_bar*omega_m) with
    # 1/(eps0*V) = eta^2; dressed frequencies at the reference orientation.
    omega_k_bar = dressed_photon_frequency(emitter.chi_m, mode, n_emitters)
    omega_m_tilde = dressed_matter_frequency(emitter, mode, n_emitters)
    return (
        mode.eta**2
        * omega_m_tilde
        * mode.omega_k**2
        / (2.0 * omega_k_bar * emitter.omega_m)
    )


def orientation_averaged_coupling_sq(
    emitter: Emitter, mode: CavityMode, n_emitters: int
) -> float:
    """Isotropic average of the squared collective coupling |g|^2.

    Closed form (N/3) * prefactor * [(1+s^2)|mu|^2 + 2 lambda s <mu|U mu>];
    only the chiral component (parallel projection of U mu on mu) is
    handedness-selective.
    """
    s = emitter.xi_scale
    lam = mode.handedness
    mu = emitter.mu
    bracket = (1.0 + s * s) * float(mu @ mu) + 2.0 * lam * s * float(
        mu @ emitter.xi_rotation @ mu
    )
    prefactor = _coupling_sq_prefactor(emitter, mode, n_emitters)
    return n_emitters / 3.0 * prefactor * bracket


class MonteCarloEstimate(NamedTuple):
    value: float
    stderr: float


def _geodesic_rotations(mu_hat: np.ndarray, n_hat: np.ndarray) -> Rotation:
    """Minimal rotations mapping mu_hat onto each row of n_hat."""
    axis = np.cross(mu_hat, n_hat)
    sin = np.linalg.norm(axis, axis=1)
    cos = n_hat @ mu_hat
    angle = np.arctan2(sin, cos)
    # antipodal draws: rotate by pi about any axis perpendicular to mu_hat
    perp = np.cross(mu_hat, [1.0, 0.0, 0.0])
    if np.linalg.norm(perp) < 1e-6:
        perp = np.cross(mu_hat, [0.0, 1.0, 0.0])
    perp /= np.linalg.norm(perp)
    degen = sin < 1e-15
    safe_sin = np.where(degen, 1.0, sin)
    axis = np.where(degen[:, None], perp, axis / safe_sin[:, None])
    return Rotation.from_rotvec(axis * angle[:, None])


def sample_orientation_coupling(
    emitter: Emitter,
    mode: CavityMode,
    n_emitters: int,
    seed: int,
    n_samples: int,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of the orientation-averaged squared coupling.

    Samples molecular orientations from the Haar measure (cos(theta)
    uniform on [-1, 1]; azimuth and roll delta uniform on [0, 2pi)) and
    averages the squared projection of the rotated combined moment
    (1 + lambda s U) mu onto the mode polarization. Deterministic for a
    fixed seed; converges to orientation_averaged_coupling_sq.
    """
    if n_samples < 100:
        raise ValueError(f"n_samples must be at least 100, got {n_samples}")
    eps = standing_wave_polarization(mode)
    mu = emitter.mu
    mu_norm = np.linalg.norm(mu)
    if mu_norm == 0.0:
        raise ValueError("orientation sampling undefined for mu = 0")
    mu_hat = mu / mu_norm

    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n_samples)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    delta = rng.uniform(0.0, 2.0 * np.pi, n_samples)

    sin_theta = np.sqrt(1.0 - cos_theta**2)
    n_hat = np.column_stack(
        (sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta)
    )
    rotations = Rotation.from_rotvec(n_hat * delta[:, None]) * _geodesic_rotations(
        mu_hat, n_hat
    )

    combined = mu + mode.handedness * emitter.xi_scale * emitter.xi_rotation @ mu
    projections = rotations.apply(combined) @ eps
    samples = projections**2

    scale = n_emitters * _coupling_sq_prefactor(emitter, mode, n_emitters)
    value = scale * float(np.mean(samples))
    stderr = scale * float(np.std(samples, ddof=1) / np.sqrt(n_samples))
    return MonteCarloEstimate(value, stderr)
