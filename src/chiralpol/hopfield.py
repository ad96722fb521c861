"""Analytic chiral Hopfield solver: polariton frequencies, Hopfield
coefficients, vacuum energy, enantio-discrimination, and the local
self-polarization variant with instability detection.

Convention: the polariton operator P = x a + y a' + z B + u B' annihilates a
polariton of energy Omega, i.e. [P, H] = Omega P, normalized to
|x|^2 - |y|^2 + |z|^2 - |u|^2 = +1. With this choice the bare-photon limit is
(1, 0, 0, 0) and the positive branch has positive symplectic norm. The
photon fraction is |x|^2 - |y|^2 and the matter fraction |z|^2 - |u|^2 (the
coefficients multiplying the photon and matter operators in P); they sum to
one but are not individually bounded by [0, 1] in the ultrastrong regime.

The coefficients come from two real 2x2 blocks (J. J. Hopfield, Phys. Rev.
112, 1555 (1958)): with z = i z', u = i u', a = (x + y, z' - u') and
b = (x - y, z' + u'), K(Omega) v = 0 reads Omega a = P b, Omega b = Q a with
P = [[wk, p r], [p r, wm]], Q = [[wk, r], [r, wm]], r = 2 sqrt(N) g and
p = xi lambda, so det P = f2 and det Q = f1.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .couplings import DerivedCouplings, InstabilityError, derive_couplings
from .emitters import Emitter
from .fields import CavityMode

SYMPLECTIC_METRIC = np.diag([1.0, -1.0, 1.0, -1.0])

_DEGENERACY_RTOL = 1e-10


class PolaritonInstabilityError(InstabilityError):
    """The quadratic Hamiltonian is not positive definite: no polariton basis."""


def stability_factors(c: DerivedCouplings) -> tuple[float, float]:
    """The two factors of Omega+^2 Omega-^2 = (ww - 4Ng^2)(ww - 4Ng^2 xi^2).

    Both positive means the quadratic Hamiltonian is positive definite; with
    one nonpositive (even both negative, where the frequencies stay real) it
    is not. Carried by the couplings, see `DerivedCouplings`.
    """
    return c.f1, c.f2


def polariton_frequencies(c: DerivedCouplings) -> tuple[float, float]:
    """Polariton frequencies (Omega_plus, Omega_minus), Omega_plus >= Omega_minus.

    Omega_pm^2 = (wk^2 + wm^2 + 8 xi lam N g^2 +- sqrt(D))/2 with
    D = (wk^2 - wm^2)^2 + 16 N g^2 (wk + wm xi lam)(wk xi lam + wm),
    all frequencies dressed. The lower branch is evaluated through the
    product form 2*(wk wm - 4Ng^2)(wk wm - 4Ng^2 xi^2)/(S + sqrt(D)), which
    is exact and avoids the S - sqrt(D) cancellation for soft modes.
    """
    w1, w2 = c.omega_k_bar, c.omega_m_tilde
    y, p = c.n_emitters * c.g_tilde**2, c.xi_tilde * c.handedness
    trace = w1 * w1 + w2 * w2 + 8.0 * p * y
    discriminant = (w1 * w1 - w2 * w2) ** 2 + 16.0 * y * (w1 + w2 * p) * (w1 * p + w2)
    if discriminant < 0.0:
        scale = (w1 * w1 + w2 * w2) ** 2 + abs(16.0 * y * (w1 + w2 * p) * (w1 * p + w2))
        if -discriminant > 1e-14 * scale:
            raise PolaritonInstabilityError(
                "polariton frequencies form a complex pair", discriminant
            )
        discriminant = 0.0
    f1, f2 = stability_factors(c)
    if min(f1, f2) <= 0.0:
        raise PolaritonInstabilityError("a stability factor is not positive", min(f1, f2))
    root = np.sqrt(discriminant)
    # roundoff or an underflow of f1*f2 can still leave no positive lower branch
    lower_sq = 2.0 * f1 * f2 / (trace + root) if trace + root > 0.0 else 0.0
    if not lower_sq > 0.0:
        raise PolaritonInstabilityError("lower branch squared is not positive", lower_sq)
    upper_sq = 0.5 * (trace + root)
    # the product form can overshoot the direct form by an ulp at degeneracy
    lower_sq = min(lower_sq, upper_sq)
    return float(np.sqrt(upper_sq)), float(np.sqrt(lower_sq))


def dynamical_matrix(c: DerivedCouplings, omega: float) -> np.ndarray:
    """4x4 system K(Omega) whose null vector holds the (x, y, z, u) coefficients.

    Equals the determinant matrix of the eigenvalue condition evaluated at
    -Omega, matching the annihilation convention [P, H] = Omega P.
    """
    w1, w2 = c.omega_k_bar, c.omega_m_tilde
    g_root = np.sqrt(c.n_emitters) * c.g_tilde
    p = c.xi_tilde * c.handedness
    gp = (1.0 + p) * g_root
    gm = (1.0 - p) * g_root
    return np.array(
        [
            [omega - w1, 0.0, 1j * gp, -1j * gm],
            [0.0, omega + w1, -1j * gm, 1j * gp],
            [-1j * gp, -1j * gm, omega - w2, 0.0],
            [-1j * gm, -1j * gp, 0.0, omega + w2],
        ],
        dtype=complex,
    )


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    scale = np.max(np.abs(vec))
    for component in vec:
        if abs(component) > 1e-12 * scale:
            return vec * (abs(component) / component)
    return vec


class BranchCoefficients(NamedTuple):
    """Coefficient vectors (x, y, z, u) for one frequency.

    `vectors` holds one row normally; at a degenerate frequency it holds the
    symplectically orthonormal pair and `degenerate` is set.
    """

    vectors: np.ndarray
    degenerate: bool


def _two_block(c: DerivedCouplings, upper: float, lower: float):
    """Rows (plus, minus), their (photon, matter) fractions and the
    degenerate flag, from the two real blocks of the module docstring.

    P = L L^T in closed form (l22 = sqrt(f2/wk), so f2 > 0 is required); the
    orthonormal eigenvectors w of C = L^T Q L (eigenvalues Omega^2) follow
    from one Jacobi angle. a = L w / sqrt(Omega) and b = sqrt(Omega) L^-T w
    solve both blocks, and the fractions a1 b1, a2 b2 sum to |w|^2 = 1.
    Orthonormal w make a degenerate pair symplectically orthonormal.
    """
    w1, w2 = c.omega_k_bar, c.omega_m_tilde
    r = 2.0 * math.sqrt(c.n_emitters) * c.g_tilde
    l11, l22 = math.sqrt(w1), math.sqrt(c.f2 / w1)
    l21 = c.xi_tilde * c.handedness * r / l11
    q1, q2 = w1 * l11 + r * l21, r * l11 + w2 * l21  # first column of Q L
    theta = 0.5 * math.atan2(2.0 * l22 * q2, l11 * q1 + l21 * q2 - w2 * l22 * l22)
    cos, sin = math.cos(theta), math.sin(theta)
    rows, fractions = [], []
    for omega, (w_1, w_2) in ((upper, (cos, sin)), (lower, (-sin, cos))):
        root = math.sqrt(omega)
        a1, a2 = l11 * w_1 / root, (l21 * w_1 + l22 * w_2) / root
        b1, b2 = root * (w_1 - l21 * w_2 / l22) / l11, root * w_2 / l22
        vec = 0.5 * np.array([a1 + b1, a1 - b1, 1j * (a2 + b2), 1j * (b2 - a2)])
        rows.append(_fix_phase(vec))
        fractions.append((a1 * b1, a2 * b2))
    return np.array(rows), fractions, (upper - lower) <= _DEGENERACY_RTOL * upper


def hopfield_coefficients(c: DerivedCouplings, omega: float) -> BranchCoefficients:
    """Coefficients (x, y, z, u) of the polariton operator at frequency omega.

    Omega's row of the two-block solution that `solve_polaritons` uses
    (both rows at a degenerate frequency), normalized to
    |x|^2 - |y|^2 + |z|^2 - |u|^2 = 1, phase fixed so the first
    non-negligible component of (x, y, z, u) is real and nonnegative.
    """
    upper, lower = polariton_frequencies(c)
    tol = 1e-9 * max(upper, 1.0)
    if min(abs(omega - upper), abs(omega - lower)) > tol:
        raise ValueError(
            f"omega={omega!r} is not a polariton frequency "
            f"(branches {upper!r}, {lower!r})"
        )
    vectors, _, degenerate = _two_block(c, upper, lower)
    if not degenerate:
        vectors = vectors[[0 if abs(omega - upper) <= abs(omega - lower) else 1]]
    return BranchCoefficients(vectors, degenerate)


@dataclass(frozen=True)
class PolaritonSolution:
    """Both polariton branches of the chiral Hopfield model.

    Fractions are photon = |x|^2 - |y|^2 and matter = |z|^2 - |u|^2; their
    sum is 1 by the symplectic normalization. At an exactly degenerate
    crossing the plus/minus assignment of the symplectically orthonormal
    pair is an arbitrary tie-break, flagged by `degenerate`.
    """

    omega_plus: float
    omega_minus: float
    coeffs_plus: np.ndarray
    coeffs_minus: np.ndarray
    photon_fraction_plus: float
    matter_fraction_plus: float
    photon_fraction_minus: float
    matter_fraction_minus: float
    e_vac: float
    degenerate: bool


def solve_polaritons(c: DerivedCouplings) -> PolaritonSolution:
    """Frequencies, coefficients, fractions and vacuum energy in one call."""
    upper, lower = polariton_frequencies(c)
    (coeffs_plus, coeffs_minus), fractions, degenerate = _two_block(c, upper, lower)
    (photon_plus, matter_plus), (photon_minus, matter_minus) = fractions
    return PolaritonSolution(
        omega_plus=upper,
        omega_minus=lower,
        coeffs_plus=coeffs_plus,
        coeffs_minus=coeffs_minus,
        photon_fraction_plus=photon_plus,
        matter_fraction_plus=matter_plus,
        photon_fraction_minus=photon_minus,
        matter_fraction_minus=matter_minus,
        e_vac=0.5 * (upper + lower),
        degenerate=degenerate,
    )


class DiscriminationResult(NamedTuple):
    delta_omega_plus: float
    delta_omega_minus: float
    delta_e_vac: float


def enantiomer_difference(
    left: Emitter,
    right: Emitter,
    mode: CavityMode,
    n_emitters: int,
    selfpol: str = "collective",
) -> DiscriminationResult:
    """Spectra of the `left` enantiomer minus those of `right` in one mode.

    Propagates instability of either solution.
    """
    up_l, low_l = polariton_frequencies(derive_couplings(left, mode, n_emitters, selfpol))
    up_r, low_r = polariton_frequencies(derive_couplings(right, mode, n_emitters, selfpol))
    # difference per branch first: the deltas are many orders below the
    # absolute frequencies and must vanish exactly for achiral emitters
    d_up, d_low = up_l - up_r, low_l - low_r
    return DiscriminationResult(d_up, d_low, 0.5 * (d_up + d_low))


def discrimination(
    emitter: Emitter, mode: CavityMode, n_emitters: int
) -> DiscriminationResult:
    """Enantio-discrimination observables: spectra at xi = +|s| minus xi = -|s|.

    All other parameters held fixed; propagates instability of either
    enantiomer solution.
    """
    magnitude = abs(emitter.xi_scale)
    left = dataclasses.replace(emitter, xi_scale=+magnitude)
    right = dataclasses.replace(emitter, xi_scale=-magnitude)
    return enantiomer_difference(left, right, mode, n_emitters)


def polariton_frequencies_local_selfpol(
    emitter: Emitter, mode: CavityMode, n_emitters: int
) -> tuple[float, float]:
    """Polariton frequencies with local-only self-polarization dressing.

    The matter dressing lacks the factor N, so the lower branch squared
    crosses zero at a finite critical N; the raised error names the N at
    which it happened. Identical to polariton_frequencies at N = 1.
    """
    c = derive_couplings(emitter, mode, n_emitters, selfpol="local")
    try:
        return polariton_frequencies(c)
    except PolaritonInstabilityError as err:
        raise PolaritonInstabilityError(
            f"local self-polarization model unstable at N={n_emitters}", err.value
        ) from err


def find_critical_n(emitter: Emitter, mode: CavityMode, n_values) -> int | None:
    """Smallest N in n_values at which the local model is unstable, else None."""
    for n in n_values:
        try:
            polariton_frequencies_local_selfpol(emitter, mode, int(n))
        except PolaritonInstabilityError:
            return int(n)
    return None
