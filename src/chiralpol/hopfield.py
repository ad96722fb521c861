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
"""

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .couplings import DerivedCouplings, InstabilityError, derive_couplings
from .emitters import Emitter
from .fields import CavityMode

SYMPLECTIC_METRIC = np.diag([1.0, -1.0, 1.0, -1.0])

_DEGENERACY_RTOL = 1e-10
_RESIDUAL_TOL = 1e-8


class PolaritonInstabilityError(InstabilityError):
    """The quadratic Hamiltonian is not positive definite: no polariton basis."""


def _coupling_terms(c: DerivedCouplings) -> tuple[float, float]:
    return c.n_emitters * c.g_tilde**2, c.xi_tilde * c.handedness


def stability_factors(c: DerivedCouplings) -> tuple[float, float]:
    """The two factors of Omega+^2 Omega-^2 = (ww - 4Ng^2)(ww - 4Ng^2 xi^2).

    Both positive means the quadratic Hamiltonian is positive definite; with
    a negative one (even both, where the frequencies stay real) it is not.
    """
    y, p = _coupling_terms(c)
    ww = c.omega_k_bar * c.omega_m_tilde
    return ww - 4.0 * y, ww - 4.0 * y * p * p


def polariton_frequencies(c: DerivedCouplings) -> tuple[float, float]:
    """Polariton frequencies (Omega_plus, Omega_minus), Omega_plus >= Omega_minus.

    Omega_pm^2 = (wk^2 + wm^2 + 8 xi lam N g^2 +- sqrt(D))/2 with
    D = (wk^2 - wm^2)^2 + 16 N g^2 (wk + wm xi lam)(wk xi lam + wm),
    all frequencies dressed. The lower branch is evaluated through the
    product form 2*(wk wm - 4Ng^2)(wk wm - 4Ng^2 xi^2)/(S + sqrt(D)), which
    is exact and avoids the S - sqrt(D) cancellation for soft modes.
    """
    w1, w2 = c.omega_k_bar, c.omega_m_tilde
    y, p = _coupling_terms(c)

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
    if min(f1, f2) < 0.0:
        raise PolaritonInstabilityError("a stability factor is negative", min(f1, f2))
    root = np.sqrt(discriminant)
    if trace + root <= 0.0:
        raise PolaritonInstabilityError(
            "both polariton branches squared are nonpositive", trace + root
        )
    upper_sq = 0.5 * (trace + root)
    lower_sq = 2.0 * f1 * f2 / (trace + root)
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


def _colpa_coefficients(
    c: DerivedCouplings, upper: float, lower: float
) -> BranchCoefficients:
    """Rows (plus, minus) of both branches from one Colpa diagonalization
    (J. H. P. Colpa, Physica A 93, 327 (1978)).

    M = -eta K(0) (eta = SYMPLECTIC_METRIC) is the Hermitian form of H; its
    Cholesky factor M = L L^+ exists exactly when H is positive definite.
    L^+ eta L has eigenvalues +-Omega; for the positive pair, v = eta L w
    solves K(Omega) v = 0 with v^+ eta v = Omega |w|^2 > 0, and a degenerate
    pair is symplectically orthonormal. Each v is normalized by its measured
    symplectic norm and checked against K at the closed-form (upper, lower).
    """
    k_zero = dynamical_matrix(c, 0.0)
    try:
        factor = np.linalg.cholesky(-SYMPLECTIC_METRIC @ k_zero)
    except np.linalg.LinAlgError as err:
        value = min(stability_factors(c))
        raise PolaritonInstabilityError("Cholesky factorization of H failed", value) from err
    _, eigvecs = np.linalg.eigh(factor.conj().T @ SYMPLECTIC_METRIC @ factor)
    columns = SYMPLECTIC_METRIC @ factor @ eigvecs[:, [3, 2]]
    norms = np.real(np.sum(columns.conj() * (SYMPLECTIC_METRIC @ columns), axis=0))
    if not np.all((norms > 0.0) & (norms < np.inf)):
        value = float(np.min(norms))
        raise PolaritonInstabilityError("symplectic norm not positive and finite", value)
    columns = columns / np.sqrt(norms)
    omegas = np.array([upper, lower])
    # Omega + max(w) is the largest entry of K(Omega), so at most sigma_max
    scale = (omegas + max(c.omega_k_bar, c.omega_m_tilde)) * np.linalg.norm(columns, axis=0)
    residual = np.max(np.linalg.norm(k_zero @ columns + columns * omegas, axis=0) / scale)
    if not residual <= _RESIDUAL_TOL:
        raise RuntimeError(f"coefficient residual {residual:.3e} exceeds tolerance")
    degenerate = (upper - lower) <= _DEGENERACY_RTOL * upper
    return BranchCoefficients(np.array([_fix_phase(v) for v in columns.T]), degenerate)


def hopfield_coefficients(c: DerivedCouplings, omega: float) -> BranchCoefficients:
    """Coefficients (x, y, z, u) of the polariton operator at frequency omega.

    Omega's row of the Colpa diagonalization that `solve_polaritons` uses
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
    vectors, degenerate = _colpa_coefficients(c, upper, lower)
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


def _fractions(vec: np.ndarray) -> tuple[float, float]:
    weights = np.abs(vec) ** 2
    return float(weights[0] - weights[1]), float(weights[2] - weights[3])


def solve_polaritons(c: DerivedCouplings) -> PolaritonSolution:
    """Frequencies, coefficients, fractions and vacuum energy in one call."""
    upper, lower = polariton_frequencies(c)
    (coeffs_plus, coeffs_minus), degenerate = _colpa_coefficients(c, upper, lower)
    photon_plus, matter_plus = _fractions(coeffs_plus)
    photon_minus, matter_minus = _fractions(coeffs_minus)
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
