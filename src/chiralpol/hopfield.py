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
    """The lower polariton branch squared turned negative (or complex pair)."""


def _coupling_terms(c: DerivedCouplings) -> tuple[float, float]:
    return c.n_emitters * c.g_tilde**2, c.xi_tilde * c.handedness


def stability_factors(c: DerivedCouplings) -> tuple[float, float]:
    """The two factors of Omega+^2 Omega-^2 = (ww - 4Ng^2)(ww - 4Ng^2 xi^2).

    Both positive means the quadratic Hamiltonian is positive definite;
    exactly one negative is the Omega-^2 < 0 instability.
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
    root = np.sqrt(discriminant)
    if trace + root <= 0.0:
        raise PolaritonInstabilityError(
            "both polariton branches squared are nonpositive", trace + root
        )
    upper_sq = 0.5 * (trace + root)
    f1, f2 = stability_factors(c)
    lower_sq = 2.0 * f1 * f2 / (trace + root)
    if lower_sq < 0.0:
        raise PolaritonInstabilityError(
            "lower polariton branch squared is negative", lower_sq
        )
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


def _symplectic_norm(vec: np.ndarray) -> float:
    return float(np.real(vec.conj() @ (SYMPLECTIC_METRIC @ vec)))


class BranchCoefficients(NamedTuple):
    """Null-space coefficient vectors (x, y, z, u) for one frequency.

    `vectors` holds one row normally; at a degenerate frequency it holds the
    symplectically orthogonalized pair and `degenerate` is set.
    """

    vectors: np.ndarray
    degenerate: bool


def hopfield_coefficients(c: DerivedCouplings, omega: float) -> BranchCoefficients:
    """Coefficients (x, y, z, u) of the polariton operator at frequency omega.

    Extracted as the smallest-singular-value direction of the 4x4 system
    (robust near degeneracy, identical to cofactors elsewhere), normalized
    to |x|^2 - |y|^2 + |z|^2 - |u|^2 = 1, phase fixed so the first
    non-negligible component of (x, y, z, u) is real and nonnegative.
    """
    upper, lower = polariton_frequencies(c)
    tol = 1e-9 * max(upper, 1.0)
    if min(abs(omega - upper), abs(omega - lower)) > tol:
        raise ValueError(
            f"omega={omega!r} is not a polariton frequency "
            f"(branches {upper!r}, {lower!r})"
        )
    degenerate = (upper - lower) <= _DEGENERACY_RTOL * upper

    matrix = dynamical_matrix(c, omega)
    _, singular, vh = np.linalg.svd(matrix)
    matrix_scale = max(float(singular[0]), 1e-300)

    if not degenerate:
        raw = vh[-1].conj()
        norm = _symplectic_norm(raw)
        if norm <= 0.0:
            raise RuntimeError(
                "coefficient extraction failed: nonpositive symplectic norm "
                f"{norm:.3e} on the positive branch"
            )
        vectors = [raw / np.sqrt(norm)]
    else:
        basis = np.column_stack([vh[-1].conj(), vh[-2].conj()])
        gram = basis.conj().T @ SYMPLECTIC_METRIC @ basis
        norms, combos = np.linalg.eigh(gram)
        if np.any(norms <= 0.0):
            raise RuntimeError(
                "degenerate coefficient extraction failed: symplectic Gram "
                f"eigenvalues {norms}"
            )
        vectors = [basis @ combos[:, k] / np.sqrt(norms[k]) for k in (1, 0)]

    out = []
    for vec in vectors:
        residual = float(np.linalg.norm(matrix @ vec))
        if residual > _RESIDUAL_TOL * matrix_scale * float(np.linalg.norm(vec)):
            raise RuntimeError(
                f"coefficient residual {residual:.3e} exceeds tolerance"
            )
        out.append(_fix_phase(vec))
    return BranchCoefficients(np.array(out), degenerate)


@dataclass(frozen=True)
class PolaritonSolution:
    """Both polariton branches of the chiral Hopfield model.

    Fractions are photon = |x|^2 - |y|^2 and matter = |z|^2 - |u|^2; their
    sum is 1 by the symplectic normalization. At an exactly degenerate
    crossing the plus/minus assignment of the orthogonalized pair is an
    arbitrary tie-break, flagged by `degenerate`.
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
    branch_upper = hopfield_coefficients(c, upper)
    if branch_upper.degenerate:
        coeffs_plus, coeffs_minus = branch_upper.vectors
        degenerate = True
    else:
        coeffs_plus = branch_upper.vectors[0]
        coeffs_minus = hopfield_coefficients(c, lower).vectors[0]
        degenerate = False
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
