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
b = (x - y, z' + u'), the operator's [P, H] = Omega P reads Omega a = P b,
Omega b = Q a with P = [[wk, p r], [p r, wm]], Q = [[wk, r], [r, wm]],
r = 2 sqrt(N) g and p = xi lambda, so det P = f2 and det Q = f1.
"""

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .couplings import (
    DerivedCouplings,
    InstabilityError,
    derive_couplings,
    elementwise,
    scalar_or_array,
    square,
)
from .emitters import Emitter, require_one_xi
from .fields import CavityMode

SYMPLECTIC_METRIC = np.diag([1.0, -1.0, 1.0, -1.0])

_DEGENERACY_RTOL = 1e-10


class PolaritonInstabilityError(InstabilityError):
    """The quadratic Hamiltonian is not positive definite: no polariton basis."""


def stability_factors(c: DerivedCouplings) -> tuple[float, float]:
    """(f1, f2), the factors of Omega+^2 Omega-^2 carried by the couplings (see
    `DerivedCouplings`): the Hamiltonian is positive definite iff both are > 0."""
    return c.f1, c.f2


def _trace_and_discriminant(c: DerivedCouplings) -> tuple[float, float, float]:
    """T = wk^2 + wm^2 + 8 N g^2 p, D = (wk^2 - wm^2)^2 + 16 N g^2 (wk + wm p)
    (wk p + wm) with p = xi lam, all frequencies dressed, and the scale of D."""
    w1, w2 = c.omega_k_bar, c.omega_m_tilde
    y, p = c.n_emitters * square(c.g_tilde), c.xi_tilde * c.handedness
    coupling = 16.0 * y * (w1 + w2 * p) * (w1 * p + w2)
    ww = w1 * w1 + w2 * w2
    return ww + 8.0 * p * y, square(w1 * w1 - w2 * w2) + coupling, ww * ww + np.abs(coupling)


@elementwise
def polariton_frequencies(c: DerivedCouplings) -> tuple[float, float]:
    """Polariton frequencies (Omega_plus, Omega_minus), Omega_plus >= Omega_minus.

    Omega_pm^2 = (T +- sqrt(D))/2 with T and D from `_trace_and_discriminant`.
    The lower branch is taken root by root from the exact product
    Omega_plus Omega_minus = sqrt(f1) sqrt(f2): no T - sqrt(D) cancellation
    for soft modes and no underflow where f1*f2 would.

    Batched couplings give arrays, NaN at every unstable entry; a batch of
    one gives floats and raises PolaritonInstabilityError instead.
    """
    trace, discriminant, scale = _trace_and_discriminant(c)
    f1, f2 = stability_factors(c)
    factor = np.minimum(f1, f2)
    upper_sq = 0.5 * (trace + np.sqrt(np.maximum(discriminant, 0.0)))
    upper = np.sqrt(upper_sq)
    lower = np.sqrt(f1) * np.sqrt(f2) / upper
    checks = (
        (discriminant < -1e-14 * scale, "polariton frequencies form a complex pair", discriminant),
        (factor <= 0.0, "a stability factor is not positive", factor),
        (~np.greater(upper_sq, 0.0), "upper branch squared is not positive", upper_sq),
        # roundoff or an underflow can still leave no positive lower branch
        (~np.greater(lower, 0.0), "lower branch is not positive", lower),
    )
    unstable = False
    for failed, message, value in checks:  # a batch of one raises on the first
        if np.ndim(failed) == 0 and failed:
            raise PolaritonInstabilityError(message, float(value))
        unstable = unstable | failed
    # the product form can overshoot the direct form by an ulp at degeneracy
    lower = np.minimum(lower, upper)
    return tuple(scalar_or_array(np.where(unstable, np.nan, x)) for x in (upper, lower))


def _fix_phase(vec: np.ndarray) -> np.ndarray:
    """Each row (last axis) times the phase that makes its first
    non-negligible component real and positive."""
    size = np.abs(vec)
    lead = size > 1e-12 * np.max(size, axis=-1, keepdims=True)
    first = np.take_along_axis(vec, np.argmax(lead, axis=-1)[..., None], axis=-1)
    return vec * np.where(lead.any(axis=-1, keepdims=True), np.abs(first) / first, 1.0)


class BranchCoefficients(NamedTuple):
    """Coefficient vectors (x, y, z, u) for one frequency.

    `vectors` holds one row normally; at a degenerate frequency it holds the
    symplectically orthonormal pair and `degenerate` is set.
    """

    vectors: np.ndarray
    degenerate: bool


@elementwise
def _two_block(c: DerivedCouplings, upper, lower):
    """Rows (plus, minus) on the second-to-last axis, their photon and
    matter fractions on the last and the degenerate flag, from the two real
    blocks of the module docstring; batches entry by entry.

    P = L L^T in closed form (l22 = sqrt(f2/wk), so f2 > 0 is required); the
    orthonormal eigenvectors w of C = L^T Q L (eigenvalues Omega^2) follow
    from one Jacobi angle. a = L w / sqrt(Omega) and b = sqrt(Omega) L^-T w
    solve both blocks, and the fractions a1 b1, a2 b2 sum to |w|^2 = 1.
    Orthonormal w make a degenerate pair symplectically orthonormal.
    """
    w1, w2 = c.omega_k_bar, c.omega_m_tilde
    r = 2.0 * np.sqrt(c.n_emitters) * c.g_tilde
    l11, l22 = np.sqrt(w1), np.sqrt(c.f2 / w1)
    l21 = c.xi_tilde * c.handedness * r / l11
    q1, q2 = w1 * l11 + r * l21, r * l11 + w2 * l21  # first column of Q L
    theta = 0.5 * np.arctan2(2.0 * l22 * q2, l11 * q1 + l21 * q2 - w2 * l22 * l22)
    cos, sin = np.cos(theta), np.sin(theta)
    # the (plus, minus) rows pair Omega with w = (cos, sin) and (-sin, cos)
    root = np.sqrt(np.stack(np.broadcast_arrays(upper, lower), axis=-1))
    w_1 = np.stack(np.broadcast_arrays(cos, -sin), axis=-1)
    w_2 = np.stack(np.broadcast_arrays(sin, cos), axis=-1)
    l11, l21, l22 = (np.expand_dims(x, -1) for x in (l11, l21, l22))
    a1, a2 = l11 * w_1 / root, (l21 * w_1 + l22 * w_2) / root
    b1, b2 = root * (w_1 - l21 * w_2 / l22) / l11, root * w_2 / l22
    vec = 0.5 * np.stack([a1 + b1, a1 - b1, 1j * (a2 + b2), 1j * (b2 - a2)], axis=-1)
    degenerate = (upper - lower) <= _DEGENERACY_RTOL * upper
    return _fix_phase(vec), a1 * b1, a2 * b2, scalar_or_array(degenerate)


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
    vectors, _, _, degenerate = _two_block(c, upper, lower)
    if not degenerate:
        vectors = vectors[[0 if abs(omega - upper) <= abs(omega - lower) else 1]]
    return BranchCoefficients(vectors, degenerate)


@dataclass(frozen=True)
class PolaritonSolution:
    """Both polariton branches of the chiral Hopfield model.

    Fractions are photon = |x|^2 - |y|^2 and matter = |z|^2 - |u|^2; their
    sum is 1 by the symplectic normalization. At an exactly degenerate
    crossing the plus/minus assignment of the symplectically orthonormal
    pair is an arbitrary tie-break, flagged by `degenerate`. A batch holds
    arrays, with NaN throughout an unstable entry.
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
    """Frequencies, coefficients, fractions and vacuum energy in one call.

    Batches like `polariton_frequencies`: NaN at unstable entries, or a
    raise for a batch of one.
    """
    upper, lower = polariton_frequencies(c)
    vectors, photon, matter, degenerate = _two_block(c, upper, lower)
    return PolaritonSolution(
        omega_plus=upper,
        omega_minus=lower,
        coeffs_plus=vectors[..., 0, :],
        coeffs_minus=vectors[..., 1, :],
        photon_fraction_plus=scalar_or_array(photon[..., 0]),
        matter_fraction_plus=scalar_or_array(matter[..., 0]),
        photon_fraction_minus=scalar_or_array(photon[..., 1]),
        matter_fraction_minus=scalar_or_array(matter[..., 1]),
        e_vac=0.5 * (upper + lower),
        degenerate=degenerate,
    )


class DiscriminationResult(NamedTuple):
    delta_omega_plus: float
    delta_omega_minus: float
    delta_e_vac: float


@elementwise
def discrimination(
    emitter: Emitter, mode: CavityMode, n_emitters: int, selfpol: str = "collective"
) -> DiscriminationResult:
    """Enantio-discrimination observables: spectra at xi = +|s| minus xi = -|s|.

    Closed form, no cancelling subtraction; propagates instability of either
    enantiomer, achiral ones too. The couplings are even in s but xi_tilde,
    xi_bar are odd, so the mirror is a sign flip and only T differs, by
    dT = 16 N g^2 xi lam; Omega+ Omega- = sqrt(f1 f2) is shared, D = T^2 - 4 f1 f2
    (each D from `_trace_and_discriminant`) and S = Omega+ + Omega-, so
    dE_vac = dT/(2 (S_l + S_r)), dOmega- = -Omega-_l dOmega+/Omega+_r and
    dOmega+ = dT (1 + 2 (wk^2 + wm^2)/(sqrt(D_l) + sqrt(D_r)))/(2 (Omega+_l + Omega+_r)).

    Takes one emitter (a scalar xi_scale). n_emitters may be an array: the
    differences are then arrays, NaN where either enantiomer is unstable; a
    batch of one raises instead.
    """
    require_one_xi(emitter, "discrimination")
    c = derive_couplings(emitter, mode, n_emitters, selfpol)
    mirror = dataclasses.replace(c, xi_tilde=-c.xi_tilde, xi_bar=-c.xi_bar)
    if emitter.xi_scale < 0.0:
        c, mirror = mirror, c
    (up_l, low_l), (up_r, low_r) = polariton_frequencies(c), polariton_frequencies(mirror)
    d_trace = 16.0 * (c.n_emitters * square(c.g_tilde)) * (c.xi_tilde * c.handedness)
    ww = square(c.omega_k_bar) + square(c.omega_m_tilde)
    roots = sum(np.sqrt(np.maximum(_trace_and_discriminant(x)[1], 0.0)) for x in (c, mirror))
    # (sqrt(D_l) + sqrt(D_r))^2 >= |D_l - D_r| = 2 |dT| ww: no zero division
    roots = np.maximum(roots, np.sqrt(2.0 * np.abs(d_trace)) * np.sqrt(ww))
    d_up = 0.5 * d_trace * (1.0 + 2.0 * ww / roots) / (up_l + up_r)
    d_e_vac = 0.5 * d_trace / (up_l + low_l + (up_r + low_r))
    # exactly 0 for a stable achiral entry (dT = 0)
    achiral = (d_trace == 0.0) & ~np.isnan(up_l + up_r)
    return DiscriminationResult(
        *(scalar_or_array(np.where(achiral, 0.0, d)) for d in (d_up, -low_l * d_up / up_r, d_e_vac))
    )


def find_critical_n(emitter: Emitter, mode: CavityMode, n_values) -> int | None:
    """First N in n_values at which the local model is unstable, else None.
    Takes one emitter (a scalar xi_scale)."""
    require_one_xi(emitter, "find_critical_n")
    n_values = np.array(n_values)
    c = derive_couplings(emitter, mode, n_values, selfpol="local")
    unstable = np.flatnonzero(np.isnan(polariton_frequencies(c)[0]))
    return int(n_values[unstable[0]]) if unstable.size else None
