"""Dressed frequencies and effective couplings consumed by the analytic solvers,
and orientation averages of the squared coupling.

All formulas here are c-free: the self-magnetization dressing is written in
terms of the mode wavenumber k_z (equal to omega_k/c for a physical vacuum
mode), and the factor c in m = -i c xi mu cancels against the magnetic mode
normalization.
"""

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .emitters import Emitter, chiral_tdm_vector, require_one_xi
from .fields import CavityMode, polarization_gradient, standing_wave_polarization


class InstabilityError(Exception):
    """A dressed frequency or polariton branch turned non-real."""

    def __init__(self, message: str, value: float):
        super().__init__(f"{message} (offending value {value:.6e})")
        self.message = message
        self.value = value

    def __reduce__(self):
        # rebuilt from both arguments, so that pickling (say, from a worker
        # process) round-trips the type, the message and the value
        return type(self), (self.message, self.value)


class MagneticInstabilityError(InstabilityError):
    """Self-magnetization drove the dressed photon frequency squared negative."""


def elementwise(func):
    """Evaluate func under the package's floating-point policy, as the stage
    named <module>.<function>.

    An overflow raises OverflowError, as Python's float ** does, with a
    message that names the innermost such stage ("numeric overflow in
    tavis_cummings.dispersion_scan"). Entries that fail a stability check are
    computed on and then masked, so invalid operations and divisions by zero
    there stay silent.
    """
    stage = f"{func.__module__.rsplit('.', 1)[-1]}.{func.__qualname__}"

    def overflow(kind, flag):
        raise OverflowError(f"numeric {kind} in {stage}")

    @functools.wraps(func)
    def inner(*args, **kwargs):
        with np.errstate(over="call", call=overflow, invalid="ignore", divide="ignore"):
            return func(*args, **kwargs)

    return inner


def square(x):
    """x**2 as libm pow(x, 2), which Python's float ** calls. NumPy's x**2
    is x*x, which rounds differently for ~0.1% of inputs; pow makes a batch
    reproduce Python float arithmetic digit for digit."""
    return np.float_power(x, 2)


def scalar_or_array(value):
    """A batch of one (0-d) as a Python scalar; an array as it is."""
    return value.item() if np.ndim(value) == 0 and hasattr(value, "item") else value


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

    Every field but handedness may be an array (a batch, entry by entry):
    derive_couplings batches over an array emitter.xi_scale, mode.omega_k
    or N, and polariton_frequencies, solve_polaritons and stability_factors
    take such a batch. A batch entry that is unstable is NaN in every float
    field.
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

    @elementwise
    def __post_init__(self):
        if np.any(np.less_equal(self.omega_k_bar, 0.0)):
            raise ValueError(f"omega_k_bar must be positive, got {self.omega_k_bar}")
        if np.any(np.less_equal(self.omega_m_tilde, 0.0)):
            raise ValueError(
                f"omega_m_tilde must be positive, got {self.omega_m_tilde}"
            )
        if self.handedness not in (+1, -1):
            raise ValueError(f"handedness must be +1 or -1, got {self.handedness}")
        if np.any(np.less(self.n_emitters, 1)):
            raise ValueError(f"n_emitters must be at least 1, got {self.n_emitters}")
        coupling = 4.0 * self.n_emitters * square(self.g_tilde)
        product = self.omega_k_bar * self.omega_m_tilde
        tol = 1e-12 * (product + coupling * np.maximum(1.0, square(self.xi_tilde)))
        for name, xi_sq in (("f1", 1.0), ("f2", square(self.xi_tilde))):
            dressed, given = product - coupling * xi_sq, getattr(self, name)
            if given is None:
                object.__setattr__(self, name, scalar_or_array(dressed))
            elif np.any(np.isfinite(dressed) & ~(np.abs(given - dressed) <= tol)):
                raise ValueError(f"{name}={given!r} is not the dressed value {dressed!r}")


def _photon_frequency(contraction, mode: CavityMode, n_emitters):
    """omega_k_bar from the contraction eps' chi_m eps; NaN where unstable."""
    wbar_sq = square(mode.omega_k)
    wbar_sq = wbar_sq + 2.0 * n_emitters * square(mode.k_z) * square(mode.eta) * contraction
    unstable = np.less_equal(wbar_sq, 0.0)
    if np.ndim(unstable) == 0 and unstable:
        raise MagneticInstabilityError(
            f"self-magnetization contraction {contraction:.6e} makes "
            "omega_k_bar^2 nonpositive",
            float(wbar_sq),
        )
    return np.sqrt(np.where(unstable, np.nan, wbar_sq))


def _matter_frequency(omega_m, mu_proj, mode: CavityMode, factor):
    """omega_m_tilde from mu.eps, with factor N (collective) or 1 (local)."""
    wt_sq = square(omega_m) + 2.0 * factor * omega_m * square(mode.eta) * square(mu_proj)
    if not np.all(np.greater(wt_sq, 0.0)):  # a sum of squares unless an input is not finite
        raise ValueError(f"omega_m_tilde^2 must be positive, got {float(np.min(wt_sq))!r}")
    return np.sqrt(wt_sq)


@elementwise
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

    Batches broadcast entry by entry: emitter.xi_scale, mode.omega_k and
    n_emitters may be arrays. A scalar xi_scale, omega_k and N make a batch
    of one: it returns Python scalars and raises MagneticInstabilityError
    where a batch holds a NaN entry.
    """
    if selfpol not in ("collective", "local"):
        raise ValueError(f"selfpol must be 'collective' or 'local', got {selfpol!r}")
    eps = standing_wave_polarization(mode)
    omega_m = emitter.omega_m
    mu_proj = emitter.mu @ eps
    quad_proj = np.sum(emitter.quadrupole * polarization_gradient(mode))
    magnetic = np.sum(chiral_tdm_vector(emitter) * eps, axis=-1)
    # broadcast over a xi batch, so that every field carries its axis and an
    # unstable omega_k_bar there is NaN, not a raise
    contraction = np.broadcast_to(eps @ emitter.chi_m @ eps, np.shape(magnetic))
    omega_k = mode.omega_k
    electric = mu_proj + quad_proj
    factor = n_emitters if selfpol == "collective" else 1

    omega_k_bar = _photon_frequency(contraction, mode, n_emitters)
    omega_m_tilde = _matter_frequency(omega_m, mu_proj, mode, factor)

    # ratios before products: omega_k_bar*omega_m goes subnormal at omega_m ~ 1e-158
    g_tilde = mode.eta * np.sqrt(0.5 * omega_k_bar * (omega_m / omega_m_tilde)) * electric
    xi_tilde = (omega_m_tilde / omega_m) * (omega_k / omega_k_bar) * magnetic / electric
    g_bar = mode.eta * np.sqrt(omega_k_bar / 2.0) * electric
    xi_bar = (omega_k / omega_k_bar) * magnetic / electric

    # omega_m_tilde^2 cancels the dipole part of 4Ng^2 = 2N eta^2 omega_m e^2
    # omega_k_bar/omega_m_tilde exactly (factor is the N of that dressing);
    # no frequency is squared, so tiny frequencies do not go subnormal
    scale = 2.0 * square(mode.eta)
    excess = factor * quad_proj * (2.0 * mu_proj + quad_proj)
    excess = excess + (n_emitters - factor) * square(electric)
    magnetic_sq = n_emitters * scale * omega_m * square(omega_k * magnetic / omega_m)
    f1 = omega_k_bar * (omega_m / omega_m_tilde) * (omega_m - scale * excess)
    f2 = omega_m_tilde * (omega_k_bar - magnetic_sq / omega_k_bar)

    # a decoupled entry has g = xi = 0, so its factors are the dressed product
    decoupled = electric == 0.0
    product = omega_k_bar * omega_m_tilde
    g_tilde, xi_tilde, g_bar, xi_bar = (
        np.where(decoupled, 0.0, x) for x in (g_tilde, xi_tilde, g_bar, xi_bar)
    )
    f1, f2 = (np.where(decoupled, product, f) for f in (f1, f2))
    # an entry without a real omega_k_bar is NaN throughout
    unstable = np.isnan(omega_k_bar)
    names = ("omega_k_bar", "omega_m_tilde", "g_tilde", "xi_tilde", "g_bar", "xi_bar", "f1", "f2")
    values = (omega_k_bar, omega_m_tilde, g_tilde, xi_tilde, g_bar, xi_bar, f1, f2)
    return DerivedCouplings(
        n_emitters=n_emitters,
        handedness=mode.handedness,
        decoupled=scalar_or_array(decoupled),
        **{name: scalar_or_array(np.where(unstable, np.nan, x)) for name, x in zip(names, values)},
    )


def _coupling_sq_prefactor(emitter: Emitter, mode: CavityMode, n_emitters: int) -> float:
    # hbar*omega_m_tilde*omega_k^2 / (2*eps0*V*omega_k_bar*omega_m) with
    # 1/(eps0*V) = eta^2; dressed frequencies at the reference orientation.
    c = derive_couplings(emitter, mode, n_emitters)
    return (
        mode.eta**2
        * c.omega_m_tilde
        * mode.omega_k**2
        / (2.0 * c.omega_k_bar * emitter.omega_m)
    )


def orientation_averaged_coupling_sq(
    emitter: Emitter, mode: CavityMode, n_emitters: int
) -> float:
    """Isotropic average of the squared collective coupling |g|^2.

    Closed form (N/3) * prefactor * [(1+s^2)|mu|^2 + 2 lambda s <mu|U mu>];
    only the chiral component (parallel projection of U mu on mu) is
    handedness-selective. Takes one emitter: a scalar xi_scale.
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


def sample_orientation_coupling(
    emitter: Emitter,
    mode: CavityMode,
    n_emitters: int,
    seed: int,
    n_samples: int,
) -> MonteCarloEstimate:
    """Monte-Carlo estimate of the orientation-averaged squared coupling.

    For a molecular rotation R, the combined moment c = mu + lambda m, with
    m = s R_mu(delta) U mu the emitter's chiral_tdm_vector, projects on the
    real polarization eps as (R c).eps = c.(R^T eps), and R^T eps is a
    uniform direction when R is Haar-distributed. So it draws directions n
    (cos(theta) uniform on [-1, 1], azimuth uniform on [0, 2pi)) and
    averages (n.c)^2. Deterministic for a fixed seed; converges to
    orientation_averaged_coupling_sq, and is exactly 0 for mu = 0. Takes one
    emitter: a scalar xi_scale.
    """
    require_one_xi(emitter, "sample_orientation_coupling")
    if n_samples < 100:
        raise ValueError(f"n_samples must be at least 100, got {n_samples}")
    rng = np.random.default_rng(seed)
    cos_theta = rng.uniform(-1.0, 1.0, n_samples)
    phi = rng.uniform(0.0, 2.0 * np.pi, n_samples)
    sin_theta = np.sqrt(1.0 - cos_theta**2)
    n_hat = np.column_stack(
        (sin_theta * np.cos(phi), sin_theta * np.sin(phi), cos_theta)
    )
    combined = emitter.mu + mode.handedness * chiral_tdm_vector(emitter)
    samples = (n_hat @ combined) ** 2

    scale = n_emitters * _coupling_sq_prefactor(emitter, mode, n_emitters)
    value = scale * float(np.mean(samples))
    stderr = scale * float(np.std(samples, ddof=1) / np.sqrt(n_samples))
    return MonteCarloEstimate(value, stderr)
