"""Chiral emitters: tensor electric-to-magnetic TDM mapping and reciprocity."""

from dataclasses import dataclass, field

import numpy as np

_ORTHOGONALITY_TOL = 1e-12
_SYMMETRY_TOL = 1e-12


def _as_matrix(value, name: str) -> np.ndarray:
    mat = np.asarray(value, dtype=float)
    if mat.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {mat.shape}")
    return mat


@dataclass(frozen=True, eq=False)
class Emitter:
    """Chiral emitter with a tensor chirality mapping m = -i c (s R_mu(delta) U) mu.

    omega_m     : matter transition frequency (a.u.)
    mu          : electric transition dipole moment, real 3-vector (a.u.)
    quadrupole  : electric quadrupole tensor Q_ab, real symmetric 3x3 (a.u.)
    xi_scale    : chirality scale s (real by reciprocity); an array makes a
                  batch of emitters that differ only in s, as an array
                  CavityMode.omega_k makes a batch of modes.
                  chiral_tdm_vector and derive_couplings take the batch
                  entry by entry; discrimination, find_critical_n, the
                  orientation averages and the Tavis-Cummings dispersion
                  take one s
    xi_rotation : orthogonal 3x3 part U of the mapping (default identity)
    roll_delta  : rotation angle about mu completing the mapping, in [0, 2pi)
    chi_m       : parametric self-magnetization tensor, real symmetric 3x3
    """

    omega_m: float
    mu: np.ndarray
    quadrupole: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))
    xi_scale: float | np.ndarray = 0.0
    xi_rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    roll_delta: float = 0.0
    chi_m: np.ndarray = field(default_factory=lambda: np.zeros((3, 3)))

    def __post_init__(self):
        if not self.omega_m > 0:
            raise ValueError(f"omega_m must be positive, got {self.omega_m}")
        mu = np.asarray(self.mu)
        if np.iscomplexobj(mu) and np.any(mu.imag != 0):
            raise ValueError("mu must be real-valued (complex TDMs are rejected)")
        mu = mu.real.astype(float)
        if mu.shape != (3,):
            raise ValueError(f"mu must be a 3-vector, got shape {mu.shape}")
        xi = np.asarray(self.xi_scale)
        if np.iscomplexobj(xi) and np.any(xi.imag != 0):
            raise ValueError("xi_scale must be real (reciprocity)")
        xi = xi.real.astype(float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "xi_scale", xi if xi.ndim else float(xi))
        object.__setattr__(self, "roll_delta", float(self.roll_delta) % (2 * np.pi))

        rot = _as_matrix(self.xi_rotation, "xi_rotation")
        defect = np.linalg.norm(rot.T @ rot - np.eye(3))
        if defect > _ORTHOGONALITY_TOL:
            raise ValueError(f"xi_rotation is not orthogonal (defect {defect:.3e})")
        object.__setattr__(self, "xi_rotation", rot)

        for name in ("quadrupole", "chi_m"):
            mat = _as_matrix(getattr(self, name), name)
            asym = np.linalg.norm(mat - mat.T)
            if asym > _SYMMETRY_TOL:
                raise ValueError(f"{name} is not symmetric (defect {asym:.3e})")
            object.__setattr__(self, name, mat)

    @classmethod
    def collinear(cls, omega_m, mu, xi) -> "Emitter":
        """Scalar collinear case m = -i c xi mu: s = xi, U = identity, delta = 0."""
        return cls(omega_m=omega_m, mu=mu, xi_scale=xi)


def require_one_xi(emitter: Emitter, caller: str) -> None:
    """Reject a batch of emitters (an array xi_scale) in caller, which takes
    one."""
    if np.ndim(emitter.xi_scale):
        raise ValueError(
            f"{caller} takes one emitter (a scalar xi_scale), "
            f"got an xi_scale array of shape {np.shape(emitter.xi_scale)}"
        )


def rotate(rotvec, v) -> np.ndarray:
    """v turned by the rotation vector theta*k (Rodrigues' formula),
    v cos(theta) + (k x v) sin(theta) + k (k.v)(1 - cos(theta)).

    Both broadcast over leading axes, so rows of rotation vectors turn rows
    of vectors; a zero rotation vector leaves v as it is.
    """
    rotvec = np.asarray(rotvec, dtype=float)
    angle = np.linalg.norm(rotvec, axis=-1, keepdims=True)
    axis = rotvec / np.where(angle == 0.0, 1.0, angle)
    cos = np.cos(angle)
    along = axis * (np.sum(axis * v, axis=-1, keepdims=True) * (1.0 - cos))
    return v * cos + np.cross(axis, v) * np.sin(angle) + along


def chiral_tdm_vector(emitter: Emitter) -> np.ndarray:
    """Magnetic transition moment over -i c, i.e. R_mu(delta) * s * U * mu.

    The norm equals |s|*|mu| since rotations preserve length. An array s
    gives one moment per entry, on a new last axis. U mu is formed once and
    then scaled, so that an entry of a batch is bitwise the moment of the
    emitter with that scalar s.
    """
    mu = emitter.mu
    core = np.multiply.outer(emitter.xi_scale, emitter.xi_rotation @ mu)
    if emitter.roll_delta == 0.0:
        return core
    norm = np.linalg.norm(mu)
    if norm == 0.0:
        raise ValueError("roll_delta rotation undefined for mu = 0 (no axis)")
    return rotate(emitter.roll_delta * mu / norm, core)

