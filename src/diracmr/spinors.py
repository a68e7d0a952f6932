"""Rest-frame and boosted Dirac spinors and plane-wave mode spinors.

Normalization follows n(p) = sqrt(m/E(p)) so that boosted spinors satisfy
u^+_sigma(p) u_sigma'(p) = delta_{sigma sigma'}; mode spinors carry the
(2 pi)^{-3/2} plane-wave factor.  Distributional orthonormality is asserted
elsewhere in stripped pointwise form only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    CCONJ,
    GAMMA,
    Momentum,
    boost_for_momentum,
    contract,
    dagger,
    memoized,
    read_only,
)
from .polarization import PolarizationBasis, sigma_index

_TWO_PI_32 = (2.0 * np.pi) ** 1.5


def rest_u_matrix(basis: PolarizationBasis, q) -> np.ndarray:
    """Rest-frame particle spinors as 4x2 matrices of columns (xi; xi)/sqrt(2)."""
    xi = basis.xi(q)
    return np.concatenate([xi, xi], axis=-2) / np.sqrt(2.0)


def rest_v_matrix(basis: PolarizationBasis, q) -> np.ndarray:
    """Rest-frame antiparticle spinors, columns (eta; -eta)/sqrt(2)."""
    eta = basis.eta(q)
    return np.concatenate([eta, -eta], axis=-2) / np.sqrt(2.0)


def rest_spinors(basis: PolarizationBasis, q: Momentum, sigma: float):
    """Pair (u_ring, v_ring) of gamma^0 eigenspinors for one polarization label."""
    idx = sigma_index(sigma)
    return rest_u_matrix(basis, q)[..., idx], rest_v_matrix(basis, q)[..., idx]


def norm_factor(q: Momentum) -> np.ndarray:
    """n(p) = sqrt(m / E(p)), with n(0) = 1."""
    return np.sqrt(q.m / q.energy)


@memoized
def u_matrix(basis: PolarizationBasis, q: Momentum) -> np.ndarray:
    """Boosted particle spinors u_sigma(p) = n(p) l_p u_ring_sigma(p), as columns.

    ``@memoized``: kept on the batch q per basis; read-only.  The rest spinors come
    first: a basis that raises on q (a pole) raises before l_p is kept on q, so
    the batch keeps nothing and raises again.
    """
    n, rest = norm_factor(q)[..., None, None], rest_u_matrix(basis, q)
    return read_only(n * boost_for_momentum(q) @ rest)


@memoized
def v_matrix(basis: PolarizationBasis, q: Momentum) -> np.ndarray:
    """Boosted antiparticle spinors v_sigma(p) = C u_sigma^*(p), as columns.

    ``@memoized``: kept on the batch q per basis; read-only.
    """
    return read_only(CCONJ @ u_matrix(basis, q).conj())


def u_spinor(basis: PolarizationBasis, q: Momentum, sigma: float) -> np.ndarray:
    return u_matrix(basis, q)[..., sigma_index(sigma)]


def v_spinor(basis: PolarizationBasis, q: Momentum, sigma: float) -> np.ndarray:
    return v_matrix(basis, q)[..., sigma_index(sigma)]


def dirac_residuals(basis: PolarizationBasis, q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Max norms of (gamma p - m) u and (gamma p + m) v over both
    polarizations, one pair per momentum."""
    gp = q.energy[..., None, None] * GAMMA[0] - contract(q.p, GAMMA[1:])
    m = q.m * np.eye(4)
    ru = np.max(np.abs((gp - m) @ u_matrix(basis, q)), axis=(-2, -1))
    rv = np.max(np.abs((gp + m) @ v_matrix(basis, q)), axis=(-2, -1))
    return ru, rv


def projector_from_spinors(basis: PolarizationBasis, q: Momentum):
    """Projectors rebuilt from spinor sums.

    Returns (sum_sigma u u^+ at p, sum_sigma v v^+ at -p), which reproduce the
    positive/negative frequency projectors at momentum p.
    """
    u = u_matrix(basis, q)
    v = v_matrix(basis, q.flipped())
    return u @ dagger(u), v @ dagger(v)


@dataclass(frozen=True)
class ModeSpinorField:
    """Plane-wave mode spinor, evaluable at (t, x).

    Species "U" carries exp(-iEt + ip.x), species "V" the conjugate phase;
    both include the (2 pi)^{-3/2} normalization.
    """

    q: Momentum
    sigma: float
    basis: PolarizationBasis
    species: str = "U"

    def __post_init__(self):
        if self.species not in ("U", "V"):
            raise ValueError("species must be 'U' or 'V'")

    def amplitude(self) -> np.ndarray:
        if self.species == "U":
            return u_spinor(self.basis, self.q, self.sigma)
        return v_spinor(self.basis, self.q, self.sigma)

    def at(self, t: float, x) -> np.ndarray:
        phase = self.q.energy * t - self.q.p @ np.asarray(x, dtype=float)
        sign = -1j if self.species == "U" else 1j
        return self.amplitude() * np.exp(sign * phase)[..., None] / _TWO_PI_32
