"""Chiral-representation Dirac algebra, SL(2,C) matrices and Lorentz boosts.

Fixed conventions used throughout the package:

* metric  eta = diag(+1, -1, -1, -1)
* Levi-Civita  eps^{0123} = -eps_{0123} = -1  (spatial eps_{123} = +1)
* natural units  hbar = c = 1
* chiral (Weyl) gamma matrices; no representation switching

Every constant of the algebra is one array indexed like its symbol:
``GAMMA[mu]``, ``GAMMA5``, ``SL2C[mu, nu]``, ``SPIN[i]``, ``PAULI[i]`` and
``EPS3[i, j, k]`` (0-based indices; an index out of range raises
``IndexError``), and ``cross(p, M)`` is the one contraction eps_ijk p^j M_k
(``cross_vectors(a, b)`` its form for two stacks of vectors).
All matrices are dense complex ``numpy`` arrays and every identity is
checked numerically against a stated tolerance, never symbolically.
A ``Momentum`` batch owns what is evaluated on it: its flip, its
per-component view and every ``memoized`` quantity live as long as the batch.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

DEFAULT_IDENTITY_TOL = 1e-12

PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)


# eps_ijk = (i - j)(j - k)(k - i)/2 on 0-based indices, eps_123 = +1
EPS3 = np.fromfunction(lambda i, j, k: (i - j) * (j - k) * (k - i) / 2.0, (3, 3, 3))


_STENCIL = np.array([2.0, 1.0, -1.0, -2.0])


def central_gradient(fn, x, h) -> np.ndarray:
    """4th-order central differences of fn at x along each coordinate of x.

    x has shape (..., d), or is a ``Momentum`` batch (d = 3); h is one step or an
    array of x's batch shape.  fn is called once, on all 4d shifted points stacked
    in an axis just before the coordinate axis (for a batch x, one ``Momentum`` at
    its mass), so it maps (..., 4d, d) to (..., 4d, *out); the result has shape
    (..., d, *out).
    """
    mass = x.m if isinstance(x, Momentum) else None
    x = np.asarray(x if mass is None else x.p, dtype=float)
    d, batch = x.shape[-1], x.shape[:-1]
    h = np.broadcast_to(np.asarray(h, dtype=float), batch)
    steps = _STENCIL[:, None, None] * (h[..., None, None] * np.eye(d))[..., None, :, :]
    pts = (x[..., None, None, :] + steps).reshape(batch + (4 * d, d))
    f = fn(pts if mass is None else Momentum(pts, mass))
    f = f.reshape(batch + (4, d) + f.shape[len(batch) + 1 :])
    f2, f1, fm1, fm2 = np.moveaxis(f, len(batch), 0)
    h = h.reshape(batch + (1,) * (f.ndim - 1 - len(batch)))
    return (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)


def read_only(x):
    """A read-only view of an array, or a tuple of them; anything else as is."""
    if isinstance(x, np.ndarray):
        x = x.view()
        x.flags.writeable = False
    elif isinstance(x, tuple):
        x = tuple(read_only(y) for y in x)
    return x


def require_momentum(q, name: str) -> None:
    """Refuse anything but a ``Momentum`` batch as the momentum argument of ``name``:
    an array (..., 3) carries no mass.  Every function of a momentum checks this way."""
    if not isinstance(q, Momentum):
        raise TypeError(f"{name} takes a batch Momentum(p, m), not {type(q).__name__}")


def memoized(fn):
    """``fn(owner, q)`` evaluated once per momentum batch q and kept on q, read-only.

    The entry lives while both its batch and its owner do: q holds it and the
    owner's death drops it, so a long-lived batch keeps nothing of a short-lived
    owner and an owner's id names no other owner meanwhile.  ``fn`` gets q itself,
    so the memoized quantities it reads of q are kept on q too.  q is a
    ``Momentum`` and nothing else: an array (..., 3) carries no mass, so it raises
    ``TypeError`` and no batch is made for it.  A batch that raises keeps nothing,
    so it raises again.
    """

    @functools.wraps(fn)
    def cached(owner, q):
        if not isinstance(q, Momentum):
            require_momentum(q, fn.__qualname__)
        key = (id(owner), fn)
        entry = q._evaluations.get(key)
        if entry is None:
            value, batch = read_only(fn(owner, q)), weakref.ref(q)

            def forget(_):  # the owner is gone, and with it its entries on live batches
                live = batch()
                if live is not None:
                    del live._evaluations[key]

            entry = q._evaluations[key] = (weakref.ref(owner, forget), value)
        return entry[1]

    return cached


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a.conj(), -1, -2)


def contract(v: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """v^i mats_i: ``np.tensordot(v, mats, axes=(-1, 0))`` bit for bit, as the one ``np.dot``
    of v as (batch, i) and mats as (i, rest) it forms, without its Python-level bookkeeping."""
    out = np.dot(v.reshape(-1, v.shape[-1]), mats.reshape(len(mats), -1))
    return out.reshape(v.shape[:-1] + mats.shape[1:])


def norm(x: np.ndarray) -> np.ndarray:
    """|x| over the last axis: ``np.linalg.norm(x, axis=-1)``'s own sum of squares and
    sqrt, bit for bit, without its Python-level dispatch on ``ord`` and ``axis``."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


# (i + 1, i + 2) mod 3 for i = 0, 1, 2: the (j, k) of eps_ijk = +1
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def cross(p: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """(p ^ M)_i = eps_ijk p^j M_k for a stack M (..., 3, a, b) of three matrices.

    One broadcast product p^j M_k, read as p^(i+1) M_(i+2) - p^(i+2) M_(i+1); p
    (..., 3) broadcasts against the stack's batch, and the result equals the eps_ijk
    contraction bit for bit, whose other seven terms per row are exact zeros.  At a
    single momentum it costs what the contraction did; on batches a fraction."""
    pm = np.asarray(p)[..., :, None, None, None] * mats[..., None, :, :, :]
    return pm[..., _NEXT, _PREV, :, :] - pm[..., _PREV, _NEXT, :, :]


def cross_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a ^ b over the last axis of two broadcasting (..., 3) stacks, as ``cross`` reads
    it, a^(i+1) b^(i+2) - a^(i+2) b^(i+1): the bits of ``np.cross`` at half its cost."""
    return a[..., _NEXT] * b[..., _PREV] - a[..., _PREV] * b[..., _NEXT]


def _block(a, b, c, d) -> np.ndarray:
    """[[a, b], [c, d]] over the last two axes, the blocks broadcast against each other."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.block([[a, b], [c, d]])


_Z2 = np.zeros((2, 2), dtype=complex)

# gamma^mu = [[0, sigma^mu], [sigmabar^mu, 0]], sigma^mu = (1, sigma), sigmabar^mu = (1, -sigma)
GAMMA = _block(_Z2, np.concatenate((ID2[None], PAULI)), np.concatenate((ID2[None], -PAULI)), _Z2)

GAMMA5 = np.diag([-1.0, -1.0, 1.0, 1.0]).astype(complex)

# charge conjugation acting on conjugated spinors, v = C u*; C = C^-1
CCONJ = 1j * GAMMA[2]
# C is real, symmetric and anti-diagonal, C_{i, 3-i} = s_i; _C_SIGNS[i, j] = s_i s_j
_C_SIGNS = np.outer(np.fliplr(CCONJ).diagonal().real, np.fliplr(CCONJ).diagonal().real)


def charge_conjugate(a: np.ndarray) -> np.ndarray:
    """A^c = C A^T C of a stack (..., 4, 4), (A^c)_ij = s_i s_j A_(3-j)(3-i), exactly."""
    return _C_SIGNS * np.swapaxes(a[..., ::-1, ::-1], -1, -2)


# SL(2,C) generators s^{mu nu} = (i/4)[gamma^mu, gamma^nu], stacked [mu, nu]
SL2C = 0.25j * (GAMMA[:, None] @ GAMMA[None, :] - GAMMA[None, :] @ GAMMA[:, None])

# Pauli-Dirac spin matrices s_i = (1/2) eps_ijk s^jk = diag(sigma_i, sigma_i)/2
SPIN = np.kron(ID2, PAULI) / 2.0


def _half_angle(v, cos, sin) -> np.ndarray:
    """cos(|v|/2) 1 + sin(|v|/2) n.sigma, n = v/|v| and n = 0 at v = 0, (..., 2, 2)."""
    v = np.asarray(v, dtype=float)
    angle = norm(v)
    n = v / np.where(angle == 0.0, 1.0, angle)[..., None]
    half = (angle / 2.0)[..., None, None]
    return cos(half) * ID2 + sin(half) * contract(n, PAULI)


def rotation(theta) -> np.ndarray:
    """Spinor rotations r(theta) = diag(rhat, rhat), rhat = exp(-i theta.sigma/2), (..., 4, 4)."""
    rhat = rotation_su2(theta)
    return _block(rhat, _Z2, _Z2, rhat)


def rotation_su2(theta) -> np.ndarray:
    """SU(2) rotations exp(-i theta.sigma/2) of theta (..., 3), in the half-angle form."""
    return _half_angle(theta, np.cos, lambda x: -1j * np.sin(x))


def boost_su2(tau) -> np.ndarray:
    """Upper-block boosts exp(tau.sigma/2), (..., 2, 2); the lower block carries the inverse."""
    return _half_angle(tau, np.cosh, np.sinh)


def boost_param(tau) -> np.ndarray:
    """SL(2,C) boosts l(tau) = diag(lhat, lhat^-1), lhat = exp(tau.sigma/2), (..., 4, 4)."""
    lhat = boost_su2(tau)
    return _block(lhat, _Z2, _Z2, np.linalg.inv(lhat))


@dataclass(frozen=True)
class Momentum:
    """Three-momenta p of shape (..., 3) at one mass, E(p) = sqrt(p^2 + m^2).

    The leading axes are a batch; a single momentum is the batch of shape ()
    and its ``mag`` and ``energy`` are scalars.  ``p`` is a read-only copy of
    the array given, so nothing derived from the batch follows later writes to
    that array.  The batch owns what is derived from it: ``mag``, ``energy``,
    ``flipped()``, ``per_component`` and every ``@memoized`` quantity are made
    once and dropped with the batch.
    """

    p: np.ndarray = field()
    m: float = 1.0
    # (id(owner), fn) -> (weakref to owner, fn(owner, self)); ``memoized``'s alone
    _evaluations: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        p = np.array(self.p, dtype=float, order="C")
        if p.shape[-1:] != (3,):
            raise ValueError(f"momenta must have shape (..., 3), got {p.shape}")
        if not 0.0 < self.m < np.inf:  # also rejects nan
            raise ValueError(f"mass must be positive and finite, got {self.m}")
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

    @functools.cached_property
    def mag(self) -> np.ndarray:
        """|p| as ``norm``: numpy's own norm arithmetic bit for bit, so |p| and E keep theirs."""
        return norm(self.p)

    @functools.cached_property
    def energy(self) -> np.ndarray:
        return np.sqrt(self.mag**2 + self.m**2)

    @property
    def four(self) -> np.ndarray:
        """On-shell four-momentum (E, p), shape (..., 4)."""
        return np.concatenate((self.energy[..., None], self.p), axis=-1)

    def flipped(self) -> "Momentum":
        """The batch -p at the same mass, made once: ``q.flipped().flipped() is q``.
        The batch holds its flip and the flip holds the batch weakly, so the pair
        is no reference cycle; a flip that outlives its batch makes a new one."""
        flip = self.__dict__.get("_flip")
        if isinstance(flip, weakref.ref):
            flip = flip()
        if flip is None:
            flip = self.__dict__["_flip"] = Momentum(-self.p, self.m)
            flip.__dict__["_flip"] = weakref.ref(self)
        return flip

    @functools.cached_property
    def per_component(self) -> "Momentum":
        """The batch with one more axis, (..., 1, 3), against which a component
        stack (..., k, ...) broadcasts."""
        return Momentum(self.p[..., None, :], self.m)


G0G = GAMMA[0] @ GAMMA[1:]  # gamma^0 gamma^i, i = 1..3


def boost_for_momentum(q: Momentum) -> np.ndarray:
    """Standard boost l_p = (E + m + gamma^0 gamma.p) / sqrt(2m(E+m)), (..., 4, 4).

    Hermitian, with l_p^-1 = l_{-p} and l_p^2 = (E + gamma^0 gamma.p)/m.
    """
    require_momentum(q, "boost_for_momentum")
    e, m = q.energy[..., None, None], q.m
    return ((e + m) * ID4 + contract(q.p, G0G)) / np.sqrt(2.0 * m * (e + m))


def lorentz_boost_matrix(q: Momentum) -> np.ndarray:
    """Vector-representation boost L_p taking (m,0,0,0) to (E,p), (..., 4, 4)."""
    require_momentum(q, "lorentz_boost_matrix")
    L = np.empty(q.p.shape[:-1] + (4, 4))
    L[..., 0, 0] = q.energy / q.m
    L[..., 0, 1:] = L[..., 1:, 0] = q.p / q.m
    L[..., 1:, 1:] = theta_tensor(q)[0]
    return L


def theta_tensor(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Space block of L_p and its 3x3 inverse, each (..., 3, 3).

    Theta_ij = delta_ij + p^i p^j / (m(E+m)),
    Theta^-1_ij = delta_ij - p^i p^j / (E(E+m)).
    """
    require_momentum(q, "theta_tensor")
    e, m = q.energy[..., None, None], q.m
    pp = q.p[..., :, None] * q.p[..., None, :]
    theta = np.eye(3) + pp / (m * (e + m))
    theta_inv = np.eye(3) - pp / (e * (e + m))
    return theta, theta_inv


def foldy_wouthuysen(q: Momentum) -> np.ndarray:
    """Unitary transformation (E + m + gamma.p)/sqrt(2E(E+m)) diagonalising H_D."""
    require_momentum(q, "foldy_wouthuysen")
    e, m = q.energy[..., None, None], q.m
    return ((e + m) * ID4 + contract(q.p, GAMMA[1:])) / np.sqrt(2.0 * e * (e + m))


def lorentz_of(lam: np.ndarray) -> np.ndarray:
    """Vector-representation image of spinor transformations (..., 4, 4).

    Uses the canonical homomorphism lam^-1 gamma^a lam = Lambda^a_b gamma^b
    and trace orthogonality Tr(gamma^a gamma^b) = 4 eta^{ab}.
    """
    lam = np.asarray(lam)
    conj = np.linalg.inv(lam)[..., None, :, :] @ GAMMA @ lam[..., None, :, :]
    lower = METRIC.diagonal()[:, None, None] * GAMMA
    return np.real(np.einsum("...aij,bji->...ab", conj, lower)) / 4.0


def dirac_adjoint_deviation(mat: np.ndarray) -> float:
    """Deviation from Dirac self-adjointness, max || gamma^0 M^+ gamma^0 - M ||
    over a stack of matrices (..., 4, 4)."""
    return float(np.max(np.abs(GAMMA[0] @ dagger(mat) @ GAMMA[0] - mat)))
