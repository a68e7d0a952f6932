"""Polarization spinor bases and their Sigma matrices and Omega connections.

Two families are provided: *common* polarization (spin measured along the
fixed axis e3: xi, eta and Sigma are constant and Omega vanishes) and the
*peculiar* helicity basis (spin measured along the momentum direction).  Both
take a momentum batch, a ``Momentum`` (an array raises ``TypeError``), and
supply, per momentum,

* ``xi(p)``      2x2 matrix whose columns are xi_{+1/2}, xi_{-1/2}
* ``eta(p)``     partner spinors eta_sigma = i sigma_2 xi_sigma^*
* ``sigma(p)``   Sigma_i(p) with entries xi_sigma^+ sigma_i xi_sigma'
* ``omega(p)``   connections Omega_i(p) with entries xi_sigma^+ d_i xi_sigma'

Row/column index 0 corresponds to sigma = +1/2, index 1 to sigma = -1/2.
"""

from __future__ import annotations

import numpy as np

from .algebra import ID2, PAULI, contract, memoized, read_only

EPS_POLE = 1e-9

_ISIGMA2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)


class PoleError(ValueError):
    """Raised when a basis is evaluated on (or too close to) its chart pole."""


def sigma_index(sigma: float) -> int:
    """Map a polarization label +/- 1/2 to a matrix index (0 or 1)."""
    if sigma == 0.5:
        return 0
    if sigma == -0.5:
        return 1
    raise ValueError(f"sigma must be +0.5 or -0.5, got {sigma}")


def _chart(n: np.ndarray) -> np.ndarray:
    """1 + n^3 as |n + e3|^2 / 2: no digits cancel near the n^3 = -1 pole."""
    return 0.5 * (n[..., 0] ** 2 + n[..., 1] ** 2 + (1.0 + n[..., 2]) ** 2)


def _charted_pair(n: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Spin-projection eigenspinors along unit vectors n (..., 3) whose chart
    den = 1 + n^3 is checked, as the columns of (..., 2, 2) matrices: they solve
    (n.sigma/2) xi_sigma = sigma xi_sigma, singular on the n^3 = -1 pole."""
    pref = np.sqrt(den / 2.0)
    nplus = (n[..., 0] + 1j * n[..., 1]) / den
    xi = np.empty(n.shape[:-1] + (2, 2), dtype=complex)
    xi[..., 0, 0] = xi[..., 1, 1] = pref
    xi[..., 1, 0] = pref * nplus
    xi[..., 0, 1] = -pref * nplus.conj()
    return xi


def eta_from_xi(xi: np.ndarray) -> np.ndarray:
    """Partner spinors eta = i sigma_2 xi^* (columnwise)."""
    return _ISIGMA2 @ xi.conj()


class PolarizationBasis:
    """Base class; a concrete basis defines ``xi`` and ``omega``, and eta and
    Sigma derive from its xi here.

    Every method takes a momentum batch, a ``Momentum`` q, and returns one
    matrix, or one stack of three, per momentum.  eta and Sigma are
    ``@memoized``, as each basis's xi and Omega are: each is kept on the batch q
    per basis, so a basis evaluates each quantity once on a batch.  Every output
    is read-only.
    """

    kind = "generic"

    def xi(self, q) -> np.ndarray:
        raise NotImplementedError

    @memoized
    def eta(self, q) -> np.ndarray:
        return read_only(eta_from_xi(self.xi(q)))

    @memoized
    def sigma(self, q) -> np.ndarray:
        """Sigma_i(p) = xi^+(p) sigma_i xi(p), shape (..., 3, 2, 2), written out in
        xi's entries: with o[r, s][a, b] = xi_ra* xi_sb, Sigma_1 = o[0, 1] + o[1, 0],
        Sigma_2 = -i (o[0, 1] - o[1, 0]) and Sigma_3 = o[0, 0] - o[1, 1], from one
        broadcast product (a matmul per momentum walks the 2x2 matrices one at a time)."""
        xi = self.xi(q)
        o = xi.conj()[..., :, None, :, None] * xi[..., None, :, None, :]
        uv, vu = o[..., 0, 1, :, :], o[..., 1, 0, :, :]
        sigma = np.stack((uv + vu, -1j * (uv - vu), o[..., 0, 0, :, :] - o[..., 1, 1, :, :]), -3)
        return read_only(sigma)


class CommonBasis(PolarizationBasis):
    """Momentum-independent basis with spin measured along n = e3: xi = 1 and
    Omega = 0, so eta = i sigma_2 and Sigma_i = sigma_i; the batch only sets the shape."""

    kind = "common"

    @memoized
    def xi(self, q) -> np.ndarray:
        return np.broadcast_to(ID2, q.p.shape[:-1] + (2, 2))

    @memoized
    def omega(self, q) -> np.ndarray:
        return np.broadcast_to(0j, q.p.shape[:-1] + (3, 2, 2))


class HelicityBasis(PolarizationBasis):
    """Peculiar basis with spin measured along n_p = p/|p|.

    Omega has a closed form; the basis is singular on the negative-p3 axis
    where the chart underlying the spinors degenerates.
    """

    kind = "helicity"

    @memoized
    def _checked(self, q) -> tuple[np.ndarray, np.ndarray]:
        """n = p/|p| and the chart 1 + n3 = |n + e3|^2 / 2, after the pole checks."""
        p, mag = q.p, q.mag
        if np.any(mag == 0.0):
            raise PoleError("helicity basis undefined at p = 0")
        n = p / mag[..., None]
        den = _chart(n)
        mp3 = mag * den
        if np.any(mp3 <= EPS_POLE * mag):
            raise PoleError(
                f"helicity chart singular on the -e3 ray (p+p3 = {np.min(mp3):.3e})"
            )
        return read_only(n), read_only(den)

    @memoized
    def xi(self, q) -> np.ndarray:
        n, den = self._checked(q)
        return read_only(_charted_pair(n, den))

    @memoized
    def omega(self, q) -> np.ndarray:
        """Closed-form Omega_i(p), shape (..., 3, 2, 2): the coefficients of
        Omega_i along (sigma_1, sigma_2, sigma_3), contracted with PAULI in one
        ``np.dot`` over the whole batch (``contract``)."""
        _, den = self._checked(q)
        p, mag = q.p, q.mag
        mp3 = mag * den
        p1, p2, p3 = p[..., 0], p[..., 1], p[..., 2]
        c = 1j / (2 * mag**2 * mp3)
        coef = np.empty(p.shape[:-1] + (3, 3), dtype=complex)
        coef[..., 0, 0] = -c * p1 * p2
        coef[..., 0, 1] = -c * (p3 * mp3 + p2**2)
        coef[..., 0, 2] = -c * mag * p2
        coef[..., 1, 0] = c * (p3 * mp3 + p1**2)
        coef[..., 1, 1] = c * p1 * p2
        coef[..., 1, 2] = c * mag * p1
        c = 1j / (2 * mag**2)
        coef[..., 2, 0] = -c * p2
        coef[..., 2, 1] = c * p1
        coef[..., 2, 2] = 0.0
        return read_only(contract(coef, PAULI))


def make_basis(kind: str) -> PolarizationBasis:
    if kind == "common":
        return CommonBasis()
    if kind == "helicity":
        return HelicityBasis()
    raise ValueError(f"unknown basis kind {kind!r}")
