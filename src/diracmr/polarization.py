"""Polarization spinor bases and their Sigma matrices and Omega connections.

Two families are provided: *common* polarization (spin measured along a fixed
unit vector, momentum independent) and the *peculiar* helicity basis (spin
measured along the momentum direction).  Both supply

* ``xi(p)``      2x2 matrix whose columns are xi_{+1/2}, xi_{-1/2}
* ``eta(p)``     partner spinors eta_sigma = i sigma_2 xi_sigma^*
* ``sigma(p)``   Sigma_i(p) with entries xi_sigma^+ sigma_i xi_sigma'
* ``omega(p)``   connections Omega_i(p) with entries xi_sigma^+ d_i xi_sigma'

Row/column index 0 corresponds to sigma = +1/2, index 1 to sigma = -1/2.
"""

from __future__ import annotations

import numpy as np

from .algebra import PAULI, central_gradient

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


def spinor_pair(n) -> np.ndarray:
    """Spin-projection eigenspinors along a unit vector n, as matrix columns.

    Columns solve (n.sigma/2) xi_sigma = sigma xi_sigma; singular on the
    n^3 = -1 pole of the chart.  1 + n^3 = (n1^2 + n2^2)/(1 - n^3) for n^3 < 0
    keeps the columns orthonormal to rounding instead of cancelling digits.
    """
    n = np.asarray(n, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    den = 1.0 + n[2] if n[2] >= 0.0 else (n[0] ** 2 + n[1] ** 2) / (1.0 - n[2])
    if den <= EPS_POLE:
        raise PoleError(f"spinor chart singular at n3 -> -1 (1+n3 = {den:.3e})")
    pref = np.sqrt(den / 2.0)
    xi_up = pref * np.array([1.0, (n[0] + 1j * n[1]) / den], dtype=complex)
    xi_dn = pref * np.array([(-n[0] + 1j * n[1]) / den, 1.0], dtype=complex)
    return np.column_stack([xi_up, xi_dn])


def eta_from_xi(xi: np.ndarray) -> np.ndarray:
    """Partner spinors eta = i sigma_2 xi^* (columnwise)."""
    return _ISIGMA2 @ xi.conj()


class PolarizationBasis:
    """Base class; concrete bases override ``xi`` (and closed forms if any)."""

    kind = "generic"

    def xi(self, p) -> np.ndarray:
        raise NotImplementedError

    def eta(self, p) -> np.ndarray:
        return eta_from_xi(self.xi(p))

    def sigma(self, p) -> np.ndarray:
        """Sigma_i(p) = xi^+(p) sigma_i xi(p), stacked over i."""
        x = self.xi(p)
        return np.stack([x.conj().T @ PAULI[i] @ x for i in range(3)])

    def omega(self, p) -> np.ndarray:
        """Connections Omega_i(p) = xi^+(p) d_{p^i} xi(p); default by finite differences."""
        return self.omega_fd(p, 1e-4 * float(np.linalg.norm(p)))

    def omega_fd(self, p, h: float) -> np.ndarray:
        """4th-order central finite-difference Omega with step h, for
        cross-validation; direction-dependent (helicity-type) spinors vary on
        the scale |p|, so h of order 1e-4 |p| suits them.
        """
        return self.xi(p).conj().T @ central_gradient(self.xi, p, h)


class CommonBasis(PolarizationBasis):
    """Momentum-independent basis: spin measured along a fixed unit vector n.

    Omega vanishes identically; with n = e3 the spinors are the standard
    momentum-spin basis (1,0) and (0,1).
    """

    kind = "common"

    def __init__(self, n=(0.0, 0.0, 1.0)):
        self.n = np.asarray(n, dtype=float)
        self._xi = spinor_pair(self.n)
        self._eta = eta_from_xi(self._xi)
        self._sigma = np.stack(
            [self._xi.conj().T @ PAULI[i] @ self._xi for i in range(3)]
        )

    def xi(self, p=None) -> np.ndarray:
        return self._xi

    def eta(self, p=None) -> np.ndarray:
        return self._eta

    def sigma(self, p=None) -> np.ndarray:
        return self._sigma

    def omega(self, p=None) -> np.ndarray:
        return np.zeros((3, 2, 2), dtype=complex)


class HelicityBasis(PolarizationBasis):
    """Peculiar basis with spin measured along n_p = p/|p|.

    Sigma and Omega use closed forms; both are singular on the negative-p3
    axis where the chart underlying the spinors degenerates.
    """

    kind = "helicity"

    def _checked(self, p) -> tuple[np.ndarray, float]:
        p = np.asarray(p, dtype=float)
        mag = float(np.linalg.norm(p))
        if mag == 0.0:
            raise PoleError("helicity basis undefined at p = 0")
        if (mag + p[2]) <= EPS_POLE * mag:
            raise PoleError(
                f"helicity chart singular on the -e3 ray (p+p3 = {mag + p[2]:.3e})"
            )
        return p, mag

    def xi(self, p) -> np.ndarray:
        p, mag = self._checked(p)
        return spinor_pair(p / mag)

    def sigma(self, p) -> np.ndarray:
        p, mag = self._checked(p)
        p1, p2, p3 = p
        perp = p1 * PAULI[0] + p2 * PAULI[1]
        out = np.empty((3, 2, 2), dtype=complex)
        out[0] = (p1 / mag) * PAULI[2] - p1 * perp / (mag * (mag + p3)) + PAULI[0]
        out[1] = (p2 / mag) * PAULI[2] - p2 * perp / (mag * (mag + p3)) + PAULI[1]
        out[2] = (p3 / mag) * PAULI[2] - perp / mag
        return out

    def omega(self, p) -> np.ndarray:
        p, mag = self._checked(p)
        p1, p2, p3 = p
        s1, s2, s3 = PAULI
        out = np.empty((3, 2, 2), dtype=complex)
        out[0] = (-1j / (2 * mag**2 * (mag + p3))) * (
            p1 * p2 * s1 + mag * p2 * s3 + (mag * p3 + p2**2 + p3**2) * s2
        )
        out[1] = (1j / (2 * mag**2 * (mag + p3))) * (
            p1 * p2 * s2 + mag * p1 * s3 + (mag * p3 + p1**2 + p3**2) * s1
        )
        out[2] = (1j / (2 * mag**2)) * (p1 * s2 - p2 * s1)
        return out


def common_spinor(n, sigma: float) -> np.ndarray:
    """Single common-polarization spinor xi_sigma(n)."""
    return spinor_pair(n)[:, sigma_index(sigma)]


def helicity_spinor(p, sigma: float) -> np.ndarray:
    """Single helicity spinor xi_sigma(n_p)."""
    return HelicityBasis().xi(p)[:, sigma_index(sigma)]


def sigma_matrices(basis: PolarizationBasis, p) -> np.ndarray:
    """Spin matrices of the basis, Sigma_i(p) = xi^+(p) sigma_i xi(p)."""
    return basis.sigma(np.asarray(getattr(p, "p", p), dtype=float))


def omega_connection(basis: PolarizationBasis, p) -> np.ndarray:
    """Connection matrices Omega_i(p) = xi^+(p) d_{p^i} xi(p)."""
    return basis.omega(np.asarray(getattr(p, "p", p), dtype=float))


def make_basis(kind: str, n=(0.0, 0.0, 1.0)) -> PolarizationBasis:
    if kind == "common":
        return CommonBasis(n)
    if kind == "helicity":
        return HelicityBasis()
    raise ValueError(f"unknown basis kind {kind!r}")
