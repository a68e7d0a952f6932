"""Passive-mode machinery: 2x2 operators acting directly on wave spinors.

A configuration-space operator acts on a free field either by transforming
the mode-spinor basis (active mode) or, equivalently, through a pair of
associated operators acting on the particle/antiparticle wave spinors in
momentum space (passive mode).  This module builds the associated operators
of the spin, position, velocity and isometry-generator families, the Wigner
little-group matrices of the induced representations, the exact commutator
of two associated operators, and the closed-form oscillating
(zitterbewegung) kernels of the particle-antiparticle mixing terms.

Associated operators are first order, alpha -> M(p) alpha + D_k(p) d~_k alpha,
with 2x2 M, scalar D_k and d~_k = d_k + Omega_k.  The connection is pure gauge,
so a commutator is again first order and needs first derivatives of M and D
only; no spinor is differentiated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    CCONJ,
    EPS3,
    ID2,
    PAULI,
    Momentum,
    boost_for_momentum,
    central_gradient,
    dagger,
    lorentz_inverse,
    lorentz_of,
    theta_tensor,
)
from .operators import OPERATOR_CATALOG
from .polarization import PolarizationBasis
from .spinors import rest_u_matrix, rest_v_matrix

# ---------------------------------------------------------------------------
# wave spinors


def _step(p: np.ndarray) -> np.ndarray:
    # helicity quantities vary on the scale of |p| itself (Omega ~ 1/|p|)
    return 1e-3 * np.linalg.norm(p, axis=-1)


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    return (mats @ vecs[..., None])[..., 0]


class WaveSpinor:
    """Two-component wave function of momentum with optional analytic gradient.

    ``value`` maps momenta (..., 3) to spinors (..., 2) and ``gradient`` to
    d alpha / d p^k, (..., 3, 2).  When no gradient is supplied, derivatives
    fall back to 4th-order central finite differences with step
    h = 1e-3 |p|, the scale on which helicity quantities vary.  The fallback
    is undefined at p = 0; no caller reaches it there.
    """

    def __init__(self, fn, grad=None):
        self._fn = fn
        self._grad = grad

    def value(self, p) -> np.ndarray:
        return np.asarray(self._fn(np.asarray(p, dtype=float)), dtype=complex)

    def gradient(self, p) -> np.ndarray:
        """d alpha / d p^k, shape (..., 3, 2)."""
        p = np.asarray(p, dtype=float)
        if self._grad is not None:
            return np.asarray(self._grad(p), dtype=complex)
        return central_gradient(self.value, p, _step(p))


def gaussian_test_spinor(rng: np.random.Generator, scale: float = 1.0) -> WaveSpinor:
    """Random smooth test spinor: degree-<=2 polynomial 2-vector times Gaussian.

    Decays at infinity and has nonzero gradients everywhere, which is what the
    finite-difference commutator checks need.
    """
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    b = 0.5 * (b + np.transpose(b, (0, 2, 1)))
    s2 = scale * scale

    def parts(p):
        g = np.exp(-np.sum(p * p, axis=-1) / (2 * s2))[..., None]
        poly = c + p @ a.T + np.einsum("sij,...i,...j->...s", b, p, p)
        return g, poly

    def value(p):
        g, poly = parts(p)
        return poly * g

    def grad(p):
        g, poly = parts(p)
        dpoly = a.T + 2.0 * np.einsum("skj,...j->...ks", b, p)
        return g[..., None] * (dpoly - p[..., :, None] * poly[..., None, :] / s2)

    return WaveSpinor(value, grad)


# ---------------------------------------------------------------------------
# matrix elements of Fourier operators between mode spinors


def matrix_elements_diag(op, q: Momentum, basis: PolarizationBasis):
    """Associated diagonal parts (A~(+), A~(-)) of a Fourier operator.

    ``op`` maps momenta to (..., k, 4, 4) stacks, as the ``OPERATOR_CATALOG``
    entries do.  A~(+) = (m/E) uring^+ l_p A(p) l_p uring and A~(-) uses the
    charge conjugation sandwich C A(-p)^T C between the same boosted rest
    spinors.  Shapes are (..., k, 2, 2) stacks over the operator components.
    """
    scale = (q.m / q.energy)[..., None, None, None]
    lp = boost_for_momentum(q)
    u0 = rest_u_matrix(basis, q.p)
    left = (dagger(u0) @ lp)[..., None, :, :]
    right = (lp @ u0)[..., None, :, :]
    sand = CCONJ @ np.swapaxes(op(q.flipped()), -1, -2) @ CCONJ
    return scale * (left @ op(q) @ right), scale * (left @ sand @ right)


def matrix_elements_offdiag(op, q: Momentum, t, basis: PolarizationBasis):
    """Oscillating off-diagonal parts (A~(+-), A~(-+)) at time t.

    Both oscillate with frequency 2E(p); for a Hermitian operator they are
    mutual adjoints at every instant.  t broadcasts against the batch.
    """
    scale = q.m / q.energy
    phase = 2j * q.energy * t
    lp = boost_for_momentum(q)
    lm = boost_for_momentum(q.flipped())
    u0 = rest_u_matrix(basis, q.p)
    v0m = rest_v_matrix(basis, -q.p)
    a_p = op(q)
    pm = (dagger(u0) @ lp)[..., None, :, :] @ a_p @ (lm @ v0m)[..., None, :, :]
    mp = (dagger(v0m) @ lm)[..., None, :, :] @ a_p @ (lp @ u0)[..., None, :, :]
    return (
        (scale * np.exp(phase))[..., None, None, None] * pm,
        (scale * np.exp(-phase))[..., None, None, None] * mp,
    )


# ---------------------------------------------------------------------------
# associated operator objects


@dataclass
class AssociatedOperator:
    """Operator on wave spinors: multiplicative part plus covariant-derivative
    term, alpha -> mult(p) alpha(p) + sum_k dcoef(p)[k] (d~_k alpha)(p).

    ``mult`` maps momenta (..., 3) to (..., 2, 2) and ``dcoef`` to the three
    scalar coefficients, (..., 3).  Spinor values may carry leading axes of
    their own, which broadcast against the momentum batch.  ``sign_c``
    records the antiparticle relation A~^c = sign_c * A~.
    """

    name: str
    basis: PolarizationBasis
    mult: Callable[[np.ndarray], np.ndarray] | None = None
    dcoef: Callable[[np.ndarray], np.ndarray] | None = None
    sign_c: int = 1

    def mult_at(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if self.mult is None:
            return np.zeros(p.shape[:-1] + (2, 2), dtype=complex)
        return self.mult(p)

    def apply(self, spinor: WaveSpinor, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        val = spinor.value(p)
        out = _matvec(self.mult_at(p), val)
        if self.dcoef is not None:
            cov = spinor.gradient(p) + _matvec(self.basis.omega(p), val[..., None, :])
            out = out + np.einsum("...k,...ka->...a", self.dcoef(p), cov)
        return out


def _covariant_gradient(op: AssociatedOperator, p: np.ndarray) -> np.ndarray:
    """d~_k M = d_k M + [Omega_k, M] of the multiplicative part, (..., 3, 2, 2)."""
    m = op.mult_at(p)[..., None, :, :]
    om = op.basis.omega(p)
    return central_gradient(op.mult_at, p, _step(p)) + om @ m - m @ om


def commutator(a: AssociatedOperator, b: AssociatedOperator) -> AssociatedOperator:
    """[A, B] as one first-order operator, the curvature term D_a,j D_b,k
    [d~_j, d~_k] being zero on the flat connection:

    mult  = [M_a, M_b] + D_a,k d~_k M_b - D_b,k d~_k M_a,
    dcoef = D_a,j d_j D_b - D_b,j d_j D_a,

    with one stencil of step 1e-3 |p| per derivative; two multiplicative
    operators need none.
    """

    def mult(p):
        ma, mb = a.mult_at(p), b.mult_at(p)
        out = ma @ mb - mb @ ma
        for x, y, sign in ((a, b, 1), (b, a, -1)):
            if x.dcoef is not None and y.mult is not None:
                out = out + sign * np.einsum("...k,...kab->...ab", x.dcoef(p), _covariant_gradient(y, p))
        return out

    def dcoef(p):
        da, db = a.dcoef(p), b.dcoef(p)
        step = _step(p)
        return (
            np.einsum("...j,...jk->...k", da, central_gradient(b.dcoef, p, step))
            - np.einsum("...j,...jk->...k", db, central_gradient(a.dcoef, p, step))
        )

    both = a.dcoef is not None and b.dcoef is not None
    return AssociatedOperator(
        f"[{a.name}, {b.name}]", a.basis, mult=mult, dcoef=dcoef if both else None
    )


def commutator_action(
    a: AssociatedOperator, b: AssociatedOperator, spinor: WaveSpinor, p
) -> np.ndarray:
    """[A, B] alpha at p, through the exact first-order ``commutator``."""
    return commutator(a, b).apply(spinor, p)


def _scalar2(x) -> np.ndarray:
    return x[..., None, None] * ID2


class AssociatedFamily:
    """Factory for the associated operators at fixed mass and polarization basis.

    Every coefficient function takes momenta of shape (..., 3).
    """

    def __init__(self, m: float, basis: PolarizationBasis):
        if m <= 0:
            raise ValueError("mass must be positive")
        self.m = float(m)
        self.basis = basis

    def _energy(self, p) -> np.ndarray:
        return np.sqrt(np.sum(p * p, axis=-1) + self.m * self.m)

    def _sigma_half(self, p) -> np.ndarray:
        return 0.5 * self.basis.sigma(p)

    def _theta_spin(self, i: int, inverse: bool):
        def mult(p):
            theta = theta_tensor(Momentum(p, self.m))[int(inverse)]
            return np.einsum("...j,...jab->...ab", theta[..., i, :], self._sigma_half(p))

        return mult

    # --- diagonal translations / velocity -------------------------------

    def hamiltonian(self) -> AssociatedOperator:
        return AssociatedOperator(
            "H~", self.basis, mult=lambda p: _scalar2(self._energy(p)), sign_c=-1
        )

    def momentum(self, i: int) -> AssociatedOperator:
        return AssociatedOperator(
            f"P~{i + 1}", self.basis, mult=lambda p: _scalar2(p[..., i]), sign_c=-1
        )

    def velocity(self, i: int) -> AssociatedOperator:
        return AssociatedOperator(
            f"V~{i + 1}", self.basis, mult=lambda p: _scalar2(p[..., i] / self._energy(p))
        )

    # --- spin sector -----------------------------------------------------

    def spin(self, i: int) -> AssociatedOperator:
        return AssociatedOperator(
            f"S~{i + 1}", self.basis, mult=lambda p: self._sigma_half(p)[..., i, :, :], sign_c=-1
        )

    def polarization(self) -> AssociatedOperator:
        return AssociatedOperator(
            "Ws~",
            self.basis,
            mult=lambda p: np.broadcast_to(0.5 * PAULI[2], p.shape[:-1] + (2, 2)),
            sign_c=-1,
        )

    def spin_plus(self, i: int) -> AssociatedOperator:
        return AssociatedOperator(
            f"S~(+){i + 1}", self.basis, mult=self._theta_spin(i, False), sign_c=-1
        )

    def spin_minus(self, i: int) -> AssociatedOperator:
        return AssociatedOperator(
            f"S~(-){i + 1}", self.basis, mult=self._theta_spin(i, True), sign_c=-1
        )

    def pauli_lubanski0(self) -> AssociatedOperator:
        return AssociatedOperator(
            "W~0",
            self.basis,
            mult=lambda p: np.einsum("...j,...jab->...ab", p, self._sigma_half(p)),
            sign_c=1,
        )

    def pauli_lubanski(self, i: int) -> AssociatedOperator:
        base = self.spin_plus(i)
        return AssociatedOperator(
            f"W~{i + 1}", self.basis, mult=lambda p: self.m * base.mult(p), sign_c=1
        )

    # --- position sector ---------------------------------------------------

    def position(self, i: int, t: float = 0.0) -> AssociatedOperator:
        def dcoef(p):
            return np.broadcast_to(1j * np.eye(3)[i], p.shape)

        mult = None
        if t != 0.0:
            mult = lambda p: _scalar2(t * p[..., i] / self._energy(p))
        return AssociatedOperator(
            f"X~{i + 1}", self.basis, mult=mult, dcoef=dcoef, sign_c=1
        )

    def angular(self, i: int) -> AssociatedOperator:
        def dcoef(p):
            return -1j * (p @ EPS3[i])

        return AssociatedOperator(f"L~{i + 1}", self.basis, dcoef=dcoef, sign_c=-1)

    def boost_orbital(self, i: int) -> AssociatedOperator:
        def dcoef(p):
            return 1j * self._energy(p)[..., None] * np.eye(3)[i]

        def mult(p):
            return _scalar2(0.5j * p[..., i] / self._energy(p))

        return AssociatedOperator(
            f"Ko~{i + 1}", self.basis, mult=mult, dcoef=dcoef, sign_c=-1
        )

    def boost_spin(self, i: int) -> AssociatedOperator:
        def mult(p):
            e = self._energy(p)[..., None, None]
            sh = self._sigma_half(p)
            return np.einsum("jk,...j,...kab->...ab", EPS3[i], p, sh) / (e + self.m)

        return AssociatedOperator(f"Ks~{i + 1}", self.basis, mult=mult, sign_c=-1)

    # --- alternative position splittings ------------------------------------

    # spin offsets (p ^ S~)_i / (E(E+m)) and -(p ^ S~)_i / (m(E+m)) are the
    # boost-spin multiple Ks~_i / E and -Ks~_i / m

    def position_pryce_c(self, i: int) -> AssociatedOperator:
        ks = self.boost_spin(i)
        return AssociatedOperator(
            f"Xc~{i + 1}",
            self.basis,
            mult=lambda p: ks.mult(p) / self._energy(p)[..., None, None],
            dcoef=self.position(i).dcoef,
            sign_c=1,
        )

    def position_pryce_d(self, i: int) -> AssociatedOperator:
        ks = self.boost_spin(i)
        return AssociatedOperator(
            f"Xd~{i + 1}",
            self.basis,
            mult=lambda p: -ks.mult(p) / self.m,
            dcoef=self.position(i).dcoef,
            sign_c=1,
        )

    def y_pryce_c(self, i: int) -> AssociatedOperator:
        base = self.spin_plus(i)
        return AssociatedOperator(
            f"Yc~{i + 1}",
            self.basis,
            mult=lambda p: (self.m / self._energy(p) ** 3)[..., None, None] * base.mult(p),
            sign_c=-1,
        )

    def y_pryce_d(self, i: int) -> AssociatedOperator:
        base = self.spin_plus(i)
        return AssociatedOperator(
            f"Yd~{i + 1}",
            self.basis,
            mult=lambda p: base.mult(p) / (self.m * self._energy(p))[..., None, None],
            sign_c=-1,
        )


def pryce_cd_associated(q: Momentum, basis: PolarizationBasis):
    """Associated position operators of the alternative splittings and the
    noncommutativity vectors their commutators generate.

    Returns (X_c, X_d, Y_c, Y_d), each a list of three operators.
    """
    fam = AssociatedFamily(q.m, basis)
    return (
        [fam.position_pryce_c(i) for i in range(3)],
        [fam.position_pryce_d(i) for i in range(3)],
        [fam.y_pryce_c(i) for i in range(3)],
        [fam.y_pryce_d(i) for i in range(3)],
    )


# ---------------------------------------------------------------------------
# Wigner induced representations


def wigner_little_group(lam: np.ndarray, q: Momentum):
    """Little-group elements w(lambda, p) = l_p^-1 lambda l_p' and the momenta
    p' = Lambda(lambda)^-1 p they were transported from.

    ``lam`` (..., 4, 4) broadcasts against the momentum batch.  w is block
    diagonal, diag(w_hat, w_hat) with w_hat in SU(2); a residual off-diagonal
    block signals a lambda outside the spinor representation.
    """
    lam = np.asarray(lam, dtype=complex)
    L_inv = lorentz_inverse(lorentz_of(lam))
    four = (L_inv @ q.four[..., None])[..., 0]
    qprime = Momentum(four[..., 1:], q.m)
    w = boost_for_momentum(q.flipped()) @ lam @ boost_for_momentum(qprime)
    return w, qprime


def _d_and_qprime(lam: np.ndarray, q: Momentum, basis: PolarizationBasis):
    w, qprime = wigner_little_group(lam, q)
    off = max(np.max(np.abs(w[..., :2, 2:])), np.max(np.abs(w[..., 2:, :2])))
    if off > 1e-8:
        raise ValueError("lambda is not block structured in the spinor representation")
    return dagger(basis.xi(q.p)) @ w[..., :2, :2] @ basis.xi(qprime.p), qprime


def d_matrix(lam: np.ndarray, q: Momentum, basis: PolarizationBasis) -> np.ndarray:
    """Induced-representation rotations D(lambda, p) = xi^+(p) w_hat xi(p')."""
    return _d_and_qprime(lam, q, basis)[0]


def wigner_transform(
    alpha: WaveSpinor, lam: np.ndarray, a, mass: float, basis: PolarizationBasis
) -> WaveSpinor:
    """Unitary induced-representation action on wave spinors,

    (T alpha)(p) = sqrt(E(p')/E(p)) exp(i a.p) D(lambda, p) alpha(p'),

    with a.p = E(p) a^0 - p.a and p' = Lambda(lambda)^-1 p.
    """
    lam = np.asarray(lam, dtype=complex)
    a = np.asarray(a, dtype=float).reshape(4)

    def value(p):
        q = Momentum(p, mass)
        d, qprime = _d_and_qprime(lam, q, basis)
        phase = np.exp(1j * (q.energy * a[0] - p @ a[1:]))
        factor = np.sqrt(qprime.energy / q.energy) * phase
        return factor[..., None] * _matvec(d, alpha.value(qprime.p))

    return WaveSpinor(value)


# ---------------------------------------------------------------------------
# oscillating (zitterbewegung) kernels


def _pair_bilinears(basis: PolarizationBasis, p: np.ndarray):
    """xi^+(p) sigma_j eta(-p) for j = 1..3 and xi^+(p) eta(-p)."""
    xi_h = dagger(basis.xi(p))
    eta_m = basis.eta(-p)
    vec = xi_h[..., None, :, :] @ PAULI @ eta_m[..., None, :, :]
    return vec, xi_h @ eta_m


def _phase(q: Momentum, t) -> np.ndarray:
    # exp(2iEt) broadcast over the kernel's component and matrix axes
    return np.exp(2j * q.energy * t)[..., None, None, None]


def _kernel_delta_x(q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
    e = q.energy[..., None, None, None]
    _, theta_inv = theta_tensor(q)
    vec, _ = _pair_bilinears(basis, q.p)
    return -0.5j * _phase(q, t) / e * np.einsum("...ij,...jab->...iab", theta_inv, vec)


def _kernel_axial_current(q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
    e = q.energy[..., None, None, None]
    vec, _ = _pair_bilinears(basis, q.p)
    cross = np.einsum("ijk,...j,...kab->...iab", EPS3, q.p, vec)
    return 1j * _phase(q, t) / e * cross


def _kernel_fw_generator(q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
    e = q.energy[..., None, None, None]
    theta, _ = theta_tensor(q)
    vec, _ = _pair_bilinears(basis, q.p)
    return 1j * _phase(q, t) * q.m / e * np.einsum("...ij,...jab->...iab", theta, vec)


def _kernel_chakrabarti(q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
    vec, _ = _pair_bilinears(basis, q.p)
    cross = np.einsum("ijk,...j,...kab->...iab", EPS3, q.p, vec)
    return 1j * _phase(q, t) / q.m * cross


def _kernel_scalar_charge(q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
    vec, _ = _pair_bilinears(basis, q.p)
    return -_phase(q, t) * np.einsum("...j,...jab->...ab", q.p, vec)[..., None, :, :]


def _kernel_pseudoscalar(q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
    _, scal = _pair_bilinears(basis, q.p)
    return -_phase(q, t) * scal[..., None, :, :]


@dataclass(frozen=True)
class OscillatingKernel:
    """Closed-form oscillating kernel with its parent Fourier operator.

    Kernels map momenta (..., 3) and times t, which broadcast against the
    batch, to (..., components, 2, 2).  ``parent_scale(q)`` relates the
    kernel to the generic off-diagonal matrix elements:
    kernel = parent_scale * A~(+-)(parent).  The phase law
    K(t, p) = exp(2iE(p)t) K(0, p) holds by construction.
    """

    name: str
    components: int
    func: Callable[[Momentum, float, PolarizationBasis], np.ndarray]
    parent: str
    parent_scale: Callable[[Momentum], float] = lambda q: 1.0

    def __call__(self, q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
        return self.func(q, t, basis)

    def from_offdiag(
        self, q: Momentum, t, basis: PolarizationBasis
    ) -> np.ndarray:
        """Cross-oracle: the same kernel through the generic machinery."""
        pm, _ = matrix_elements_offdiag(OPERATOR_CATALOG[self.parent], q, t, basis)
        return np.asarray(self.parent_scale(q))[..., None, None, None] * pm


KERNEL_CATALOG: dict[str, OscillatingKernel] = {
    "delta_x_osc": OscillatingKernel("delta_x_osc", 3, _kernel_delta_x, "delta_x"),
    "axial_current_osc": OscillatingKernel(
        "axial_current_osc", 3, _kernel_axial_current, "pauli_dirac_spin",
        parent_scale=lambda q: 2.0,
    ),
    "fw_generator_osc": OscillatingKernel(
        "fw_generator_osc", 3, _kernel_fw_generator, "fw_generator"
    ),
    "chakrabarti_osc": OscillatingKernel(
        "chakrabarti_osc", 3, _kernel_chakrabarti, "chakrabarti"
    ),
    # the 1/E measure of the scalar-charge display and its overall sign sit in
    # the parent relation, not in the kernel itself
    "scalar_charge_osc": OscillatingKernel(
        "scalar_charge_osc", 1, _kernel_scalar_charge, "gamma0",
        parent_scale=lambda q: -q.energy,
    ),
    "pseudoscalar_osc": OscillatingKernel(
        "pseudoscalar_osc", 1, _kernel_pseudoscalar, "gamma0_gamma5"
    ),
}


def zitter_kernel(
    name: str, q: Momentum, t, basis: PolarizationBasis
) -> np.ndarray:
    """Evaluate a named oscillating kernel; shape (..., components, 2, 2)."""
    if name not in KERNEL_CATALOG:
        raise KeyError(f"unknown kernel {name!r}")
    return KERNEL_CATALOG[name](q, t, basis)
