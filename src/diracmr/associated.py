"""Passive-mode machinery: 2x2 operators acting directly on wave spinors.

A configuration-space operator acts on a free field either by transforming
the mode-spinor basis (active mode) or, equivalently, through a pair of
associated operators acting on the particle/antiparticle wave spinors in
momentum space (passive mode).  This module builds the images of Fourier
operators between the mode spinors u, v, the associated operators of the spin,
position, velocity and isometry-generator families, each family one operator
over a component axis as in ``OPERATOR_CATALOG``, the Wigner little group in its
2x2 Weyl block, the exact commutator of two associated operators over every
component pair, and the closed-form oscillating (zitterbewegung) kernels.

Each image of a 4x4 stack A (..., k, 4, 4) is one contraction vec(A).F with a
spinor frame kept on the momentum batch per basis, u/u at p or u(p)/v(-p); as v = C u*,
A~(-) and A~(-+) are images of the charge conjugate C A(-p)^T C and of A^+.

Each kernel is one coefficient map C(p), (..., k, 4), contracted with the one
pair-bilinear frame B = (xi^+(p) sigma_j eta(-p), xi^+(p) eta(-p)):
K(t, p) = exp(2iEt) C.B; a ``KernelTable`` forms C.B once for a stack of kernels.

Associated operators are first order, alpha -> M(p) alpha + D_k(p) d~_k alpha,
M = a0 + a.Sigma(p)/2 and d~_k = d_k + Omega_k.  Sigma is covariantly constant and
the connection flat, so a commutator is again first order and exact from the jets
(values with exact first partials) of a0, a and D; finite differences remain in oracles.
An operator is its coefficients alone: the polarization basis is an argument of
``mult_at`` and ``apply``, where Sigma and Omega enter, as it is of every other
basis-dependent function here.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .algebra import (
    EPS3,
    ID2,
    PAULI,
    Momentum,
    central_gradient,
    charge_conjugate,
    contract,
    cross,
    cross_vectors,
    dagger,
    memoized,
    read_only,
    require_momentum,
    theta_tensor,
)
from .operators import OPERATOR_CATALOG
from .polarization import PolarizationBasis
from .spinors import u_matrix, v_matrix

# ---------------------------------------------------------------------------
# wave spinors


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks (..., 2, 2) by (..., 2, k) as two broadcast outer products:
    matmul loops over the tiny matrices one at a time."""
    return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]


def _matvec(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats @ v for stacks (..., 2, 2) and (..., 2) that broadcast, as ``_mul`` forms it:
    (mats @ vecs[..., None])[..., 0] to rounding, at a fraction of its cost on stacks."""
    return _mul(mats, vecs[..., None])[..., 0]


class WaveSpinor:
    """Two-component wave function of momentum with optional analytic gradient.

    ``fn`` maps a ``Momentum`` batch q of momenta (..., 3) to spinors (..., 2) and
    ``grad`` maps it to d alpha / d p^k, (..., 3, 2); ``value`` and ``gradient``
    take the batch and hand it on.  When no gradient is supplied, derivatives fall
    back to 4th-order central finite differences with step h = 1e-3 |p|, the scale
    on which helicity quantities vary (Omega ~ 1/|p|), on one stencil batch at q's
    mass; only oracles use it, never at p = 0.  Both are ``@memoized``, kept on the
    batch per spinor, and their outputs are read-only.
    """

    def __init__(self, fn, grad=None):
        self._fn = fn
        self._grad = grad

    @memoized
    def value(self, q) -> np.ndarray:
        return np.asarray(self._fn(q), dtype=complex)

    @memoized
    def gradient(self, q) -> np.ndarray:
        """d alpha / d p^k, shape (..., 3, 2)."""
        if self._grad is not None:
            return np.asarray(self._grad(q), dtype=complex)
        return central_gradient(self.value, q, 1e-3 * q.mag)


def gaussian_test_spinor(rng: np.random.Generator, scale: float = 1.0) -> WaveSpinor:
    """Random smooth test spinor: degree-<=2 polynomial 2-vector times Gaussian.

    Both read the batch's momenta only; it decays at infinity and has nonzero analytic
    gradients everywhere, which the exact commutators and their nested-FD oracle act on.
    """
    c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    b = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
    b = 0.5 * (b + np.transpose(b, (0, 2, 1)))
    s2 = scale * scale

    def parts(q):
        p = q.p
        g = np.exp(-np.sum(p * p, axis=-1) / (2 * s2))[..., None]
        return p, g, c + p @ a.T + np.einsum("sij,...i,...j->...s", b, p, p)

    def value(q):
        _, g, poly = parts(q)
        return poly * g

    def grad(q):
        p, g, poly = parts(q)
        dpoly = a.T + 2.0 * np.einsum("skj,...j->...ks", b, p)
        return g[..., None] * (dpoly - p[..., :, None] * poly[..., None, :] / s2)

    return WaveSpinor(value, grad)


# ---------------------------------------------------------------------------
# matrix elements of Fourier operators between mode spinors


def _frame(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """F[(i, j), (a, b)] = conj(left_ia) right_jb, (..., 16, 4), with which
    left^+ A right = vec(A).F for every stack A (..., k, 4, 4) at once."""
    f = left.conj()[..., :, None, :, None] * right[..., None, :, None, :]
    return f.reshape(f.shape[:-4] + (16, 4))


@memoized
def _diag_frame(basis: PolarizationBasis, q: Momentum) -> np.ndarray:
    """The u/u frame at p of A~(+) and (through A^c) A~(-); read-only."""
    return _frame(u_matrix(basis, q), u_matrix(basis, q))


@memoized
def _offdiag_frame(basis: PolarizationBasis, q: Momentum) -> np.ndarray:
    """The u(p)/v(-p) frame of A~(+-) and (through A^+) A~(-+), apart from
    ``_diag_frame`` so that the diagonal images need the spinors at p only."""
    return _frame(u_matrix(basis, q), v_matrix(basis, q.flipped()))


def _image(a: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """left^+ A right, (..., k, 2, 2), for a stack A (..., k, 4, 4) and its frame."""
    img = a.reshape(a.shape[:-2] + (16,)) @ frame
    return img.reshape(img.shape[:-1] + (2, 2))


@memoized
def charge_conjugated(op, q: Momentum) -> np.ndarray:
    """The charge conjugate A^c(p) = C A(-p)^T C of an operator at the batch q,
    (..., k, 4, 4), exact (``charge_conjugate``); ``@memoized``, kept on q per
    operator, so the A~(-) images in every basis read one evaluation; read-only."""
    return charge_conjugate(op(q.flipped()))


def matrix_elements_diag(op, q: Momentum, basis: PolarizationBasis):
    """Associated diagonal parts (A~(+), A~(-)) of a Fourier operator, (..., k, 2, 2).

    ``op`` maps momenta to (..., k, 4, 4) stacks, as the ``OPERATOR_CATALOG``
    entries do; a bare function works as well, and q may be a single momentum.
    With v = C u*, A~(+) = u^+ A(p) u and A~(-) = (v^+ A(-p) v)^T = u^+ A^c u with
    A^c = C A(-p)^T C (``charge_conjugated``), each one contraction with the u/u
    frame at p: A~(-) = A~(+) for a C-even A (A^c = A), -A~(+) for a C-odd one.
    """
    frame = _diag_frame(basis, q)
    return _image(op(q), frame), _image(charge_conjugated(op, q), frame)


def _offdiag_plus(a: np.ndarray, q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
    """A~(+-) = exp(2iEt) u^+(p) A v(-p) of a stack A (..., k, 4, 4) at q."""
    return np.exp(2j * q.energy * t)[..., None, None, None] * _image(a, _offdiag_frame(basis, q))


def matrix_elements_offdiag(op, q: Momentum, t, basis: PolarizationBasis):
    """Oscillating off-diagonal parts at time t, A~(+-) = exp(2iEt) u^+(p) A(p) v(-p)
    and A~(-+) = exp(-2iEt) v^+(-p) A(p) u(p) = (A~(+-)[A^+])^+.

    Both oscillate with frequency 2E(p), mutual adjoints for a Hermitian A; t
    broadcasts against the batch, and ``op`` and q are as for ``matrix_elements_diag``.
    Both are one contraction of the stacked (A, A^+) with the u(p)/v(-p) frame.
    """
    a = op(q)
    pm, mp = np.split(_offdiag_plus(np.concatenate((a, dagger(a)), -3), q, t, basis), 2, axis=-3)
    return pm, dagger(mp)


# ---------------------------------------------------------------------------
# associated operator objects


class Jet:
    """Forward-mode jet over k components: values ``v`` (..., k, c) of c = 1 or 3 entries
    and their partials d/dp^l ``d`` (..., k, c, 3); numbers and arrays are constants."""

    __slots__ = ("v", "d")
    __array_ufunc__ = None  # numpy operands defer to the reflected operators

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __add__(self, o):
        return Jet(self.v + o.v, self.d + o.d) if isinstance(o, Jet) else Jet(self.v + o, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.v, -self.d)

    def __mul__(self, o):
        if isinstance(o, Jet):
            return Jet(self.v * o.v, self.d * o.v[..., None] + self.v[..., None] * o.d)
        o = np.asarray(o)
        return Jet(self.v * o, self.d * o[..., None])

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Jet):
            q = self.v / o.v
            return Jet(q, (self.d - q[..., None] * o.d) / o.v[..., None])
        return Jet(self.v / o, self.d / o)

    def __rtruediv__(self, o):
        q = o / self.v
        return Jet(q, -(q / self.v)[..., None] * self.d)


def _align(x: np.ndarray, axes: int, tail: int) -> np.ndarray:
    """x with ``axes`` unit axes inserted ahead of its last ``tail`` axes (a view)."""
    lead = x.shape[: x.ndim - tail]
    return x.reshape(lead + (1,) * axes + x.shape[len(lead) :])


def _tiles(sizes) -> tuple[slice, ...]:
    """The consecutive slices [0, s0), [s0, s0 + s1), ... that rows of the given sizes
    take in their concatenation."""
    ends = np.cumsum(list(sizes)).tolist()
    return tuple(slice(a, b) for a, b in zip([0] + ends, ends))


@dataclass
class AssociatedOperator:
    """A stack of first-order operators on wave spinors, written once in the Sigma
    frame, alpha -> (a0 + a.Sigma(p)/2) alpha + D.(d~ alpha), d~_k = d_k + Omega_k.

    ``formula`` maps a ``Momentum`` batch to (a0, a, D), jets (..., k, c) of c = 1,
    3 and 3 entries or None for a part that vanishes; k = 1 for a scalar and 3
    for a vector, as in ``OPERATOR_CATALOG``, and a commutator has axes (ka, kb).
    The operator carries no basis: a basis enters only through Sigma(p) and
    Omega(p), as the argument of ``mult_at`` and ``apply``, so one operator and the
    coefficients its formula keeps serve every basis.  An ``AssociatedFamily``
    member's formula is ``@memoized`` on the batch, one evaluation that the
    member and every stack of it read while the family or one of them lives; a
    ``commutator``'s is evaluated when read and kept nowhere.
    ``mult_at`` gives (..., k, 2, 2) and ``apply`` (..., k, 2), each from one read
    of the parts: the leading axes of a spinor's own values stay ahead of the
    momentum batch, the component axes come after it.  Each takes a ``Momentum``
    batch; an array raises ``TypeError``, as every ``@memoized`` quantity does.
    """

    name: str
    formula: Callable[[Momentum], tuple]

    def coef(self, q) -> tuple:
        """(a0, a, D) at the batch q, ``formula(q)``; a family member's jets are read-only."""
        return self.formula(q)

    _values = coef  # the parts mult_at and apply read (a stack reads no partials)

    def mult_at(self, q, basis: PolarizationBasis) -> np.ndarray:
        """The multiplicative part a0 + a.Sigma/2 in ``basis``, (..., k, 2, 2)."""
        return self._mult(self._values(q), q, basis)

    @staticmethod
    def _mult(parts, q: Momentum, basis: PolarizationBasis) -> np.ndarray:
        """a0 1 + a.Sigma/2 formed directly, complex and of the parts' full shape;
        zeros when both vanish."""
        a0, a, d = parts
        if a is None:
            return np.zeros(d.v.shape[:-1] + (2, 2), complex) if a0 is None else a0.v[..., None] * ID2
        sigma = _align(basis.sigma(q), a.v.ndim - q.p.ndim, 3)
        spin = 0.5 * np.einsum("...c,...cab->...ab", a.v, sigma)
        return spin if a0 is None else a0.v[..., None] * ID2 + spin

    def apply(self, spinor: WaveSpinor, q, basis: PolarizationBasis) -> np.ndarray:
        parts = self._values(q)
        mult, d = self._mult(parts, q, basis), parts[2]
        axes = mult.ndim - q.p.ndim - 1
        val = spinor.value(q)
        out = _matvec(mult, _align(val, axes, 1))
        if d is not None:
            cov = spinor.gradient(q) + _matvec(basis.omega(q), val[..., None, :])
            out = out + np.einsum("...k,...ka->...a", d.v, _align(cov, axes, 2))
        return out


class _Commutator(AssociatedOperator):
    """A ``commutator``: its coefficients are values without partials, evaluated
    when read and kept on no batch."""


class OperatorStack(AssociatedOperator):
    """Operators as one operator over their concatenated component axes, (..., K, c):
    ``slices[i]`` holds members[i]'s rows, recorded at the first evaluation.

    A part that is None in a member is zero on that member's rows, and None only when
    it is None in every member.  Each stacked jet is filled in place, one slice
    assignment per member, so ``coef``, ``mult_at``, ``apply`` and a ``commutator``
    of stacks give on each member's rows (or block of rows) the member's own values,
    in every basis.  The stack reads its members' coefficients where the members
    keep them, and keeps its own stacked values and jets on the batch while it
    lives (``@memoized``); like the members' coefficients they carry no basis, so
    one stack serves every basis.  Commutators cannot be stacked.
    """

    def __init__(self, *members: AssociatedOperator):
        if any(isinstance(op, _Commutator) for op in members):
            raise TypeError("a stack takes associated operators, not commutators")
        self.name = f"({', '.join(op.name for op in members)})"
        self.members = members
        self.slices: tuple[slice, ...] | None = None

    @memoized
    def coef(self, q) -> tuple:
        return self.formula(q)

    @memoized
    def _values(self, q) -> tuple:
        return self.formula(q, partials=False)

    def formula(self, q: Momentum, partials: bool = True) -> tuple:
        parts = [op.coef(q) for op in self.members]
        sizes = (next(x.v.shape[-2] for x in c if x is not None) for c in parts)
        slices = self.slices = _tiles(sizes)
        lead = q.p.shape[:-1] + (slices[-1].stop,)
        out = []
        for jets in zip(*parts):
            present = [x for x in jets if x is not None]
            if not present:
                out.append(None)
                continue
            v = np.zeros(lead + present[0].v.shape[-1:], np.result_type(*(x.v for x in present)))
            d = np.zeros(v.shape + (3,), np.result_type(*(x.d for x in present))) if partials else None
            for x, rows in zip(jets, slices):
                if x is not None:
                    v[..., rows, :] = x.v
                    if partials:
                        d[..., rows, :, :] = x.d
            out.append(Jet(read_only(v), read_only(d)))
        return tuple(out)


def _rate(d, x):
    """D.grad x as a value, (..., entries of x); 0 when D or x vanishes."""
    if d is None or x is None:
        return 0
    return np.einsum("...j,...cj->...c", d.v, x.d)


# the index that puts a unit axis ahead of an array's last n axes, _AHEAD[n]
_AHEAD = tuple((..., None) + (slice(None),) * n for n in range(4))


def _stacked(x, tail: int):
    """A jet with a unit component axis ahead of the last ``tail`` axes of its values
    (and of ``tail`` + 1 of its partials): ``_align``'s views, by indexing."""
    return None if x is None else Jet(x.v[_AHEAD[tail]], x.d[_AHEAD[tail + 1]])


def commutator(a: AssociatedOperator, b: AssociatedOperator) -> AssociatedOperator:
    """[A_i, B_j] for every component pair as one first-order operator, whose
    ``apply`` gives (..., ka, kb, 2): like its factors, a name and coefficients.
    It is exact and basis-free: Sigma is covariantly constant, [a.Sigma/2, b.Sigma/2]
    = i (a x b).Sigma/2 and the connection is flat, so with the jets' partials

    c0 = D_a.grad b0 - D_b.grad a0,   c = i a x b + D_a.grad b - D_b.grad a,
    D = D_a.grad D_b - D_b.grad D_a;  the result has no partials and cannot nest.
    A commutator is made for one evaluation: its coefficients are formed from the
    factors' (kept where the factors keep them) each time they are read, and
    stored on no batch."""
    if isinstance(a, _Commutator) or isinstance(b, _Commutator):
        raise TypeError("commutators do not nest: a commutator carries no partials")

    def coef(q):
        # a's jets gain the kb axis, b's the ka axis: (..., ka, kb, c)
        a0, av, ad = (_stacked(x, 1) for x in a.coef(q))
        b0, bv, bd = (_stacked(x, 2) for x in b.coef(q))
        spin = 0 if av is None or bv is None else 1j * cross_vectors(av.v, bv.v)
        parts = [
            _rate(ad, b0) - _rate(bd, a0),
            spin + _rate(ad, bv) - _rate(bd, av),
            _rate(ad, bd) - _rate(bd, ad),
        ]
        if all(isinstance(x, int) for x in parts):  # A and B commute: a zero multiplier
            parts[0] = 0 * (a0 or av).v[..., :1] * (b0 or bv).v[..., :1]
        # a part whose every term vanished adds up to the integer 0
        return tuple(None if isinstance(x, int) else Jet(x, None) for x in parts)

    return _Commutator(f"[{a.name}, {b.name}]", coef)


def commutator_action(
    a: AssociatedOperator, b: AssociatedOperator, spinor: WaveSpinor, q, basis: PolarizationBasis
) -> np.ndarray:
    """[A_i, B_j] alpha at the batch q in ``basis``, (..., ka, kb, 2), through the exact
    ``commutator``."""
    return commutator(a, b).apply(spinor, q, basis)


_UNIT = np.eye(3)


def _constant(x, p: np.ndarray):
    """A constant (k, c) part as a jet over the batch; jets and None pass.  Its values
    are ``np.broadcast_to``'s read-only view, built directly over x's buffer with
    zero batch strides."""
    if x is None or isinstance(x, Jet):
        return x
    batch = p.shape[:-1]
    v = np.ndarray(batch + x.shape, x.dtype, x, strides=(0,) * len(batch) + x.strides)
    v.flags.writeable = False
    return Jet(v, np.zeros(x.shape + (3,)))


def _norm(row: Jet, m2: float) -> Jet:
    """E = sqrt(p.p + m2), m2 = m^2, from the row p^c: a (1, 1) jet with the
    partials p / E."""
    s = np.sqrt((row.v * row.v) @ np.ones((3, 1)) + m2)
    return Jet(s, row.v[..., None, :] / s[..., None])


def _cross(row: Jet) -> Jet:
    """(e_k x p)_c = eps_kjc p^j for k = 1..3 from the row p^c: a (3, 3) jet whose
    partials d/dp^l are the constants eps_klc, stored (k, c, l)."""
    return Jet(contract(row.v[..., 0, :], np.swapaxes(EPS3, 0, 1)), np.swapaxes(EPS3, 1, 2))


class _Jets:
    """The jet primitives of one mass, one evaluation per batch (``at``, ``@memoized``):
    p as the column p^k (k = 3, c = 1) and as the row p^c (k = 1, c = 3), E as
    (1, 1), Theta = 1 + p p^T/(m(E+m)), Theta^-1 = 1 - p p^T/(E(E+m)) and the
    Sigma-frame vectors (e_k x p)/(E+m) of Ks~, all at this mass m, whatever the
    batch's own mass."""

    def __init__(self, m: float):
        self.m = m

    @memoized
    def at(self, q) -> SimpleNamespace:
        m, p = self.m, q.p
        col, row = Jet(p[..., :, None], _UNIT[:, None]), Jet(p[..., None, :], _UNIT[None])
        e = _norm(row, m * m)
        pp, em = col * row, e + m
        return SimpleNamespace(
            m=m, col=col, row=row, e=e, theta=_UNIT + pp / (m * em),
            theta_inv=_UNIT + pp / (-e * em), boost_spin=_cross(row) / em,
        )


class _Member:
    """One family member's basis-free coefficients (a0, a, D) = formula(primitives),
    a or D possibly a constant (k, 3) array: ``coef`` is ``@memoized``, one
    evaluation per batch kept while the member lives, with read-only jets."""

    def __init__(self, jets: _Jets, formula):
        self.jets, self.formula = jets, formula

    @memoized
    def coef(self, q) -> tuple:
        a0, a, d = self.formula(self.jets.at(q))
        parts = (a0, _constant(a, q.p), _constant(d, q.p))
        return tuple(None if x is None else Jet(read_only(x.v), read_only(x.d)) for x in parts)


class AssociatedFamily:
    """Factory for the associated operators at fixed mass, one operator per family
    over a component axis (k = 3 for S~, X~, L~, the boost generators and W~; k = 1
    for the scalars), each written once as Sigma-frame coefficients in the jets of p
    and E; every coefficient function takes a batch.

    No coefficient depends on the basis, which ``mult_at`` and ``apply`` take: the
    family keeps one ``_Jets`` of its mass and one operator per member (per time t
    for X~(t)), whose ``_Member`` coefficients are evaluated once per batch and kept
    on it while the family or the operator lives; the member in every basis and in
    every stack reads that one evaluation.
    """

    def __init__(self, m: float):
        if not 0.0 < m < np.inf:  # also rejects nan
            raise ValueError("mass must be positive and finite")
        self.m = float(m)
        self._jets, self._ops = _Jets(self.m), {}

    def _op(self, name: str, formula, *key) -> AssociatedOperator:
        """Operator with (a0, a, D) = formula(j) of the primitives j of ``_Jets``, made
        at the first request under (name, *key) and the same object at every later
        one (the key is X~(t)'s t)."""
        if (name, *key) not in self._ops:
            self._ops[(name, *key)] = AssociatedOperator(name, _Member(self._jets, formula).coef)
        return self._ops[(name, *key)]

    # --- diagonal translations / velocity -------------------------------

    def hamiltonian(self) -> AssociatedOperator:
        return self._op("H~", lambda j: (j.e, None, None))

    def momentum(self) -> AssociatedOperator:
        return self._op("P~", lambda j: (j.col, None, None))

    def velocity(self) -> AssociatedOperator:
        return self._op("V~", lambda j: (j.col / j.e, None, None))

    # --- spin sector -----------------------------------------------------

    def spin(self) -> AssociatedOperator:
        return self._op("S~", lambda j: (None, _UNIT, None))

    def spin_plus(self) -> AssociatedOperator:
        return self._op("S~(+)", lambda j: (None, j.theta, None))

    def spin_minus(self) -> AssociatedOperator:
        return self._op("S~(-)", lambda j: (None, j.theta_inv, None))

    def pauli_lubanski0(self) -> AssociatedOperator:
        return self._op("W~0", lambda j: (None, j.row, None))

    def pauli_lubanski(self) -> AssociatedOperator:
        return self._op("W~", lambda j: (None, j.m * j.theta, None))

    # --- position sector ---------------------------------------------------

    def position(self, t: float = 0.0) -> AssociatedOperator:
        """X~(t) = i d~ + t V~; the family keeps one operator per time t asked for."""
        return self._op("X~", lambda j: (t * j.col / j.e if t else None, None, 1j * _UNIT), t)

    def angular(self) -> AssociatedOperator:
        return self._op("L~", lambda j: (None, None, -1j * _cross(j.row)))

    def boost_orbital(self) -> AssociatedOperator:
        return self._op("Ko~", lambda j: (0.5j * j.col / j.e, None, 1j * j.e * _UNIT))

    def boost_spin(self) -> AssociatedOperator:
        return self._op("Ks~", lambda j: (None, j.boost_spin, None))

    # --- alternative position splittings ------------------------------------

    # spin offsets (p ^ S~)_k / (E(E+m)) and -(p ^ S~)_k / (m(E+m)) are the
    # boost-spin multiples Ks~_k / E and -Ks~_k / m

    def position_pryce_c(self) -> AssociatedOperator:
        return self._op("Xc~", lambda j: (None, j.boost_spin / j.e, 1j * _UNIT))

    def position_pryce_d(self) -> AssociatedOperator:
        return self._op("Xd~", lambda j: (None, -j.boost_spin / j.m, 1j * _UNIT))

    def y_pryce_c(self) -> AssociatedOperator:
        return self._op("Yc~", lambda j: (None, j.m / (j.e * j.e * j.e) * j.theta, None))

    def y_pryce_d(self) -> AssociatedOperator:
        return self._op("Yd~", lambda j: (None, j.theta / (j.m * j.e), None))


# ---------------------------------------------------------------------------
# Wigner induced representations


def _weyl_boost(q: Momentum) -> np.ndarray:
    """A(p) = (E + m - sigma.p) / sqrt(2m(E+m)), the upper block of l_p; A(-p) = A(p)^-1."""
    e = q.energy[..., None, None]
    return ((e + q.m) * ID2 - contract(q.p, PAULI)) / np.sqrt(2.0 * q.m * (e + q.m))


def wigner_little_group(lam: np.ndarray, q: Momentum):
    """Little-group elements w_hat(lambda, p) in SU(2), (..., 2, 2), and the momenta
    p' = Lambda(lambda)^-1 p they were transported from.

    Only the Weyl block a = lambda[:2, :2] enters: w_hat = A(p)^-1 a A(p') with A(p)
    the upper block of l_p (l_p^-1 lambda l_p' = diag(w_hat, w_hat)), and
    E' - sigma.p' = a^-1 (E - sigma.p) a^-1+.  ``lam`` (..., 4, 4) broadcasts against
    the momentum batch; a lambda that couples the chiral blocks raises ``ValueError``.
    """
    lam = np.asarray(lam, dtype=complex)
    if max(np.max(np.abs(lam[..., :2, 2:])), np.max(np.abs(lam[..., 2:, :2]))) > 1e-8:
        raise ValueError("lambda is not block structured in the spinor representation")
    a = lam[..., :2, :2]
    a_inv = np.linalg.inv(a)
    h = _mul(_mul(a_inv, q.energy[..., None, None] * ID2 - contract(q.p, PAULI)), dagger(a_inv))
    qprime = Momentum(-0.5 * np.einsum("iab,...ba->...i", PAULI, h).real, q.m)
    return _mul(_mul(_weyl_boost(q.flipped()), a), _weyl_boost(qprime)), qprime


def d_matrix(lam: np.ndarray, q: Momentum, basis: PolarizationBasis) -> np.ndarray:
    """Induced-representation rotations D(lambda, p) = xi^+(p) w_hat xi(p')."""
    return induced_rotation(*wigner_little_group(lam, q), q, basis)


def induced_rotation(what: np.ndarray, qprime: Momentum, q: Momentum, basis: PolarizationBasis):
    """D(lambda, p) = xi^+(p) w_hat xi(p') from the little group (w_hat, p') that
    ``wigner_little_group`` gives at q: it does not depend on the basis, so one
    little group serves the D of every basis."""
    return _mul(_mul(dagger(basis.xi(q)), what), basis.xi(qprime))


def wigner_transform(alpha: WaveSpinor, lam: np.ndarray, a, basis: PolarizationBasis) -> WaveSpinor:
    """Unitary induced-representation action on wave spinors,

    (T alpha)(p) = sqrt(E(p')/E(p)) exp(i a.p) D(lambda, p) alpha(p'),

    with a.p = E(p) a^0 - p.a and p' = Lambda(lambda)^-1 p; E and the batch p' are at
    the mass of the batch q that T alpha is evaluated at.
    """
    lam = np.asarray(lam, dtype=complex)
    a = np.asarray(a, dtype=float).reshape(4)

    def value(q):
        what, qprime = wigner_little_group(lam, q)
        phase = np.exp(1j * (q.energy * a[0] - q.p @ a[1:]))
        factor = np.sqrt(qprime.energy / q.energy) * phase
        moved = _mul(what, _mul(basis.xi(qprime), alpha.value(qprime)[..., None]))
        return factor[..., None] * _mul(dagger(basis.xi(q)), moved)[..., 0]

    return WaveSpinor(value)


# ---------------------------------------------------------------------------
# oscillating (zitterbewegung) kernels


# the pair-bilinear frame B = (xi^+ sigma_j eta(-p), xi^+ eta(-p)) as sigma_1..3 and 1
_FRAME = np.concatenate((PAULI, ID2[None]))
# a vector coefficient c_j on the sigma_j slots of the frame: c @ _ON_SIGMA
_ON_SIGMA = np.eye(3, 4)
# (eps.p)_ij = eps_ikj p^k on the sigma_j slots: contract(p, _EPS_ON_SIGMA), (..., 3, 4)
_EPS_ON_SIGMA = cross(np.eye(3), _ON_SIGMA[:, None, :])[..., 0, :]


@memoized
def _pair_bilinears(basis: PolarizationBasis, q: Momentum) -> np.ndarray:
    """The frame B(p) = (xi^+(p) sigma_j eta(-p), xi^+(p) eta(-p)), (..., 4, 2, 2).

    One frame serves every kernel: it is ``@memoized``, kept on the batch q per
    basis, as the basis's own quantities are; read-only.
    """
    return dagger(basis.xi(q))[..., None, :, :] @ _FRAME @ basis.eta(q.flipped())[..., None, :, :]


def _energy(q: Momentum) -> np.ndarray:
    return q.energy[..., None, None]


@dataclass(frozen=True)
class OscillatingKernel:
    """Closed-form oscillating kernel with its parent Fourier operator.

    ``coef(q)`` maps momenta to coefficients C (..., k, 4) against the
    pair-bilinear frame B, and the kernel is K(t, p) = exp(2iEt) C.B, of shape
    (..., k, 2, 2); times t broadcast against the batch, so the phase law
    K(t, p) = exp(2iE(p)t) K(0, p) holds by construction.  ``parent_scale(q)``
    relates the kernel to the generic off-diagonal matrix elements:
    kernel = parent_scale * A~(+-)(parent).  A call is the one-kernel
    ``KernelTable``, so a kernel and its slice of a table share one formula; the
    cross-oracle and the phase reference are the table's.
    """

    coef: Callable[[Momentum], np.ndarray]
    parent: str
    parent_scale: Callable[[Momentum], float] = lambda q: 1.0

    def __call__(self, q: Momentum, t, basis: PolarizationBasis) -> np.ndarray:
        return KernelTable((self,), q, basis)(t)


@dataclass(frozen=True, eq=False)
class KernelTable:
    """A stack of kernels at one momentum batch and basis, their component rows
    concatenated in order, (..., K, 2, 2); ``slices[i]`` holds kernels[i]'s rows.
    A table of one kernel is that kernel's every evaluation: K(t), the
    cross-oracle ``from_offdiag`` and the ``phase_reference``.

    C.B is formed once, over every coefficient row, and K at any times t (which
    broadcast against the batch, e.g. (s, n) against (n,)) is exp(2iEt) C.B.  The
    parents are one stacked (..., K, 4, 4) read of their catalog entries, so every
    parent image is one ``_offdiag_plus``; the parents and their Heisenberg
    evolution ``evolve`` do not depend on the basis.
    """

    kernels: tuple
    q: Momentum
    basis: PolarizationBasis

    def __post_init__(self):
        require_momentum(self.q, "KernelTable")

    @functools.cached_property
    def _coefs(self) -> list:
        return [ker.coef(self.q) for ker in self.kernels]

    @functools.cached_property
    def slices(self) -> tuple[slice, ...]:
        return _tiles(np.shape(c)[-2] for c in self._coefs)

    @functools.cached_property
    def products(self) -> np.ndarray:
        """C.B of every coefficient row, (..., K, 2, 2)."""
        frame, batch = _pair_bilinears(self.basis, self.q), self.q.p.shape[:-1]
        # a constant C (the pseudoscalar's) broadcast to the batch before its rows join
        coef = np.concatenate([np.broadcast_to(c, batch + np.shape(c)[-2:]) for c in self._coefs], -2)
        k = coef @ frame.reshape(frame.shape[:-2] + (4,))  # C.B, each B_j flattened
        return k.reshape(k.shape[:-1] + (2, 2))

    def __call__(self, t) -> np.ndarray:
        """K(t, p) = exp(2iEt) C.B, (..., K, 2, 2)."""
        return np.exp(2j * self.q.energy * t)[..., None, None, None] * self.products

    @functools.cached_property
    def parents(self) -> np.ndarray:
        """The parents' catalog entries, (..., K, 4, 4); basis-free."""
        return np.concatenate([OPERATOR_CATALOG[ker.parent](self.q) for ker in self.kernels], -3)

    @functools.cached_property
    def _scale(self) -> np.ndarray:
        """Each row's parent_scale, (..., K, 1, 1)."""
        batch, sizes = self.q.p.shape[:-1], (rows.stop - rows.start for rows in self.slices)
        scales = [
            np.broadcast_to(np.asarray(ker.parent_scale(self.q))[..., None], batch + (size,))
            for ker, size in zip(self.kernels, sizes)
        ]
        return np.concatenate(scales, -1)[..., None, None]

    def image(self, a: np.ndarray, t) -> np.ndarray:
        """parent_scale * A~(+-) at t of a stack a (..., K, 4, 4) shaped as ``parents``."""
        return self._scale * _offdiag_plus(a, self.q, t, self.basis)

    def from_offdiag(self, t) -> np.ndarray:
        """Cross-oracle: every kernel through the generic machinery."""
        return self.image(self.parents, t)

    def evolve(self, t) -> np.ndarray:
        """The parents evolved to time t, U^+ A U with U = exp(-iEt) Pi_+ + exp(iEt) Pi_-
        and Pi_+/- read from the memoized catalog entries; basis-free."""
        q = self.q
        plus, minus = OPERATOR_CATALOG["projector_plus"](q), OPERATOR_CATALOG["projector_minus"](q)
        e = _energy(q)[..., None]
        u = np.exp(-1j * t * e) * plus + np.exp(1j * t * e) * minus
        return dagger(u) @ self.parents @ u

    def phase_reference(self, t) -> np.ndarray:
        """The phase law's reference, which K(t) equals: ``image`` at t = 0 of ``evolve(t)``."""
        return self.image(self.evolve(t), 0.0)


KERNEL_CATALOG: dict[str, OscillatingKernel] = {
    "delta_x_osc": OscillatingKernel(
        lambda q: -0.5j / _energy(q) * (theta_tensor(q)[1] @ _ON_SIGMA), "delta_x"
    ),
    "axial_current_osc": OscillatingKernel(
        lambda q: 1j / _energy(q) * contract(q.p, _EPS_ON_SIGMA),
        "pauli_dirac_spin", parent_scale=lambda q: 2.0,
    ),
    "fw_generator_osc": OscillatingKernel(
        lambda q: 1j * q.m / _energy(q) * (theta_tensor(q)[0] @ _ON_SIGMA),
        "fw_generator",
    ),
    "chakrabarti_osc": OscillatingKernel(
        lambda q: 1j / q.m * contract(q.p, _EPS_ON_SIGMA), "chakrabarti"
    ),
    # the 1/E measure of the scalar-charge display and its overall sign sit in
    # the parent relation, not in the kernel itself
    "scalar_charge_osc": OscillatingKernel(
        lambda q: -q.p[..., None, :] @ _ON_SIGMA, "gamma0",
        parent_scale=lambda q: -q.energy,
    ),
    "pseudoscalar_osc": OscillatingKernel(
        lambda q: np.array([[0.0, 0.0, 0.0, -1.0]]), "gamma0_gamma5"
    ),
}
