"""Momentum-space Fourier transforms of the Dirac operator families.

Every operator is a closed-form 4x4 matrix function of the on-shell momentum,
evaluated on a batch of momenta of shape (..., 3) at once.
Where two equivalent forms exist (rational vs projector/boost-sandwich) both
are implemented and cross-checked by the verification suites; the rational
form is the production path since it avoids boost conditioning at large |p|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    G0G,
    GAMMA,
    GAMMA5,
    ID4,
    SPIN,
    Momentum,
    boost_for_momentum,
    central_gradient,
    contract,
    cross,
    lorentz_boost_matrix,
    memoized,
    read_only,
    theta_tensor,
)

_GAMMA_VEC = GAMMA[1:4]  # gamma^1..gamma^3


def _scalars(x, n: int = 3) -> np.ndarray:
    """Per-momentum scalars with n trailing axes, to scale matrix stacks."""
    return np.reshape(x, np.shape(x) + (1,) * n)


def dirac_hamiltonian(q: Momentum) -> np.ndarray:
    """H_D(p) = m gamma^0 + gamma^0 gamma.p; Hermitian with eigenvalues +/-E."""
    return q.m * GAMMA[0] + contract(q.p, G0G)


@memoized
def projectors(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Frequency projectors Pi_+/- = (1 +/- N)/2, N read from its catalog entry;
    ``@memoized``, read-only."""
    nd = OPERATOR_CATALOG["n_op"](q)[..., 0, :, :]
    return read_only((0.5 * (ID4 + nd), 0.5 * (ID4 - nd)))


def projectors_boost_form(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Boost-sandwich projectors (m/E) l_p (1 +/- gamma^0)/2 l_p^{+/-1}."""
    lp = boost_for_momentum(q)
    lp_inv = boost_for_momentum(q.flipped())
    scale = _scalars(q.m / q.energy, 2)
    plus = scale * lp @ (0.5 * (ID4 + GAMMA[0])) @ lp
    minus = scale * lp_inv @ (0.5 * (ID4 - GAMMA[0])) @ lp_inv
    return plus, minus


def n_operator(q: Momentum) -> np.ndarray:
    """Frequency-sign operator N = Pi_+ - Pi_- = H_D/E, N^2 = 1; H_D from its catalog entry."""
    return OPERATOR_CATALOG["h_dirac"](q)[..., 0, :, :] / _scalars(q.energy, 2)


def pryce_e_spin(q: Momentum) -> np.ndarray:
    """Conserved spin operator (Pryce(e)/Foldy-Wouthuysen), rational form.

    S_i(p) = (m/E)s_i + p^i (s.p)/(E(E+m)) + (i/2E)(p ^ gamma)_i.
    """
    e, m, p = _scalars(q.energy), q.m, q.p
    sp = contract(p, SPIN)[..., None, :, :]
    pxg = cross(p, _GAMMA_VEC)
    return (m / e) * SPIN + _scalars(p, 2) * sp / (e * (e + m)) + 0.5j * pxg / e


def chakrabarti_spin(q: Momentum) -> np.ndarray:
    """Boosted Pauli-Dirac matrices s_i(p) = l_p s_i l_p^-1 (not conserved)."""
    lp = boost_for_momentum(q)[..., None, :, :]
    lp_inv = boost_for_momentum(q.flipped())[..., None, :, :]
    return lp @ SPIN @ lp_inv


def pryce_e_spin_sandwich(q: Momentum) -> np.ndarray:
    """Projector form S_i = s_i(p) Pi_+(p) + s_i(-p) Pi_-(p); cross-check path,
    with s_i(+-p) read from the memoized ``OPERATOR_CATALOG`` entry."""
    plus, minus = projectors(q)
    sp = OPERATOR_CATALOG["chakrabarti"](q)
    sm = OPERATOR_CATALOG["chakrabarti"](q.flipped())
    return sp @ plus[..., None, :, :] + sm @ minus[..., None, :, :]


def pryce_e_position_offset(q: Momentum) -> np.ndarray:
    """Position correction dX_i(p) of the conserved position operator.

    dX_i = i gamma_i/(2E) + (p ^ s)_i/(E(E+m)) - i p^i (gamma.p)/(2E^2(E+m)).
    """
    e, m, p = _scalars(q.energy), q.m, q.p
    gp = contract(p, _GAMMA_VEC)[..., None, :, :]
    pxs = cross(p, SPIN)
    return (
        0.5j * _GAMMA_VEC / e
        + pxs / (e * (e + m))
        - 0.5j * _scalars(p, 2) * gp / (e**2 * (e + m))
    )


def position_offset_from_boost_derivative(q: Momentum) -> np.ndarray:
    """dX rebuilt from dx_i(p) = -i n(p)^-1 (d_{p^i} n(p) l_p) l_p^-1 by finite
    differences of step 1e-5, sandwiched between frequency projectors.

    The negative-frequency sector enters with the chain-rule sign, -dx_i(-p),
    since the momentum derivative acts on conjugate plane waves there.
    Validation path only; the analytic form is production.
    """

    def nl(k: Momentum) -> np.ndarray:  # n(p) l_p on the stencil batch
        return _scalars(np.sqrt(k.m / k.energy), 2) * boost_for_momentum(k)

    # dx at p and at -p, from one stencil batch at both
    both = Momentum(np.stack((q.p, -q.p)), q.m)
    lp_inv = boost_for_momentum(both.flipped())[..., None, :, :]
    n = _scalars(np.sqrt(both.m / both.energy))
    dx, dx_flipped = -1j / n * central_gradient(nl, both, 1e-5) @ lp_inv
    plus, minus = projectors(q)
    return dx @ plus[..., None, :, :] - dx_flipped @ minus[..., None, :, :]


@memoized
def auxiliary_spins(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Theta-contracted spins S^(+)_i = Theta_ij S_j and S^(-)_i = Theta^-1_ij S_j,
    with S read from the memoized ``OPERATOR_CATALOG`` entry; ``@memoized``, read-only."""
    s = OPERATOR_CATALOG["pryce_e_spin"](q)
    theta, theta_inv = theta_tensor(q)
    return read_only((
        np.einsum("...ij,...jab->...iab", theta, s),
        np.einsum("...ij,...jab->...iab", theta_inv, s),
    ))


def frankel_spin(q: Momentum) -> np.ndarray:
    """Frankel spin-type operator, rational form s + (i/2m) p ^ gamma."""
    return SPIN + 0.5j * cross(q.p, _GAMMA_VEC) / q.m


def pc_spin(q: Momentum) -> np.ndarray:
    """Pryce(c)-Czochor spin-type operator, the diagonal part of the
    Pauli-Dirac one: (m^2/E^2)s + p(p.s)/E^2 + (im/2E^2) p ^ gamma.
    """
    e, m, p = _scalars(q.energy), q.m, q.p
    sp = contract(p, SPIN)[..., None, :, :]
    pxg = cross(p, _GAMMA_VEC)
    return (m / e) ** 2 * SPIN + _scalars(p, 2) * sp / e**2 + 0.5j * m * pxg / e**2


def fradkin_good_spin(q: Momentum) -> np.ndarray:
    """Fradkin-Good spin-type operator, rational form
    gamma^0 s + (p(p.s)/p^2)(H_D/E - gamma^0); reduces to s gamma^0 = gamma^0 s
    at p = 0, where both p(p.s) and H_D/E - gamma^0 vanish; H_D/E is read from
    the memoized ``OPERATOR_CATALOG`` entry.
    """
    p = q.p
    p2 = np.sum(p * p, axis=-1)
    p2 = np.where(p2 == 0.0, 1.0, p2)
    sp = contract(p, SPIN)
    rest = OPERATOR_CATALOG["n_op"](q)[..., 0, :, :] - GAMMA[0]
    return GAMMA[0] @ SPIN + _scalars(p, 2) * (sp @ rest)[..., None, :, :] / _scalars(p2)


def spin_type_operators(q: Momentum) -> dict[str, np.ndarray]:
    """Catalog of conserved spin-type operators and their commutator partners.

    The C partners are built from the Theta contractions; the cross identities
    C_PC = (m^2/E^2) S_Fr and C_Fr = (E^2/m^2) S_PC are test targets; S from the catalog.
    """
    e, m = _scalars(q.energy), q.m
    s_plus, s_minus = auxiliary_spins(q)
    return {
        "S_Fr": OPERATOR_CATALOG["frankel_spin"](q),
        "C_Fr": (e / m) * s_plus,
        "S_PC": OPERATOR_CATALOG["pc_spin"](q),
        "C_PC": (m / e) * s_minus,
        "S_FG": OPERATOR_CATALOG["fradkin_good"](q),
        "S_plus": s_plus,
        "S_minus": s_minus,
    }


def pauli_lubanski(q: Momentum) -> np.ndarray:
    """Pauli-Lubanski operator W^mu(p) = m (L_p)^mu_i S_i(p), stacked mu = 0..3.

    W^0 = s.p and W^i = m S^(+)_i; satisfies p^mu W_mu = 0 and W^2 = -(3/4)m^2.
    S is read from the memoized ``OPERATOR_CATALOG`` entry.
    """
    s = OPERATOR_CATALOG["pryce_e_spin"](q)
    L = lorentz_boost_matrix(q)
    return q.m * np.einsum("...mi,...iab->...mab", L[..., :, 1:], s)


def pryce_cd_offsets(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Position-offset differences of the alternative splittings.

    Returns (dX_c - dX, dX_d - dX) = (p ^ S/(E(E+m)), -p ^ S/(m(E+m))), with S
    read from the memoized ``OPERATOR_CATALOG`` entry.
    """
    e, m = _scalars(q.energy), q.m
    pxS = cross(q.p, OPERATOR_CATALOG["pryce_e_spin"](q))
    return pxS / (e * (e + m)), -pxS / (m * (e + m))


def decompose_diag_osc(a: np.ndarray, q: Momentum) -> tuple[np.ndarray, ...]:
    """Projector-sandwich split A = A^(+) + A^(-) + A^(+-) + A^(-+).

    ``a`` broadcasts against Pi_+/- (..., 4, 4), read from the memoized
    ``OPERATOR_CATALOG`` entries.  Pi_+ A and Pi_- A are formed once each, so the
    four parts take 6 products, not 8, with the bits of ``plus @ a @ plus`` (which
    numpy forms left to right) and its kin.  The products stay on matmul: unlike
    2x2 stacks (``associated._mul``), at 4x4 no broadcast form is faster.  For
    Hermitian A the off-diagonal parts are mutual adjoints; the
    diagonal parts commute with H_D while [H_D, A^(+-)] = 2E A^(+-).
    """
    plus = OPERATOR_CATALOG["projector_plus"](q)[..., 0, :, :]
    minus = OPERATOR_CATALOG["projector_minus"](q)[..., 0, :, :]
    pa, ma = plus @ a, minus @ a
    return (pa @ plus, ma @ minus, pa @ minus, ma @ plus)


@dataclass(frozen=True)
class FourierOperator:
    """Momentum-space operator: evaluator q -> (..., k, 4, 4) stack,
    k = 1 for scalars, 3 for spatial vectors and 4 for four-vectors.

    ``__call__`` is ``@memoized``: kept on the batch q per operator, so the images
    of one batch in every basis share one evaluation (A does not depend on a basis);
    read-only.
    """

    func: Callable[[Momentum], np.ndarray]

    @memoized
    def __call__(self, q: Momentum) -> np.ndarray:
        return read_only(self.func(q))


def _scalar(fn) -> Callable[[Momentum], np.ndarray]:
    return lambda q: fn(q)[..., None, :, :]


def _constant(mats: np.ndarray) -> Callable[[Momentum], np.ndarray]:
    mats = np.asarray(mats, dtype=complex).reshape((-1, 4, 4))
    return lambda q: np.broadcast_to(mats, q.p.shape[:-1] + mats.shape)


# the production operators by name; each entry's evaluations are kept on their batches
OPERATOR_CATALOG: dict[str, FourierOperator] = {
    "h_dirac": FourierOperator(_scalar(dirac_hamiltonian)),
    "projector_plus": FourierOperator(_scalar(lambda q: projectors(q)[0])),
    "projector_minus": FourierOperator(_scalar(lambda q: projectors(q)[1])),
    "n_op": FourierOperator(_scalar(n_operator)),
    "pryce_e_spin": FourierOperator(pryce_e_spin),
    "delta_x": FourierOperator(pryce_e_position_offset),
    "chakrabarti": FourierOperator(chakrabarti_spin),
    "frankel_spin": FourierOperator(frankel_spin),
    "pc_spin": FourierOperator(pc_spin),
    "fradkin_good": FourierOperator(fradkin_good_spin),
    "spin_plus": FourierOperator(lambda q: auxiliary_spins(q)[0]),
    "pauli_lubanski": FourierOperator(pauli_lubanski),
    "pauli_dirac_spin": FourierOperator(_constant(SPIN)),
    "gamma5": FourierOperator(_constant(GAMMA5)),
    "gamma0": FourierOperator(_constant(GAMMA[0])),
    "gamma0_gamma5": FourierOperator(_constant(GAMMA[0] @ GAMMA5)),
    "fw_generator": FourierOperator(_constant(-1j * _GAMMA_VEC)),
}
