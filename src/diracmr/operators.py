"""Momentum-space Fourier transforms of the Dirac operator families.

Every operator is a closed-form 4x4 matrix function of the on-shell momentum.
Where two equivalent forms exist (rational vs projector/boost-sandwich) both
are implemented and cross-checked by the verification suites; the rational
form is the production path since it avoids boost conditioning at large |p|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    EPS3,
    GAMMA,
    GAMMA5,
    ID4,
    SPIN,
    Momentum,
    boost_for_momentum,
    central_gradient,
    lorentz_boost_matrix,
    theta_tensor,
)

_GAMMA_VEC = GAMMA[1:4]  # gamma^1..gamma^3


def dirac_hamiltonian(q: Momentum) -> np.ndarray:
    """H_D(p) = m gamma^0 + gamma^0 gamma.p; Hermitian with eigenvalues +/-E."""
    g0gp = sum(q.p[i] * (GAMMA[0] @ GAMMA[i + 1]) for i in range(3))
    return q.m * GAMMA[0] + g0gp


def projectors(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Frequency projectors Pi_+/- = (1 +/- H_D/E)/2."""
    nd = dirac_hamiltonian(q) / q.energy
    return 0.5 * (ID4 + nd), 0.5 * (ID4 - nd)


def projectors_boost_form(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Boost-sandwich projectors (m/E) l_p (1 +/- gamma^0)/2 l_p^{+/-1}."""
    lp = boost_for_momentum(q)
    lp_inv = boost_for_momentum(q.flipped())
    scale = q.m / q.energy
    plus = scale * lp @ (0.5 * (ID4 + GAMMA[0])) @ lp
    minus = scale * lp_inv @ (0.5 * (ID4 - GAMMA[0])) @ lp_inv
    return plus, minus


def n_operator(q: Momentum) -> np.ndarray:
    """Frequency-sign operator N(p) = Pi_+ - Pi_- = H_D(p)/E(p); N^2 = 1."""
    return dirac_hamiltonian(q) / q.energy


def _cross_matrix(p: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """(p ^ M)_i = eps_{ijk} p^j M_k for a stack of three matrices."""
    return np.einsum("ijk,j,kab->iab", EPS3, p, mats)


def pryce_e_spin(q: Momentum) -> np.ndarray:
    """Conserved spin operator (Pryce(e)/Foldy-Wouthuysen), rational form.

    S_i(p) = (m/E)s_i + p^i (s.p)/(E(E+m)) + (i/2E)(p ^ gamma)_i.
    """
    e, m, p = q.energy, q.m, q.p
    sp = np.einsum("i,iab->ab", p, SPIN)
    pxg = _cross_matrix(p, _GAMMA_VEC)
    out = np.empty((3, 4, 4), dtype=complex)
    for i in range(3):
        out[i] = (m / e) * SPIN[i] + p[i] * sp / (e * (e + m)) + 0.5j * pxg[i] / e
    return out


def chakrabarti_spin(q: Momentum) -> np.ndarray:
    """Boosted Pauli-Dirac matrices s_i(p) = l_p s_i l_p^-1 (not conserved)."""
    lp = boost_for_momentum(q)
    lp_inv = boost_for_momentum(q.flipped())
    return np.stack([lp @ SPIN[i] @ lp_inv for i in range(3)])


def pryce_e_spin_sandwich(q: Momentum) -> np.ndarray:
    """Projector form S_i = s_i(p) Pi_+(p) + s_i(-p) Pi_-(p); cross-check path."""
    plus, minus = projectors(q)
    sp = chakrabarti_spin(q)
    sm = chakrabarti_spin(q.flipped())
    return np.stack([sp[i] @ plus + sm[i] @ minus for i in range(3)])


def pryce_e_position_offset(q: Momentum) -> np.ndarray:
    """Position correction dX_i(p) of the conserved position operator.

    dX_i = i gamma_i/(2E) + (p ^ s)_i/(E(E+m)) - i p^i (gamma.p)/(2E^2(E+m)).
    """
    e, m, p = q.energy, q.m, q.p
    gp = sum(p[i] * _GAMMA_VEC[i] for i in range(3))
    pxs = _cross_matrix(p, SPIN)
    out = np.empty((3, 4, 4), dtype=complex)
    for i in range(3):
        out[i] = (
            0.5j * _GAMMA_VEC[i] / e
            + pxs[i] / (e * (e + m))
            - 0.5j * p[i] * gp / (e**2 * (e + m))
        )
    return out


def position_offset_from_boost_derivative(q: Momentum, h: float = 1e-5) -> np.ndarray:
    """dX rebuilt from dx_i(p) = -i n(p)^-1 (d_{p^i} n(p) l_p) l_p^-1 by finite
    differences, sandwiched between frequency projectors.

    The negative-frequency sector enters with the chain-rule sign, -dx_i(-p),
    since the momentum derivative acts on conjugate plane waves there.
    Validation path only; the analytic form is production.
    """

    def nl(pvec: np.ndarray) -> np.ndarray:
        qq = Momentum(pvec, q.m)
        return np.sqrt(q.m / qq.energy) * boost_for_momentum(qq)

    def dx_at(qq: Momentum) -> np.ndarray:
        lp_inv = boost_for_momentum(qq.flipped())
        n = np.sqrt(qq.m / qq.energy)
        return -1j / n * central_gradient(nl, qq.p, h) @ lp_inv

    plus, minus = projectors(q)
    return dx_at(q) @ plus - dx_at(q.flipped()) @ minus


def auxiliary_spins(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Theta-contracted spins S^(+)_i = Theta_ij S_j and S^(-)_i = Theta^-1_ij S_j."""
    s = pryce_e_spin(q)
    theta, theta_inv = theta_tensor(q)
    return np.einsum("ij,jab->iab", theta, s), np.einsum("ij,jab->iab", theta_inv, s)


def frankel_spin(q: Momentum) -> np.ndarray:
    """Frankel spin-type operator, rational form s + (i/2m) p ^ gamma."""
    pxg = _cross_matrix(q.p, _GAMMA_VEC)
    return np.stack([SPIN[i] + 0.5j * pxg[i] / q.m for i in range(3)])


def pc_spin(q: Momentum) -> np.ndarray:
    """Pryce(c)-Czochor spin-type operator, the diagonal part of the
    Pauli-Dirac one: (m^2/E^2)s + p(p.s)/E^2 + (im/2E^2) p ^ gamma.
    """
    e, m, p = q.energy, q.m, q.p
    sp = np.einsum("i,iab->ab", p, SPIN)
    pxg = _cross_matrix(p, _GAMMA_VEC)
    out = np.empty((3, 4, 4), dtype=complex)
    for i in range(3):
        out[i] = (m / e) ** 2 * SPIN[i] + p[i] * sp / e**2 + 0.5j * m * pxg[i] / e**2
    return out


def fradkin_good_spin(q: Momentum) -> np.ndarray:
    """Fradkin-Good spin-type operator, rational form
    gamma^0 s + (p(p.s)/p^2)(H_D/E - gamma^0); reduces to s at p = 0.
    """
    p = q.p
    p2 = float(np.dot(p, p))
    g0s = np.stack([GAMMA[0] @ SPIN[i] for i in range(3)])
    if p2 == 0.0:
        return np.stack([SPIN[i] @ GAMMA[0] for i in range(3)])
    sp = np.einsum("i,iab->ab", p, SPIN)
    rest = n_operator(q) - GAMMA[0]
    return np.stack([g0s[i] + p[i] * (sp @ rest) / p2 for i in range(3)])


def spin_type_operators(q: Momentum) -> dict[str, np.ndarray]:
    """Catalog of conserved spin-type operators and their commutator partners.

    The C partners are built from the Theta contractions; the cross identities
    C_PC = (m^2/E^2) S_Fr and C_Fr = (E^2/m^2) S_PC are test targets.
    """
    e, m = q.energy, q.m
    s_plus, s_minus = auxiliary_spins(q)
    return {
        "S_Fr": frankel_spin(q),
        "C_Fr": (e / m) * s_plus,
        "S_PC": pc_spin(q),
        "C_PC": (m / e) * s_minus,
        "S_FG": fradkin_good_spin(q),
        "S_plus": s_plus,
        "S_minus": s_minus,
    }


def pauli_lubanski(q: Momentum) -> np.ndarray:
    """Pauli-Lubanski operator W^mu(p) = m (L_p)^mu_i S_i(p), stacked mu = 0..3.

    W^0 = s.p and W^i = m S^(+)_i; satisfies p^mu W_mu = 0 and W^2 = -(3/4)m^2.
    """
    s = pryce_e_spin(q)
    L = lorentz_boost_matrix(q)
    return q.m * np.einsum("mi,iab->mab", L[:, 1:], s)


def pryce_cd_offsets(q: Momentum) -> tuple[np.ndarray, np.ndarray]:
    """Position-offset differences of the alternative splittings.

    Returns (dX_c - dX, dX_d - dX) = (p ^ S/(E(E+m)), -p ^ S/(m(E+m))).
    """
    e, m = q.energy, q.m
    pxS = _cross_matrix(q.p, pryce_e_spin(q))
    return pxS / (e * (e + m)), -pxS / (m * (e + m))


def decompose_diag_osc(a: np.ndarray, q: Momentum) -> tuple[np.ndarray, ...]:
    """Projector-sandwich split A = A^(+) + A^(-) + A^(+-) + A^(-+).

    For Hermitian A the off-diagonal parts are mutual adjoints; the diagonal
    parts commute with H_D while [H_D, A^(+-)] = 2E A^(+-).
    """
    plus, minus = projectors(q)
    return (plus @ a @ plus, minus @ a @ minus, plus @ a @ minus, minus @ a @ plus)


@dataclass(frozen=True)
class FourierOperator:
    """Named momentum-space operator: evaluator p -> stack of 4x4 matrices.

    ``components`` is 1 for scalars, 3 for spatial vectors, 4 for four-vectors;
    scalar evaluators still return shape (1, 4, 4) for uniformity.
    ``parity_under_p_flip`` is "even" for momentum-independent matrices and
    "none" where no definite sign relates A(-p) to A(p).
    """

    name: str
    components: int
    func: Callable[[Momentum], np.ndarray]
    parity_under_p_flip: str = "none"

    def __call__(self, q: Momentum) -> np.ndarray:
        out = np.asarray(self.func(q), dtype=complex)
        if out.ndim == 2:
            out = out[None, :, :]
        return out


OPERATOR_CATALOG: dict[str, FourierOperator] = {
    "h_dirac": FourierOperator("h_dirac", 1, lambda q: dirac_hamiltonian(q)),
    "projector_plus": FourierOperator("projector_plus", 1, lambda q: projectors(q)[0]),
    "projector_minus": FourierOperator(
        "projector_minus", 1, lambda q: projectors(q)[1]
    ),
    "n_op": FourierOperator("n_op", 1, n_operator),
    "pryce_e_spin": FourierOperator("pryce_e_spin", 3, pryce_e_spin),
    "delta_x": FourierOperator("delta_x", 3, pryce_e_position_offset),
    "chakrabarti": FourierOperator("chakrabarti", 3, chakrabarti_spin),
    "frankel_spin": FourierOperator("frankel_spin", 3, frankel_spin),
    "pc_spin": FourierOperator("pc_spin", 3, pc_spin),
    "fradkin_good": FourierOperator("fradkin_good", 3, fradkin_good_spin),
    "pauli_lubanski": FourierOperator("pauli_lubanski", 4, pauli_lubanski),
    "pauli_dirac_spin": FourierOperator(
        "pauli_dirac_spin", 3, lambda q: SPIN.astype(complex), "even"
    ),
    "gamma5": FourierOperator("gamma5", 1, lambda q: GAMMA5, "even"),
    "gamma0": FourierOperator("gamma0", 1, lambda q: GAMMA[0], "even"),
    "gamma0_gamma5": FourierOperator(
        "gamma0_gamma5", 1, lambda q: GAMMA[0] @ GAMMA5, "even"
    ),
    "fw_generator": FourierOperator(
        "fw_generator", 3, lambda q: -1j * _GAMMA_VEC.astype(complex), "even"
    ),
}
