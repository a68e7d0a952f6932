"""Named identity suites behind the ``verify`` command.

Each suite evaluates a fixed list of closed-form identities at seeded random
momenta, all momenta of a suite in one batch, and reports the maximum residual
over the batch against a stated tolerance.  Suites are deterministic for a
given (samples, seed, mass) triple.

The suites share one ``CommonBasis`` and one ``HelicityBasis`` and the seeded
draws of one seed and mass, each one ``Momentum`` batch, and read each
production 4x4 operator from its memoized ``OPERATOR_CATALOG`` entry.  Every
memoized quantity is kept on the batch it was evaluated at, so the suites of one
seed evaluate each quantity once per batch, in any order; oracles keep their own
evaluation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    CCONJ,
    DEFAULT_IDENTITY_TOL,
    G0G,
    GAMMA,
    GAMMA5,
    ID2,
    ID4,
    METRIC,
    PAULI,
    SL2C,
    SPIN,
    Momentum,
    boost_for_momentum,
    boost_param,
    central_gradient,
    contract,
    cross,
    dagger,
    dirac_adjoint_deviation,
    foldy_wouthuysen,
    lorentz_boost_matrix,
    lorentz_of,
    rotation,
    rotation_su2,
    theta_tensor,
)
from .associated import (
    KERNEL_CATALOG,
    AssociatedFamily,
    KernelTable,
    OperatorStack,
    WaveSpinor,
    _mul,
    _tiles,
    charge_conjugated,
    commutator,
    commutator_action,
    d_matrix,
    gaussian_test_spinor,
    induced_rotation,
    matrix_elements_diag,
    matrix_elements_offdiag,
    wigner_little_group,
    wigner_transform,
)
from .operators import (
    OPERATOR_CATALOG,
    FourierOperator,
    decompose_diag_osc,
    position_offset_from_boost_derivative,
    projectors_boost_form,
    pryce_cd_offsets,
    pryce_e_position_offset,
    pryce_e_spin_sandwich,
    spin_type_operators,
)
from .polarization import CommonBasis, HelicityBasis
from .sampling import make_rng, sample_boosts, sample_momenta
from .spinors import dirac_residuals, norm_factor, projector_from_spinors, u_matrix, v_matrix

TOL_EXACT = DEFAULT_IDENTITY_TOL
TOL_FD = 1e-6
TOL_FD_COMM = 1e-5

# one basis of each kind serves every suite, so what a shared draw keeps per
# basis (xi, eta, Sigma, Omega, u, v, the image frames, the pair bilinears)
# serves every suite that reads it
_COMMON, _HELICITY = CommonBasis(), HelicityBasis()
_BASES = (_COMMON, _HELICITY)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self._acc: dict[str, tuple[float, float]] = {}

    def add(self, name: str, residual: float, tol: float = TOL_EXACT):
        residual, prev = float(residual), self._acc.get(name)
        if prev is None or residual > prev[0] or residual != residual:  # no later line hides a NaN
            self._acc[name] = (residual, tol if prev is None else prev[1])

    def results(self) -> list[CheckResult]:
        return [CheckResult(self.suite, name, res, tol) for name, (res, tol) in self._acc.items()]


def _mx(a) -> float:
    """max |a| over every axis, NaN kept: ``np.max``'s own reduction, without its wrapper."""
    return float(np.maximum.reduce(np.abs(a), axis=None))


def _row_maxima(a, slices) -> np.ndarray:
    """``_mx(a[:, rows])`` for the ``slices`` that tile axis 1 of a, in one pass; NaN stays."""
    return np.maximum.reduceat(np.abs(a).max(axis=(0, *range(2, a.ndim))), [r.start for r in slices])


def _comm(a, b):
    return a @ b - b @ a


@functools.lru_cache(maxsize=1)
def _draws(seed: int, mass: float) -> dict:
    """The draws of the latest (seed, mass), filled by ``_sampled``: the suites of
    one seed share them, and the first draw at another seed or mass drops them,
    with all that was evaluated on them."""
    return {}


def _sampled(
    samples: int, mass: float, seed: int, lo: float = 0.01, hi: float = 10.0,
    avoid_poles: bool = False,
) -> Momentum:
    """The seeded momenta of ``sample_momenta`` as one batch of shape (n,),
    drawn once per argument tuple and shared by every suite that asks.

    Every suite but ``appendix_b`` draws over the whole sphere, so the suites that
    draw ``samples`` momenta (``kernels`` at most 40, ``wigner`` always 20) read one
    batch per seed and mass.  ``appendix_b`` keeps ``avoid_poles``: its nested-FD
    oracle steps a fixed 1e-3 |p|."""
    draws, key = _draws(seed, mass), (samples, lo, hi, avoid_poles)
    if key not in draws:
        momenta = sample_momenta(samples, mass, seed, lo=lo, hi=hi, avoid_poles=avoid_poles)
        draws[key] = Momentum(np.array([k.p for k in momenta]).reshape(-1, 3), mass)
    return draws[key]


def _op(name: str, q: Momentum) -> np.ndarray:
    """The memoized ``OPERATOR_CATALOG`` entry at q, a scalar entry (k = 1)
    without its unit axis."""
    a = OPERATOR_CATALOG[name](q)
    return a[..., 0, :, :] if a.shape[-3] == 1 else a


def _lift(a):
    """Per-momentum matrices broadcast over a stack of three components."""
    return a[..., None, :, :]


def _products(a):
    """[i, j] = a_i a_j for a stack of three matrices per momentum."""
    return a[..., :, None, :, :] @ a[..., None, :, :, :]


def _closure(a, c):
    """[a_i, a_j] - i eps_ijk c_k for every index pair; eps_ijk c_k is minus
    the (i, j) stack of e_i ^ c."""
    prod = _products(a)
    return prod - np.swapaxes(prod, -3, -4) + 1j * cross(np.eye(3), c[..., None, :, :, :])


# ---------------------------------------------------------------------------


def suite_clifford(samples: int, seed: int, mass: float):
    rec = _Recorder("clifford")
    gg = GAMMA[:, None] @ GAMMA[None, :]
    anti = gg + np.swapaxes(gg, 0, 1) - 2 * METRIC[:, :, None, None] * ID4
    rec.add("anticommutation", _mx(anti), 1e-15)
    rec.add("gamma5_diag", _mx(GAMMA5 - np.diag([-1, -1, 1, 1])), 1e-15)
    rec.add("gamma5_product", _mx(GAMMA5 - 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]), 1e-15)
    rec.add("charge_conjugation_involution", _mx(CCONJ @ CCONJ - ID4), 1e-15)
    rec.add("generator_antisymmetry", _mx(SL2C + np.swapaxes(SL2C, 0, 1)), 1e-15)
    rec.add("generator_dirac_selfadjoint", dirac_adjoint_deviation(SL2C), 1e-15)
    rec.add("spin_su2_closure", _mx(_closure(SPIN, SPIN)), 1e-15)
    rec.add("rotation_identity", _mx(rotation([0.0, 0.0, 0.0]) - ID4), 1e-15)
    rec.add("rotation_double_cover", _mx(rotation([0.0, 0.0, 2 * np.pi]) + ID4), 1e-14)
    theta = make_rng(seed).uniform(-np.pi, np.pi, (max(4, samples // 10), 3))
    rhat = rotation_su2(theta)
    rec.add("rotation_unitary", _mx(rhat @ dagger(rhat) - ID2))
    R = lorentz_of(rotation(theta))[:, 1:, 1:]
    conj = _lift(np.linalg.inv(rhat)) @ PAULI @ _lift(rhat)
    rec.add("rotation_homomorphism", _mx(conj - contract(R, PAULI)))
    return rec.results()


def suite_boosts(samples: int, seed: int, mass: float):
    rec = _Recorder("boosts")
    q0 = Momentum(np.zeros(3), mass)
    rec.add("rest_frame_boost", _mx(boost_for_momentum(q0) - ID4), 1e-15)
    rec.add("rest_frame_fw", _mx(foldy_wouthuysen(q0) - ID4), 1e-15)
    plus_proj = 0.5 * (ID4 + GAMMA[0])
    minus_proj = 0.5 * (ID4 - GAMMA[0])
    q = _sampled(samples, mass, seed)
    e, m = q.energy[:, None, None], q.m
    lp = boost_for_momentum(q)
    lm = boost_for_momentum(q.flipped())
    rec.add("boost_hermitian", _mx(lp - dagger(lp)))
    rec.add("boost_inverse_flip", _mx(lp @ lm - ID4))
    rec.add("boost_square", _mx(lp @ lp - (e * ID4 + contract(q.p, G0G)) / m))
    rec.add("boost_projection_plus", _mx(plus_proj @ lp @ lp @ plus_proj - (e / m) * plus_proj))
    rec.add("boost_projection_minus", _mx(minus_proj @ lp @ lp @ minus_proj - (e / m) * minus_proj))
    L = lorentz_boost_matrix(q)
    rec.add("canonical_homomorphism", _mx(_lift(lm) @ GAMMA @ _lift(lp) - contract(L, GAMMA)))
    rec.add("metric_preservation", _mx(np.swapaxes(L, -1, -2) @ METRIC @ L - METRIC))
    rec.add("boost_action", _mx(L @ np.array([m, 0, 0, 0]) - q.four))
    th, thi = theta_tensor(q)
    rec.add("theta_product", _mx(th @ thi - np.eye(3)))
    rec.add("theta_is_space_block", _mx(th - L[:, 1:, 1:]))
    U = foldy_wouthuysen(q)
    Um = foldy_wouthuysen(q.flipped())
    rec.add("fw_unitary", _mx(U @ dagger(U) - ID4))
    rec.add("fw_flip_adjoint", _mx(dagger(U) - Um))
    rec.add("fw_diagonalises_h", _mx(U @ _op("h_dirac", q) @ Um - e * GAMMA[0]))
    rec.add("fw_maps_spin", _mx(_lift(U) @ _op("pryce_e_spin", q) @ _lift(Um) - SPIN))
    return rec.results()


def suite_projectors(samples: int, seed: int, mass: float):
    rec = _Recorder("projectors")
    q0 = Momentum(np.zeros(3), mass)
    rec.add("rest_norm_factor", abs(norm_factor(q0) - 1.0), 0.0)
    q = _sampled(samples, mass, seed)
    e = q.energy[:, None, None]
    plus, minus = _op("projector_plus", q), _op("projector_minus", q)
    plus2, minus2 = projectors_boost_form(q)
    rec.add("projector_forms_agree", max(_mx(plus - plus2), _mx(minus - minus2)))
    rec.add("idempotent", max(_mx(plus @ plus - plus), _mx(minus @ minus - minus)))
    rec.add("orthogonal", _mx(plus @ minus))
    rec.add("complete", _mx(plus + minus - ID4))
    nd = _op("n_op", q)
    rec.add("n_squared", _mx(nd @ nd - ID4))
    hd = _op("h_dirac", q)
    rec.add("h_projector_split", _mx(hd - e * (plus - minus)))
    ev = np.sort(np.linalg.eigvalsh(hd), axis=-1)
    rec.add("h_eigenvalues", _mx(ev - q.energy[:, None] * np.array([-1.0, -1.0, 1.0, 1.0])))
    for b in _BASES:
        pp, pm = projector_from_spinors(b, q)
        rec.add("spinor_sum_plus", _mx(pp - plus))
        rec.add("spinor_sum_minus", _mx(pm - minus))
        ru, rv = dirac_residuals(b, q)
        rec.add("dirac_equation_u", np.max(ru))
        rec.add("dirac_equation_v", np.max(rv))
        u = u_matrix(b, q)
        rec.add("u_orthonormal", _mx(dagger(u) @ u - ID2))
        rec.add("uv_cross_orthogonal", _mx(dagger(u) @ v_matrix(b, q.flipped())))
        rec.add("h_acts_on_u", _mx(hd @ u - e * u))
        v = v_matrix(b, q)
        rec.add("h_acts_on_v", _mx(_op("h_dirac", q.flipped()) @ v + e * v))
    return rec.results()


def suite_pryce_spin(samples: int, seed: int, mass: float):
    rec = _Recorder("pryce_spin")
    q = _sampled(samples, mass, seed)
    hd = _op("h_dirac", q)
    S = _op("pryce_e_spin", q)
    rec.add("form_agreement", _mx(S - pryce_e_spin_sandwich(q)))
    rec.add("square_three_quarters", _mx(np.sum(S @ S, axis=-3) - 0.75 * ID4))
    rec.add("hermitian", _mx(S - dagger(S)))
    rec.add("conserved", _mx(_comm(_lift(hd), S)))
    rec.add("su2_closure", _mx(_closure(S, S)))
    # consistent value is delta_ij/2, enforced by S^2 = 3/4
    prod = _products(S)
    half_delta = 0.5 * np.eye(3)[:, :, None, None] * ID4
    rec.add("anticommutator_half_delta", _mx(prod + np.swapaxes(prod, -3, -4) - half_delta))
    dx = pryce_e_position_offset(q)
    rec.add("offset_restores_angular_momentum", _mx(-cross(q.p, dx) - (SPIN - S)))
    sCh = _op("chakrabarti", q)
    sChm = _op("chakrabarti", q.flipped())
    plus, minus = (_lift(_op(name, q)) for name in ("projector_plus", "projector_minus"))
    rec.add("chakrabarti_flip_adjoint", _mx(sCh - dagger(sChm)))
    rec.add("chakrabarti_projector_plus", _mx(sCh @ plus - plus @ sChm))
    rec.add("chakrabarti_projector_minus", _mx(sChm @ minus - minus @ sCh))
    # FD validation of the derivative form of the position offset
    qfd = Momentum(q.p[: max(3, samples // 20)], mass)
    rec.add(
        "offset_matches_boost_derivative",
        _mx(pryce_e_position_offset(qfd) - position_offset_from_boost_derivative(qfd)),
        TOL_FD,
    )
    # witness that the Chakrabarti operator is not conserved
    qw = Momentum(np.array([0.7, -0.3, 0.5]) * mass, mass)
    norm = _mx(_comm(_op("h_dirac", qw), _op("chakrabarti", qw)[0]))
    rec.add("chakrabarti_nonconservation_witness", 1e-6 / norm, 1.0)
    return rec.results()


def suite_spin_types(samples: int, seed: int, mass: float):
    rec = _Recorder("spin_types")
    q = _sampled(samples, mass, seed)
    m, p = q.m, q.p
    e, ec = q.energy[:, None, None], q.energy[:, None, None, None]
    hd = _op("h_dirac", q)
    S = _op("pryce_e_spin", q)
    ops = spin_type_operators(q)
    s_fr, c_fr = ops["S_Fr"], ops["C_Fr"]
    s_pc, c_pc = ops["S_PC"], ops["C_PC"]
    s_fg = ops["S_FG"]
    rec.add("frankel_theta_form", _mx(s_fr - (ec / m) * ops["S_minus"]))
    rec.add("pc_theta_form", _mx(s_pc - (m / ec) * ops["S_plus"]))
    rec.add("cross_identity_pc", _mx(c_pc - (m / ec) ** 2 * s_fr))
    rec.add("cross_identity_fr", _mx(c_fr - (ec / m) ** 2 * s_pc))
    rec.add("frankel_norm", _mx(np.sum(s_fr @ s_fr, axis=-3) - 0.25 * (1 + 2 * e**2 / m**2) * ID4))
    rec.add("pc_norm", _mx(np.sum(s_pc @ s_pc, axis=-3) - 0.25 * (1 + 2 * m**2 / e**2) * ID4))
    nd = _op("n_op", q)
    rec.add("fradkin_good_is_spin_times_n", _mx(s_fg - S @ _lift(nd)))
    rec.add("fradkin_good_square", _mx(np.sum(s_fg @ s_fg, axis=-3) - 0.75 * ID4))
    ps = contract(p, SPIN)
    for name, fam in (("pryce", S), ("frankel", s_fr), ("pc", s_pc)):
        rec.add(f"helicity_projection_{name}", _mx(np.einsum("...i,...iab->...ab", p, fam) - ps))
    rec.add("conserved_frankel", _mx(_comm(_lift(hd), s_fr)))
    rec.add("conserved_pc", _mx(_comm(_lift(hd), s_pc)))
    rec.add("conserved_fg", _mx(_comm(_lift(hd), s_fg)))
    rec.add("frankel_commutator", _mx(_closure(s_fr, c_fr)))
    rec.add("pc_commutator", _mx(_closure(s_pc, c_pc)))
    rec.add("fradkin_good_commutator", _mx(_closure(s_fg, _lift(nd) @ s_fg)))
    off_c, off_d = pryce_cd_offsets(q)
    rec.add("offset_ratio", _mx(off_d + (ec / m) * off_c))
    rec.add("j_split_pc", _mx(-cross(p, off_c) - (S - s_pc)))
    rec.add("j_split_frankel", _mx(-cross(p, off_d) - (S - s_fr)))
    # diagonal/oscillating decomposition spot identities
    ap, am, apm, amp = decompose_diag_osc(GAMMA[1], q)
    rec.add("decomposition_sum", _mx(ap + am + apm + amp - GAMMA[1]))
    rec.add("oscillating_frequency", _mx(_comm(hd, apm) - 2 * e * apm))
    sd = decompose_diag_osc(SPIN, q.per_component)
    rec.add("pauli_dirac_diagonal_is_pc", _mx(sd[0] + sd[1] - _op("pc_spin", q)))
    rec.add("pryce_spin_reducible", _mx(decompose_diag_osc(S, q.per_component)[2]))
    return rec.results()


def suite_pauli_lubanski(samples: int, seed: int, mass: float):
    rec = _Recorder("pauli_lubanski")
    q = _sampled(samples, mass, seed)
    e, m, p = q.energy[:, None, None], q.m, q.p
    W = _op("pauli_lubanski", q)
    w0, wi = W[:, 0], W[:, 1:]
    s_plus = _op("spin_plus", q)
    rec.add("w0_is_helicity", _mx(w0 - contract(p, SPIN)))
    rec.add("wi_is_theta_spin", _mx(wi - m * s_plus))
    rec.add("transverse", _mx(e * w0 - np.einsum("...i,...iab->...ab", p, wi)))
    rec.add("casimir", _mx(w0 @ w0 - np.sum(wi @ wi, axis=-3) + 0.75 * m * m * ID4))
    rec.add("conserved", _mx(_comm(_lift(_op("h_dirac", q)), W)))
    return rec.results()


# C-parity of the catalog entries, A^c = C A(-p)^T C = parity A(p), per component
# where the components differ (W^0 is even, W^i odd); by A~(-)[A] = A~(+)[A^c] it
# is the sign of the antiparticle image.  The projectors have none: N is odd, so
# Pi_+^c = Pi_-, and the projector_*_image lines pin both of their images.
C_PARITY = {
    **dict.fromkeys(
        ("h_dirac", "n_op", "pryce_e_spin", "chakrabarti", "frankel_spin", "pc_spin",
         "spin_plus", "pauli_dirac_spin", "gamma5", "gamma0", "gamma0_gamma5"), -1
    ),
    **dict.fromkeys(("delta_x", "fradkin_good", "fw_generator"), 1),
    "pauli_lubanski": (1, -1, -1, -1),
}


def _parity(name: str) -> np.ndarray:
    """The C-parity of a catalog entry against its (..., k, a, b) stacks."""
    return np.reshape(C_PARITY[name], (-1, 1, 1))


# the entries suite_associated images and parity-checks, C_PARITY's leading: the
# diagonal images are read by name from one image pass over all of them, and one
# charge conjugate serves both bases' A~(-) and the C-parity check
_DIAG_ENTRIES = (*C_PARITY, "projector_plus", "projector_minus")
# the off-diagonal pairings A~(-+) = s A~(+-)^+ of A^+ = s A (gamma0 gamma5, s = -1,
# tells A^+ from A)
_ADJOINT_SIGN = {
    "h_dirac": 1, "pauli_dirac_spin": 1, "gamma0": 1, "delta_x": 1, "gamma0_gamma5": -1,
}


def _stacked(names) -> FourierOperator:
    """The memoized catalog entries ``names`` as one operator: q -> their (..., k, 4, 4)
    stacks concatenated over the component axis in order, (..., K, 4, 4); memoized."""
    return FourierOperator(lambda q: np.concatenate([OPERATOR_CATALOG[n](q) for n in names], -3))


def _rows(names, q: Momentum) -> dict[str, slice]:
    """Each entry's slice of the K rows of ``_stacked(names)``."""
    return dict(zip(names, _tiles(OPERATOR_CATALOG[name](q).shape[-3] for name in names)))


def _per_row(values: dict, rows: dict[str, slice]) -> np.ndarray:
    """The value of each entry of ``values`` (one, or one per component) on its rows,
    (K, 1, 1); the entries must lead the stack, in order."""
    return np.concatenate(
        [np.broadcast_to(np.ravel(v), (rows[n].stop - rows[n].start,)) for n, v in values.items()]
    )[:, None, None]


def suite_associated(samples: int, seed: int, mass: float):
    rec = _Recorder("associated")
    q = _sampled(samples, mass, seed)
    m = q.m
    e, ec = q.energy[:, None, None], q.energy[:, None, None, None]
    off_names = (*_ADJOINT_SIGN, "pryce_e_spin")
    diag_rows, off_rows = _rows(_DIAG_ENTRIES, q), _rows(off_names, q)
    signs = _per_row(_ADJOINT_SIGN, off_rows)  # the leading, paired rows
    spin_rows = off_rows["pryce_e_spin"]
    entries, off_images = _stacked(_DIAG_ENTRIES), _stacked(off_names)

    fam = AssociatedFamily(m)  # its operators and their coefficients serve both bases
    for basis in _BASES:
        sg = basis.sigma(q)
        # the multipliers of the associated operators each image must equal
        energy, w0 = (op.mult_at(q, basis)[:, 0] for op in (fam.hamiltonian(), fam.pauli_lubanski0()))
        s, s_plus, w = (
            op.mult_at(q, basis) for op in (fam.spin(), fam.spin_plus(), fam.pauli_lubanski())
        )

        # every image from one call over the stacked entries, each check on its rows
        diag = matrix_elements_diag(entries, q, basis)

        def images(name):
            return tuple(x[:, diag_rows[name]] for x in diag)

        plus, minus = images("projector_plus")
        rec.add("projector_plus_image", max(_mx(plus[:, 0] - ID2), _mx(minus[:, 0])))
        plus, minus = images("projector_minus")
        rec.add("projector_minus_image", max(_mx(plus[:, 0]), _mx(minus[:, 0] - ID2)))
        plus, minus = images("n_op")
        rec.add("n_image", max(_mx(plus[:, 0] - ID2), _mx(minus[:, 0] + ID2)))
        plus, minus = images("h_dirac")
        rec.add("h_image", max(_mx(plus[:, 0] - energy), _mx(minus[:, 0] + energy)))
        plus, minus = images("pryce_e_spin")
        rec.add("spin_image", _mx(plus - s))
        # each *_sign line: A~(-) = parity A~(+), the parity read from C_PARITY
        rec.add("spin_antiparticle_sign", _mx(minus - _parity("pryce_e_spin") * plus))
        plus, minus = images("spin_plus")
        rec.add("spin_plus_image", _mx(plus - s_plus))
        rec.add("spin_plus_sign", _mx(minus - _parity("spin_plus") * plus))
        plus, minus = images("pauli_lubanski")
        rec.add("pl_time_image", _mx(plus[:, 0] - w0))
        signed = minus - _parity("pauli_lubanski") * plus
        rec.add("pl_time_sign", _mx(signed[:, 0]))
        rec.add("pl_space_image", _mx(plus[:, 1:] - w))
        rec.add("pl_space_sign", _mx(signed[:, 1:]))
        plus, minus = images("delta_x")
        rec.add("delta_x_diagonal_image", _mx(plus + fam.boost_spin().mult_at(q, basis) / ec))
        rec.add("delta_x_sign", _mx(minus - _parity("delta_x") * plus))
        plus, minus = images("pauli_dirac_spin")
        rec.add("pauli_dirac_image", _mx(plus - (m / ec) * s_plus))
        rec.add("pauli_dirac_sign", _mx(minus - _parity("pauli_dirac_spin") * plus))
        plus, minus = images("gamma0")
        rec.add("scalar_charge_image", max(_mx(plus[:, 0] - (m / e) * ID2), _mx(minus[:, 0] + (m / e) * ID2)))
        plus, minus = images("gamma5")
        rec.add("axial_charge_image", max(_mx(plus[:, 0] - 2 * w0 / e), _mx(minus[:, 0] + 2 * w0 / e)))
        pm_, mp_ = matrix_elements_offdiag(off_images, q, 0.31, basis)
        paired = slice(len(signs))
        rec.add("offdiag_adjoint_pairing", _mx(signs * dagger(pm_[:, paired]) - mp_[:, paired]))
        rec.add("pryce_spin_offdiag_vanishes", max(_mx(pm_[:, spin_rows]), _mx(mp_[:, spin_rows])))
        # covariant derivative commutes with the spin matrices; FD step
        # matched to the scale the chart varies on: the momentum itself, and
        # near the helicity chart's -e3 pole its distance |p| sqrt(2 (1 + n3))
        # to the pole (the common basis's Sigma is constant, so its stencil is
        # exactly 0)
        h = 1e-4 * q.mag * np.sqrt(np.minimum(1.0, 1.0 + q.p[:, 2] / q.mag))
        # the 2x2 products [j, k] of Omega_j with Sigma_k and Omega_k are broadcast
        # products (``_mul``): matmul walks such stacks one matrix at a time
        om = basis.omega(q)
        oj, ok, sk = om[:, :, None], om[:, None, :], sg[:, None, :]
        # [j, k] = d_j Sigma_k and d_j Omega_k, both on one stencil batch at q's mass
        d_sigma, d_omega = np.moveaxis(
            central_gradient(lambda k: np.stack((basis.sigma(k), basis.omega(k)), -4), q, h), -4, 0
        )
        rec.add("covariant_derivative_kills_sigma", _mx(d_sigma + _mul(oj, sk) - _mul(sk, oj)), TOL_FD)
        # the connection is pure gauge: F_jk = d_j O_k - d_k O_j + [O_j, O_k]
        # vanishes; |p|^2 makes the residual scale-free, since Omega ~ 1/|p|
        curv = d_omega - np.swapaxes(d_omega, 1, 2) + _mul(oj, ok) - _mul(ok, oj)
        rec.add("connection_flat", _mx(q.mag[:, None, None, None, None] ** 2 * curv), TOL_FD)
    # the declared C-parities, the source of every *_sign line: relative to the
    # entry's size at +-p, so the check is the same at every mass; one pass over all
    # 15, on their leading rows of the images' entries and of their charge conjugate
    rows = {name: diag_rows[name] for name in C_PARITY}
    own = slice(diag_rows["projector_plus"].start)
    a, a_flipped, conjugate = (x[:, own] for x in (
        entries(q), entries(q.flipped()), charge_conjugated(entries, q)
    ))
    dev = conjugate - _per_row(C_PARITY, rows) * a
    size = np.maximum(*(_row_maxima(x, rows.values()) for x in (a, a_flipped)))
    rec.add("charge_conjugation_parity", np.max(_row_maxima(dev, rows.values()) / size))
    return rec.results()


def _nested_commutators(applied: OperatorStack, count: int, spinor, q: Momentum, actions, basis):
    """Oracle for ``commutator``: [A_i, B_j] alpha in ``basis``, (..., ka, kb, 2), for
    every pair of the leading ``count`` members of the stack ``applied`` by nested FD,
    as a function of the pair (a, b).

    One composite wave spinor holds those members' actions B alpha along a leading
    component axis: its value at q is their rows of ``actions``, ``applied``'s action
    on ``spinor`` there in ``basis``, (..., K, 2), and its gradient is one finite
    difference of their own stack's action on one stencil batch at q's mass.
    ``applied`` acts once on the composite, reading the stacked values its action at
    q keeps, and T = A(B alpha) with axes (B rows, .., A rows, 2) keeps their A rows:
    every commutator is a block of T - T^T."""
    stack = OperatorStack(*applied.members[:count])

    def grad(k):
        step = 1e-3 * k.mag
        return np.moveaxis(central_gradient(lambda x: stack.apply(spinor, x, basis), k, step), -2, 0)

    own = applied.slices[count - 1].stop  # the members' rows lead
    # the composite is evaluated at q only
    composite = WaveSpinor(lambda k: np.moveaxis(actions[..., :own, :], -2, 0), grad)
    # (.., A rows, B rows, 2), the members' A rows kept
    table = np.moveaxis(applied.apply(composite, q, basis), 0, -2)[..., :own, :, :]
    table = table - np.swapaxes(table, -2, -3)
    # the members outlive the table, so their ids stay distinct
    rows = dict(zip(map(id, applied.members[:count]), applied.slices))
    return lambda a, b: table[..., rows[id(a)], rows[id(b)], :]


def suite_appendix_b(samples: int, seed: int, mass: float):
    """Commutator ledger of the associated-operator algebra.

    Each relation is one array expression over all index pairs (i, j), through
    delta_ij and eps_ijk, the antisymmetric ones included (a swap negates their
    residual up to rounding).  Exact first-order commutators of whole operator
    families act on 3 test spinors at every momentum, at closed-form tolerance
    (their coefficients' partials come from jets, not a stencil); each also
    meets the nested-FD oracle on all component pairs at the first 2 momenta x
    1 spinor at FD tolerance.  Purely multiplicative relations are also checked
    pointwise.  The full ledger runs in the helicity basis (nontrivial
    connection); the pointwise subset repeats in a common basis.  Momenta are
    sampled where the Gaussian test spinors are O(1) so FD residuals stay
    meaningful, and clear of the helicity poles (``avoid_poles``): the oracle
    steps 1e-3 |p| in every direction.

    The families act as ``OperatorStack``s, each check reading its own rows: the
    three pointwise stacks and their one commutator are built once, the
    multipliers' stacked values and the commutator's coefficients are read once,
    and per basis the pointwise multipliers are formed from the one and the five
    pointwise commutators are blocks of the other's.  The oracle's 13
    families and Y~c, Y~d and S~(-) act on the test spinors in one stacked
    ``apply``, whose first spinor at the first 2 momenta is the value of the
    oracle's composite, and the same stack acts on the composite.
    """
    rec = _Recorder("appendix_b")
    q = _sampled(min(samples, 20), mass, seed, lo=0.05, hi=2.0, avoid_poles=True)
    m, p = q.m, q.p
    rng = make_rng(seed + 1)
    spinors = [gaussian_test_spinor(rng, scale=max(mass, 1.0)) for _ in range(3)]
    # the three test spinors as one wave spinor whose values carry a leading
    # axis of 3, which broadcasts against the momentum batch: (3, n, 2)
    trio = WaveSpinor(
        lambda k: np.stack([sp.value(k) for sp in spinors]),
        lambda k: np.stack([sp.gradient(k) for sp in spinors]),
    )
    val = trio.value(q)[..., None, None, :]
    # per-momentum scalars against (i, j) stacks of spinor values, (3, n, i, j, 2),
    # and of 2x2 parts, (n, i, j, 2, 2); e also fits (n, k, 2, 2) stacks
    e, pi, pj = q.energy[:, None, None, None], p[:, :, None, None], p[:, None, :, None]
    e2, pi2, pj2 = e[..., None], pi[..., None], pj[..., None]
    delta = np.eye(3)[:, :, None]
    # eps_ijk x_k = -(e_i ^ x)_j as (i, j) stacks: of p, (n, i, j, 1, 1), and
    # below of 2x2 parts, (n, i, j, 2, 2), and of spinor values, (3, n, i, j, 2)
    eps_p = -cross(np.eye(3), p[:, None, :, None, None])

    fam = AssociatedFamily(mass)
    L, S, Ko, Ks = fam.angular(), fam.spin(), fam.boost_orbital(), fam.boost_spin()
    X, Xt, V, P = fam.position(), fam.position(t=0.8), fam.velocity(), fam.momentum()
    H, W0, Wi = fam.hamiltonian(), fam.pauli_lubanski0(), fam.pauli_lubanski()
    Xc, Xd, Sminus = fam.position_pryce_c(), fam.position_pryce_d(), fam.spin_minus()
    Yc, Yd = fam.y_pryce_c(), fam.y_pryce_d()

    # pointwise multiplicative relations, closed-form tolerance: the multipliers
    # of one stack, the commutators as blocks of one stacked commutator; each is read
    # once, the commutator's coefficients (kept nowhere) formed once, and both bases'
    # multipliers formed from them
    multipliers, left, right = (
        OperatorStack(S, Ks, W0, Wi, Yc, Yd), OperatorStack(S, Ks), OperatorStack(S, Ks, W0, Wi)
    )
    pairs = commutator(left, right)
    mult_parts, pair_parts = multipliers._values(q), pairs.coef(q)
    for basis in (_HELICITY, _COMMON):
        mults = multipliers._mult(mult_parts, q, basis)
        mS, mKs, mW0, mWi, mYc, mYd = (mults[:, rows] for rows in multipliers.slices)
        blocks = pairs._mult(pair_parts, q, basis)
        (ls, lks), (rs, rks, rw0, rwi) = left.slices, right.slices
        eps_mS = -cross(np.eye(3), mS[:, None])
        rec.add("spin_su2_pointwise", _mx(blocks[:, ls, rs] - 1j * eps_mS))
        rhs = 1j / (e2 + m) * (pi2 * mS[:, None] - delta[..., None] * mW0[:, None])
        rec.add("spin_boostspin_pointwise", _mx(blocks[:, ls, rks] - rhs))
        rhs = 1j / (e2 + m) ** 2 * eps_p * mW0[:, None]
        rec.add("boostspin_boostspin_pointwise", _mx(blocks[:, lks, rks] - rhs))
        rhs = 1j * m * eps_mS + 1j * pj2 * mKs[:, :, None]
        rec.add("spin_pl_pointwise", _mx(blocks[:, ls, rwi] - rhs))
        rhs = 1j * (e2 + m) * mKs[:, :, None]
        rec.add("spin_pl0_pointwise", _mx(blocks[:, ls, rw0] - rhs))
        rec.add("y_pryce_c_closed_form", _mx(mYc - mWi / e**3))
        rec.add("y_pryce_d_closed_form", _mx(mYd - mWi / (m * m * e)))

    # spinor-applied identities on all test spinors and momenta at once,
    # (3, n, k, 2); each commutator also meets the nested-FD oracle on
    # the first 2 momenta
    oracle = (L, S, Ko, Ks, X, Xt, V, P, H, W0, Wi, Xc, Xd)
    applied = OperatorStack(*oracle, Yc, Yd, Sminus)
    actions = applied.apply(trio, q, _HELICITY)
    aL, aS, aKo, aKs, aX, aXt, aV, _, _, aW0, _, _, _, aYc, aYd, aSminus = (
        actions[..., rows, :] for rows in applied.slices
    )
    eL, eS, eKo, eXt, eYc, eYd = (
        -cross(np.eye(3), a[..., None, :, :, None])[..., 0]
        for a in (aL, aS, aKo, aXt, aYc, aYd)
    )

    # the oracle's first 2 momenta: the batch itself if it has no more, so the
    # members' jets, the stacked values and the basis frames on it are read, not
    # made again
    first = q if len(p) <= 2 else Momentum(p[:2], mass)
    nested = _nested_commutators(applied, len(oracle), spinors[0], first, actions[0, :2], _HELICITY)

    def comm(a, b):
        exact = commutator_action(a, b, trio, q, _HELICITY)
        rec.add("exact_matches_nested_fd", _mx(exact[0, :2] - nested(a, b)), TOL_FD_COMM)
        return exact

    # antisymmetric relations
    rec.add("angular_su2", _mx(comm(L, L) - 1j * eL))
    rec.add("boost_boost_closes_rotation", _mx(comm(Ko, Ko) + 1j * eL))
    rec.add("position_commute", _mx(comm(Xt, Xt)))
    rec.add("pryce_c_noncommutativity", _mx(comm(Xc, Xc) + 1j * eYc))
    rec.add("pryce_d_noncommutativity", _mx(comm(Xd, Xd) - 1j * eYd))
    # generic index pairs
    rec.add("angular_spin_commute", _mx(comm(L, S)))
    rec.add("angular_boost_vector", _mx(comm(L, Ko) - 1j * eKo))
    rhs = -1j / (e + m) * (e * eS + pi * aKs[..., None, :, :])
    rec.add("boost_orbital_spin_mix", _mx(comm(Ko, Ks) - rhs))
    rhs = delta / (2 * e) * val - 1j * (pj / e) * aX[..., None, :] - pi * pj / (2 * e**3) * val
    rec.add("boost_position", _mx(comm(Ko, X) - rhs))
    rhs = 1j * (delta - pi * pj / e**2) * val
    rec.add("boost_velocity", _mx(comm(Ko, V) - rhs))
    rec.add("position_velocity", _mx(e * comm(X, V) - rhs))
    rec.add("position_rotates_as_vector", _mx(comm(L, Xt) - 1j * eXt))
    rec.add("position_spin_commute", _mx(comm(S, Xt)))
    rhs = 1j / (e + m) * (-eS + (pj / e) * aKs[..., None, :])
    rec.add("boostspin_position", _mx(comm(Ks, X) - rhs))
    # note the p^j S~(-)_i index order; the transposed placement fails
    # numerically
    rhs = 1j / (e + m) * (delta * aW0[..., None, :] + pj * aSminus[..., None, :])
    rec.add("position_pl_space", _mx(comm(X, Wi) - rhs))
    rec.add("angular_momentum_vector", _mx(comm(L, P) - 1j * eps_p[..., 0] * val))
    rec.add("boost_momentum", _mx(comm(Ko, P) - 1j * (e * delta) * val))
    rec.add("position_momentum_canonical", _mx(comm(X, P) - 1j * delta * val))
    # scalar partners: (3, n, i, 1, 2)
    rec.add("angular_energy_commute", _mx(comm(L, H)))
    rec.add("boost_energy", _mx(comm(Ko, H) - 1j * pi * val))
    rec.add("position_energy_gives_velocity", _mx(comm(X, H) - 1j * aV[..., None, :]))
    rec.add("position_pl_time", _mx(comm(X, W0) - 1j * aS[..., None, :]))
    return rec.results()


def suite_wigner(samples: int, seed: int, mass: float):
    """Induced-representation checks; ``boost_norm_preservation`` integrates on
    a grid sized from its convergence.  |<T alpha, T alpha> - <alpha, alpha>| per
    grid (radial x polar x azimuthal), the same at masses 0.01 to 10:

        96x24x48  110,592 nodes  1.1e-15  0.14 s
        64x16x32   32,768 nodes  7.3e-15  0.035 s
        48x12x24   13,824 nodes  7.7e-15  0.015 s  (used, at 1e-12)
        40x12x24   11,520 nodes  9.4e-15  0.011 s
        32x12x24    9,216 nodes  1.7e-7   0.009 s

    On 48x12x24, sqrt(E'/E) dropped, squared or raised to 0.999 misses by 9e-2,
    6e-2 and 8e-5."""
    from .wavepacket import QuadratureGrid  # only this suite integrates on a grid

    rec = _Recorder("wigner")
    basis = _COMMON
    # every boost against each of the first 5 momenta: lambdas (b, 1, 4, 4)
    lams = sample_boosts(max(samples // 2, 50), seed + 2)[:, None]
    momenta = _sampled(20, mass, seed)
    first = Momentum(momenta.p[:5], mass)
    what, qprime = wigner_little_group(lams, first)
    w = boost_for_momentum(first.flipped()) @ lams @ boost_for_momentum(qprime)
    rec.add("w_block_structure", max(_mx(w[..., :2, 2:]), _mx(w[..., 2:, :2])))
    rec.add("w_blocks_equal", max(_mx(what - w[..., :2, :2]), _mx(what - w[..., 2:, 2:])))
    rec.add("w_unitary", _mx(what @ dagger(what) - ID2))
    for b in _BASES:  # the little group of both bases' D
        d = induced_rotation(what, qprime, first, b)
        rec.add("d_unitary", _mx(dagger(d) @ d - ID2))
    # rotations: D independent of momentum; 5 rotations against all momenta, (5, n, 2, 2)
    theta = make_rng(seed + 3).uniform(-np.pi, np.pi, (5, 3))
    ds = d_matrix(rotation(theta)[:, None], momenta, basis)
    rec.add("rotation_momentum_independent", _mx(ds - ds[:, :1]))
    rec.add("rotation_is_su2_matrix", _mx(ds[:, 0] - rotation_su2(theta)))
    rec.add("identity_transform", _mx(d_matrix(ID4, Momentum(momenta.p[0], mass), basis) - ID2))
    # norm and modulus preservation of wigner_transform on the quadrature grid
    grid = QuadratureGrid(12.0 * mass, 48, 12, 24)
    nodes = Momentum(grid.nodes, mass)
    alpha = WaveSpinor(lambda k: _gaussian_packet(k)[..., None] * np.array([1.0, 0.0]))
    boost = boost_param(np.array([0.0, 0.25, 0.35]))
    boosted = wigner_transform(alpha, boost, np.zeros(4), basis)
    norms = [_grid_norm(grid, a.value(nodes)) for a in (boosted, alpha)]
    rec.add("boost_norm_preservation", abs(norms[0] - norms[1]), TOL_EXACT)
    # pure translations only change the phase of the wave spinor, at 111 nodes
    pts = Momentum(grid.nodes[::125], mass)
    moved = wigner_transform(alpha, ID4, np.array([0.4, -0.3, 0.2, 0.9]), basis)
    rec.add(
        "translation_modulus_invariance",
        _mx(np.abs(moved.value(pts)) - np.abs(alpha.value(pts))),
        TOL_EXACT,
    )
    return rec.results()


def _gaussian_packet(q: Momentum) -> np.ndarray:
    # normalized radial Gaussian of width m, analytic in p so grid quadrature is spectral
    s = q.m
    c = (np.pi * s * s) ** (-0.75)
    return c * np.exp(-np.sum(q.p**2, axis=-1) / (2 * s * s))


def _grid_norm(grid: QuadratureGrid, values: np.ndarray) -> float:
    """<alpha, alpha> on the grid from the node values of a wave spinor."""
    return float(np.real(grid.integrate(np.sum(np.abs(values) ** 2, axis=-1))))


def suite_kernels(samples: int, seed: int, mass: float):
    rec = _Recorder("kernels")
    t = 0.42
    q = _sampled(min(samples, 40), mass, seed)
    e = q.energy
    ek = e[:, None, None, None]
    # one time per momentum; central_gradient makes the four shifted times of each
    times = np.full((len(e), 1), t)
    names = tuple(KERNEL_CATALOG)
    tables = [KernelTable(tuple(KERNEL_CATALOG.values()), q, basis) for basis in _BASES]
    evolved = tables[0].evolve(t)  # basis-free: one U^+ A U of the parents for both bases
    for table in tables:
        # every kernel at t, at 1.7 and at the shifted times from one C.B, (n, 14, 2, 2)
        kv = table(t)
        machinery, reference = table.from_offdiag(t), table.image(evolved, 0.0)
        static = np.abs(kv) - np.abs(table(1.7))
        # FD time derivative against 2iE K, relative per momentum; the shifted
        # times (n, 4) go in as a (4, n) stack against q itself
        dk = central_gradient(
            lambda tt: np.swapaxes(table(tt[..., 0].T), 0, 1), times, 1e-6 / e
        )[:, 0]
        err = np.max(np.abs(dk - 2j * ek * kv), axis=(-2, -1))
        scale = np.maximum(np.max(np.abs(2j * ek * kv), axis=(-2, -1)), 1e-30)
        starts = [rows.start for rows in table.slices]
        rel = np.maximum.reduceat(err, starts, 1) / np.maximum.reduceat(scale, starts, 1)
        res = [_row_maxima(x, table.slices) for x in (kv - machinery, kv - reference, static)]
        for name, machinery_res, phase_res, static_res, rel_res in zip(names, *res, rel.max(0)):
            rec.add(f"{name}_matches_machinery", machinery_res, 1e-10)
            rec.add(f"{name}_phase_law", phase_res)
            rec.add(f"{name}_modulus_static", static_res)
            rec.add(f"{name}_time_derivative", rel_res, TOL_FD)
    dd = decompose_diag_osc(GAMMA[0] @ GAMMA5, q)
    rec.add("pseudoscalar_diagonal_vanishes", max(_mx(dd[0]), _mx(dd[1])))
    return rec.results()


SUITES = {
    "clifford": suite_clifford,
    "boosts": suite_boosts,
    "projectors": suite_projectors,
    "pryce_spin": suite_pryce_spin,
    "spin_types": suite_spin_types,
    "pauli_lubanski": suite_pauli_lubanski,
    "associated": suite_associated,
    "appendix_b": suite_appendix_b,
    "wigner": suite_wigner,
    "kernels": suite_kernels,
}


def run_suite(
    name: str,
    samples: int = 100,
    seed: int = 7,
    mass: float = 1.0,
    tol: float | None = None,
) -> list[CheckResult]:
    """Results of one suite, or of every suite in order for "all"; ``tol``
    replaces every check's tolerance."""
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    names = SUITES if name == "all" else (name,)
    out = [r for nm in names for r in SUITES[nm](samples, seed, mass)]
    return out if tol is None else [replace(r, tol=tol) for r in out]
