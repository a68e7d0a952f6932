"""Named identity suites behind the ``verify`` command.

Each suite evaluates a fixed list of closed-form identities at seeded random
momenta and reports the maximum residual against a stated tolerance.  Suites
are deterministic for a given (samples, seed, mass) triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    CCONJ,
    DEFAULT_IDENTITY_TOL,
    EPS3,
    GAMMA,
    GAMMA5,
    ID2,
    ID4,
    METRIC,
    SPIN,
    Momentum,
    boost_for_momentum,
    central_gradient,
    dirac_adjoint_deviation,
    foldy_wouthuysen,
    levi_civita3,
    lorentz_boost_matrix,
    lorentz_of,
    rotation,
    rotation_su2,
    sl2c_generator,
    theta_tensor,
)
from .associated import (
    KERNEL_CATALOG,
    AssociatedFamily,
    WaveSpinor,
    commutator,
    commutator_action,
    d_matrix,
    gaussian_test_spinor,
    matrix_elements_diag,
    matrix_elements_offdiag,
    wigner_little_group,
)
from .operators import (
    OPERATOR_CATALOG,
    auxiliary_spins,
    chakrabarti_spin,
    decompose_diag_osc,
    dirac_hamiltonian,
    n_operator,
    pauli_lubanski,
    pc_spin,
    position_offset_from_boost_derivative,
    projectors,
    projectors_boost_form,
    pryce_cd_offsets,
    pryce_e_position_offset,
    pryce_e_spin,
    pryce_e_spin_sandwich,
    spin_type_operators,
)
from .polarization import CommonBasis, HelicityBasis
from .sampling import make_rng, sample_boosts, sample_momenta
from .spinors import dirac_residuals, projector_from_spinors, u_matrix, v_matrix
from .wavepacket import QuadratureGrid

TOL_EXACT = DEFAULT_IDENTITY_TOL
TOL_FD = 1e-6
TOL_FD_COMM = 1e-5


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
    def __init__(self, suite: str, tol_override: float | None):
        self.suite = suite
        self.tol_override = tol_override
        self._acc: dict[str, tuple[float, float]] = {}

    def add(self, name: str, residual: float, tol: float = TOL_EXACT):
        residual = float(residual)
        if name in self._acc:
            prev_r, prev_t = self._acc[name]
            self._acc[name] = (max(prev_r, residual), prev_t)
        else:
            self._acc[name] = (residual, tol)

    def results(self) -> list[CheckResult]:
        out = []
        for name, (res, tol) in self._acc.items():
            if self.tol_override is not None:
                tol = self.tol_override
            out.append(CheckResult(self.suite, name, res, tol))
        return out


def _mx(a) -> float:
    return float(np.max(np.abs(a)))


def _comm(a, b):
    return a @ b - b @ a


# ---------------------------------------------------------------------------


def suite_clifford(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("clifford", tol)
    for mu in range(4):
        for nu in range(4):
            rec.add(
                "anticommutation",
                _mx(GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu] - 2 * METRIC[mu, nu] * ID4),
                1e-15,
            )
    rec.add("gamma5_diag", _mx(GAMMA5 - np.diag([-1, -1, 1, 1])), 1e-15)
    rec.add("gamma5_product", _mx(GAMMA5 - 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]), 1e-15)
    rec.add("charge_conjugation_involution", _mx(CCONJ @ CCONJ - ID4), 1e-15)
    for mu in range(4):
        for nu in range(4):
            s = sl2c_generator(mu, nu)
            rec.add("generator_antisymmetry", _mx(s + sl2c_generator(nu, mu)), 1e-15)
            rec.add("generator_dirac_selfadjoint", dirac_adjoint_deviation(s), 1e-15)
    for i in range(3):
        for j in range(3):
            rhs = 1j * sum(levi_civita3(i, j, k) * SPIN[k] for k in range(3))
            rec.add("spin_su2_closure", _mx(_comm(SPIN[i], SPIN[j]) - rhs), 1e-15)
    rec.add("rotation_identity", _mx(rotation([0.0, 0.0, 0.0]) - ID4), 1e-15)
    rec.add("rotation_double_cover", _mx(rotation([0.0, 0.0, 2 * np.pi]) + ID4), 1e-14)
    rng = make_rng(seed)
    from .algebra import PAULI

    for _ in range(max(4, samples // 10)):
        theta = rng.uniform(-np.pi, np.pi, 3)
        rhat = rotation_su2(theta)
        rec.add("rotation_unitary", _mx(rhat @ rhat.conj().T - ID2))
        R = lorentz_of(rotation(theta))[1:, 1:]
        for i in range(3):
            rhs = sum(R[i, j] * PAULI[j] for j in range(3))
            rec.add("rotation_homomorphism", _mx(np.linalg.inv(rhat) @ PAULI[i] @ rhat - rhs))
    return rec.results()


def suite_boosts(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("boosts", tol)
    q0 = Momentum(np.zeros(3), mass)
    rec.add("rest_frame_boost", _mx(boost_for_momentum(q0) - ID4), 1e-15)
    rec.add("rest_frame_fw", _mx(foldy_wouthuysen(q0) - ID4), 1e-15)
    plus_proj = 0.5 * (ID4 + GAMMA[0])
    minus_proj = 0.5 * (ID4 - GAMMA[0])
    for q in sample_momenta(samples, mass, seed):
        e, m = q.energy, q.m
        lp = boost_for_momentum(q)
        lm = boost_for_momentum(q.flipped())
        rec.add("boost_hermitian", _mx(lp - lp.conj().T))
        rec.add("boost_inverse_flip", _mx(lp @ lm - ID4))
        g0gp = sum(q.p[i] * (GAMMA[0] @ GAMMA[i + 1]) for i in range(3))
        rec.add("boost_square", _mx(lp @ lp - (e * ID4 + g0gp) / m))
        rec.add("boost_projection_plus", _mx(plus_proj @ lp @ lp @ plus_proj - (e / m) * plus_proj))
        rec.add("boost_projection_minus", _mx(minus_proj @ lp @ lp @ minus_proj - (e / m) * minus_proj))
        L = lorentz_boost_matrix(q)
        for a in range(4):
            rhs = sum(L[a, b] * GAMMA[b] for b in range(4))
            rec.add("canonical_homomorphism", _mx(lm @ GAMMA[a] @ lp - rhs))
        rec.add("metric_preservation", _mx(L.T @ METRIC @ L - METRIC))
        rec.add("boost_action", _mx(L @ np.array([m, 0, 0, 0]) - q.four))
        th, thi = theta_tensor(q)
        rec.add("theta_product", _mx(th @ thi - np.eye(3)))
        rec.add("theta_is_space_block", _mx(th - L[1:, 1:]))
        U = foldy_wouthuysen(q)
        Um = foldy_wouthuysen(q.flipped())
        rec.add("fw_unitary", _mx(U @ U.conj().T - ID4))
        rec.add("fw_flip_adjoint", _mx(U.conj().T - Um))
        rec.add("fw_diagonalises_h", _mx(U @ dirac_hamiltonian(q) @ Um - e * GAMMA[0]))
        S = pryce_e_spin(q)
        for i in range(3):
            rec.add("fw_maps_spin", _mx(U @ S[i] @ Um - SPIN[i]))
    return rec.results()


def suite_projectors(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("projectors", tol)
    basis = CommonBasis()
    hel = HelicityBasis()
    q0 = Momentum(np.zeros(3), mass)
    rec.add("rest_norm_factor", abs(np.sqrt(q0.m / q0.energy) - 1.0), 0.0)
    for q in sample_momenta(samples, mass, seed, avoid_poles=True):
        e = q.energy
        plus, minus = projectors(q)
        plus2, minus2 = projectors_boost_form(q)
        rec.add("projector_forms_agree", max(_mx(plus - plus2), _mx(minus - minus2)))
        rec.add("idempotent", max(_mx(plus @ plus - plus), _mx(minus @ minus - minus)))
        rec.add("orthogonal", _mx(plus @ minus))
        rec.add("complete", _mx(plus + minus - ID4))
        nd = n_operator(q)
        rec.add("n_squared", _mx(nd @ nd - ID4))
        rec.add("h_projector_split", _mx(dirac_hamiltonian(q) - e * (plus - minus)))
        ev = np.sort(np.linalg.eigvalsh(dirac_hamiltonian(q)))
        rec.add("h_eigenvalues", _mx(ev - np.array([-e, -e, e, e])))
        for b in (basis, hel):
            pp, pm = projector_from_spinors(b, q)
            rec.add("spinor_sum_plus", _mx(pp - plus))
            rec.add("spinor_sum_minus", _mx(pm - minus))
            ru, rv = dirac_residuals(b, q)
            rec.add("dirac_equation_u", ru)
            rec.add("dirac_equation_v", rv)
            u = u_matrix(b, q)
            rec.add("u_orthonormal", _mx(u.conj().T @ u - ID2))
            vm = v_matrix(b, q.flipped())
            rec.add("uv_cross_orthogonal", _mx(u.conj().T @ vm))
            rec.add("h_acts_on_u", _mx(dirac_hamiltonian(q) @ u - e * u))
            rec.add("h_acts_on_v", _mx(dirac_hamiltonian(q.flipped()) @ v_matrix(b, q) + e * v_matrix(b, q)))
    return rec.results()


def suite_pryce_spin(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("pryce_spin", tol)
    momenta = sample_momenta(samples, mass, seed)
    for q in momenta:
        hd = dirac_hamiltonian(q)
        S = pryce_e_spin(q)
        rec.add("form_agreement", _mx(S - pryce_e_spin_sandwich(q)))
        rec.add("square_three_quarters", _mx(sum(S[i] @ S[i] for i in range(3)) - 0.75 * ID4))
        for i in range(3):
            rec.add("hermitian", _mx(S[i] - S[i].conj().T))
            rec.add("conserved", _mx(_comm(hd, S[i])))
            for j in range(3):
                rhs = 1j * sum(levi_civita3(i, j, k) * S[k] for k in range(3))
                rec.add("su2_closure", _mx(_comm(S[i], S[j]) - rhs))
                # consistent value is delta_ij/2, enforced by S^2 = 3/4
                rec.add(
                    "anticommutator_half_delta",
                    _mx(S[i] @ S[j] + S[j] @ S[i] - (0.5 if i == j else 0.0) * ID4),
                )
        dX = pryce_e_position_offset(q)
        for i in range(3):
            lhs = sum(
                levi_civita3(i, j, k) * dX[j] * q.p[k] for j in range(3) for k in range(3)
            )
            rec.add("offset_restores_angular_momentum", _mx(lhs - (SPIN[i] - S[i])))
        sCh = chakrabarti_spin(q)
        sChm = chakrabarti_spin(q.flipped())
        plus, minus = projectors(q)
        for i in range(3):
            rec.add("chakrabarti_flip_adjoint", _mx(sCh[i] - sChm[i].conj().T))
            rec.add("chakrabarti_projector_plus", _mx(sCh[i] @ plus - plus @ sChm[i]))
            rec.add("chakrabarti_projector_minus", _mx(sChm[i] @ minus - minus @ sCh[i]))
    # FD validation of the derivative form of the position offset
    for q in momenta[: max(3, samples // 20)]:
        rec.add(
            "offset_matches_boost_derivative",
            _mx(pryce_e_position_offset(q) - position_offset_from_boost_derivative(q)),
            TOL_FD,
        )
    # witness that the Chakrabarti operator is not conserved
    qw = Momentum(np.array([0.7, -0.3, 0.5]) * mass, mass)
    norm = _mx(_comm(dirac_hamiltonian(qw), chakrabarti_spin(qw)[0]))
    rec.add("chakrabarti_nonconservation_witness", 1e-6 / norm, 1.0)
    return rec.results()


def suite_spin_types(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("spin_types", tol)
    for q in sample_momenta(samples, mass, seed):
        e, m, p = q.energy, q.m, q.p
        hd = dirac_hamiltonian(q)
        S = pryce_e_spin(q)
        ops = spin_type_operators(q)
        s_fr, c_fr = ops["S_Fr"], ops["C_Fr"]
        s_pc, c_pc = ops["S_PC"], ops["C_PC"]
        s_fg = ops["S_FG"]
        rec.add("frankel_theta_form", _mx(s_fr - (e / m) * ops["S_minus"]))
        rec.add("pc_theta_form", _mx(s_pc - (m / e) * ops["S_plus"]))
        rec.add("cross_identity_pc", _mx(c_pc - (m / e) ** 2 * s_fr))
        rec.add("cross_identity_fr", _mx(c_fr - (e / m) ** 2 * s_pc))
        rec.add(
            "frankel_norm",
            _mx(sum(s_fr[i] @ s_fr[i] for i in range(3)) - 0.25 * (1 + 2 * e**2 / m**2) * ID4),
        )
        rec.add(
            "pc_norm",
            _mx(sum(s_pc[i] @ s_pc[i] for i in range(3)) - 0.25 * (1 + 2 * m**2 / e**2) * ID4),
        )
        nd = n_operator(q)
        rec.add("fradkin_good_is_spin_times_n", _mx(s_fg - np.stack([S[i] @ nd for i in range(3)])))
        rec.add("fradkin_good_square", _mx(sum(s_fg[i] @ s_fg[i] for i in range(3)) - 0.75 * ID4))
        ps = sum(p[i] * SPIN[i] for i in range(3))
        for name, fam in (("pryce", S), ("frankel", s_fr), ("pc", s_pc)):
            rec.add(f"helicity_projection_{name}", _mx(sum(p[i] * fam[i] for i in range(3)) - ps))
        for i in range(3):
            rec.add("conserved_frankel", _mx(_comm(hd, s_fr[i])))
            rec.add("conserved_pc", _mx(_comm(hd, s_pc[i])))
            rec.add("conserved_fg", _mx(_comm(hd, s_fg[i])))
            for j in range(3):
                rec.add(
                    "frankel_commutator",
                    _mx(_comm(s_fr[i], s_fr[j]) - 1j * sum(levi_civita3(i, j, k) * c_fr[k] for k in range(3))),
                )
                rec.add(
                    "pc_commutator",
                    _mx(_comm(s_pc[i], s_pc[j]) - 1j * sum(levi_civita3(i, j, k) * c_pc[k] for k in range(3))),
                )
                rec.add(
                    "fradkin_good_commutator",
                    _mx(_comm(s_fg[i], s_fg[j]) - 1j * sum(levi_civita3(i, j, k) * nd @ s_fg[k] for k in range(3))),
                )
        off_c, off_d = pryce_cd_offsets(q)
        rec.add("offset_ratio", _mx(off_d + (e / m) * off_c))
        for i in range(3):
            lhs_c = sum(levi_civita3(i, j, k) * off_c[j] * p[k] for j in range(3) for k in range(3))
            rec.add("j_split_pc", _mx(lhs_c - (S[i] - s_pc[i])))
            lhs_d = sum(levi_civita3(i, j, k) * off_d[j] * p[k] for j in range(3) for k in range(3))
            rec.add("j_split_frankel", _mx(lhs_d - (S[i] - s_fr[i])))
        # diagonal/oscillating decomposition spot identities
        ap, am, apm, amp = decompose_diag_osc(GAMMA[1], q)
        rec.add("decomposition_sum", _mx(ap + am + apm + amp - GAMMA[1]))
        rec.add("oscillating_frequency", _mx(_comm(hd, apm) - 2 * e * apm))
        sd = [decompose_diag_osc(SPIN[i], q) for i in range(3)]
        rec.add("pauli_dirac_diagonal_is_pc", _mx(np.stack([sd[i][0] + sd[i][1] for i in range(3)]) - pc_spin(q)))
        rec.add("pryce_spin_reducible", max(_mx(decompose_diag_osc(S[i], q)[2]) for i in range(3)))
    return rec.results()


def suite_pauli_lubanski(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("pauli_lubanski", tol)
    for q in sample_momenta(samples, mass, seed):
        e, m, p = q.energy, q.m, q.p
        W = pauli_lubanski(q)
        s_plus, _ = auxiliary_spins(q)
        rec.add("w0_is_helicity", _mx(W[0] - sum(p[i] * SPIN[i] for i in range(3))))
        rec.add("wi_is_theta_spin", _mx(W[1:] - m * s_plus))
        rec.add("transverse", _mx(e * W[0] - sum(p[i] * W[i + 1] for i in range(3))))
        rec.add(
            "casimir",
            _mx(W[0] @ W[0] - sum(W[i + 1] @ W[i + 1] for i in range(3)) + 0.75 * m * m * ID4),
        )
        hd = dirac_hamiltonian(q)
        for mu in range(4):
            rec.add("conserved", _mx(_comm(hd, W[mu])))
    return rec.results()


def suite_associated(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("associated", tol)
    bases = (CommonBasis(), HelicityBasis())
    for q in sample_momenta(samples, mass, seed, avoid_poles=True):
        e, m, p = q.energy, q.m, q.p
        th, _ = theta_tensor(q)
        for basis in bases:
            sg = basis.sigma(q.p)
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["projector_plus"], q, basis)
            rec.add("projector_plus_image", max(_mx(plus[0] - ID2), _mx(minus[0])))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["projector_minus"], q, basis)
            rec.add("projector_minus_image", max(_mx(plus[0]), _mx(minus[0] - ID2)))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["n_op"], q, basis)
            rec.add("n_image", max(_mx(plus[0] - ID2), _mx(minus[0] + ID2)))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["h_dirac"], q, basis)
            rec.add("h_image", max(_mx(plus[0] - e * ID2), _mx(minus[0] + e * ID2)))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["pryce_e_spin"], q, basis)
            rec.add("spin_image", _mx(plus - 0.5 * sg))
            rec.add("spin_antiparticle_sign", _mx(minus + plus))
            plus, minus = matrix_elements_diag(lambda qq: auxiliary_spins(qq)[0], q, basis)
            rec.add("spin_plus_image", _mx(plus - 0.5 * np.einsum("ij,jab->iab", th, sg)))
            rec.add("spin_plus_sign", _mx(minus + plus))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["pauli_lubanski"], q, basis)
            rec.add("pl_time_image", _mx(plus[0] - 0.5 * np.einsum("j,jab->ab", p, sg)))
            rec.add("pl_time_sign", _mx(minus[0] - plus[0]))
            rec.add("pl_space_image", _mx(plus[1:] - 0.5 * m * np.einsum("ij,jab->iab", th, sg)))
            # even operator: antiparticle part carries the opposite sign
            rec.add("pl_space_sign", _mx(minus[1:] + plus[1:]))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["delta_x"], q, basis)
            expect = -np.einsum("ijk,j,kab->iab", EPS3, p, sg) / (2 * e * (e + m))
            rec.add("delta_x_diagonal_image", _mx(plus - expect))
            rec.add("delta_x_sign", _mx(minus - plus))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["pauli_dirac_spin"], q, basis)
            rec.add("pauli_dirac_image", _mx(plus - 0.5 * (m / e) * np.einsum("ij,jab->iab", th, sg)))
            rec.add("pauli_dirac_sign", _mx(minus + plus))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["gamma0"], q, basis)
            rec.add("scalar_charge_image", max(_mx(plus[0] - (m / e) * ID2), _mx(minus[0] + (m / e) * ID2)))
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["gamma5"], q, basis)
            pj = np.einsum("j,jab->ab", p, sg) / e
            rec.add("axial_charge_image", max(_mx(plus[0] - pj), _mx(minus[0] + pj)))
            for nm in ("h_dirac", "pauli_dirac_spin", "gamma0", "delta_x"):
                pm_, mp_ = matrix_elements_offdiag(OPERATOR_CATALOG[nm], q, 0.31, basis)
                rec.add("offdiag_adjoint_pairing", _mx(np.transpose(pm_.conj(), (0, 2, 1)) - mp_))
            pm_, mp_ = matrix_elements_offdiag(OPERATOR_CATALOG["pryce_e_spin"], q, 0.31, basis)
            rec.add("pryce_spin_offdiag_vanishes", max(_mx(pm_), _mx(mp_)))
            # covariant derivative commutes with the spin matrices; FD step
            # matched to the scale Sigma varies on (the momentum itself for
            # direction-dependent bases)
            h = 1e-4 * (q.mag if basis.kind == "helicity" else max(q.mag, m))
            om = basis.omega(q.p)
            oj, ok, sk = om[:, None], om[None, :], sg[None, :]
            d_sigma = central_gradient(basis.sigma, q.p, h)  # [j, k] = d_j Sigma_k
            rec.add("covariant_derivative_kills_sigma", _mx(d_sigma + oj @ sk - sk @ oj), TOL_FD)
            # the connection is pure gauge: F_jk = d_j O_k - d_k O_j + [O_j, O_k]
            # vanishes; |p|^2 makes the residual scale-free, since Omega ~ 1/|p|
            d_omega = central_gradient(basis.omega, q.p, h)
            curv = d_omega - np.swapaxes(d_omega, 0, 1) + oj @ ok - ok @ oj
            rec.add("connection_flat", q.mag**2 * _mx(curv), TOL_FD)
    return rec.results()


def _nested_commutator(a, b, spinor, p) -> np.ndarray:
    """Oracle for ``commutator``: [A, B] alpha with each inner action
    differentiated numerically as a composite wave spinor (nested FD)."""
    b_alpha = WaveSpinor(lambda k: b.apply(spinor, k))
    a_alpha = WaveSpinor(lambda k: a.apply(spinor, k))
    return a.apply(b_alpha, p) - b.apply(a_alpha, p)


def suite_appendix_b(samples: int, seed: int, mass: float, tol=None):
    """Commutator ledger of the associated-operator algebra.

    Exact first-order commutators on 3 test spinors per momentum, FD
    tolerance (their coefficients take one stencil), checked against the
    nested-FD oracle on the first 2 momenta x 1 spinor; purely multiplicative
    relations also pointwise at closed-form tolerance.  The full ledger runs
    in the helicity basis (nontrivial connection); a reduced subset repeats in
    a common basis.  Momenta are sampled where the Gaussian test spinors are
    O(1) so FD residuals stay meaningful.
    """
    rec = _Recorder("appendix_b", tol)
    n_momenta = min(samples, 20)
    momenta = sample_momenta(n_momenta, mass, seed, lo=0.05, hi=2.0, avoid_poles=True)
    rng = make_rng(seed + 1)
    spinors = [gaussian_test_spinor(rng, scale=max(mass, 1.0)) for _ in range(3)]
    # the test spinors as the columns of one probe, values of shape (2, 3)
    probe = WaveSpinor(
        lambda k: np.stack([sp.value(k) for sp in spinors], axis=-1),
        lambda k: np.stack([sp.gradient(k) for sp in spinors], axis=-1),
    )
    pairs_all = [(i, j) for i in range(3) for j in range(3)]
    pairs_upper = [(0, 1), (0, 2), (1, 2)]
    for basis, full in ((HelicityBasis(), True), (CommonBasis(), False)):
        fam = AssociatedFamily(mass, basis)
        L = [fam.angular(i) for i in range(3)]
        S = [fam.spin(i) for i in range(3)]
        Ko = [fam.boost_orbital(i) for i in range(3)]
        Ks = [fam.boost_spin(i) for i in range(3)]
        X = [fam.position(i) for i in range(3)]
        Xt = [fam.position(i, t=0.8) for i in range(3)]
        V = [fam.velocity(i) for i in range(3)]
        W0 = fam.pauli_lubanski0()
        Wi = [fam.pauli_lubanski(i) for i in range(3)]
        Xc = [fam.position_pryce_c(i) for i in range(3)]
        Xd = [fam.position_pryce_d(i) for i in range(3)]
        Yc = [fam.y_pryce_c(i) for i in range(3)]
        Yd = [fam.y_pryce_d(i) for i in range(3)]
        Sminus = [fam.spin_minus(i) for i in range(3)]
        env = fam.hamiltonian()

        for n_q, q in enumerate(momenta):
            e, m, p = q.energy, q.m, q.p
            # pointwise multiplicative relations, closed-form tolerance
            for i, j in pairs_all:
                rhs = 1j * sum(levi_civita3(i, j, k) * S[k].mult_at(p) for k in range(3))
                rec.add("spin_su2_pointwise", _mx(commutator(S[i], S[j]).mult_at(p) - rhs))
                rhs = (
                    1j
                    / (e + m)
                    * (p[i] * S[j].mult_at(p) - (1.0 if i == j else 0.0) * W0.mult_at(p))
                )
                rec.add("spin_boostspin_pointwise", _mx(commutator(S[i], Ks[j]).mult_at(p) - rhs))
                rhs = (
                    1j
                    / (e + m) ** 2
                    * sum(levi_civita3(i, j, k) * p[k] for k in range(3))
                    * W0.mult_at(p)
                )
                rec.add("boostspin_boostspin_pointwise", _mx(commutator(Ks[i], Ks[j]).mult_at(p) - rhs))
                rhs = 1j * m * sum(levi_civita3(i, j, k) * S[k].mult_at(p) for k in range(3)) + 1j * p[j] * Ks[i].mult_at(p)
                rec.add("spin_pl_pointwise", _mx(commutator(S[i], Wi[j]).mult_at(p) - rhs))
            for i in range(3):
                rec.add("spin_pl0_pointwise", _mx(commutator(S[i], W0).mult_at(p) - 1j * (e + m) * Ks[i].mult_at(p)))
                rec.add("y_pryce_c_closed_form", _mx(Yc[i].mult_at(p) - Wi[i].mult_at(p) / e**3))
                rec.add("y_pryce_d_closed_form", _mx(Yd[i].mult_at(p) - Wi[i].mult_at(p) / (m * m * e)))
            if not full:
                continue

            # spinor-applied identities on all test spinors at once; on the
            # first 2 momenta each commutator also meets the nested-FD oracle
            val = probe.value(p)

            def act(op, at=p):
                return op.apply(probe, at)

            def comm(a, b, at=p, oracle=n_q < 2):
                exact = commutator_action(a, b, probe, at)
                if oracle:
                    nested = _nested_commutator(a, b, spinors[0], at)
                    rec.add("exact_matches_nested_fd", _mx(exact[:, 0] - nested), TOL_FD_COMM)
                return exact

            # antisymmetric relations: independent pairs only
            for i, j in pairs_upper:
                lhs = comm(L[i], L[j])
                rhs = 1j * sum(levi_civita3(i, j, k) * act(L[k]) for k in range(3))
                rec.add("angular_su2", _mx(lhs - rhs), TOL_FD_COMM)
                lhs = comm(Ko[i], Ko[j])
                rhs = -1j * sum(levi_civita3(i, j, k) * act(L[k]) for k in range(3))
                rec.add("boost_boost_closes_rotation", _mx(lhs - rhs), TOL_FD_COMM)
                rec.add("position_commute", _mx(comm(Xt[i], Xt[j])), TOL_FD_COMM)
                lhs = comm(Xc[i], Xc[j])
                rhs = -1j * sum(levi_civita3(i, j, k) * act(Yc[k]) for k in range(3))
                rec.add("pryce_c_noncommutativity", _mx(lhs - rhs), TOL_FD_COMM)
                lhs = comm(Xd[i], Xd[j])
                rhs = 1j * sum(levi_civita3(i, j, k) * act(Yd[k]) for k in range(3))
                rec.add("pryce_d_noncommutativity", _mx(lhs - rhs), TOL_FD_COMM)
            # generic index pairs
            for i, j in pairs_all:
                rec.add("angular_spin_commute", _mx(comm(L[i], S[j])), TOL_FD_COMM)
                lhs = comm(L[i], Ko[j])
                rhs = 1j * sum(levi_civita3(i, j, k) * act(Ko[k]) for k in range(3))
                rec.add("angular_boost_vector", _mx(lhs - rhs), TOL_FD_COMM)
                lhs = comm(Ko[i], Ks[j])
                rhs = -1j / (e + m) * (e * sum(levi_civita3(i, j, k) * act(S[k]) for k in range(3)) + p[i] * act(Ks[j]))
                rec.add("boost_orbital_spin_mix", _mx(lhs - rhs), TOL_FD_COMM)
                lhs = comm(Ko[i], X[j])
                rhs = (
                    (1.0 if i == j else 0.0) / (2 * e) * val
                    - 1j * (p[j] / e) * act(X[i])
                    - p[i] * p[j] / (2 * e**3) * val
                )
                rec.add("boost_position", _mx(lhs - rhs), TOL_FD_COMM)
                rhs = 1j * ((1.0 if i == j else 0.0) - p[i] * p[j] / e**2) * val
                lhs = comm(Ko[i], V[j])
                rec.add("boost_velocity", _mx(lhs - rhs), TOL_FD_COMM)
                lhs = e * comm(X[i], V[j])
                rec.add("position_velocity", _mx(lhs - rhs), TOL_FD_COMM)
                lhs = comm(L[i], Xt[j])
                rhs = 1j * sum(levi_civita3(i, j, k) * act(Xt[k]) for k in range(3))
                rec.add("position_rotates_as_vector", _mx(lhs - rhs), TOL_FD_COMM)
                rec.add("position_spin_commute", _mx(comm(S[i], Xt[j])), TOL_FD_COMM)
                lhs = comm(Ks[i], X[j])
                rhs = 1j / (e + m) * (-sum(levi_civita3(i, j, k) * act(S[k]) for k in range(3)) + (p[j] / e) * act(Ks[i]))
                rec.add("boostspin_position", _mx(lhs - rhs), TOL_FD_COMM)
                # note the p^j S~(-)_i index order; the transposed placement
                # fails numerically
                lhs = comm(X[i], Wi[j])
                rhs = 1j / (e + m) * ((1.0 if i == j else 0.0) * act(W0) + p[j] * act(Sminus[i]))
                rec.add("position_pl_space", _mx(lhs - rhs), TOL_FD_COMM)
                mom = fam.momentum(j)
                lhs = comm(L[i], mom)
                rhs = 1j * sum(levi_civita3(i, j, k) * p[k] for k in range(3)) * val
                rec.add("angular_momentum_vector", _mx(lhs - rhs), TOL_FD_COMM)
                lhs = comm(Ko[i], mom)
                rec.add("boost_momentum", _mx(lhs - 1j * (e if i == j else 0.0) * val), TOL_FD_COMM)
                lhs = comm(X[i], mom)
                rec.add("position_momentum_canonical", _mx(lhs - 1j * (1.0 if i == j else 0.0) * val), TOL_FD_COMM)
            for i in range(3):
                rec.add("angular_energy_commute", _mx(comm(L[i], env)), TOL_FD_COMM)
                lhs = comm(Ko[i], env)
                rec.add("boost_energy", _mx(lhs - 1j * p[i] * val), TOL_FD_COMM)
                lhs = comm(X[i], env)
                rec.add("position_energy_gives_velocity", _mx(lhs - 1j * act(V[i])), TOL_FD_COMM)
                lhs = comm(X[i], W0)
                rec.add("position_pl_time", _mx(lhs - 1j * act(S[i])), TOL_FD_COMM)
    return rec.results()


def suite_wigner(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("wigner", tol)
    basis = CommonBasis()
    hel = HelicityBasis()
    boosts = sample_boosts(max(samples // 2, 50), seed + 2)
    momenta = sample_momenta(20, mass, seed, avoid_poles=True)
    for lam in boosts[: max(samples // 2, 50)]:
        for q in momenta[:5]:
            w, qp = wigner_little_group(lam, q)
            rec.add("w_block_structure", max(_mx(w[:2, 2:]), _mx(w[2:, :2])))
            rec.add("w_blocks_equal", _mx(w[:2, :2] - w[2:, 2:]))
            rec.add("w_unitary", _mx(w[:2, :2] @ w[:2, :2].conj().T - ID2))
            for b in (basis, hel):
                d = d_matrix(lam, q, b)
                rec.add("d_unitary", _mx(d.conj().T @ d - ID2))
    # rotations: D independent of momentum
    rng = make_rng(seed + 3)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, 3)
        lam = rotation(theta)
        ds = [d_matrix(lam, q, basis) for q in momenta]
        spread = max(_mx(d - ds[0]) for d in ds)
        rec.add("rotation_momentum_independent", spread)
        rec.add("rotation_is_su2_matrix", _mx(ds[0] - rotation_su2(theta)))
    rec.add("identity_transform", _mx(d_matrix(ID4, momenta[0], basis) - ID2))
    # norm preservation on the quadrature grid, vectorized in the common basis
    grid = QuadratureGrid(12.0 * mass, 96, 24, 48)
    tau = np.array([0.0, 0.25, 0.35])
    from .algebra import boost_param

    lam = boost_param(tau)
    rec.add("boost_norm_preservation", _wigner_norm_defect(lam, grid, mass), 1e-8)
    rec.add(
        "translation_modulus_invariance",
        _translation_modulus_defect(grid, mass),
        TOL_EXACT,
    )
    return rec.results()


def _gaussian_packet(pts: np.ndarray, mass: float) -> np.ndarray:
    # normalized radial Gaussian, analytic in p so grid quadrature is spectral
    s = mass
    c = (np.pi * s * s) ** (-0.75)
    return c * np.exp(-np.sum(pts**2, axis=-1) / (2 * s * s))


def _wigner_norm_defect(lam, grid, mass: float) -> float:
    """| <T alpha, T alpha> - <alpha, alpha> | on the grid, common basis."""
    from .algebra import PAULI, lorentz_inverse, lorentz_of

    pts = grid.nodes
    energy = np.sqrt(np.sum(pts**2, axis=1) + mass**2)
    L_inv = lorentz_inverse(lorentz_of(lam))
    four = np.column_stack([energy, pts]) @ L_inv.T
    pprime = four[:, 1:]
    eprime = np.sqrt(np.sum(pprime**2, axis=1) + mass**2)

    def h_block(p, e, sign):
        # upper boost block (E + m - sigma.p)/sqrt(2m(E+m)); sign=-1 inverts
        den = np.sqrt(2 * mass * (e + mass))
        sp = np.einsum("nk,kab->nab", p, PAULI)
        return ((e + mass)[:, None, None] * ID2 - sign * sp) / den[:, None, None]

    hp_inv = h_block(pts, energy, -1.0)
    hpp = h_block(pprime, eprime, 1.0)
    lam_hat = np.asarray(lam, dtype=complex)[:2, :2]
    d = np.einsum("nab,bc,ncd->nad", hp_inv, lam_hat, hpp)
    chi = np.array([1.0, 0.0], dtype=complex)
    alpha_p = _gaussian_packet(pprime, mass)[:, None] * chi[None, :]
    transformed = np.sqrt(eprime / energy)[:, None] * np.einsum("nab,nb->na", d, alpha_p)
    norm_t = float(np.real(grid.integrate(np.sum(np.abs(transformed) ** 2, axis=1))))
    norm_0 = float(grid.integrate(_gaussian_packet(pts, mass) ** 2))
    return abs(norm_t - norm_0)


def _translation_modulus_defect(grid, mass: float) -> float:
    """Pure translations only change the phase of the wave spinor."""
    a = np.array([0.4, -0.3, 0.2, 0.9])
    pts = grid.nodes[::1000]
    vals = _gaussian_packet(pts, mass)
    energy = np.sqrt(np.sum(pts**2, axis=1) + mass**2)
    phase = np.exp(1j * (energy * a[0] - pts @ a[1:]))
    return float(np.max(np.abs(np.abs(phase * vals) - np.abs(vals))))


def suite_kernels(samples: int, seed: int, mass: float, tol=None):
    rec = _Recorder("kernels", tol)
    t = 0.42
    for q in sample_momenta(min(samples, 40), mass, seed, avoid_poles=True):
        e = q.energy
        for basis in (CommonBasis(), HelicityBasis()):
            for name, ker in KERNEL_CATALOG.items():
                kv = ker(q, t, basis)
                rec.add(f"{name}_matches_machinery", _mx(kv - ker.from_offdiag(q, t, basis)), 1e-10)
                rec.add(f"{name}_phase_law", _mx(kv - np.exp(2j * e * t) * ker(q, 0.0, basis)))
                rec.add(
                    f"{name}_modulus_static",
                    _mx(np.abs(kv) - np.abs(ker(q, 1.7, basis))),
                )
                # FD time derivative against 2iE K
                dk = central_gradient(lambda tt: ker(q, tt, basis), t, 1e-6 / e)
                scale = max(_mx(2j * e * kv), 1e-30)
                rec.add(f"{name}_time_derivative", _mx(dk - 2j * e * kv) / scale, TOL_FD)
        g05 = GAMMA[0] @ GAMMA5
        dd = decompose_diag_osc(g05, q)
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

SUITE_ORDER = tuple(SUITES)


def run_suite(
    name: str,
    samples: int = 100,
    seed: int = 7,
    mass: float = 1.0,
    tol: float | None = None,
) -> list[CheckResult]:
    if name == "all":
        out: list[CheckResult] = []
        for nm in SUITE_ORDER:
            out.extend(SUITES[nm](samples, seed, mass, tol))
        return out
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](samples, seed, mass, tol)
