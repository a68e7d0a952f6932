import numpy as np

from diracmr.algebra import EPS3, GAMMA, GAMMA5, ID4, SPIN, Momentum
from diracmr.operators import (
    OPERATOR_CATALOG,
    auxiliary_spins,
    chakrabarti_spin,
    decompose_diag_osc,
    dirac_hamiltonian,
    fradkin_good_spin,
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
from diracmr.sampling import sample_momenta

TOL = 1e-12


def comm(a, b):
    return a @ b - b @ a


def cross_with_p(mats, p):
    return np.stack(
        [
            sum(EPS3[i, j, k] * mats[j] * p[k] for j in range(3) for k in range(3))
            for i in range(3)
        ]
    )


def test_hamiltonian_basics():
    q0 = Momentum(np.zeros(3), 1.5)
    assert np.allclose(dirac_hamiltonian(q0), 1.5 * GAMMA[0])
    q = Momentum.of(0.2, 0.7, -0.4, m=1.1)
    hd = dirac_hamiltonian(q)
    assert np.allclose(hd, hd.conj().T)
    ev = np.sort(np.linalg.eigvalsh(hd))
    e = q.energy
    assert np.allclose(ev, [-e, -e, e, e], atol=TOL)
    plus, minus = projectors(q)
    assert np.allclose(hd, e * (plus - minus), atol=TOL)


def test_projector_algebra():
    for q in sample_momenta(100, 1.0, seed=31):
        plus, minus = projectors(q)
        plus2, minus2 = projectors_boost_form(q)
        assert np.max(np.abs(plus - plus2)) < TOL
        assert np.max(np.abs(minus - minus2)) < TOL
        assert np.max(np.abs(plus @ plus - plus)) < 1e-13
        assert np.max(np.abs(plus @ minus)) < 1e-13
        assert np.max(np.abs(plus + minus - ID4)) < 1e-13
        nd = n_operator(q)
        assert np.max(np.abs(nd @ nd - ID4)) < TOL
    assert np.allclose(n_operator(Momentum(np.zeros(3), 2.0)), GAMMA[0])


def test_pryce_spin_rest_frame():
    assert np.allclose(pryce_e_spin(Momentum(np.zeros(3), 1.0)), SPIN)


def test_pryce_spin_identities():
    for q in sample_momenta(100, 1.0, seed=33):
        S = pryce_e_spin(q)
        assert np.max(np.abs(S - pryce_e_spin_sandwich(q))) < TOL
        hd = dirac_hamiltonian(q)
        assert np.max(np.abs(sum(S[i] @ S[i] for i in range(3)) - 0.75 * ID4)) < TOL
        for i in range(3):
            assert np.max(np.abs(S[i] - S[i].conj().T)) < TOL
            assert np.max(np.abs(comm(hd, S[i]))) < TOL
            for j in range(3):
                rhs = 1j * sum(EPS3[i, j, k] * S[k] for k in range(3))
                assert np.max(np.abs(comm(S[i], S[j]) - rhs)) < TOL
                # the value consistent with S^2 = 3/4 is delta/2
                target = (0.5 if i == j else 0.0) * ID4
                assert np.max(np.abs(S[i] @ S[j] + S[j] @ S[i] - target)) < TOL


def test_position_offset_identity():
    q0 = Momentum(np.zeros(3), 1.3)
    dx0 = pryce_e_position_offset(q0)
    for i in range(3):
        assert np.allclose(dx0[i], 0.5j * GAMMA[i + 1] / q0.m, atol=TOL)
    for q in sample_momenta(100, 1.0, seed=35):
        dX = pryce_e_position_offset(q)
        S = pryce_e_spin(q)
        lhs = cross_with_p(dX, q.p)
        assert np.max(np.abs(lhs - (SPIN - S))) < TOL


def test_position_offset_fd_oracle():
    for q in sample_momenta(6, 1.0, seed=37):
        fd = position_offset_from_boost_derivative(q)
        assert np.max(np.abs(fd - pryce_e_position_offset(q))) < 1e-6


def test_chakrabarti_relations():
    q0 = Momentum(np.zeros(3), 1.0)
    assert np.allclose(chakrabarti_spin(q0), SPIN)
    for q in sample_momenta(100, 1.0, seed=39):
        sCh = chakrabarti_spin(q)
        sChm = chakrabarti_spin(q.flipped())
        plus, minus = projectors(q)
        for i in range(3):
            assert np.max(np.abs(sCh[i] - sChm[i].conj().T)) < TOL
            assert np.max(np.abs(sCh[i] @ plus - plus @ sChm[i])) < TOL
            assert np.max(np.abs(sChm[i] @ minus - minus @ sCh[i])) < TOL
    # not conserved away from the rest frame
    qw = Momentum.of(0.7, -0.3, 0.5)
    resid = np.max(np.abs(comm(dirac_hamiltonian(qw), chakrabarti_spin(qw)[0])))
    assert resid > 1e-6


def test_spin_type_catalog():
    for q in sample_momenta(100, 1.0, seed=41):
        e, m, p = q.energy, q.m, q.p
        hd = dirac_hamiltonian(q)
        ops = spin_type_operators(q)
        s_fr, c_fr = ops["S_Fr"], ops["C_Fr"]
        s_pc, c_pc = ops["S_PC"], ops["C_PC"]
        s_fg = ops["S_FG"]
        s_plus, s_minus = auxiliary_spins(q)
        assert np.max(np.abs(s_fr - (e / m) * s_minus)) < TOL
        assert np.max(np.abs(s_pc - (m / e) * s_plus)) < TOL
        assert np.max(np.abs(c_pc - (m / e) ** 2 * s_fr)) < TOL
        assert np.max(np.abs(c_fr - (e / m) ** 2 * s_pc)) < TOL
        norm_fr = sum(s_fr[i] @ s_fr[i] for i in range(3))
        assert np.max(np.abs(norm_fr - 0.25 * (1 + 2 * e * e / m / m) * ID4)) < 1e-11
        norm_pc = sum(s_pc[i] @ s_pc[i] for i in range(3))
        assert np.max(np.abs(norm_pc - 0.25 * (1 + 2 * m * m / e / e) * ID4)) < TOL
        nd = n_operator(q)
        S = pryce_e_spin(q)
        assert np.max(np.abs(s_fg - np.stack([S[i] @ nd for i in range(3)]))) < TOL
        assert np.max(np.abs(sum(s_fg[i] @ s_fg[i] for i in range(3)) - 0.75 * ID4)) < TOL
        ps = sum(p[i] * SPIN[i] for i in range(3))
        for fam in (S, s_fr, s_pc):
            assert np.max(np.abs(sum(p[i] * fam[i] for i in range(3)) - ps)) < 1e-11
        for i in range(3):
            for fam in (s_fr, s_pc, s_fg):
                assert np.max(np.abs(comm(hd, fam[i]))) < 1e-11
            for j in range(3):
                rhs = 1j * sum(EPS3[i, j, k] * c_pc[k] for k in range(3))
                assert np.max(np.abs(comm(s_pc[i], s_pc[j]) - rhs)) < TOL
                rhs = 1j * sum(EPS3[i, j, k] * c_fr[k] for k in range(3))
                assert np.max(np.abs(comm(s_fr[i], s_fr[j]) - rhs)) < 1e-11
                rhs = 1j * sum(EPS3[i, j, k] * nd @ s_fg[k] for k in range(3))
                assert np.max(np.abs(comm(s_fg[i], s_fg[j]) - rhs)) < TOL


def test_spin_types_rest_frame():
    q0 = Momentum(np.zeros(3), 1.0)
    ops = spin_type_operators(q0)
    for name in ("S_Fr", "C_Fr", "S_PC", "C_PC", "S_plus", "S_minus"):
        assert np.allclose(ops[name], SPIN, atol=TOL), name
    # the Fradkin-Good operator keeps its frequency-sign factor at rest
    assert np.allclose(ops["S_FG"], np.stack([SPIN[i] @ GAMMA[0] for i in range(3)]))


def test_frankel_norm_unit_momentum():
    # E^2 = 2 at m=1, p=(0,0,1): squared norm (1 + 2*2)/4 = 5/4 by matrix product
    q = Momentum.of(0, 0, 1, m=1.0)
    s_fr = spin_type_operators(q)["S_Fr"]
    norm = sum(s_fr[i] @ s_fr[i] for i in range(3))
    assert np.max(np.abs(norm - 1.25 * ID4)) < TOL


def test_pauli_lubanski():
    q0 = Momentum(np.zeros(3), 1.6)
    W0 = pauli_lubanski(q0)
    assert np.max(np.abs(W0[0])) < TOL
    assert np.allclose(W0[1:], q0.m * SPIN, atol=TOL)
    for q in sample_momenta(100, 1.0, seed=43):
        e, m, p = q.energy, q.m, q.p
        W = pauli_lubanski(q)
        assert np.max(np.abs(W[0] - sum(p[i] * SPIN[i] for i in range(3)))) < TOL
        s_plus, _ = auxiliary_spins(q)
        assert np.max(np.abs(W[1:] - m * s_plus)) < TOL
        assert np.max(np.abs(e * W[0] - sum(p[i] * W[i + 1] for i in range(3)))) < 1e-11
        wsq = W[0] @ W[0] - sum(W[i + 1] @ W[i + 1] for i in range(3))
        assert np.max(np.abs(wsq + 0.75 * m * m * ID4)) < 1e-11
        hd = dirac_hamiltonian(q)
        for mu in range(4):
            assert np.max(np.abs(comm(hd, W[mu]))) < 1e-11


def test_pryce_cd_offsets():
    q0 = Momentum(np.zeros(3), 1.0)
    oc, od = pryce_cd_offsets(q0)
    assert np.max(np.abs(oc)) < TOL and np.max(np.abs(od)) < TOL
    for q in sample_momenta(60, 1.0, seed=45):
        e, m, p = q.energy, q.m, q.p
        oc, od = pryce_cd_offsets(q)
        assert np.max(np.abs(od + (e / m) * oc)) < TOL
        S = pryce_e_spin(q)
        ops = spin_type_operators(q)
        assert np.max(np.abs(cross_with_p(oc, p) - (S - ops["S_PC"]))) < TOL
        assert np.max(np.abs(cross_with_p(od, p) - (S - ops["S_Fr"]))) < TOL


def test_decomposition():
    for q in sample_momenta(60, 1.0, seed=47):
        e = q.energy
        hd = dirac_hamiltonian(q)
        ap, am, apm, amp = decompose_diag_osc(GAMMA[1], q)
        assert np.max(np.abs(ap + am + apm + amp - GAMMA[1])) < 1e-13
        assert np.max(np.abs(comm(hd, apm) - 2 * e * apm)) < TOL
        assert np.max(np.abs(comm(hd, amp) + 2 * e * amp)) < TOL
        assert np.max(np.abs(comm(hd, ap))) < TOL
        # diagonal part of the Pauli-Dirac spin is the PC operator
        diag = np.stack(
            [sum(decompose_diag_osc(SPIN[i], q)[:2]) for i in range(3)]
        )
        assert np.max(np.abs(diag - pc_spin(q))) < TOL
        # conserved spin has no oscillating part
        for i in range(3):
            parts = decompose_diag_osc(pryce_e_spin(q)[i], q)
            assert np.max(np.abs(parts[2])) < TOL
            assert np.max(np.abs(parts[3])) < TOL
        # adjoint pairing for a Hermitian operator
        sp, sm, spm, smp = decompose_diag_osc(SPIN[0], q)
        assert np.max(np.abs(spm.conj().T - smp)) < 1e-13
        assert np.max(np.abs(sp.conj().T - sp)) < 1e-13


def test_fradkin_good_zero_momentum_guard():
    # p = 0 branch returns the rest form without dividing by |p|
    out = fradkin_good_spin(Momentum(np.zeros(3), 1.0))
    assert np.all(np.isfinite(out))


def test_operator_catalog_shapes():
    q = Momentum.of(0.3, -0.2, 0.6)
    comps = {"h_dirac": 1, "pryce_e_spin": 3, "pauli_lubanski": 4, "delta_x": 3}
    for name, k in comps.items():
        op = OPERATOR_CATALOG[name]
        assert op(q).shape == (k, 4, 4)
    assert np.allclose(OPERATOR_CATALOG["gamma5"](q)[0], GAMMA5)
