import numpy as np
import pytest

from diracmr import associated, verify
from diracmr.algebra import (
    CCONJ,
    EPS3,
    ID2,
    Momentum,
    boost_for_momentum,
    central_gradient,
    dagger,
    theta_tensor,
)
from diracmr.associated import (
    AssociatedFamily,
    OperatorStack,
    WaveSpinor,
    commutator,
    commutator_action,
    gaussian_test_spinor,
    matrix_elements_diag,
    matrix_elements_offdiag,
)
from diracmr.operators import OPERATOR_CATALOG, auxiliary_spins
from diracmr.polarization import CommonBasis, HelicityBasis, PoleError
from diracmr.sampling import make_rng, sample_momenta
from diracmr.spinors import rest_u_matrix, rest_v_matrix, u_matrix, v_matrix
from diracmr.verify import TOL_FD_COMM, run_suite

TOL = 1e-12
BASES = (CommonBasis(), HelicityBasis())


def mx(a):
    return float(np.max(np.abs(a)))


def test_projector_and_n_images():
    for basis in BASES:
        for q in sample_momenta(40, 1.0, seed=51, avoid_poles=True):
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["projector_plus"], q, basis)
            assert mx(plus[0] - ID2) < TOL and mx(minus[0]) < TOL
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["projector_minus"], q, basis)
            assert mx(plus[0]) < TOL and mx(minus[0] - ID2) < TOL
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["n_op"], q, basis)
            assert mx(plus[0] - ID2) < TOL and mx(minus[0] + ID2) < TOL
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["h_dirac"], q, basis)
            e = q.energy
            assert mx(plus[0] - e * ID2) < 1e-11 and mx(minus[0] + e * ID2) < 1e-11


def test_spin_and_position_images():
    for basis in BASES:
        for q in sample_momenta(40, 1.0, seed=53, avoid_poles=True):
            e, m, p = q.energy, q.m, q.p
            sg = basis.sigma(q)
            th, _ = theta_tensor(q)
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["pryce_e_spin"], q, basis)
            assert mx(plus - 0.5 * sg) < TOL
            assert mx(minus + 0.5 * sg) < TOL
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["delta_x"], q, basis)
            expect = -np.einsum("ijk,j,kab->iab", EPS3, p, sg) / (2 * e * (e + m))
            assert mx(plus - expect) < TOL
            assert mx(minus - plus) < TOL
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["pauli_dirac_spin"], q, basis)
            assert mx(plus - 0.5 * (m / e) * np.einsum("ij,jab->iab", th, sg)) < TOL
            assert mx(minus + plus) < TOL


def test_pauli_lubanski_images_even_space_part():
    basis = HelicityBasis()
    for q in sample_momenta(30, 1.0, seed=55, avoid_poles=True):
        th, _ = theta_tensor(q)
        sg = basis.sigma(q)
        plus, minus = matrix_elements_diag(OPERATOR_CATALOG["pauli_lubanski"], q, basis)
        assert mx(plus[0] - 0.5 * np.einsum("j,jab->ab", q.p, sg)) < TOL
        assert mx(minus[0] - plus[0]) < TOL
        assert mx(plus[1:] - 0.5 * q.m * np.einsum("ij,jab->iab", th, sg)) < TOL
        # space components quantize evenly: antiparticle part flips sign
        assert mx(minus[1:] + plus[1:]) < TOL


def test_charge_images():
    for basis in BASES:
        for q in sample_momenta(30, 1.0, seed=57, avoid_poles=True):
            e, m = q.energy, q.m
            sg = basis.sigma(q)
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["gamma0"], q, basis)
            assert mx(plus[0] - (m / e) * ID2) < TOL
            assert mx(minus[0] + (m / e) * ID2) < TOL
            plus, minus = matrix_elements_diag(OPERATOR_CATALOG["gamma5"], q, basis)
            pj = np.einsum("j,jab->ab", q.p, sg) / e
            assert mx(plus[0] - pj) < TOL
            assert mx(minus[0] + pj) < TOL


def test_offdiag_adjoint_pairing_and_phases():
    t = 0.37
    for basis in BASES:
        for q in sample_momenta(25, 1.0, seed=59, avoid_poles=True):
            for name in ("h_dirac", "pauli_dirac_spin", "gamma0", "delta_x"):
                pm, mp = matrix_elements_offdiag(OPERATOR_CATALOG[name], q, t, basis)
                assert mx(np.transpose(pm.conj(), (0, 2, 1)) - mp) < TOL
                pm0, _ = matrix_elements_offdiag(OPERATOR_CATALOG[name], q, 0.0, basis)
                assert mx(pm - np.exp(2j * q.energy * t) * pm0) < 1e-11
            # a reducible operator has no oscillating part
            pm, mp = matrix_elements_offdiag(OPERATOR_CATALOG["pryce_e_spin"], q, t, basis)
            assert mx(pm) < TOL and mx(mp) < TOL
            # the axial-charge kernel carries -(m/E) times the pair bilinear
            pm, _ = matrix_elements_offdiag(OPERATOR_CATALOG["gamma5"], q, t, basis)
            xi = basis.xi(q)
            eta_m = basis.eta(q.flipped())
            expect = (
                -(q.m / q.energy)
                * np.exp(2j * q.energy * t)
                * (xi.conj().T @ eta_m)
            )
            assert mx(pm[0] - expect) < TOL


def _boost_sandwich_images(op, q, t, basis):
    """Reference: the four images through boosted rest spinors, (m/E) u0^+ l_p A l_p u0
    with C A(-p)^T C for the antiparticle part and l_-p v0(-p) off the diagonal."""
    scale = (q.m / q.energy)[..., None, None, None]
    phase = np.exp(2j * q.energy * t)[..., None, None, None]
    lp, lm = boost_for_momentum(q), boost_for_momentum(q.flipped())
    u0, v0m = rest_u_matrix(basis, q), rest_v_matrix(basis, q.flipped())
    left, right = (dagger(u0) @ lp)[..., None, :, :], (lp @ u0)[..., None, :, :]
    sand = CCONJ @ np.swapaxes(op(q.flipped()), -1, -2) @ CCONJ
    a = op(q)
    return (
        scale * (left @ a @ right),
        scale * (left @ sand @ right),
        scale * phase * (left @ a @ (lm @ v0m)[..., None, :, :]),
        scale / phase * ((dagger(v0m) @ lm)[..., None, :, :] @ a @ right),
    )


def test_sandwiches_match_boost_sandwich_form_across_regimes():
    # |p|/m from 1e-6 to 1e6 along directions clear of the helicity poles;
    # per momentum the bound is 20 max(|A~|, 1) (E/m) eps
    rng = make_rng(61)
    dirs = rng.standard_normal((200, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    dirs = dirs[np.abs(dirs[:, 2]) < 0.95][:49]
    q = Momentum(np.logspace(-6, 6, 49)[:, None] * dirs, 1.0)
    bound = 20 * (q.energy / q.m) * np.finfo(float).eps
    t = 0.31
    worst = 0.0
    for basis in BASES:
        for name, op in OPERATOR_CATALOG.items():
            new = matrix_elements_diag(op, q, basis) + matrix_elements_offdiag(op, q, t, basis)
            for got, ref in zip(new, _boost_sandwich_images(op, q, t, basis)):
                err = np.max(np.abs(got - ref), axis=(-3, -2, -1))
                size = np.maximum(np.max(np.abs(ref), axis=(-3, -2, -1)), 1.0)
                worst = max(worst, float(np.max(err / (size * bound))))
    assert worst <= 1.0, worst


def _chain(left, a, right):
    """left^+ A right as a broadcast matmul chain (..., 1, 2, 4) @ (..., k, 4, 4) @
    (..., 1, 4, 2): the reference for the frame contraction of the images."""
    return dagger(left)[..., None, :, :] @ a @ right[..., None, :, :]


_DIRECTIONS = np.array([[0.3, -0.5, 0.8], [-0.6, 0.2, 0.1], [0.1, 0.9, -0.4]])
_RNG = np.random.default_rng(67)
_GENERIC = _RNG.standard_normal((4, 4, 4)) + 1j * _RNG.standard_normal((4, 4, 4))


def _generic(q):
    """A bare (..., 1, 4, 4) function, p-dependent, non-Hermitian and of no definite
    C-parity: A^c, A^+ and A share no part that a sign could carry."""
    return (_GENERIC[0] + np.tensordot(q.p, _GENERIC[1:], axes=(-1, 0)))[..., None, :, :]


@pytest.mark.parametrize("ratio", (1e-6, 1.0, 1e3, 1e6))
@pytest.mark.parametrize("basis", BASES, ids=("common", "helicity"))
def test_images_match_the_matmul_chain(basis, ratio):
    # each image is a sum of 16 terms A_ij conj(left_ia) right_jb with unit spinor
    # columns, so it meets the chain within 16 eps max|A|, A at p and at -p; the
    # chain's v-spinor sandwiches are the reference for A^c and A^+ of every entry
    # and of an operator no symmetry ties to them
    m = 1.3
    q = Momentum(ratio * m * _DIRECTIONS / np.linalg.norm(_DIRECTIONS, axis=-1)[:, None], m)
    u, v, vm = u_matrix(basis, q), v_matrix(basis, q), v_matrix(basis, q.flipped())
    for name, op in (*OPERATOR_CATALOG.items(), ("generic", _generic)):
        a, a_flipped = op(q), op(q.flipped())
        plus, minus = matrix_elements_diag(op, q, basis)
        pm, mp = matrix_elements_offdiag(op, q, 0.0, basis)  # a phase of exactly 1
        refs = (
            _chain(u, a, u),
            np.swapaxes(_chain(v, a_flipped, v), -1, -2),
            _chain(u, a, vm),
            _chain(vm, a, u),
        )
        bound = 16 * np.finfo(float).eps * max(mx(a), mx(a_flipped))
        for got, ref in zip((plus, minus, pm, mp), refs):
            assert got.shape == ref.shape, name
            assert mx(got - ref) <= bound, (name, mx(got - ref) / bound)


def test_diagonal_images_need_the_spinors_at_p_only():
    # along +e3 the helicity chart is singular at -p, which only A~(+-) and A~(-+) read
    q, basis = Momentum(np.array([0.0, 0.0, 0.7]), 1.0), HelicityBasis()
    spin = OPERATOR_CATALOG["pryce_e_spin"]
    plus, minus = matrix_elements_diag(spin, q, basis)
    assert mx(plus - basis.sigma(q) / 2) < TOL and mx(minus + plus) < TOL
    with pytest.raises(PoleError):
        matrix_elements_offdiag(spin, q, 0.0, basis)


def test_wave_spinor_gradients():
    rng = make_rng(61)
    alpha = gaussian_test_spinor(rng)
    q = Momentum([0.4, -0.2, 0.7])
    analytic = alpha.gradient(q)
    fd = WaveSpinor(alpha.value).gradient(q)
    assert mx(analytic - fd) < 1e-9


def test_velocity_and_position_actions():
    basis = CommonBasis()
    fam = AssociatedFamily(1.0)
    rng = make_rng(63)
    alpha = gaussian_test_spinor(rng)
    q = Momentum((0.3, 0.5, -0.2))
    v = fam.velocity()
    assert np.allclose(v.apply(alpha, q, basis)[..., 0, :], (q.p[0] / q.energy) * alpha.value(q))
    x = fam.position()
    assert np.allclose(x.apply(alpha, q, basis)[..., 0, :], 1j * alpha.gradient(q)[0], atol=1e-12)
    # time-shifted position picks up t V
    xt = fam.position(t=2.0)
    assert np.allclose(
        xt.apply(alpha, q, basis)[..., 0, :],
        1j * alpha.gradient(q)[0] + 2.0 * (q.p[0] / q.energy) * alpha.value(q),
        atol=1e-12,
    )


def test_position_expectation_is_preparation_point():
    # <alpha, X~ alpha> = x0 for alpha = phi exp(-i x0.p) chi on a small grid
    from diracmr.wavepacket import IsotropicProfile, QuadratureGrid

    iso = IsotropicProfile(1.0, 2.0, 1.0)
    grid = QuadratureGrid(20.0, 48, 8, 16)
    fam = AssociatedFamily(1.0)
    x0 = np.array([0.4, -0.1, 0.8])
    chi = np.array([1.0, 0.0], dtype=complex)

    def value(q):
        p = q.p
        return (iso.radial(np.linalg.norm(p, axis=-1)) * np.exp(-1j * (p @ x0)))[..., None] * chi

    def grad(q):
        p = q.p
        mag = np.linalg.norm(p, axis=-1)[..., None]
        radial = iso.radial_derivative(mag) * p / mag
        phase = np.exp(-1j * (p @ x0))[..., None, None]
        return radial[..., None] * chi * phase + value(q)[..., None, :] * (-1j * x0[:, None])

    # the whole grid is one batch of momenta
    alpha, nodes = WaveSpinor(value, grad), Momentum(grid.nodes, 1.0)
    vals = alpha.value(nodes)
    acted = fam.position().apply(alpha, nodes, CommonBasis())
    for i in range(3):
        acc = grid.integrate(np.einsum("na,na->n", vals.conj(), acted[..., i, :]))
        assert acc.real == pytest.approx(x0[i], abs=1e-8)


def test_covariant_derivative_commutes_with_spin():
    # [d~_i, S~_j] = 0 exercised on spinors in the helicity basis
    basis = HelicityBasis()
    fam = AssociatedFamily(1.0)
    rng = make_rng(65)
    alpha = gaussian_test_spinor(rng)
    x, s = fam.position(), fam.spin()  # X~_i = i d~_i
    for q in sample_momenta(10, 1.0, seed=67, lo=0.3, hi=2.0, avoid_poles=True):
        # every pair (i, j) at once
        assert mx(commutator_action(x, s, alpha, q, basis)) < 1e-5


def test_structural_commutator_multiplicative():
    basis = HelicityBasis()
    fam = AssociatedFamily(1.0)
    q = Momentum((0.2, 0.4, 0.9))
    s = fam.spin()
    m_s = s.mult_at(q, basis)
    assert mx(commutator(s, s).mult_at(q, basis)[..., 0, 1, :, :] - 1j * m_s[..., 2, :, :]) < TOL
    # the spin is conserved: [S~_i, H~] has no part left, a zero (3, 1) stack
    zero = commutator(s, fam.hamiltonian()).mult_at(q, basis)
    assert zero.shape == (3, 1, 2, 2) and mx(zero) == 0


def test_exact_commutator_of_angular_momenta_term_by_term():
    # [L1, L2] = i L3 as first-order operators: no multiplicative part, and
    # the derivative coefficients agree
    fam = AssociatedFamily(1.0)
    L = fam.angular()
    c = commutator(L, L)
    for q in sample_momenta(5, 1.0, seed=77, avoid_poles=True):
        assert mx(c.mult_at(q, HelicityBasis())[..., 0, 1, :, :]) < 1e-9
        assert mx(c.coef(q)[2].v[..., 0, 1, :] - 1j * L.coef(q)[2].v[..., 2, :]) < 1e-9


def test_commutators_do_not_nest():
    # a commutator's coefficients carry values but no partials
    fam = AssociatedFamily(1.0)
    inner = commutator(fam.position(), fam.hamiltonian())
    with pytest.raises(TypeError):
        commutator(inner, fam.position())
    with pytest.raises(TypeError):
        commutator(fam.spin(), inner)


def _coefficients(op, q):
    """Sigma-frame coefficients (a0, a, D) of a commutator as one (n, ka, kb, 7)
    array, 0 where absent."""
    coef = op.coef(q)
    shape = np.broadcast_shapes(*(c.v.shape[:-1] for c in coef if c is not None))
    parts = [
        np.zeros(shape + (k,)) if c is None else np.broadcast_to(c.v, shape + (k,))
        for c, k in zip(coef, (1, 3, 3))
    ]
    return np.concatenate(parts, -1)


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_exact_commutators_across_regimes(basis):
    # |p|/m from 1e-6 to 1e6 along one direction: a stencil of step 1e-3 |p|
    # cannot resolve E at small |p|; the jets give the closed forms to rounding,
    # and the multiplicative part a0 + a.Sigma/2 in the basis follows them
    p = np.outer([1e-6, 1e-3, 1.0, 1e3, 1e6], [0.36, -0.48, 0.8])
    e = np.sqrt(1.0 + np.sum(p * p, axis=-1))
    q = Momentum(p, 1.0)
    sigma = basis.sigma(q)[:, None, None]
    fam = AssociatedFamily(1.0)
    H, X, P, Ko = fam.hamiltonian(), fam.position(), fam.momentum(), fam.boost_orbital()
    delta = np.eye(3)
    # (i, j) stacks over the momenta: p^i (n, i, 1) and p^j (n, 1, j)
    pi, pj = p[:, :, None], p[:, None, :]

    def scalar(a0):
        return np.concatenate([a0[..., None], np.zeros(a0.shape + (6,))], -1)

    def derivative(d):
        return np.concatenate([np.zeros(d.shape[:-1] + (4,)), d], -1)

    relations = {
        "[X_i, H] = i V_i": (X, H, scalar(1j * pi / e[:, None, None])),
        "[X_i, P_j] = i delta_ij": (X, P, scalar(np.broadcast_to(1j * delta, (len(p), 3, 3)))),
        # -i eps_ijk L_k has D_l = p^j delta_il - p^i delta_jl
        "[Ko_i, Ko_j] = -i eps_ijk L_k": (
            Ko, Ko, derivative(pj[..., None] * delta[:, None, :] - pi[..., None] * delta)
        ),
        "[Ko_i, H] = i p_i": (Ko, H, scalar(1j * pi)),
    }
    for name, (a, b, want) in relations.items():
        pair = commutator(a, b)
        got = _coefficients(pair, q)
        # per momentum, relative to the largest closed-form coefficient
        scale = np.max(np.abs(want), axis=(1, 2, 3))
        worst = np.max(np.abs(got - want), axis=(1, 2, 3)) / scale
        assert np.all(worst <= 1e-14), (name, worst)
        spin = 0.5 * np.einsum("...c,...cab->...ab", want[..., 1:4], sigma)
        mult = want[..., :1, None] * ID2 + spin
        worst = np.max(np.abs(pair.mult_at(q, basis) - mult), axis=(1, 2, 3, 4)) / scale
        assert np.all(worst <= 1e-14), (name, worst)


def test_appendix_b_spinor_checks_at_rounding():
    # the exact commutators leave only the nested-FD oracle at FD accuracy
    results = run_suite("appendix_b", 20, 7)
    (oracle,) = [r for r in results if r.name == "exact_matches_nested_fd"]
    assert oracle.tol == TOL_FD_COMM
    pointwise = ("_pointwise", "_closed_form")
    applied = [r for r in results if r is not oracle and not r.name.endswith(pointwise)]
    assert len(applied) == 22
    assert [(r.name, r.tol) for r in applied if r.tol != 1e-12] == []
    assert [(r.name, r.residual) for r in applied if r.residual > 1e-12] == []


@pytest.mark.parametrize(
    "seed, mass", [(1, 0.25), (3, 0.25), (1511652251, 1.0)]
)
def test_appendix_b_small_momentum_near_pole(seed, mass):
    # |p| << m, and |p| = 0.053 m near the helicity chart's -e3 pole: helicity
    # quantities vary on the scale |p| there, so derivative steps must follow it
    results = run_suite("appendix_b", samples=1, seed=seed, mass=mass)
    assert [r.name for r in results if not r.passed] == []


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4])
def test_suites_pass_with_half_the_draw_near_the_helicity_pole(monkeypatch, gap, mass):
    # every other momentum of the draw moved to 1 + n3 = gap, at a random azimuth
    # and its own |p|: suite_associated steps its stencil on the chart's own scale,
    # so every line keeps its tolerance near the -e3 pole
    draw, draws = verify.sample_momenta, []

    def planted(n, m, seed, **kwargs):
        out, rng, n3 = draw(n, m, seed, **kwargs), make_rng(seed + 99), gap - 1.0
        for i in range(0, n, 2):
            phi = rng.uniform(-np.pi, np.pi)
            direction = np.array([np.cos(phi), np.sin(phi), 0.0]) * np.sqrt(1.0 - n3 * n3)
            direction[2] = n3
            out[i] = Momentum(np.linalg.norm(out[i].p) * direction, m)
        draws.append(out)
        return out

    monkeypatch.setattr(verify, "sample_momenta", planted)
    verify._draws.cache_clear()
    try:
        results = [
            r for s in ("associated", "kernels", "projectors") for r in run_suite(s, 20, 7, mass)
        ]
    finally:
        verify._draws.cache_clear()  # no later test reads the planted draw
    assert len(draws) == 1
    assert [(r.suite, r.name, r.residual / r.tol) for r in results if not r.passed] == []


def _composite(op, spinor, basis):
    """Per-operator reference: the action of ``op`` on ``spinor`` in ``basis`` as a wave
    spinor whose gradient is a finite difference of that action, component axis first."""

    def grad(k):
        step = 1e-3 * np.linalg.norm(k.p, axis=-1)
        return np.moveaxis(central_gradient(lambda x: op.apply(spinor, x, basis), k, step), -2, 0)

    return WaveSpinor(lambda k: np.moveaxis(op.apply(spinor, k, basis), -2, 0), grad)


@pytest.mark.parametrize("mass", [0.25, 1.0, 2.0])
@pytest.mark.parametrize("samples", [1, 20])
@pytest.mark.parametrize("seed", [1, 3, 7])
def test_nested_commutators_match_per_pair_composites(seed, samples, mass):
    # one stencil over the oracle members' actions and one apply of the suite's
    # wider stack to the composite, against one composite per operator and two
    # applies per pair
    draws = verify._sampled(min(samples, 20), mass, seed, lo=0.05, hi=2.0, avoid_poles=True)
    p = Momentum(draws.p[:2], mass)
    alpha = gaussian_test_spinor(make_rng(seed + 1), scale=max(mass, 1.0))
    fam, basis = AssociatedFamily(mass), HelicityBasis()
    members = (
        fam.angular(), fam.spin(), fam.boost_orbital(), fam.boost_spin(), fam.position(),
        fam.position(t=0.8), fam.velocity(), fam.momentum(), fam.hamiltonian(),
        fam.pauli_lubanski0(), fam.pauli_lubanski(), fam.position_pryce_c(),
        fam.position_pryce_d(),
    )
    # the oracle's members lead; the rows after them are acted on and dropped
    applied = OperatorStack(*members, fam.y_pryce_c(), fam.y_pryce_d(), fam.spin_minus())
    actions = applied.apply(alpha, p, basis)
    nested = verify._nested_commutators(applied, len(members), alpha, p, actions, basis)
    composites = [_composite(op, alpha, basis) for op in members]
    for a, ca in zip(members, composites):
        for b, cb in zip(members, composites):
            # (kb, .., ka, 2) and (ka, .., kb, 2)
            ab, ba = a.apply(cb, p, basis), b.apply(ca, p, basis)
            want = np.moveaxis(ab, 0, -2) - np.moveaxis(ba, 0, -3)
            assert np.array_equal(nested(a, b), want), (a.name, b.name)


def _stack_members(fam):
    """Members with and without a0, a and D, over k = 1 and k = 3 components."""
    return (
        fam.hamiltonian(),  # a0, k = 1
        fam.spin(),  # a constant a
        fam.angular(),  # D alone
        fam.boost_orbital(),  # a0 and D
        fam.position(t=0.8),  # a0 and D
        fam.pauli_lubanski0(),  # a, k = 1
        fam.position_pryce_c(),  # a and D
        fam.velocity(),  # a0, k = 3
    )


@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_operator_stack_rows_are_the_members(basis):
    fam = AssociatedFamily(0.7)
    q = verify._sampled(6, 0.7, 5, lo=0.05, hi=2.0, avoid_poles=True)
    alpha = gaussian_test_spinor(make_rng(9))
    members = _stack_members(fam)
    stack = OperatorStack(*members)
    mult, act, coef = stack.mult_at(q, basis), stack.apply(alpha, q, basis), stack.coef(q)
    assert [r.stop - r.start for r in stack.slices] == [1, 3, 3, 3, 3, 1, 3, 3]
    for op, rows in zip(members, stack.slices):
        assert np.array_equal(mult[:, rows], op.mult_at(q, basis)), op.name
        assert np.array_equal(act[:, rows], op.apply(alpha, q, basis)), op.name
        for own, part in zip(op.coef(q), coef):
            v, d = part.v[:, rows], part.d[:, rows]
            if own is None:  # zero on the member's rows
                assert not v.any() and not d.any(), op.name
            else:
                assert np.array_equal(v, np.broadcast_to(own.v, v.shape)), op.name
                assert np.array_equal(d, np.broadcast_to(own.d, d.shape)), op.name
    # a part that no member has stays None
    assert [x is None for x in OperatorStack(fam.spin(), fam.pauli_lubanski0()).coef(q)] == [
        True, False, True
    ]
    # each block of a commutator of stacks is the pair's own commutator
    left, right = OperatorStack(*members[:5]), OperatorStack(*members[3:])
    pair = commutator(left, right)
    mult, act = pair.mult_at(q, basis), pair.apply(alpha, q, basis)
    for a, ra in zip(left.members, left.slices):
        for b, rb in zip(right.members, right.slices):
            own = commutator(a, b)
            assert np.array_equal(mult[:, ra, rb], own.mult_at(q, basis)), (a.name, b.name)
            assert np.array_equal(act[:, ra, rb], own.apply(alpha, q, basis)), (a.name, b.name)


def test_operator_stack_stacks_partials_only_for_a_commutator(monkeypatch):
    # mult_at and apply read the stacked values alone; only a commutator's read of
    # coef stacks the partials
    calls = []
    formula = OperatorStack.formula

    def counted(self, q, partials=True):
        calls.append(partials)
        return formula(self, q, partials)

    monkeypatch.setattr(OperatorStack, "formula", counted)
    fam, basis = AssociatedFamily(0.7), HelicityBasis()
    q = verify._sampled(6, 0.7, 5, lo=0.05, hi=2.0, avoid_poles=True)
    stack = OperatorStack(*_stack_members(fam))
    stack.mult_at(q, basis), stack.apply(gaussian_test_spinor(make_rng(9)), q, basis)
    assert calls == [False] and all(x is None or x.d is None for x in stack._values(q))
    commutator(stack, stack).mult_at(q, basis)
    assert calls == [False, True]


def test_operator_stack_refuses_commutators():
    fam = AssociatedFamily(1.0)
    with pytest.raises(TypeError):
        OperatorStack(fam.spin(), commutator(fam.position(), fam.hamiltonian()))


@pytest.mark.parametrize(
    "mats, vecs",
    [
        ((1, 35, 2, 2), (3, 1, 1, 2)),  # a ledger stack's multiplier on the test spinors
        ((1, 3, 2, 2), (3, 1, 1, 2)),  # Omega on their values
        ((20, 35, 2, 2), (3, 20, 1, 2)),
        ((20, 3, 2, 2), (3, 20, 1, 2)),
        ((2, 32, 2, 2), (32, 2, 1, 2)),  # the oracle's stack on its composite
        ((13824, 3, 2, 2), (13824, 1, 2)),  # a grid stack
        ((2, 2), (2,)),
    ],
)
def test_matvec_is_the_matrix_product(mats, vecs):
    rng = make_rng(11)
    a = rng.standard_normal(mats) + 1j * rng.standard_normal(mats)
    v = rng.standard_normal(vecs) + 1j * rng.standard_normal(vecs)
    want = (a @ v[..., None])[..., 0]
    got = associated._matvec(a, v)
    assert got.shape == want.shape and got.dtype == want.dtype
    # a tolerance, not bits: matmul's rounding may follow the platform's BLAS
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "left, right",
    [
        ((20, 3, 1, 2, 2), (20, 1, 3, 2, 2)),  # suite_associated's Omega_j by Sigma_k, Omega_k
        ((20, 1, 3, 2, 2), (20, 3, 1, 2, 2)),
    ],
)
def test_mul_is_the_matrix_product(left, right):
    rng = make_rng(12)
    a = rng.standard_normal(left) + 1j * rng.standard_normal(left)
    b = rng.standard_normal(right) + 1j * rng.standard_normal(right)
    want = a @ b
    got = associated._mul(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    # the bound of test_matvec_is_the_matrix_product, for the same reason
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_stacked_and_constant_are_the_aligned_and_broadcast_views():
    fam = AssociatedFamily(0.7)
    q = verify._sampled(6, 0.7, 5, lo=0.05, hi=2.0, avoid_poles=True)
    for x in fam.boost_orbital().coef(q) + fam.pauli_lubanski().coef(q):
        if x is None:
            continue
        for tail in (1, 2):
            got = associated._stacked(x, tail)
            for view, ref in ((got.v, associated._align(x.v, 1, tail)),
                              (got.d, associated._align(x.d, 1, tail + 1))):
                assert view.shape == ref.shape and np.array_equal(view, ref)
                assert np.shares_memory(view, ref)
    assert associated._stacked(None, 1) is None
    for const in (np.eye(3), 1j * np.eye(3), np.arange(3.0)[None]):
        for p in (q.p, q.p[0], np.zeros((2, 4, 3))):
            got = associated._constant(const, p)
            want = np.broadcast_to(const, p.shape[:-1] + const.shape)
            assert got.v.shape == want.shape and got.v.dtype == want.dtype
            assert np.array_equal(got.v, want) and not got.v.flags.writeable
            assert np.array_equal(got.d, np.zeros(const.shape + (3,)))
            with pytest.raises(ValueError):
                got.v[...] = 0
        assert const.flags.writeable  # the constant itself is left as it was


def test_operator_stack_reads_one_formula_run_in_every_basis(monkeypatch):
    # one stack serves both bases: its mult_at and apply in each basis are its
    # members' own values there, bit for bit, from one run of its formula, and a
    # commutator of it in each basis stacks the partials once
    calls = []
    formula = OperatorStack.formula

    def counted(self, q, partials=True):
        calls.append(partials)
        return formula(self, q, partials)

    monkeypatch.setattr(OperatorStack, "formula", counted)
    fam = AssociatedFamily(0.7)
    q = verify._sampled(6, 0.7, 5, lo=0.05, hi=2.0, avoid_poles=True)
    alpha = gaussian_test_spinor(make_rng(9))
    members = _stack_members(fam)
    assert all(a is b for a, b in zip(_stack_members(fam), members))  # one object per member
    stack = OperatorStack(*members)
    for basis in BASES:
        mult, act = stack.mult_at(q, basis), stack.apply(alpha, q, basis)
        for op, rows in zip(members, stack.slices):
            assert np.array_equal(mult[:, rows], op.mult_at(q, basis)), (basis.kind, op.name)
            assert np.array_equal(act[:, rows], op.apply(alpha, q, basis)), (basis.kind, op.name)
    assert calls == [False]
    pair = commutator(stack, stack)
    for basis in BASES:
        mult = pair.mult_at(q, basis)
        for a, ra in zip(members, stack.slices):
            for b, rb in zip(members, stack.slices):
                assert np.array_equal(mult[:, ra, rb], commutator(a, b).mult_at(q, basis))
    assert calls == [False, True]


@pytest.mark.parametrize("mass", [0.25, 1.0])
@pytest.mark.parametrize("samples", [1, 20])
@pytest.mark.parametrize("seed", [1, 3, 7])
def test_ledger_stacks_match_per_member_forms(seed, samples, mass):
    # the stacks suite_appendix_b reads, on its draws, against the per-operator
    # multipliers, commutators and applies they replace
    q = verify._sampled(min(samples, 20), mass, seed, lo=0.05, hi=2.0, avoid_poles=True)
    rng = make_rng(seed + 1)
    spinors = [gaussian_test_spinor(rng, scale=max(mass, 1.0)) for _ in range(3)]
    trio = WaveSpinor(
        lambda k: np.stack([sp.value(k) for sp in spinors]),
        lambda k: np.stack([sp.gradient(k) for sp in spinors]),
    )
    fam = AssociatedFamily(mass)
    S, Ks, W0, Wi = fam.spin(), fam.boost_spin(), fam.pauli_lubanski0(), fam.pauli_lubanski()
    multipliers = OperatorStack(S, Ks, W0, Wi, fam.y_pryce_c(), fam.y_pryce_d())
    left, right = OperatorStack(S, Ks), OperatorStack(S, Ks, W0, Wi)
    for basis in BASES:
        mults = multipliers.mult_at(q, basis)
        for op, rows in zip(multipliers.members, multipliers.slices):
            assert np.array_equal(mults[:, rows], op.mult_at(q, basis)), op.name
        blocks = commutator(left, right).mult_at(q, basis)
        for a, ra in zip(left.members, left.slices):
            for b, rb in zip(right.members, right.slices):
                assert np.array_equal(blocks[:, ra, rb], commutator(a, b).mult_at(q, basis))
    basis = HelicityBasis()
    oracle = OperatorStack(
        fam.angular(), fam.spin(), fam.boost_orbital(), fam.boost_spin(), fam.position(),
        fam.position(t=0.8), fam.velocity(), fam.momentum(), fam.hamiltonian(),
        fam.pauli_lubanski0(), fam.pauli_lubanski(), fam.position_pryce_c(),
        fam.position_pryce_d(),
    )
    applied = OperatorStack(*oracle.members, fam.y_pryce_c(), fam.y_pryce_d(), fam.spin_minus())
    actions = applied.apply(trio, q, basis)
    for op, rows in zip(applied.members, applied.slices):
        assert np.array_equal(actions[..., rows, :], op.apply(trio, q, basis)), op.name
    # the oracle composite's value, read from the trio's actions at the first 2 momenta
    own = applied.slices[len(oracle.members)].start
    first = Momentum(q.p[:2], mass)
    assert np.array_equal(actions[0, :2, :own], oracle.apply(spinors[0], first, basis))


def test_pryce_cd_associated():
    basis = CommonBasis()
    q = Momentum((0.5, -0.3, 0.2))
    fam = AssociatedFamily(q.m)
    xc, xd = fam.position_pryce_c(), fam.position_pryce_d()
    yc, yd = fam.y_pryce_c(), fam.y_pryce_d()
    rng = make_rng(69)
    alpha = gaussian_test_spinor(rng)
    e, m, p = q.energy, q.m, q.p
    s_plus, _ = auxiliary_spins(q)
    for i in range(3):
        # multiplicative parts carry the stated spin offsets
        sg = basis.sigma(q)
        spin_term = np.einsum("jk,j,kab->ab", EPS3[i], p, 0.5 * sg)
        assert mx(xc.mult_at(q, basis)[i] - spin_term / (e * (e + m))) < TOL
        assert mx(xd.mult_at(q, basis)[i] + spin_term / (m * (e + m))) < TOL
        # Y vectors proportional to the Theta-contracted spin
        th, _ = theta_tensor(q)
        s_plus_assoc = 0.5 * np.einsum("j,jab->ab", th[i], sg)
        assert mx(yc.mult_at(q, basis)[i] - (m / e**3) * s_plus_assoc) < TOL
        assert mx(yd.mult_at(q, basis)[i] - s_plus_assoc / (m * e)) < TOL
    # commutator closes on -i eps Y_c, for every pair (i, j) at once
    lhs = commutator_action(xc, xc, alpha, q, basis)
    rhs = -1j * np.einsum("ijk,ka->ija", EPS3, yc.apply(alpha, q, basis))
    assert mx(lhs - rhs) < 1e-5
    # rest frame: offsets vanish, both reduce to i d~
    q0 = Momentum(np.zeros(3), 1.0)
    assert mx(xc.mult_at(q0, basis)) < TOL
    assert mx(xd.mult_at(q0, basis)) < TOL


def test_appendix_b_spot_identities():
    """A few representative commutators; the full ledger runs in verify."""
    basis = HelicityBasis()
    fam = AssociatedFamily(1.0)
    rng = make_rng(71)
    alpha = gaussian_test_spinor(rng)
    for q in sample_momenta(5, 1.0, seed=73, lo=0.2, hi=1.5, avoid_poles=True):
        e, p = q.energy, q.p
        L, Ko, Ks = fam.angular(), fam.boost_orbital(), fam.boost_spin()
        aS, aKs = fam.spin().apply(alpha, q, basis), Ks.apply(alpha, q, basis)
        # angular momenta close su(2)
        lhs = commutator_action(L, L, alpha, q, basis)[0, 1]
        assert mx(lhs - 1j * L.apply(alpha, q, basis)[2]) < 1e-5
        # boost-velocity commutator is multiplicative, for every pair (i, j)
        lhs = commutator_action(Ko, fam.velocity(), alpha, q, basis)
        rhs = 1j * (np.eye(3) - np.outer(p, p) / e**2)[..., None] * alpha.value(q)
        assert mx(lhs - rhs) < 1e-5
        # orbital and spin boost parts do not commute
        lhs = commutator_action(Ko, Ks, alpha, q, basis)[0, 1]
        rhs = -1j / (e + 1.0) * (
            e * sum(EPS3[0, 1, k] * aS[k] for k in range(3)) + p[0] * aKs[1]
        )
        assert mx(lhs - rhs) < 1e-5


def test_hermitian_quadratic_form_of_boost_orbital():
    # the symmetrized i p/(2E) term makes Ko Hermitian under the d^3p product
    basis = CommonBasis()
    fam = AssociatedFamily(1.0)
    rng = make_rng(75)
    a = gaussian_test_spinor(rng)
    b = gaussian_test_spinor(rng)
    from diracmr.wavepacket import QuadratureGrid

    grid = QuadratureGrid(10.0, 40, 8, 8)
    op = fam.boost_orbital()
    pts = Momentum(grid.nodes, 1.0)  # the whole grid is one batch of momenta
    lhs = grid.weights @ np.einsum("na,nia->ni", a.value(pts).conj(), op.apply(b, pts, basis))
    rhs = grid.weights @ np.einsum("nia,na->ni", op.apply(a, pts, basis).conj(), b.value(pts))
    # every component at once
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_family_needs_a_positive_mass():
    with pytest.raises(ValueError, match="mass must be positive"):
        AssociatedFamily(0.0)


@pytest.mark.parametrize("ratio", (1e-6, 1.0, 1e6))
@pytest.mark.parametrize("basis", BASES, ids=lambda b: b.kind)
def test_family_jets_are_their_closed_forms(basis, ratio):
    # E and e_k x p enter as closed-form jets: dE/dp^l = p^l/E with E the jet's own
    # value, and L~'s D = -i (e_k x p) has the constant partials -i eps_klc; the
    # basis enters W~0 = p.Sigma/2 through its multiplier alone
    m = 1.3
    p = ratio * m * np.array([[0.3, -0.5, 0.8], [-0.6, 0.2, 0.1]])
    q = Momentum(p, m)
    family = AssociatedFamily(m)
    e = family.hamiltonian().coef(q)[0]
    assert e.d.tobytes() == (p[:, None, None, :] / e.v[..., None]).tobytes()
    d = family.angular().coef(q)[2]
    assert np.array_equal(d.d, -1j * np.einsum("klc->kcl", EPS3))
    w0 = family.pauli_lubanski0().mult_at(q, basis)[:, 0]
    want = 0.5 * np.einsum("nc,ncab->nab", p, basis.sigma(q))
    assert mx(w0 - want) <= 4 * np.finfo(float).eps * mx(want)
