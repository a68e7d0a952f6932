import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracmr import algebra, associated, polarization, verify
from diracmr.algebra import (
    CCONJ,
    G0G,
    GAMMA,
    GAMMA5,
    ID4,
    EPS3,
    METRIC,
    PAULI,
    SL2C,
    SPIN,
    Momentum,
    boost_for_momentum,
    boost_su2,
    central_gradient,
    charge_conjugate,
    contract,
    cross,
    cross_vectors,
    dirac_adjoint_deviation,
    foldy_wouthuysen,
    lorentz_boost_matrix,
    lorentz_of,
    norm,
    rotation,
    rotation_su2,
    theta_tensor,
)
from diracmr.associated import _EPS_ON_SIGMA, Jet, WaveSpinor, _cross
from diracmr.operators import dirac_hamiltonian, pryce_e_spin
from diracmr.polarization import HelicityBasis
from diracmr.sampling import POLE_MARGIN, make_rng, sample_momenta

TOL = 1e-12


def comm(a, b):
    return a @ b - b @ a


def test_clifford_relations_exact():
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            assert np.allclose(anti, 2 * METRIC[mu, nu] * ID4, atol=1e-15)
    # metric diagonal and off-diagonal spot cases
    assert np.allclose(GAMMA[0] @ GAMMA[0] + GAMMA[0] @ GAMMA[0], 2 * ID4)
    assert np.allclose(GAMMA[1] @ GAMMA[2] + GAMMA[2] @ GAMMA[1], 0 * ID4)


def test_gamma_index_and_gamma5():
    with pytest.raises(IndexError):
        GAMMA[4]
    with pytest.raises(IndexError):
        SPIN[3]
    assert np.allclose(GAMMA5, np.diag([-1, -1, 1, 1]))
    assert np.allclose(GAMMA5, 1j * GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3])


def test_charge_conjugation_is_involution():
    assert np.allclose(CCONJ, 1j * GAMMA[2])
    assert np.allclose(CCONJ @ CCONJ, ID4, atol=1e-15)


def test_charge_conjugate_is_c_transpose_c_exactly():
    # C is a real symmetric signed permutation, so C A^T C reorders A's entries
    assert np.array_equal(CCONJ, CCONJ.T) and not np.any(CCONJ.imag)
    assert np.array_equal(np.abs(CCONJ), np.fliplr(np.eye(4)))
    rng = np.random.default_rng(71)
    a = rng.standard_normal((5, 3, 4, 4)) + 1j * rng.standard_normal((5, 3, 4, 4))
    assert np.array_equal(charge_conjugate(a), CCONJ @ np.swapaxes(a, -1, -2) @ CCONJ)
    assert np.array_equal(charge_conjugate(charge_conjugate(a)), a)


def test_sl2c_generators():
    for mu in range(4):
        assert np.allclose(SL2C[mu, mu], np.zeros((4, 4)))
        for nu in range(4):
            s = SL2C[mu, nu]
            assert np.allclose(s, -SL2C[nu, mu], atol=1e-15)
            assert dirac_adjoint_deviation(s) < 1e-15
    with pytest.raises(IndexError):
        SL2C[0, 4]
    # eps_123 = +1 on 0-based indices
    for (i, j, k), sign in {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1, (0, 2, 1): -1}.items():
        assert EPS3[i, j, k] == sign
    assert np.count_nonzero(EPS3) == 6 and np.array_equal(EPS3, -EPS3.transpose(1, 0, 2))
    # rotation generators are block sigma/2, boost generators diag(-i,i) sigma/2
    zero = np.zeros((2, 2))
    for i in range(3):
        half = PAULI[i] / 2
        assert np.array_equal(SPIN[i], np.block([[half, zero], [zero, half]]))
        si = 0.5 * sum(
            EPS3[i, j, k] * SL2C[j + 1, k + 1]
            for j in range(3)
            for k in range(3)
        )
        assert np.allclose(si, SPIN[i], atol=1e-15)
        assert np.allclose(0.5j * (GAMMA[0] @ GAMMA[i + 1]), SL2C[0, i + 1], atol=1e-15)
    # su(2) closure
    assert np.allclose(comm(SPIN[0], SPIN[1]), 1j * SPIN[2], atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-6, 6), min_size=3, max_size=3))
def test_rotation_unitary_and_unimodular(theta):
    r = rotation_su2(np.array(theta))
    assert np.allclose(r @ r.conj().T, np.eye(2), atol=1e-12)
    assert abs(np.linalg.det(r) - 1.0) < 1e-12


def test_rotation_special_values():
    assert np.allclose(rotation([0, 0, 0]), ID4)
    # double cover: a 2 pi rotation flips the spinor sign
    assert np.allclose(rotation([0, 0, 2 * np.pi]), -ID4, atol=1e-14)


def test_rotation_homomorphism():
    from diracmr.algebra import PAULI

    rng = np.random.default_rng(5)
    for _ in range(10):
        theta = rng.uniform(-np.pi, np.pi, 3)
        rhat = rotation_su2(theta)
        R = lorentz_of(rotation(theta))[1:, 1:]
        for i in range(3):
            rhs = sum(R[i, j] * PAULI[j] for j in range(3))
            assert np.allclose(np.linalg.inv(rhat) @ PAULI[i] @ rhat, rhs, atol=TOL)


def test_momentum_validation():
    q = Momentum.of(0.3, 0.4, 1.2, m=2.0)
    assert q.energy == pytest.approx(np.sqrt(0.09 + 0.16 + 1.44 + 4.0))
    assert q.energy >= q.m
    with pytest.raises(ValueError):
        Momentum.of(0, 0, 0, m=0.0)
    with pytest.raises(ValueError):
        boost_for_momentum(Momentum.of(1, 0, 0, m=-1.0))
    with pytest.raises(ValueError, match=r"momenta must have shape \(\.\.\., 3\)"):
        Momentum(np.zeros(2))


def test_boost_rest_frame_is_identity():
    q = Momentum(np.zeros(3), 1.7)
    assert np.allclose(boost_for_momentum(q), ID4)
    assert np.allclose(lorentz_boost_matrix(q), np.eye(4))
    assert np.allclose(foldy_wouthuysen(q), ID4)
    th, thi = theta_tensor(q)
    assert np.allclose(th, np.eye(3)) and np.allclose(thi, np.eye(3))


def test_boost_inverse_unit_momentum():
    # direct matrix-product oracle at m=1, p=(0,0,1)
    q = Momentum.of(0, 0, 1, m=1.0)
    prod = boost_for_momentum(q) @ boost_for_momentum(q.flipped())
    assert np.max(np.abs(prod - ID4)) < TOL


def test_theta_unit_momentum_value():
    # closed-form evaluation: 1 + 1/(sqrt(2)+1) = sqrt(2)
    q = Momentum.of(0, 0, 1, m=1.0)
    th, thi = theta_tensor(q)
    assert th[2, 2] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert np.max(np.abs(th @ thi - np.eye(3))) < TOL


def test_boost_identities_random_momenta():
    plus = 0.5 * (ID4 + GAMMA[0])
    minus = 0.5 * (ID4 - GAMMA[0])
    for q in sample_momenta(100, 1.3, seed=11):
        e, m = q.energy, q.m
        lp = boost_for_momentum(q)
        lm = boost_for_momentum(q.flipped())
        assert np.max(np.abs(lp - lp.conj().T)) < TOL
        assert np.max(np.abs(lp @ lm - ID4)) < TOL
        g0gp = sum(q.p[i] * (GAMMA[0] @ GAMMA[i + 1]) for i in range(3))
        assert np.max(np.abs(lp @ lp - (e * ID4 + g0gp) / m)) < TOL
        for proj in (plus, minus):
            assert np.max(np.abs(proj @ lp @ lp @ proj - (e / m) * proj)) < TOL
        L = lorentz_boost_matrix(q)
        for a in range(4):
            rhs = sum(L[a, b] * GAMMA[b] for b in range(4))
            assert np.max(np.abs(lm @ GAMMA[a] @ lp - rhs)) < TOL
        assert np.max(np.abs(L.T @ METRIC @ L - METRIC)) < TOL
        assert np.max(np.abs(L @ np.array([m, 0, 0, 0]) - q.four)) < TOL


def test_lorentz_boost_matrix_entries():
    q = Momentum.of(0.4, -1.1, 0.6, m=0.9)
    L = lorentz_boost_matrix(q)
    assert L[0, 0] == pytest.approx(q.energy / q.m, abs=1e-14)
    assert np.allclose(L[0, 1:], q.p / q.m)
    th, thi = theta_tensor(q)
    assert np.allclose(L[1:, 1:], th)
    # the inverse tensor differs from the space block of the inverse boost
    Lm = lorentz_boost_matrix(q.flipped())
    assert np.max(np.abs(thi - Lm[1:, 1:])) > 0.01


def test_foldy_wouthuysen_conjugations():
    for q in sample_momenta(100, 1.0, seed=13):
        U = foldy_wouthuysen(q)
        Um = foldy_wouthuysen(q.flipped())
        assert np.max(np.abs(U @ U.conj().T - ID4)) < TOL
        assert np.max(np.abs(U.conj().T - Um)) < TOL
        assert np.max(np.abs(U @ dirac_hamiltonian(q) @ Um - q.energy * GAMMA[0])) < TOL
        S = pryce_e_spin(q)
        for i in range(3):
            assert np.max(np.abs(U @ S[i] @ Um - SPIN[i])) < TOL


def _cross_einsum(p, mats):
    """The eps_ijk contraction that ``cross`` replaced, kept as its reference."""
    return np.einsum("ijk,...j,...kab->...iab", EPS3, p, mats)


# the shapes the package passes: a batch against its operator stacks, the unit
# vectors e_i against a per-component stack, and appendix_b's (3, 3) x (3, 1, 1, 3, 1, 2)
@pytest.mark.parametrize(
    "p_shape, m_shape", [((20, 3), (20, 3, 4, 4)), ((3, 3), (20, 1, 3, 4, 4)), ((3, 3), (3, 1, 1, 3, 1, 2))]
)
def test_cross_is_the_eps_contraction_bit_for_bit(p_shape, m_shape):
    rng = np.random.default_rng(17)
    mats = rng.standard_normal(m_shape) + 1j * rng.standard_normal(m_shape)
    for p in (rng.standard_normal(p_shape), np.eye(3)[np.arange(p_shape[0]) % 3]):
        got, want = cross(p, mats), _cross_einsum(p, mats)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


# commutator's (ka, 1, 3) x (1, kb, 3) spin term over a batch, real and complex
@pytest.mark.parametrize("dtype", [float, complex])
def test_cross_vectors_is_numpys_cross_bit_for_bit(dtype):
    rng = np.random.default_rng(19)

    def draw(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    a, b = draw(20, 6, 1, 3), draw(20, 1, 10, 3)
    got, want = cross_vectors(a, b), np.cross(a, b)
    assert got.shape == want.shape == (20, 6, 10, 3) and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(cross_vectors(np.eye(3), np.eye(3)[[1, 2, 0]]), np.eye(3)[[2, 0, 1]])


def _same(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


# contract and the batch norms are numpy's own tensordot and norm arithmetic without
# the Python wrappers; these pin them byte for byte against the forms they replace
@pytest.mark.parametrize("batch", [(), (1,), (7,), (7, 1), (0,)], ids=str)
@pytest.mark.parametrize("name", ["PAULI", "SPIN", "G0G", "_EPS_ON_SIGMA"])
def test_contract_is_numpys_tensordot_bit_for_bit(batch, name):
    mats = {"PAULI": PAULI, "SPIN": SPIN, "G0G": G0G, "_EPS_ON_SIGMA": _EPS_ON_SIGMA}[name]
    v = np.random.default_rng(23).standard_normal(batch + (len(mats),))
    assert _same(contract(v, mats), np.tensordot(v, mats, axes=(-1, 0)))


@pytest.mark.parametrize("dtype", [float, complex])
def test_contract_against_gamma_is_numpys_tensordot_bit_for_bit(dtype):
    rng = np.random.default_rng(29)
    v = rng.standard_normal((7, 4, 4)) + (1j * rng.standard_normal((7, 4, 4)) if dtype is complex else 0)
    want = np.tensordot(v, GAMMA, axes=(-1, 0))
    assert want.shape == (7, 4, 4, 4) and _same(contract(v, GAMMA), want)


def test_cross_jet_is_the_eps_tensordot_bit_for_bit():
    rng = np.random.default_rng(31)
    for batch in ((), (1,), (7,), (7, 1)):
        row = Jet(rng.standard_normal(batch + (1, 3)), None)
        want = np.tensordot(row.v[..., 0, :], EPS3, (-1, 1))
        assert want.shape == batch + (3, 3) and _same(_cross(row).v, want)


# components of order 1, near 1e-300 (whose squares underflow) and near 1e300 (whose
# squares overflow to inf both ways)
@pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
@pytest.mark.parametrize("batch", [(), (7,), (7, 1), (0,)], ids=str)
def test_norm_is_numpys_norm_bit_for_bit(scale, batch):
    x = scale * np.random.default_rng(37).standard_normal(batch + (3,))
    with np.errstate(over="ignore"):
        assert _same(norm(x), np.linalg.norm(x, axis=-1))


def test_batch_norm_sites_take_norm(monkeypatch):
    # Momentum.mag, _half_angle (through rotation_su2 and boost_su2), HelicityBasis._checked,
    # WaveSpinor.gradient's fallback step and the nested-FD oracle's step (the last three
    # through the batch's mag) each take their |x| from one norm call on their own argument
    seen = []

    def recorded(x):
        seen.append(np.array(x))
        return norm(x)

    monkeypatch.setattr(algebra, "norm", recorded)
    p = np.random.default_rng(41).standard_normal((7, 3))
    p[:, 2] = np.abs(p[:, 2])  # clear of the helicity chart's -e3 pole

    def fn(k):
        return np.stack((np.sin(k.p[..., 0]), np.cos(k.p[..., 1])), -1) + 0j

    sites = {
        "mag": lambda: Momentum(p, 0.5).mag,
        "rotation_su2": lambda: rotation_su2(p),
        "boost_su2": lambda: boost_su2(p),
        "_checked": lambda: HelicityBasis()._checked(p),
        "gradient": lambda: WaveSpinor(fn).gradient(p),
    }
    for name, site in sites.items():
        seen.clear()
        site()
        assert len(seen) == 1 and _same(seen[0], p), name
    steps = []

    def counted(fn, x, h):
        steps.append((x.p, np.array(h)))
        return central_gradient(fn, x, h)

    monkeypatch.setattr(verify, "central_gradient", counted)
    seen.clear()
    assert all(r.passed for r in verify.run_suite("appendix_b", 1, 3))
    (k, h), = steps
    assert _same(h, 1e-3 * norm(k)) and any(_same(x, k) for x in seen)


def _sample_momenta_with_norm(n, m, seed, lo=0.01, hi=10.0, avoid_poles=False):
    """``sample_momenta`` as written with ``np.linalg.norm(d)`` and the logs in its loop."""
    rng = make_rng(seed)
    out = []
    while len(out) < n:
        mag = m * np.exp(rng.uniform(np.log(lo), np.log(hi)))
        d = rng.standard_normal(3)
        norm = np.linalg.norm(d)
        if norm < 1e-12:
            continue
        d = d / norm
        if avoid_poles and min(1.0 - d[2], 1.0 + d[2]) < POLE_MARGIN:
            continue
        out.append(Momentum(d * mag, m))
    return out


@pytest.mark.parametrize("avoid_poles", [False, True])
def test_sample_momenta_draws_are_the_norm_form_bit_for_bit(avoid_poles):
    for seed in (1, 2, 3, 7, 1511652251):
        for m, lo, hi in ((1.0, 0.01, 10.0), (0.25, 0.05, 2.0), (3.0, 0.5, 4.0)):
            got = sample_momenta(50, m, seed, lo=lo, hi=hi, avoid_poles=avoid_poles)
            want = _sample_momenta_with_norm(50, m, seed, lo=lo, hi=hi, avoid_poles=avoid_poles)
            assert all(_same(a.p, b.p) and a.m == b.m for a, b in zip(got, want))
