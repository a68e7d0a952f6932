import numpy as np
import pytest

from diracmr.algebra import (
    ID4,
    METRIC,
    Momentum,
    boost_for_momentum,
    boost_param,
    lorentz_of,
    rotation,
    rotation_su2,
)
from diracmr.associated import (
    WaveSpinor,
    d_matrix,
    wigner_little_group,
    wigner_transform,
)
from diracmr.polarization import CommonBasis, HelicityBasis
from diracmr.sampling import make_rng, sample_boosts, sample_momenta

TOL = 1e-12


def _little_group_4x4(lam, q, qp):
    """Reference: the 4x4 little-group element l_p^-1 lambda l_p'."""
    return boost_for_momentum(q.flipped()) @ lam @ boost_for_momentum(qp)


def test_little_group_element_is_rotation():
    for lam in sample_boosts(20, seed=81):
        for q in sample_momenta(5, 1.0, seed=83, avoid_poles=True):
            what, qp = wigner_little_group(lam, q)
            w = _little_group_4x4(lam, q, qp)
            assert np.max(np.abs(w[:2, 2:])) < 1e-10
            assert np.max(np.abs(w[2:, :2])) < 1e-10
            assert np.max(np.abs(w[:2, :2] - w[2:, 2:])) < 1e-10
            assert np.max(np.abs(what - w[:2, :2])) < 1e-10
            assert np.max(np.abs(what @ what.conj().T - np.eye(2))) < TOL
            # transported momentum stays on shell
            assert qp.energy == pytest.approx(np.sqrt(qp.mag**2 + qp.m**2))


@pytest.mark.parametrize("mass", [0.25, 1.0, 3.0])
def test_little_group_matches_4x4_across_regimes(mass):
    # |p|/m from 1e-6 to 1e6; per momentum the bound is 20 max(E, E')/m eps
    lams = np.stack(sample_boosts(8, seed=97))[:, None]
    rng = make_rng(99)
    dirs = rng.standard_normal((25, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    q = Momentum(mass * np.logspace(-6, 6, 25)[:, None] * dirs, mass)
    what, qp = wigner_little_group(lams, q)
    w = _little_group_4x4(lams, q, qp)
    # p' = Lambda(lambda)^-1 p, the inverse through eta Lambda^T eta
    lorentz_inv = METRIC @ np.swapaxes(lorentz_of(lams), -1, -2) @ METRIC
    p_ref = (lorentz_inv @ q.four[..., None])[..., 1:, 0]
    scale = 20 * np.maximum(q.energy, qp.energy) / mass * np.finfo(float).eps
    for err in (
        np.max(np.abs(what - w[..., :2, :2]), axis=(-2, -1)),
        np.max(np.abs(what - w[..., 2:, 2:]), axis=(-2, -1)),
        np.max(np.abs(what @ what.conj().swapaxes(-1, -2) - np.eye(2)), axis=(-2, -1)),
        np.max(np.abs(qp.p - p_ref), axis=-1) / mass,
    ):
        assert np.all(err <= scale), np.max(err / scale)


def test_d_matrix_unitary():
    bases = (CommonBasis(), HelicityBasis())
    for lam in sample_boosts(50, seed=85):
        for q in sample_momenta(3, 1.0, seed=87, avoid_poles=True):
            for b in bases:
                d = d_matrix(lam, q, b)
                assert np.max(np.abs(d.conj().T @ d - np.eye(2))) < TOL


def test_d_matrix_rotations_momentum_independent():
    basis = CommonBasis()
    rng = make_rng(89)
    momenta = sample_momenta(20, 1.0, seed=91, avoid_poles=True)
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, 3)
        lam = rotation(theta)
        ds = [d_matrix(lam, q, basis) for q in momenta]
        spread = max(np.max(np.abs(d - ds[0])) for d in ds)
        assert spread < TOL
        # common basis: D equals the SU(2) rotation itself
        assert np.max(np.abs(ds[0] - rotation_su2(theta))) < TOL


def test_identity_and_pure_translation():
    basis = CommonBasis()
    q = Momentum((0.4, -0.2, 0.6))
    assert np.max(np.abs(d_matrix(ID4, q, basis) - np.eye(2))) < TOL

    def value(k):
        return np.exp(-np.dot(k.p, k.p)) * np.array([1.0, 0.5j])

    alpha = WaveSpinor(value)
    a = np.array([0.3, -0.2, 0.5, 0.1])
    out = wigner_transform(alpha, ID4, a, basis)
    v0 = alpha.value(q)
    v1 = out.value(q)
    assert np.max(np.abs(np.abs(v1) - np.abs(v0))) < TOL
    phase = np.exp(1j * (q.energy * a[0] - float(q.p @ a[1:])))
    assert np.max(np.abs(v1 - phase * v0)) < TOL
    # identity with zero shift is the identity map
    out0 = wigner_transform(alpha, ID4, np.zeros(4), basis)
    assert np.max(np.abs(out0.value(q) - v0)) < TOL


def test_boost_transform_norm_on_grid():
    from diracmr.wavepacket import QuadratureGrid

    basis = CommonBasis()
    mass = 1.0
    s = 0.8
    c = (np.pi * s * s) ** (-0.75)

    def value(k):
        return c * np.exp(-np.sum(k.p * k.p, axis=-1) / (2 * s * s))[..., None] * np.array([0.6, 0.8])

    alpha = WaveSpinor(value)
    lam = boost_param([0.3, 0.0, 0.2])
    out = wigner_transform(alpha, lam, np.zeros(4), basis)
    grid = QuadratureGrid(10.0, 48, 12, 16)
    # the whole grid is one batch of momenta at the mass
    nodes = Momentum(grid.nodes, mass)
    norm_t = np.sum(grid.weights * np.sum(np.abs(out.value(nodes)) ** 2, axis=-1))
    norm_0 = np.sum(grid.weights * np.sum(np.abs(alpha.value(nodes)) ** 2, axis=-1))
    assert norm_t == pytest.approx(norm_0, rel=1e-8)


def test_block_structure_guard():
    basis = CommonBasis()
    q = Momentum((0.1, 0.2, 0.3))
    bad = np.eye(4, dtype=complex)
    bad[0, 2] = 0.5  # couples the chiral blocks: not in the spinor image
    with pytest.raises(ValueError):
        d_matrix(bad, q, basis)
    with pytest.raises(ValueError):
        wigner_little_group(bad, q)
    with pytest.raises(ValueError):
        wigner_transform(WaveSpinor(lambda k: k.p[..., :2]), bad, np.zeros(4), basis).value(q)


def test_wigner_suite_d_unitary_near_pole_seed(monkeypatch):
    # this seed transports a momentum to within 2e-4 of the helicity pole
    from diracmr import verify

    transported = []

    def recorded(lam, q):
        what, qprime = wigner_little_group(lam, q)
        transported.append(1.0 + qprime.p[..., 2] / qprime.mag)
        return what, qprime

    monkeypatch.setattr(verify, "wigner_little_group", recorded)
    verify._draws.cache_clear()
    results = verify.run_suite("wigner", 20, 1000 + 16 * 7919)
    assert min(np.min(gap) for gap in transported) <= 2e-4
    (d_unitary,) = [r for r in results if r.name == "d_unitary"]
    assert d_unitary.residual <= 1e-13


def test_boosted_transform_memory_on_suite_grid():
    # one (N, 4, 4) complex array on this grid is 28 MB; building the 4x4 boosts
    # and little-group products on every node peaks above 90 MB
    import tracemalloc

    from diracmr.wavepacket import QuadratureGrid

    grid = QuadratureGrid(12.0, 96, 24, 48)
    nodes = grid.nodes

    def value(k):
        return np.exp(-np.sum(k.p * k.p, axis=-1) / 2)[..., None] * np.array([1.0, 0.0])

    boosted = wigner_transform(
        WaveSpinor(value), boost_param([0.0, 0.25, 0.35]), np.zeros(4), CommonBasis()
    )
    tracemalloc.start()
    try:
        boosted.value(Momentum(nodes, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6, peak / 1e6
