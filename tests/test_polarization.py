import importlib
import pkgutil
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracmr
from diracmr.algebra import EPS3, PAULI, dagger
from diracmr.polarization import (
    CommonBasis,
    HelicityBasis,
    PolarizationBasis,
    PoleError,
    eta_from_xi,
    make_basis,
    sigma_index,
    spinor_pair,
)
from diracmr.sampling import sample_momenta

ID2 = np.eye(2)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


directions = st.tuples(
    st.floats(-1, 1), st.floats(-1, 1), st.floats(-0.9, 1)
).filter(lambda t: 1e-2 < np.linalg.norm(t) and (1 + t[2] / np.linalg.norm(t)) > 1e-2)


@settings(max_examples=60, deadline=None)
@given(directions)
def test_common_spinors_orthonormal_complete(direction):
    n = _unit(direction)
    xi = spinor_pair(n)
    eta = eta_from_xi(xi)
    assert np.allclose(xi.conj().T @ xi, ID2, atol=1e-14)
    assert np.allclose(xi @ xi.conj().T, ID2, atol=1e-14)
    assert np.allclose(eta.conj().T @ eta, ID2, atol=1e-14)
    ns = sum(n[i] * PAULI[i] for i in range(3)) / 2
    assert np.allclose(ns @ xi[:, 0], 0.5 * xi[:, 0], atol=1e-13)
    assert np.allclose(ns @ xi[:, 1], -0.5 * xi[:, 1], atol=1e-13)
    assert np.allclose(ns @ eta[:, 0], -0.5 * eta[:, 0], atol=1e-13)
    assert np.allclose(ns @ eta[:, 1], 0.5 * eta[:, 1], atol=1e-13)


def test_common_spinor_special_values():
    # columns of spinor_pair(n) are xi_{+1/2}(n), xi_{-1/2}(n)
    assert np.allclose(spinor_pair([0, 0, 1])[:, 0], [1, 0])
    assert np.allclose(spinor_pair([0, 0, 1])[:, 1], [0, 1])
    # closed form along e1
    assert np.allclose(spinor_pair([1, 0, 0])[:, 0], np.array([1, 1]) / np.sqrt(2))


def test_weighted_completeness():
    # sum over 2 sigma xi xi^+ reproduces n.sigma
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = _unit(rng.standard_normal(3))
        if 1 + n[2] < 1e-2:
            continue
        xi = spinor_pair(n)
        lhs = np.outer(xi[:, 0], xi[:, 0].conj()) - np.outer(xi[:, 1], xi[:, 1].conj())
        assert np.allclose(lhs, sum(n[i] * PAULI[i] for i in range(3)), atol=1e-13)


def test_pole_errors():
    with pytest.raises(PoleError):
        spinor_pair([0, 0, -1])
    with pytest.raises(PoleError):
        spinor_pair(_unit([1e-7, 0, -1]))
    # a direction off the unit sphere is refused before its chart is read
    with pytest.raises(ValueError, match="direction must be a unit vector"):
        spinor_pair(np.array([0.0, 0.0, 2.0]))
    hel = HelicityBasis()
    with pytest.raises(PoleError):
        hel.xi(np.array([0.0, 0.0, -2.0]))
    with pytest.raises(PoleError):
        hel.xi(np.array([0.0, 0.0, 0.0]))
    # just off the pole ray must evaluate
    hel.xi(np.array([0.05, 0.0, -1.0]))


def test_helicity_spinor_eigenvector():
    for q in sample_momenta(50, 1.0, seed=3, avoid_poles=True):
        n = q.p / q.mag
        ns = sum(n[i] * PAULI[i] for i in range(3)) / 2
        xi = HelicityBasis().xi(q.p)
        xp, xm = xi[:, 0], xi[:, 1]
        assert np.allclose(ns @ xp, 0.5 * xp, atol=1e-12)
        assert np.allclose(ns @ xm, -0.5 * xm, atol=1e-12)
    assert np.allclose(HelicityBasis().xi(np.array([0, 0, 1.0]))[:, 0], [1, 0])


def test_sigma_matrices_common_basis():
    # n = e3 gives the Pauli matrices themselves, at every momentum of a batch
    basis, p = CommonBasis(), np.array([[0.3, -0.2, 0.8], [-1.5, 0.0, 2.0]])
    assert basis.sigma(p).shape == (2, 3, 2, 2)
    assert np.allclose(basis.sigma(p), PAULI, atol=1e-15)
    assert np.allclose(basis.omega(p), 0.0)
    # a memoized quantity takes only a momentum batch (..., 3)
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 3\), got \(\)"):
        basis.sigma(None)
    with pytest.raises(ValueError, match=r"shape \(\.\.\., 3\), got \(\)"):
        HelicityBasis().xi(None)


def test_sigma_matrices_helicity():
    hel = HelicityBasis()
    for q in sample_momenta(100, 1.0, seed=5, avoid_poles=True):
        p = q.p
        sig = hel.sigma(p)
        # agrees with the defining bilinears
        xi = hel.xi(p)
        direct = np.stack([xi.conj().T @ PAULI[i] @ xi for i in range(3)])
        assert np.max(np.abs(sig - direct)) < 1e-13
        # momentum contraction collapses to p sigma_3
        assert np.max(np.abs(np.einsum("i,iab->ab", p, sig) - q.mag * PAULI[2])) < 1e-12
        # Pauli algebra
        for i in range(3):
            assert np.max(np.abs(sig[i] - sig[i].conj().T)) < 1e-13
            assert np.max(np.abs(sig[i] @ sig[i] - ID2)) < 1e-13
            for j in range(3):
                rhs = 2j * sum(EPS3[i, j, k] * sig[k] for k in range(3))
                assert np.max(np.abs(sig[i] @ sig[j] - sig[j] @ sig[i] - rhs)) < 1e-12
    # alignment with e3
    sig = hel.sigma(np.array([0.0, 0.0, 2.3]))
    assert np.allclose(sig, PAULI, atol=1e-14)


def test_omega_helicity_closed_form_and_fd():
    hel = HelicityBasis()
    for q in sample_momenta(100, 1.0, seed=9, avoid_poles=True):
        p = q.p
        om = hel.omega(p)
        for i in range(3):
            assert np.max(np.abs(om[i] + om[i].conj().T)) < 1e-12
        assert np.max(np.abs(np.einsum("i,iab->ab", p, om))) < 1e-12
        # FD oracle with step matched to the direction-variation scale
        fd = hel.omega_fd(p, h=1e-4 * q.mag)
        assert np.max(np.abs(om - fd)) < 1e-6
        for i in range(3):
            assert np.max(np.abs(fd[i] + fd[i].conj().T)) < 1e-6


def test_omega_fd_at_diagonal_direction():
    hel = HelicityBasis()
    for mag in (0.5, 1.0, 3.0):
        p = mag * np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        fd = hel.omega_fd(p, h=1e-4 * mag)
        assert np.max(np.abs(fd - hel.omega(p))) < 1e-6


def test_sigma_omega_methods():
    from diracmr.algebra import Momentum

    q = Momentum.of(0.3, 0.1, 0.8)
    hel = make_basis("helicity")
    xi = hel.xi(q.p)
    assert np.allclose(hel.sigma(q.p), [xi.conj().T @ s @ xi for s in PAULI])
    assert np.allclose(hel.omega(q.p), hel.omega_fd(q.p, 1e-4 * q.mag), atol=1e-6)
    with pytest.raises(ValueError):
        make_basis("nope")


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8])
def test_spinor_pair_unitary_near_pole(gap):
    # 1 + n3 = gap: the chart factor must not lose digits to cancellation
    xi = spinor_pair(_near_pole(gap))
    assert np.max(np.abs(xi.conj().T @ xi - ID2)) <= 1e-14


def _near_pole(gap: float, mag: float = 1.0) -> np.ndarray:
    # direction with 1 + n3 = gap, times mag
    n3 = -1.0 + gap
    perp = np.sqrt(1.0 - n3 * n3)
    return mag * np.array([perp * np.cos(0.3), perp * np.sin(0.3), n3])


def _omega_decimal(p) -> np.ndarray:
    """Closed-form Omega_i(p) with every coefficient evaluated at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        p1, p2, p3 = (Decimal(float(x)) for x in p)
        mag = (p1 * p1 + p2 * p2 + p3 * p3).sqrt()
        c = 1 / (2 * mag * mag * (mag + p3))
        c3 = 1 / (2 * mag * mag)
        # rows: Omega_i / i along (sigma_1, sigma_2, sigma_3)
        coef = [
            [-c * p1 * p2, -c * (mag * p3 + p2 * p2 + p3 * p3), -c * mag * p2],
            [c * (mag * p3 + p1 * p1 + p3 * p3), c * p1 * p2, c * mag * p1],
            [-c3 * p2, c3 * p1, Decimal(0)],
        ]
    coef = 1j * np.array([[float(x) for x in row] for row in coef])
    return np.einsum("ij,jab->iab", coef, PAULI)


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8])
def test_helicity_sigma_omega_near_pole(gap):
    # 1 + n3 = gap at |p| = 0.7: neither Sigma nor Omega may lose digits to
    # the cancellation in |p| + p3
    p = _near_pole(gap, 0.7)
    hel = HelicityBasis()
    sig = hel.sigma(p)
    assert np.max(np.abs(np.sum(sig @ sig, axis=0) - 3 * ID2)) <= 1e-14
    ref = _omega_decimal(p)
    assert np.max(np.abs(hel.omega(p) - ref)) / np.max(np.abs(ref)) <= 1e-14


def test_sigma_index_of_each_label():
    assert (sigma_index(0.5), sigma_index(-0.5)) == (0, 1)
    with pytest.raises(ValueError, match="sigma must be"):
        sigma_index(1.5)


def test_every_basis_derives_eta_and_sigma_from_xi():
    # a basis defines xi and Omega only; eta and Sigma are the base class's,
    # memoized and derived from xi
    for module in pkgutil.iter_modules(diracmr.__path__):
        importlib.import_module(f"diracmr.{module.name}")
    subclasses, todo = set(), [PolarizationBasis]
    while todo:
        for cls in todo.pop().__subclasses__():
            if cls.__module__.startswith("diracmr."):
                subclasses.add(cls)
                todo.append(cls)
    assert {CommonBasis, HelicityBasis} <= subclasses
    for cls in subclasses:
        assert "eta" not in vars(cls) and "sigma" not in vars(cls), cls


def _sigma_matmul(xi):
    """xi^+ sigma_i xi as the matmul chain that the entry-wise Sigma replaced."""
    x = xi[..., None, :, :]
    return dagger(x) @ PAULI @ x


def test_sigma_from_xi_entries_matches_the_matmul():
    # common basis bit for bit; helicity within 4.5e-16 absolute (2 ulps of the unit
    # entries), over |p|/m in [1e-6, 1e6] and directions next to the -e3 pole
    rng = np.random.default_rng(23)
    dirs = rng.standard_normal((400, 3))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    p = dirs * 10.0 ** rng.uniform(-6.0, 6.0, (400, 1))
    near = [_near_pole(gap, mag) for gap in (1e-4, 1e-6, 1e-8) for mag in (1e-6, 1.0, 1e6)]
    p = np.concatenate([p, near])
    common, hel = CommonBasis(), HelicityBasis()
    assert np.array_equal(common.sigma(p), _sigma_matmul(common.xi(p)))
    assert np.max(np.abs(hel.sigma(p) - _sigma_matmul(hel.xi(p)))) <= 4.5e-16
