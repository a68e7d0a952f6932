import numpy as np
import pytest

from diracmr.algebra import CCONJ, GAMMA, Momentum, boost_for_momentum
from diracmr.operators import projectors
from diracmr.polarization import CommonBasis, HelicityBasis
from diracmr.sampling import sample_momenta
from diracmr.spinors import (
    ModeSpinorField,
    dirac_residuals,
    norm_factor,
    projector_from_spinors,
    rest_spinors,
    rest_u_matrix,
    rest_v_matrix,
    u_matrix,
    u_spinor,
    v_matrix,
    v_spinor,
)

TOL = 1e-12
BASES = (CommonBasis(), HelicityBasis())


def test_rest_spinors_structure():
    basis = CommonBasis()
    q = Momentum((0.2, -0.4, 0.9))
    u0, v0 = rest_spinors(basis, q, 0.5)
    assert np.allclose(u0, np.array([1, 0, 1, 0]) / np.sqrt(2))
    assert np.allclose(GAMMA[0] @ u0, u0)
    assert np.allclose(GAMMA[0] @ v0, -v0)


def test_rest_projection_sums():
    for basis in BASES:
        for q in sample_momenta(50, 1.0, seed=21, avoid_poles=True):
            u0 = rest_u_matrix(basis, q)
            v0 = rest_v_matrix(basis, q)
            assert np.max(np.abs(u0 @ u0.conj().T - 0.5 * (np.eye(4) + GAMMA[0]))) < TOL
            assert np.max(np.abs(v0 @ v0.conj().T - 0.5 * (np.eye(4) - GAMMA[0]))) < TOL
            assert np.allclose(CCONJ @ u0.conj(), v0, atol=TOL)


def test_norm_factor_rest_value():
    assert norm_factor(Momentum(np.zeros(3), 2.2)) == 1.0


def test_boosted_spinors_solve_dirac_equation():
    for basis in BASES:
        for q in sample_momenta(100, 1.0, seed=23, avoid_poles=True):
            ru, rv = dirac_residuals(basis, q)
            assert ru < TOL
            assert rv < TOL


def test_rest_limit_of_boosted_spinors():
    basis = CommonBasis()
    q = Momentum(np.zeros(3), 1.4)
    assert np.allclose(u_matrix(basis, q), rest_u_matrix(basis, q))


def test_orthonormality_via_boost_oracle():
    # u^+ u = delta comes from n(p)^2 uring^+ l_p^2 uring = delta
    for basis in BASES:
        for q in sample_momenta(100, 0.8, seed=25, avoid_poles=True):
            lp = boost_for_momentum(q)
            u0 = rest_u_matrix(basis, q)
            oracle = (q.m / q.energy) * u0.conj().T @ lp @ lp @ u0
            assert np.max(np.abs(oracle - np.eye(2))) < TOL
            u = u_matrix(basis, q)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < TOL
            v = v_matrix(basis, q)
            assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < TOL
            # equal-time cross products vanish at opposite momenta
            assert np.max(np.abs(u.conj().T @ v_matrix(basis, q.flipped()))) < TOL


def test_charge_conjugation_involution():
    basis = HelicityBasis()
    q = Momentum((0.7, 0.2, -0.1), 1.1)
    u = u_matrix(basis, q)
    assert np.allclose(CCONJ @ (CCONJ @ u.conj()).conj(), u, atol=TOL)


def test_projector_reconstruction():
    for basis in BASES:
        for q in sample_momenta(100, 1.2, seed=27, avoid_poles=True):
            pp, pm = projector_from_spinors(basis, q)
            plus, minus = projectors(q)
            assert np.max(np.abs(pp - plus)) < TOL
            assert np.max(np.abs(pm - minus)) < TOL
            assert np.max(np.abs(pp + pm - np.eye(4))) < TOL
            assert np.max(np.abs(pp @ pm)) < TOL


def test_mode_spinor_phases():
    basis = CommonBasis()
    q = Momentum((0.3, -0.2, 0.5), 1.3)
    x = np.array([0.4, 0.1, -0.7])
    t = 0.9
    mode_u = ModeSpinorField(q, 0.5, basis, "U")
    mode_v = ModeSpinorField(q, 0.5, basis, "V")
    phase = q.energy * t - float(q.p @ x)
    two_pi_32 = (2 * np.pi) ** 1.5
    assert np.allclose(
        mode_u.at(t, x), u_spinor(basis, q, 0.5) * np.exp(-1j * phase) / two_pi_32
    )
    assert np.allclose(
        mode_v.at(t, x), v_spinor(basis, q, 0.5) * np.exp(1j * phase) / two_pi_32
    )
    with pytest.raises(ValueError):
        ModeSpinorField(q, 0.5, basis, "W")
