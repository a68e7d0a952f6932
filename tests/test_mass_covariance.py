"""Units as an exact symmetry of the associated layer.

Multiplying every input by a power of two scales each +, -, *, / and sqrt exactly,
so a formula with no absolute constant gives, under (p, m, t) -> (lam p, lam m,
t/lam) with lam = 2^k, its result at m = 1 times lam^d for its mass dimension d, bit
for bit.  A constant hidden in one path (max(m, 1), an absolute step, a default
mass) breaks that, and these tests see it in every family member and commutator,
every catalog operator, the bases' xi, Sigma and Omega, and every kernel.
"""

import numpy as np
import pytest

from diracmr.algebra import Momentum
from diracmr.associated import (
    KERNEL_CATALOG,
    AssociatedFamily,
    KernelTable,
    WaveSpinor,
    commutator_action,
)
from diracmr.operators import OPERATOR_CATALOG
from diracmr.polarization import make_basis

# |p|/m from 0.05 to 5, off the helicity chart's -e3 pole
P = np.array([[0.03, -0.04, 0.02], [0.3, 0.2, 0.5], [-0.7, 0.4, 0.1], [1.2, -2.1, 3.3]])
EXPONENTS = (-10, -2, 2, 10)
T = 0.8  # the time of the ledger's X~(t), dimension -1

_C = np.array([0.3 - 0.2j, -0.5 + 0.4j])
_A = np.array([[0.7, -0.1j, 0.2], [0.4 + 0.3j, 0.5, -0.6j]])
_B = np.array([[[0.2, 0.1j, 0.0], [0.1j, -0.3, 0.4], [0.0, 0.4, 0.1]],
               [[-0.1, 0.0, 0.3j], [0.0, 0.2, -0.2], [0.3j, -0.2, 0.5]]])


def _parts(q):
    """x = p/m, the Gaussian of x and the degree-2 polynomial of x."""
    x = q.p / q.m
    g = np.exp(-np.sum(x * x, axis=-1) / 2)[..., None]
    return x, g, _C + x @ _A.T + np.einsum("sij,...i,...j->...s", _B, x, x)


def _value(q):
    _, g, poly = _parts(q)
    return poly * g


def _gradient(q):
    """d alpha / d p^k = (d alpha / d x^k) / m, (..., 3, 2)."""
    x, g, poly = _parts(q)
    dpoly = _A.T + 2.0 * np.einsum("skj,...j->...ks", _B, x)
    return g[..., None] * (dpoly - x[..., :, None] * poly[..., None, :]) / q.m


# each no-argument member with its mass dimension d
MEMBERS = {
    "hamiltonian": 1,  # a0 = E
    "momentum": 1,  # a0 = p
    "velocity": 0,  # a0 = p/E
    "spin": 0,  # a = 1
    "spin_plus": 0,  # a = Theta
    "spin_minus": 0,  # a = Theta^-1
    "pauli_lubanski0": 1,  # a = p
    "pauli_lubanski": 1,  # a = m Theta
    "position": -1,  # D = i, on d/dp
    "angular": 0,  # D = -i e_k x p
    "boost_orbital": 0,  # a0 = i p/(2E), D = i E
    "boost_spin": 0,  # a = (e_k x p)/(E+m)
    "position_pryce_c": -1,  # a = (e_k x p)/(E(E+m)), D = i
    "position_pryce_d": -1,  # a = -(e_k x p)/(m(E+m)), D = i
    "y_pryce_c": -2,  # a = m Theta/E^3
    "y_pryce_d": -2,  # a = Theta/(m E)
}

# the 22 exact commutators of the appendix_b ledger; a pair's dimension is the sum
# of its factors', with X~(t) ("position_t") of dimension -1 like X~
LEDGER_PAIRS = (
    ("angular", "angular"), ("boost_orbital", "boost_orbital"),
    ("position_t", "position_t"), ("position_pryce_c", "position_pryce_c"),
    ("position_pryce_d", "position_pryce_d"), ("angular", "spin"),
    ("angular", "boost_orbital"), ("boost_orbital", "boost_spin"),
    ("boost_orbital", "position"), ("boost_orbital", "velocity"), ("position", "velocity"),
    ("angular", "position_t"), ("spin", "position_t"), ("boost_spin", "position"),
    ("position", "pauli_lubanski"), ("angular", "momentum"), ("boost_orbital", "momentum"),
    ("position", "momentum"), ("angular", "hamiltonian"), ("boost_orbital", "hamiltonian"),
    ("position", "hamiltonian"), ("position", "pauli_lubanski0"),
)
DIMENSION = {**MEMBERS, "position_t": -1}

# each OPERATOR_CATALOG entry with its mass dimension d
CATALOG = {
    "h_dirac": 1,  # m gamma^0 + gamma^0 gamma.p
    "projector_plus": 0,  # (1 + H_D/E)/2
    "projector_minus": 0,  # (1 - H_D/E)/2
    "n_op": 0,  # H_D/E
    "pryce_e_spin": 0,  # (m/E) s + p (s.p)/(E(E+m)) + (i/2E) p ^ gamma
    "delta_x": -1,  # i gamma/(2E) + ...
    "chakrabarti": 0,  # l_p s l_p^-1
    "frankel_spin": 0,  # s + (i/2m) p ^ gamma
    "pc_spin": 0,  # (m/E)^2 s + ...
    "fradkin_good": 0,  # gamma^0 s + (p (p.s)/p^2)(H_D/E - gamma^0)
    "spin_plus": 0,  # Theta S
    "pauli_lubanski": 1,  # m L_p S
    "pauli_dirac_spin": 0,  # s, a constant
    "gamma5": 0,
    "gamma0": 0,
    "gamma0_gamma5": 0,
    "fw_generator": 0,  # -i gamma, a constant
}

# a basis's quantities with their mass dimension d: Omega_i = xi^+ d_i xi ~ 1/|p|
BASIS = {"xi": 0, "sigma": 0, "omega": -1}

# each kernel with the mass dimension d of its coefficients C; B = xi^+ sigma eta(-p)
# is a pure number, and so is the phase exp(2iEt) at the time t/lam
KERNELS = {
    "delta_x_osc": -1,  # -(i/2E) Theta^-1
    "axial_current_osc": 0,  # (i/E) eps.p
    "fw_generator_osc": 0,  # (i m/E) Theta
    "chakrabarti_osc": 0,  # (i/m) eps.p
    "scalar_charge_osc": 1,  # -p
    "pseudoscalar_osc": 0,  # a constant
}


def _operator(family, name, lam):
    if name == "position_t":
        return family.position(t=T / lam)
    return getattr(family, name)()


def _at(kind, lam):
    """A family at mass lam, the momenta lam P at that mass and the test spinor."""
    spinor = WaveSpinor(_value, _gradient)
    return AssociatedFamily(lam, make_basis(kind)), Momentum(lam * P, lam), spinor


def _mismatches(kind, k, results):
    """The names in ``results`` (name -> (d, result(family, q, spinor, lam))) whose result
    at lam = 2^k is not lam^d times the one at m = 1, bit for bit, with the relative miss;
    real and imaginary parts scale as reals, so each zero keeps its sign."""
    lam = 2.0**k
    unit, scaled = _at(kind, 1.0), _at(kind, lam)
    bad = []
    for name, (dim, result) in results.items():
        # contiguous copies: a constant result may be a broadcast view
        want, got = (np.ascontiguousarray(r) for r in (result(*unit, 1.0), result(*scaled, lam)))
        scale = lam**dim
        if got.shape != want.shape or got.view(float).tobytes() != (scale * want.view(float)).tobytes():
            bad.append((name, float(np.max(np.abs(got / scale - want)) / np.max(np.abs(want)))))
    return bad


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", ("common", "helicity"))
def test_members_are_mass_covariant_bit_for_bit(kind, k):
    def action(name):
        def result(fam, q, spinor, lam):
            return _operator(fam, name, lam).apply(spinor, q)

        return MEMBERS[name], result

    results = {name: action(name) for name in MEMBERS}
    assert len(results) == 16
    assert _mismatches(kind, k, results) == []


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", ("common", "helicity"))
def test_ledger_commutators_are_mass_covariant_bit_for_bit(kind, k):
    def action(a, b):
        def result(fam, q, spinor, lam):
            return commutator_action(_operator(fam, a, lam), _operator(fam, b, lam), spinor, q)

        return DIMENSION[a] + DIMENSION[b], result

    results = {f"[{a}, {b}]": action(a, b) for a, b in LEDGER_PAIRS}
    assert len(results) == 22
    assert _mismatches(kind, k, results) == []


@pytest.mark.parametrize("k", EXPONENTS)
def test_catalog_operators_are_mass_covariant_bit_for_bit(k):
    # the entries read no basis; the family's basis kind is unused
    def entry(name):
        return CATALOG[name], lambda fam, q, spinor, lam: OPERATOR_CATALOG[name](q)

    assert list(CATALOG) == list(OPERATOR_CATALOG)
    assert _mismatches("common", k, {name: entry(name) for name in CATALOG}) == []


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", ("common", "helicity"))
def test_basis_quantities_are_mass_covariant_bit_for_bit(kind, k):
    def quantity(name):
        return BASIS[name], lambda fam, q, spinor, lam: getattr(fam.basis, name)(q)

    assert _mismatches(kind, k, {name: quantity(name) for name in BASIS}) == []


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", ("common", "helicity"))
def test_kernel_table_slices_are_mass_covariant_bit_for_bit(kind, k):
    # one table of every kernel at the time T/lam, read slice by slice
    def kernel(rows, name):
        def result(fam, q, spinor, lam):
            table = KernelTable(tuple(KERNEL_CATALOG.values()), q, fam.basis)
            return table(T / lam)[..., table.slices[rows], :, :]

        return KERNELS[name], result

    assert list(KERNELS) == list(KERNEL_CATALOG)
    results = {name: kernel(i, name) for i, name in enumerate(KERNELS)}
    assert _mismatches(kind, k, results) == []
