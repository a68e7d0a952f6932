"""Units as an exact symmetry of the associated layer and the packet statistics.

Multiplying every input by a power of two scales each +, -, *, / and sqrt exactly,
so a formula with no absolute constant gives, under (p, m, t, x, gamma) -> (lam p,
lam m, t/lam, x/lam, gamma/lam) with lam = 2^k, its result at m = 1 times lam^d for
its mass dimension d, bit for bit.  A constant hidden in one path (max(m, 1), an
absolute step, a default mass) breaks that, and these tests see it in every family
member and commutator, every catalog operator, the bases' xi, Sigma and Omega, and
every kernel.  The packet rows and ``g_integral`` sum logarithms (a log(2 gamma) in
the profile's norm, the radial rule's log-sum), which no power of two keeps exact,
so they meet lam^d within a relative bound stated up front.
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
from diracmr.wavepacket import IsotropicProfile, g_integral, packet_reports

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
    """A family at mass lam, a basis of the kind, the momenta lam P at that mass and the
    test spinor."""
    spinor = WaveSpinor(_value, _gradient)
    return AssociatedFamily(lam), make_basis(kind), Momentum(lam * P, lam), spinor


def _mismatches(kind, k, results):
    """The names in ``results`` (name -> (d, result(family, basis, q, spinor, lam))) whose
    result at lam = 2^k is not lam^d times the one at m = 1, bit for bit, with the relative
    miss; real and imaginary parts scale as reals, so each zero keeps its sign."""
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
        def result(fam, basis, q, spinor, lam):
            return _operator(fam, name, lam).apply(spinor, q, basis)

        return MEMBERS[name], result

    results = {name: action(name) for name in MEMBERS}
    assert len(results) == 16
    assert _mismatches(kind, k, results) == []


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", ("common", "helicity"))
def test_ledger_commutators_are_mass_covariant_bit_for_bit(kind, k):
    def action(a, b):
        def result(fam, basis, q, spinor, lam):
            a_op, b_op = _operator(fam, a, lam), _operator(fam, b, lam)
            return commutator_action(a_op, b_op, spinor, q, basis)

        return DIMENSION[a] + DIMENSION[b], result

    results = {f"[{a}, {b}]": action(a, b) for a, b in LEDGER_PAIRS}
    assert len(results) == 22
    assert _mismatches(kind, k, results) == []


@pytest.mark.parametrize("k", EXPONENTS)
def test_catalog_operators_are_mass_covariant_bit_for_bit(k):
    # the entries read no basis; the basis kind is unused
    def entry(name):
        return CATALOG[name], lambda fam, basis, q, spinor, lam: OPERATOR_CATALOG[name](q)

    assert list(CATALOG) == list(OPERATOR_CATALOG)
    assert _mismatches("common", k, {name: entry(name) for name in CATALOG}) == []


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", ("common", "helicity"))
def test_basis_quantities_are_mass_covariant_bit_for_bit(kind, k):
    def quantity(name):
        return BASIS[name], lambda fam, basis, q, spinor, lam: getattr(basis, name)(q)

    assert _mismatches(kind, k, {name: quantity(name) for name in BASIS}) == []


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("kind", ("common", "helicity"))
def test_kernel_table_slices_are_mass_covariant_bit_for_bit(kind, k):
    # one table of every kernel at the time T/lam, read slice by slice
    def kernel(rows, name):
        def result(fam, basis, q, spinor, lam):
            table = KernelTable(tuple(KERNEL_CATALOG.values()), q, basis)
            return table(T / lam)[..., table.slices[rows], :, :]

        return KERNELS[name], result

    assert list(KERNELS) == list(KERNEL_CATALOG)
    results = {name: kernel(i, name) for i, name in enumerate(KERNELS)}
    assert _mismatches(kind, k, results) == []


# the packet rows and G meet lam^d within these bounds, relative to each value (a
# zero must stay zero); the probe's worst over PACKETS and PACKET_EXPONENTS is 8e-15
# for the rows and 9e-16 for G
ROWS_REL, G_REL = 1e-13, 1e-14
PACKET_EXPONENTS = (-10, -5, -2, 2, 5, 10)

# each packet_reports row by its observable's first letter, with the mass dimension d
# of its expectation (its dispersion has 2d)
ROWS = {
    "H": 1,  # E
    "P": 1,  # p^i and |p|
    "V": 0,  # p^i/E and |p|/E
    "X": -1,  # x0^i + i d~
    "S": 0,  # sigma_i/2, no quadrature
    "W": 0,  # Ws = S3 along e3
    "L": 0,  # x ^ p
}

# (gamma, pbar, m, theta_s, x0) with gamma pbar > 1; gamma has dimension -1, pbar 1
# and x0 -1
PACKETS = (
    (1.0, 2.0, 1.0, 0.0, (0.0, 0.0, 0.0)),
    (0.5, 6.0, 0.7, 0.3, (0.4, -0.3, 1.2)),
    (2.0, 1.5, 1.3, 1.1, (-1.0, 0.2, 0.5)),
)

# (nu, rho, mu, m) of G = int p^(2nu-1) (p^2+m^2)^(rho-1) exp(-mu p) dp, of dimension
# 2nu + 2rho - 2 under (mu, m) -> (mu/lam, lam m)
G_ARGS = ((1.5, 0.5, 2.0, 1.0), (2.0, 1.0, 1.0, 0.7), (3.25, -0.5, 0.8, 1.3), (1.0, 2.0, 3.0, 0.0))


def _reports(packet, lam):
    gamma, pbar, m, theta_s, x0 = packet
    iso = IsotropicProfile(gamma / lam, lam * pbar, lam * m)
    return packet_reports(iso, theta_s, np.array(x0) / lam)


@pytest.mark.parametrize("k", PACKET_EXPONENTS)
@pytest.mark.parametrize("packet", range(len(PACKETS)))
def test_packet_rows_are_mass_covariant(packet, k):
    lam = 2.0**k
    unit, scaled = (_reports(PACKETS[packet], x) for x in (1.0, lam))
    assert [r.observable for r in scaled] == [r.observable for r in unit]
    assert len(unit) == 19
    bad = []
    for want, got in zip(unit, scaled):
        d = ROWS[want.observable[0]]
        for part, dim in (("expectation", d), ("dispersion", 2 * d)):
            w, g = getattr(want, part), getattr(got, part) / lam**dim
            if not abs(g - w) <= ROWS_REL * abs(w):
                bad.append((want.observable, part, w, g))
    assert bad == []


@pytest.mark.parametrize("k", PACKET_EXPONENTS)
def test_g_integral_is_mass_covariant(k):
    lam = 2.0**k
    for nu, rho, mu, m in G_ARGS:
        want = g_integral(nu, rho, mu, m)
        got = g_integral(nu, rho, mu / lam, lam * m) / lam ** (2 * nu + 2 * rho - 2)
        assert abs(got - want) <= G_REL * abs(want), (nu, rho, mu, m)
