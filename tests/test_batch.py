"""One evaluation path per quantity: a batch of momenta (or of the SL(2,C)
builders' rotation and rapidity vectors) gives the stacked single results."""

import numpy as np
import pytest

from diracmr import algebra
from diracmr.algebra import ID2, ID4, Momentum
from diracmr.associated import KERNEL_CATALOG, AssociatedFamily, commutator, d_matrix
from diracmr.operators import OPERATOR_CATALOG
from diracmr.polarization import CommonBasis, HelicityBasis
from diracmr.sampling import sample_boosts, sample_momenta

MASS = 1.3
MOMENTA = np.array([q.p for q in sample_momenta(7, MASS, seed=5, avoid_poles=True)])
BASES = {"common": CommonBasis(), "helicity": HelicityBasis()}
LAM = sample_boosts(1, seed=6)[0]
# the SL(2,C) builders of a vector (..., 3), each with its value at the zero vector
BUILDERS = {"rotation": ID4, "rotation_su2": ID2, "boost_su2": ID2, "boost_param": ID4}


def _family(fam):
    """(label, operator, component) for every component of every family of ``fam``,
    in a fixed order; the label carries the component number of a vector family."""
    vectors = [
        fam.momentum(), fam.velocity(), fam.spin(), fam.spin_plus(), fam.spin_minus(),
        fam.pauli_lubanski(), fam.position(), fam.angular(), fam.boost_orbital(),
        fam.boost_spin(), fam.position_pryce_c(), fam.position_pryce_d(), fam.y_pryce_c(),
        fam.y_pryce_d(),
    ]
    scalars = (fam.hamiltonian(), fam.pauli_lubanski0())
    entries = [(op.name, op, 0) for op in scalars]
    entries += [(f"{op.name}{i + 1}", op, i) for i in range(3) for op in vectors]
    xt = fam.position(t=0.6)
    return entries + [(f"{xt.name}{i + 1}", xt, i) for i in range(3)]


def _cases():
    # one family and one commutator serve both bases
    fam = AssociatedFamily(MASS)
    comm = commutator(fam.angular(), fam.boost_orbital())
    for name in BUILDERS:
        yield f"builder-{name}", getattr(algebra, name)
    for name, op in OPERATOR_CATALOG.items():
        yield f"operator-{name}", lambda p, op=op: op(Momentum(p, MASS))
    for bname, basis in BASES.items():
        for meth in ("xi", "eta", "sigma", "omega"):
            yield f"{bname}-{meth}", lambda p, f=getattr(basis, meth): f(Momentum(p, MASS))
        for k, (label, op, i) in enumerate(_family(fam)):
            k += k > 0  # 1 numbered the deleted Ws~: every other case keeps its name
            yield f"{bname}-{label}-{k}-mult", (
                lambda p, op=op, i=i, b=basis: op.mult_at(Momentum(p, MASS), b)[..., i, :, :]
            )
            if op.coef(Momentum(MOMENTA, MASS))[2] is not None:
                yield f"{bname}-{label}-{k}-dcoef", (
                    lambda p, op=op, i=i: op.coef(Momentum(p, MASS))[2].v[..., i, :]
                )
        # [L~_i, Ko~_j] for every pair as one stack, (..., 3, 3, 2, 2) and (..., 3, 3, 3)
        yield f"{bname}-{comm.name}-mult", (
            lambda p, basis=basis: comm.mult_at(Momentum(p, MASS), basis)
        )
        yield f"{bname}-{comm.name}-dcoef", lambda p: comm.coef(Momentum(p, MASS))[2].v
        for name, ker in KERNEL_CATALOG.items():
            yield f"kernel-{name}-{bname}", (
                lambda p, ker=ker, basis=basis: ker(Momentum(p, MASS), 0.37, basis)
            )
        yield f"d_matrix-{bname}", lambda p, basis=basis: d_matrix(LAM, Momentum(p, MASS), basis)


CASES = dict(_cases())


@pytest.mark.parametrize("case", list(CASES))
def test_batch_equals_stacked_singles(case):
    fn = CASES[case]
    batch = fn(MOMENTA)
    singles = np.stack([fn(p) for p in MOMENTA])
    assert batch.shape == singles.shape
    assert np.max(np.abs(batch - singles)) <= 1e-14 * np.max(np.abs(singles))


@pytest.mark.parametrize("name", list(BUILDERS))
def test_builder_is_exactly_the_identity_at_zero(name):
    eye = BUILDERS[name]
    zeros = np.zeros((2, 3))
    zeros[1, 0] = 0.3  # a nonzero neighbour in the batch leaves the zero row exact
    assert np.array_equal(getattr(algebra, name)(np.zeros(3)), eye)
    assert np.array_equal(getattr(algebra, name)(zeros)[0], eye)
