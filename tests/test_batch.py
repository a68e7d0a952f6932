"""One evaluation path per quantity: a batch of momenta gives the stacked
single-momentum results."""

import numpy as np
import pytest

from diracmr.algebra import Momentum
from diracmr.associated import KERNEL_CATALOG, AssociatedFamily, d_matrix
from diracmr.operators import OPERATOR_CATALOG
from diracmr.polarization import CommonBasis, HelicityBasis
from diracmr.sampling import sample_boosts, sample_momenta

MASS = 1.3
MOMENTA = np.array([q.p for q in sample_momenta(7, MASS, seed=5, avoid_poles=True)])
BASES = {"common": CommonBasis(), "helicity": HelicityBasis()}
LAM = sample_boosts(1, seed=6)[0]


def _family(basis):
    fam = AssociatedFamily(MASS, basis)
    ops = [fam.hamiltonian(), fam.polarization(), fam.pauli_lubanski0()]
    for i in range(3):
        ops += [
            fam.momentum(i), fam.velocity(i), fam.spin(i), fam.spin_plus(i),
            fam.spin_minus(i), fam.pauli_lubanski(i), fam.position(i),
            fam.angular(i), fam.boost_orbital(i), fam.boost_spin(i),
            fam.position_pryce_c(i), fam.position_pryce_d(i), fam.y_pryce_c(i),
            fam.y_pryce_d(i),
        ]
    ops += [fam.position(i, t=0.6) for i in range(3)]
    return ops


def _cases():
    for name, op in OPERATOR_CATALOG.items():
        yield f"operator-{name}", lambda p, op=op: op(Momentum(p, MASS))
    for bname, basis in BASES.items():
        for meth in ("xi", "eta", "sigma", "omega"):
            yield f"{bname}-{meth}", getattr(basis, meth)
        for k, op in enumerate(_family(basis)):
            yield f"{bname}-{op.name}-{k}-mult", op.mult_at
            if op.coef(MOMENTA)[2] is not None:
                yield f"{bname}-{op.name}-{k}-dcoef", lambda p, op=op: op.coef(p)[2].v
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
