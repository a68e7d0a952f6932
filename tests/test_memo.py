"""Evaluations kept on the momentum batch: bases, mode spinors, Fourier operators,
the two image frames (u/u and u(p)/v(-p)), the kernels' pair frame, operator
coefficients and wave spinors each evaluate a ``Momentum`` batch once and keep the
result on it while both the batch and the owner live, and refuse anything else; a
memoized result is the fresh evaluation bit for bit; the verify suites of one seed
share their draws."""

import functools
import gc
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from diracmr import associated, operators, spinors, verify
from diracmr.algebra import (
    Momentum,
    boost_for_momentum,
    central_gradient,
    foldy_wouthuysen,
    lorentz_boost_matrix,
    memoized,
    theta_tensor,
)
from diracmr.associated import (
    KERNEL_CATALOG,
    AssociatedFamily,
    AssociatedOperator,
    Jet,
    KernelTable,
    OperatorStack,
    WaveSpinor,
    _diag_frame,
    _offdiag_frame,
    _pair_bilinears,
    charge_conjugated,
    commutator,
    gaussian_test_spinor,
)
from diracmr.operators import OPERATOR_CATALOG, FourierOperator
from diracmr.polarization import HelicityBasis, PoleError, make_basis
from diracmr.sampling import make_rng
from diracmr.spinors import u_matrix, v_matrix

MASS = 1.3
DIRECTIONS = np.array([[0.3, -0.5, 0.8], [-0.6, 0.2, 0.1], [0.1, 0.9, -0.4]])
DIRECTIONS /= np.linalg.norm(DIRECTIONS, axis=-1, keepdims=True)


def _batch(ratio, scale=1.0):
    """Three momenta off the helicity pole with |p|/m = ratio * scale."""
    return ratio * scale * MASS * DIRECTIONS


def _momentum(ratio, scale=1.0):
    """``_batch`` as a fresh ``Momentum`` batch at MASS."""
    return Momentum(_batch(ratio, scale), MASS)


def _value_only_spinor():
    """A wave spinor without an analytic gradient: its gradient is the FD fallback."""
    return WaveSpinor(gaussian_test_spinor(make_rng(5))._fn)


def _fresh_operator(name):
    """A catalog entry's function as an owner of its own; the basis kind is unused."""
    return lambda kind: FourierOperator(OPERATOR_CATALOG[name].func)


def _fresh_member(name):
    """A family member as an owner of its own; its coefficients carry no basis, so
    the basis kind is unused."""
    return lambda kind: getattr(AssociatedFamily(MASS), name)()


def _coef(owner, q):
    return owner.coef(q)


def _value(spinor, q):
    return spinor.value(q)


def _gradient(spinor, q):
    return spinor.gradient(q)


def _alone(fn, q):
    return fn(q)


# the functions of a batch alone: each is its own owner
ALONE = (
    boost_for_momentum, theta_tensor, lorentz_boost_matrix, foldy_wouthuysen,
    operators.projectors, operators.auxiliary_spins,
)


# quantity -> (fresh owner in a basis kind, evaluation on an owner at a batch q)
OWNERS = {
    "xi": (make_basis, lambda b, q: b.xi(q)),
    "eta": (make_basis, lambda b, q: b.eta(q)),
    "sigma": (make_basis, lambda b, q: b.sigma(q)),
    "omega": (make_basis, lambda b, q: b.omega(q)),
    "u": (make_basis, u_matrix),
    "v": (make_basis, v_matrix),
    "coef_boost": (_fresh_member("boost_orbital"), _coef),
    "coef_pryce_c": (_fresh_member("position_pryce_c"), _coef),
    "value": (lambda k: gaussian_test_spinor(make_rng(3)), _value),
    "gradient": (lambda k: gaussian_test_spinor(make_rng(3)), _gradient),
    "gradient_fd": (lambda k: _value_only_spinor(), _gradient),
    "pair_frame": (make_basis, _pair_bilinears),
    "diag_frames": (make_basis, _diag_frame),
    "offdiag_frames": (make_basis, _offdiag_frame),
    "charge_conjugated": (_fresh_operator("h_dirac"), charge_conjugated),
    **{f"batch_{fn.__name__}": (lambda kind, fn=fn: fn, _alone) for fn in ALONE},
    **{
        f"operator_{name}": (_fresh_operator(name), lambda op, q: op(q))
        for name in OPERATOR_CATALOG
    },
}
KINDS = ("common", "helicity")


def _arrays(x) -> list:
    """Every array of a result, in order; None marks a part that vanishes."""
    if isinstance(x, Jet):
        return _arrays(x.v) + _arrays(x.d)
    if isinstance(x, tuple):
        return [a for y in x for a in _arrays(y)]
    return [x]


def _same_bits(x, y) -> bool:
    xs, ys = _arrays(x), _arrays(y)
    return len(xs) == len(ys) and all(
        (a is None and b is None)
        or (a is not None and b is not None and a.shape == b.shape and a.dtype == b.dtype
            and a.tobytes() == b.tobytes())
        for a, b in zip(xs, ys)
    )


def _batch_masses(monkeypatch) -> list:
    """A list that gains the mass of every ``Momentum`` made from now on."""
    made, init = [], Momentum.__post_init__

    def recorded(self):
        made.append(self.m)
        init(self)

    monkeypatch.setattr(Momentum, "__post_init__", recorded)
    return made


def _refusing():
    """(label, function of a momentum) for every kind of owner of one."""
    for kind in KINDS:
        basis = make_basis(kind)
        for meth in ("xi", "eta", "sigma", "omega"):
            yield f"{kind}-{meth}", getattr(basis, meth)
    basis, spinor = HelicityBasis(), gaussian_test_spinor(make_rng(3))
    yield "u_matrix", functools.partial(u_matrix, basis)
    # the functions of a batch alone run the same check
    for fn in ALONE:
        yield fn.__name__, fn
    yield "kernel", lambda q: KERNEL_CATALOG["delta_x_osc"](q, 0.1, basis)
    yield "kernel_table", lambda q: KernelTable(tuple(KERNEL_CATALOG.values()), q, basis)
    yield "catalog_entry", OPERATOR_CATALOG["pryce_e_spin"]
    yield "wave_spinor", spinor.value
    fam = AssociatedFamily(MASS)
    for label, op in (
        ("member", fam.boost_orbital()),
        ("commutator", commutator(fam.angular(), fam.boost_orbital())),
        ("stack", OperatorStack(fam.spin(), fam.position())),
    ):
        yield f"{label}-coef", op.coef
        yield f"{label}-mult_at", lambda q, op=op: op.mult_at(q, basis)
        yield f"{label}-apply", lambda q, op=op: op.apply(spinor, q, basis)


REFUSING = dict(_refusing())


@pytest.mark.parametrize("function", REFUSING)
def test_an_array_is_refused_and_no_batch_is_made(function, monkeypatch):
    # a bare array carries no mass: every function of a momentum refuses it, a
    # single momentum and a batch alike, and makes no Momentum of it
    made = _batch_masses(monkeypatch)
    for bare in (_batch(1.0)[0], _batch(1.0), _batch(1.0).tolist()):
        with pytest.raises(TypeError, match=r"Momentum\(p, m\)"):
            REFUSING[function](bare)
    assert not made


@pytest.mark.parametrize("fn", ALONE, ids=lambda fn: fn.__name__)
def test_a_function_of_the_batch_alone_refuses_an_array_in_its_own_name(fn):
    # the message names the function, not the memo's wrapper
    message = rf"^{fn.__wrapped__.__name__} takes a batch Momentum\(p, m\), not ndarray$"
    with pytest.raises(TypeError, match=message):
        fn(_batch(1.0))


@pytest.mark.parametrize("ratio", (1e-6, 1.0, 1e6))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("quantity", OWNERS)
def test_memoized_equals_fresh_bit_for_bit(quantity, kind, ratio):
    make, evaluate = OWNERS[quantity]
    owner = make(kind)
    q, other = _momentum(ratio), _momentum(ratio, 1.1)  # two batches of one shape
    first = evaluate(owner, q)
    at_other = evaluate(owner, other)
    again = evaluate(owner, q)
    # a fresh owner on a fresh batch evaluates everything anew
    assert _same_bits(first, evaluate(make(kind), _momentum(ratio)))
    assert _same_bits(at_other, evaluate(make(kind), _momentum(ratio, 1.1)))
    assert _same_bits(again, first)


@pytest.mark.parametrize("ratio", (1e-6, 1.0, 1e6))
@pytest.mark.parametrize("name", OPERATOR_CATALOG)
def test_catalog_entry_equals_its_function_bit_for_bit(name, ratio):
    entry, q = OPERATOR_CATALOG[name], _momentum(ratio)
    fresh = entry.func(_momentum(ratio))
    for _ in range(2):  # evaluated, then read from the batch
        assert _same_bits(entry(q), fresh)


@pytest.mark.parametrize("name", OPERATOR_CATALOG)
def test_operator_keeps_each_mass_apart(name):
    op, p = _fresh_operator(name)("common"), _batch(1.0)
    batches = {m: Momentum(p, m) for m in (MASS, 0.7)}
    for m in (MASS, 0.7, MASS, 0.7):
        assert _same_bits(op(batches[m]), op.func(Momentum(p, m)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("quantity", OWNERS)
def test_results_are_read_only(quantity, kind):
    make, evaluate = OWNERS[quantity]
    owner, q = make(kind), _momentum(1.0)
    for result in (evaluate(owner, q), evaluate(owner, q)):
        arrays = [a for a in _arrays(result) if a is not None]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][...] = 0.0


def test_owners_never_share_an_entry():
    p = _batch(1.0)
    q = Momentum(p, MASS)
    # two helicity bases: each evaluates on its own
    b1, b2 = HelicityBasis(), HelicityBasis()
    u1 = u_matrix(b1, q)
    u2 = u_matrix(b2, q)
    assert u2 is not u1 and _same_bits(u1, u2) and u_matrix(b1, q) is u1
    # operators made and dropped in turn at one batch: each reads its own mass
    for m in (0.5, 2.0, 1.0) * 10:
        op = AssociatedFamily(m).spin_plus()
        theta = np.swapaxes(theta_tensor(Momentum(p, m))[0], -1, -2)
        assert np.max(np.abs(op.coef(q)[1].v - theta)) < 1e-12
        del op
    for seed in range(20):
        spinor = gaussian_test_spinor(make_rng(seed))
        assert _same_bits(spinor.value(q), np.asarray(spinor._fn(Momentum(p, MASS)), dtype=complex))
        del spinor


def test_batch_owns_its_flip_its_per_component_view_and_its_evaluations():
    p = _batch(1.0)
    q = Momentum(p, MASS)
    assert q.flipped() is q.flipped() and q.flipped().flipped() is q
    assert np.array_equal(q.flipped().p, -p) and q.flipped().m == MASS
    assert q.per_component is q.per_component and q.per_component.p.shape == (3, 1, 3)
    assert not q.p.flags.writeable and not np.shares_memory(q.p, p)
    basis = HelicityBasis()
    op, spinor = AssociatedFamily(MASS).spin(), gaussian_test_spinor(make_rng(3))
    owned = (vars(basis).copy(), vars(op).copy(), vars(spinor).copy())
    results = [
        basis.sigma(q), u_matrix(basis, q.flipped()), op.coef(q)[1].v, spinor.gradient(q),
        OPERATOR_CATALOG["n_op"](q.per_component), _pair_bilinears(basis, q),
    ]
    refs = [weakref.ref(r) for r in results]
    flip = weakref.ref(q.flipped())
    gc.disable()  # no reference cycle: dropping the batch frees what it kept
    try:
        del results, q
        assert all(r() is None for r in refs) and flip() is None
    finally:
        gc.enable()
    assert (vars(basis), vars(op), vars(spinor)) == owned  # no owner kept anything
    # and an owner's death drops what it evaluated on a batch that lives on
    q = Momentum(p, MASS)
    op = AssociatedFamily(MASS).spin()
    kept = weakref.ref(op.coef(q)[1].v)
    gc.disable()
    try:
        del op
        assert kept() is None and basis.sigma(q) is basis.sigma(q)
    finally:
        gc.enable()
    # a flip that outlives its batch makes a new one, which it then keeps
    flipped = Momentum(p, MASS).flipped()
    again = flipped.flipped()
    assert np.array_equal(again.p, p) and flipped.flipped() is again and again.flipped() is flipped


@pytest.mark.parametrize("quantity", OWNERS)
def test_owner_keeps_at_most_memo_batches(quantity):
    # the batches keep an owner's evaluations, so after 100 batches the owner holds
    # nothing of them and only the batch still alive holds its result
    make, evaluate = OWNERS[quantity]
    owner = make("helicity")
    owned, refs = vars(owner).copy(), []
    gc.disable()  # a dropped batch frees its results without the cycle collector
    try:
        for k in range(100):
            q = _momentum(1.0, 1.0 + 0.01 * k)
            last = evaluate(owner, q)
            refs.append(weakref.ref(next(a for a in _arrays(last) if a is not None)))
        assert all(r() is None for r in refs[:-1]) and refs[-1]() is not None
    finally:
        gc.enable()
    assert vars(owner) == owned
    assert evaluate(owner, q) is last  # the latest batch is kept


def test_grid_sized_batch_is_neither_hashed_nor_kept():
    n = 110_592  # the wigner suite's quadrature grid
    grid = np.random.default_rng(1).normal(size=(n, 3))
    out = np.zeros((n, 2), dtype=complex)
    spinor, basis, q = WaveSpinor(lambda p: out), HelicityBasis(), Momentum(grid)
    tracemalloc.start()
    try:
        spinor.value(q)  # returns a view of ``out``: nothing to allocate, no key to make
        before, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(TypeError, match=r"Momentum\(p, m\)"):
            basis.xi(grid)  # an array is refused before any batch is made of it
        refused = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < grid.nbytes / 4  # a key would copy the 2.7 MB grid
    assert refused < 64 * 1024  # xi on the grid is 3.5 MB, a batch of the array 2.7 MB
    assert vars(basis) == {} and spinor.value(q) is spinor.value(q)


@pytest.mark.parametrize("quantity", OWNERS)
def test_batch_over_the_cap_is_not_kept(quantity, monkeypatch):
    # no size cap: an array of any size, here one over the 4096 momenta that bounded
    # the byte-keyed memo, is refused, and no batch is made of it; a Momentum batch
    # of that size keeps its result like any other
    make, evaluate = OWNERS[quantity]
    owner, p = make("helicity"), np.resize(_batch(1.0), (4097, 3))
    owned = vars(owner).copy()
    made = _batch_masses(monkeypatch)
    for _ in range(2):
        with pytest.raises(TypeError, match=r"Momentum\(p, m\)"):
            evaluate(owner, p)
    assert not made and vars(owner) == owned
    q = Momentum(p, MASS)
    assert evaluate(owner, q) is evaluate(owner, q)


def test_pole_error_is_raised_again():
    basis, pole = HelicityBasis(), Momentum(np.array([[0.3, 0.2, 0.5], [0.0, 0.0, -1.0]]), MASS)
    kernel = KERNEL_CATALOG["delta_x_osc"]
    for _ in range(2):
        with pytest.raises(PoleError):
            basis.xi(pole)
        with pytest.raises(PoleError):
            u_matrix(basis, pole)
        with pytest.raises(PoleError):
            _pair_bilinears(basis, pole)
        with pytest.raises(PoleError):
            kernel(pole, 0.3, basis)
    assert not pole._evaluations and not pole.flipped()._evaluations


def test_appendix_b_differentiates_each_composite_once(monkeypatch):
    # the nested-FD oracle differentiates the stacked actions of its 13 operators
    # in one stencil pass
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return central_gradient(*args, **kwargs)

    monkeypatch.setattr(verify, "central_gradient", counted)
    results = verify.run_suite("appendix_b", 1, 3)
    assert results and all(r.passed for r in results)
    assert len(calls) == 1


def test_appendix_b_applies_each_stack_once(monkeypatch):
    # one stacked apply to the test spinors, one stencil pass and one apply to
    # the oracle's composite, and one apply per exact commutator (22)
    calls = []
    apply = AssociatedOperator.apply

    def counted(self, *args, **kwargs):
        calls.append(self)
        return apply(self, *args, **kwargs)

    monkeypatch.setattr(AssociatedOperator, "apply", counted)
    results = verify.run_suite("appendix_b", 1, 3)
    assert results and all(r.passed for r in results)
    assert len(calls) == 25
    assert sum(isinstance(op, OperatorStack) for op in calls) == 3


def test_appendix_b_stacks_each_batch_once(monkeypatch):
    # at one momentum: the multipliers' values, the two commutator factors' jets
    # and the applied stack's values at the draw, read by the common basis and by
    # the oracle's composite too, and the oracle's members' values on its stencil
    runs = []
    formula = OperatorStack.formula

    def counted(self, q, partials=True):
        runs.append((len(self.members), q.p.shape[:-1], partials))
        return formula(self, q, partials)

    monkeypatch.setattr(OperatorStack, "formula", counted)
    verify._draws.cache_clear()
    results = verify.run_suite("appendix_b", 1, 3)
    assert results and all(r.passed for r in results)
    assert runs == [(6, (1,), False), (2, (1,), True), (4, (1,), True), (16, (1,), False),
                    (13, (1, 12), False)]


def _count_evaluations(monkeypatch, suite):
    """Run ``suite`` at samples 1, seed 3 on fresh draws and return the (mass, batch)
    of every jet-primitive evaluation and the (member, batch) of every member
    coefficient evaluation; after each ``apply`` and ``mult_at``, no live batch may
    hold an entry a commutator owns."""
    primitives, members, batches = [], [], []
    at, coef = associated._Jets.at.__wrapped__, associated._Member.coef.__wrapped__

    def counted_at(jets, q):
        primitives.append((jets.m, q))
        return at(jets, q)

    def counted_coef(member, q):
        members.append((member, q))
        return coef(member, q)

    init = Momentum.__post_init__

    def recorded(self):
        batches.append(weakref.ref(self))
        init(self)

    def checked(method):
        def run(self, *args):
            out = method(self, *args)
            owners = [
                owner() for ref in batches if ref() is not None
                for owner, _ in ref()._evaluations.values()
            ]
            assert not any(isinstance(o, associated._Commutator) for o in owners), self.name
            return out

        return run

    monkeypatch.setattr(associated._Jets, "at", memoized(counted_at))
    monkeypatch.setattr(associated._Member, "coef", memoized(counted_coef))
    monkeypatch.setattr(Momentum, "__post_init__", recorded)
    for name in ("apply", "mult_at"):
        monkeypatch.setattr(AssociatedOperator, name, checked(vars(AssociatedOperator)[name]))
    verify._draws.cache_clear()
    results = verify.run_suite(suite, 1, 3)
    assert results and all(r.passed for r in results)
    return primitives, members


def test_appendix_b_evaluates_each_coefficient_once_per_batch(monkeypatch):
    # one family serves both bases: the jet primitives once per (family mass,
    # batch), each member's coefficients once per batch across both bases (16
    # members at the draw, 13 on the oracle's stencil), and no commutator keeps an
    # entry on a batch
    primitives, members = _count_evaluations(monkeypatch, "appendix_b")
    assert len({(m, id(q)) for m, q in primitives}) == len(primitives) == 2
    assert {m for m, _ in primitives} == {1.0}
    assert len({(id(op), id(q)) for op, q in members}) == len(members) == 29
    assert len({id(q) for _, q in members}) == 2


def test_associated_suite_evaluates_each_coefficient_once_per_batch(monkeypatch):
    # the multipliers of H~, W~0, S~, S~(+), W~ and Ks~ in both bases: one set of
    # jet primitives and each member's coefficients once, all on the suite's draw
    primitives, members = _count_evaluations(monkeypatch, "associated")
    assert len(primitives) == 1 and primitives[0][0] == 1.0
    assert len({id(op) for op, _ in members}) == len(members) == 6
    assert {id(q) for _, q in members} == {id(primitives[0][1])}


def test_result_does_not_follow_later_writes_to_the_batch():
    # P~'s a0 is p itself: the batch holds its own copy of the caller's array
    op, p = AssociatedFamily(MASS).momentum(), _batch(1.0)
    q = Momentum(p, MASS)
    a0 = op.coef(q)[0].v
    saved = a0.copy()
    p *= 2.0
    assert np.array_equal(a0, saved)
    assert op.coef(q)[0].v is a0


class _Toy:
    """An owner that records what its ``@memoized`` functions receive."""

    def __init__(self):
        self.seen = []

    @memoized
    def energy(self, q):
        self.seen.append(q)
        return q.energy


def test_momentum_is_evaluated_at_its_mass_over_a_read_only_copy():
    toy, p = _Toy(), _batch(1.0)
    batches = [Momentum(p, m) for m in (MASS, 0.7)]
    for q in batches * 2:
        assert _same_bits(toy.energy(q), Momentum(p, q.m).energy)
    # two masses, two batches, each evaluated once and handed to fn itself
    assert len(toy.seen) == 2 and all(x is q for x, q in zip(toy.seen, batches))
    for q in toy.seen:
        assert not q.p.flags.writeable and not np.shares_memory(q.p, p)
    # an array carries no mass: it is refused, and fn never runs
    for bare in (p, p.tolist(), None):
        with pytest.raises(TypeError, match=r"_Toy.energy takes a batch Momentum\(p, m\)"):
            toy.energy(bare)
    assert len(toy.seen) == 2


def test_kernels_suite_evaluates_the_projectors_once_each(monkeypatch):
    # phase_reference and decompose_diag_osc read Pi+/- from the catalog entries,
    # so a fresh batch costs one ``projectors`` call per entry
    calls, projectors = [], operators.projectors

    def counted(q):
        calls.append(q)
        return projectors(q)

    for name in ("projector_plus", "projector_minus"):  # fresh owners
        monkeypatch.setitem(OPERATOR_CATALOG, name, FourierOperator(OPERATOR_CATALOG[name].func))
    for module in (operators, associated, verify):  # every binding in the package
        if vars(module).get("projectors") is projectors:
            monkeypatch.setattr(module, "projectors", counted)
    results = verify.run_suite("kernels", 20, 13)
    assert results and all(r.passed for r in results)
    assert len(calls) == 2


def test_associated_suite_forms_one_charge_conjugate(monkeypatch):
    # one conjugate of the stacked imaged and parity-checked entries serves both
    # bases' A~(-) images and the C-parity line
    calls, conjugate = [], associated.charge_conjugate

    def counted(a):
        calls.append(a.shape)
        return conjugate(a)

    for module in (associated, verify):  # every binding in the package
        if vars(module).get("charge_conjugate") is conjugate:
            monkeypatch.setattr(module, "charge_conjugate", counted)
    verify._draws.cache_clear()
    results = verify.run_suite("associated", 20, 5)
    assert results and all(r.passed for r in results)
    assert calls == [(20, 38, 4, 4)]


def test_wigner_suite_forms_the_boosts_little_group_once(monkeypatch):
    # the w_* lines and both bases' d_unitary read one little group of the 50 boosts
    # at the first 5 momenta, so one (50, 5) batch p' is made for it
    made, init = [], Momentum.__post_init__

    def recorded(self):
        made.append((sys._getframe(2).f_code.co_name, self.p.shape))
        init(self)

    monkeypatch.setattr(Momentum, "__post_init__", recorded)
    results = verify.run_suite("wigner", 20, 7)
    assert results and all(r.passed for r in results)
    assert made.count(("wigner_little_group", (50, 5, 3))) == 1


# the suites of one operation of the identities benchmark workload
IDENTITIES = (
    "clifford", "boosts", "projectors", "pryce_spin", "spin_types",
    "pauli_lubanski", "associated", "kernels",
)


def test_identities_suites_draw_and_evaluate_each_batch_once(monkeypatch):
    # seven of the eight suites draw momenta, all of them one draw; the Pryce(e)
    # spin is read at two batches (p and -p of the draw) and the mode spinors in
    # two bases at p and -p: each is one evaluation.  H_D and the Pryce(c) spin are
    # read only through their entries (by N, Pi+/-, the spin types and the
    # C-parity check too): the Pryce(c) spin at two batches and H_D at five (p and
    # -p of the draw, pryce_spin's FD subset and witness, spin_types'
    # per-component view), each exactly once
    draws, modes = [], []
    entry_logs = {"pryce_e_spin": [], "h_dirac": [], "pc_spin": []}
    direct = []
    draw, rest_u = verify.sample_momenta, spinors.rest_u_matrix

    def counted_draw(*args, **kwargs):
        draws.append((args, kwargs))
        return draw(*args, **kwargs)

    def counted(log, fn):
        def evaluate(q):
            log.append((q.p.shape, q.p.tobytes(), q.m))
            return fn(q)
        return evaluate

    def counted_rest_u(basis, q):  # one call per u_matrix evaluation
        modes.append((id(basis), q.p.shape, q.p.tobytes()))
        return rest_u(basis, q)

    for name, entry in OPERATOR_CATALOG.items():  # fresh owners
        func = counted(entry_logs[name], entry.func) if name in entry_logs else entry.func
        monkeypatch.setitem(OPERATOR_CATALOG, name, FourierOperator(func))
    for fn in ("pryce_e_spin", "dirac_hamiltonian", "pc_spin"):
        original = vars(operators)[fn]
        for module in (operators, associated, verify):  # every binding in the package
            if vars(module).get(fn) is original:
                monkeypatch.setattr(module, fn, counted(direct, original))
    monkeypatch.setattr(verify, "sample_momenta", counted_draw)
    monkeypatch.setattr(spinors, "rest_u_matrix", counted_rest_u)
    # the helicity chart is checked at p and -p of the draw and on the one stencil
    # batch from which suite_associated differentiates both Sigma and Omega
    charts, checked = [], HelicityBasis._checked.__wrapped__

    def counted_checked(basis, q):
        charts.append((q.p.shape, q.p.tobytes()))
        return checked(basis, q)

    monkeypatch.setattr(HelicityBasis, "_checked", memoized(counted_checked))
    verify._draws.cache_clear()
    for suite in IDENTITIES:
        results = verify.run_suite(suite, 20, 11, 0.5)
        assert results and all(r.passed for r in results)
    assert len(draws) == 1
    assert len(modes) == len(set(modes)) == 4
    assert len(charts) == len(set(charts)) == 3
    assert not direct
    spins, h, pc = entry_logs["pryce_e_spin"], entry_logs["h_dirac"], entry_logs["pc_spin"]
    assert len(spins) == len(set(spins)) == 2
    assert len(pc) == len(set(pc)) == 2
    assert len(h) == len(set(h)) == 5


def test_suites_make_every_batch_at_the_mass_asked(monkeypatch):
    # every batch the suites make, stencils and quadrature grids included, is at the
    # mass of the run: no evaluation wraps an array as a batch at the default mass
    masses = _batch_masses(monkeypatch)
    verify._draws.cache_clear()
    results = verify.run_suite("all", samples=20, seed=7, mass=2.0)
    assert results and all(r.passed for r in results)
    assert masses and set(masses) == {2.0}


@pytest.mark.parametrize("seed", (1, 3))
def test_suites_give_the_same_residuals_in_either_order(seed):
    # the suites share bases, catalog entries and draws; what one leaves on a
    # batch is what the next would compute itself, so the order changes no bit
    def residuals(names):
        verify._draws.cache_clear()
        return {name: [(r.name, r.residual) for r in verify.run_suite(name, 20, seed)] for name in names}

    forward = residuals(list(verify.SUITES))
    assert residuals(reversed(list(verify.SUITES))) == forward


def test_sampled_batch_is_drawn_once_and_read_only():
    verify._draws.cache_clear()
    q = verify._sampled(20, 0.5, 11, avoid_poles=True)
    assert verify._sampled(20, 0.5, 11, avoid_poles=True) is q
    assert verify._sampled(20, 0.5, 11) is not q
    expected = np.array([k.p for k in verify.sample_momenta(20, 0.5, 11, avoid_poles=True)])
    assert np.array_equal(q.p, expected) and q.m == 0.5
    assert not q.p.flags.writeable
    # the draws of one seed last until a draw at another seed or mass
    ref = weakref.ref(q)
    del q
    verify._sampled(20, 0.5, 12)
    assert ref() is None


def test_identities_form_each_function_of_a_batch_once_per_batch(monkeypatch):
    # one identities operation: each function of a batch alone evaluates once per
    # distinct batch (l_p on 7, Theta and L_p on 2, the FW transformation on 3, the
    # projectors on 4 and the Theta-contracted spins on 2); the projector form of the
    # Pryce(e) spin reads s_i(+-p) from the Chakrabarti entry and adds no evaluation
    # of chakrabarti_spin
    logs = {fn.__name__: [] for fn in ALONE}
    modules = [m for name, m in sys.modules.items() if name.startswith("diracmr")]
    for fn in ALONE:
        log, raw = logs[fn.__name__], fn.__wrapped__

        def counted(q, log=log, raw=raw):
            log.append(q)  # kept alive, so no two batches share an id
            return raw(q)

        for module in modules:  # every binding in the package
            if vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, memoized(counted))
    direct, chakrabarti = [], operators.chakrabarti_spin
    monkeypatch.setattr(operators, "chakrabarti_spin", lambda q: direct.append(q) or chakrabarti(q))
    verify._draws.cache_clear()
    for suite in IDENTITIES:
        results = verify.run_suite(suite, 20, 11, 0.5)
        assert results and all(r.passed for r in results)
    counts = {name: len({id(q) for q in log}) for name, log in logs.items()}
    assert all(len(log) == counts[name] for name, log in logs.items()), logs
    assert counts == {
        "boost_for_momentum": 7, "theta_tensor": 2, "lorentz_boost_matrix": 2,
        "foldy_wouthuysen": 3, "projectors": 4, "auxiliary_spins": 2,
    }
    assert not direct


class _Products(np.ndarray):
    """An array that counts the matrix products it takes part in, the products
    formed of it included."""

    count = 0

    def __matmul__(self, other):
        _Products.count += 1
        return super().__matmul__(other)

    def __rmatmul__(self, other):
        _Products.count += 1
        return super().__rmatmul__(other)


def test_projector_split_forms_six_products(monkeypatch):
    # Pi+ A and Pi- A are formed once each: six products per split, at each of the
    # identities operation's four splits
    counts, split = [], operators.decompose_diag_osc

    def counted(a, q):
        _Products.count = 0
        parts = split(np.asarray(a).view(_Products), q)
        counts.append(_Products.count)
        assert _same_bits(tuple(np.asarray(x) for x in parts), split(a, q))
        return parts

    monkeypatch.setattr(verify, "decompose_diag_osc", counted)
    verify._draws.cache_clear()
    for suite in IDENTITIES:
        results = verify.run_suite(suite, 20, 11, 0.5)
        assert results and all(r.passed for r in results)
    assert counts == [6, 6, 6, 6]
