"""The per-owner batch memo: bases, mode spinors, Fourier operators, the two
image frames (u/u and u(p)/v(-p)), the kernels' pair frame, operator
coefficients and wave spinors each evaluate a momentum batch once, and a
memoized result is the fresh evaluation bit for bit; the verify suites of one
seed share their draws."""

import tracemalloc

import numpy as np
import pytest

from diracmr import associated, operators, spinors, verify
from diracmr.algebra import (
    MEMO_BATCHES,
    MEMO_MAX_MOMENTA,
    Momentum,
    batch_memo,
    central_gradient,
    memoized,
    theta_tensor,
)
from diracmr.associated import (
    KERNEL_CATALOG,
    AssociatedFamily,
    AssociatedOperator,
    Jet,
    OperatorStack,
    WaveSpinor,
    _diag_frame,
    _offdiag_frame,
    _pair_bilinears,
    gaussian_test_spinor,
)
from diracmr.operators import OPERATOR_CATALOG, FourierOperator
from diracmr.polarization import CommonBasis, HelicityBasis, PoleError, make_basis
from diracmr.sampling import make_rng
from diracmr.spinors import u_matrix, v_matrix

MASS = 1.3
DIRECTIONS = np.array([[0.3, -0.5, 0.8], [-0.6, 0.2, 0.1], [0.1, 0.9, -0.4]])
DIRECTIONS /= np.linalg.norm(DIRECTIONS, axis=-1, keepdims=True)


def _batch(ratio, scale=1.0):
    """Three momenta off the helicity pole with |p|/m = ratio * scale."""
    return ratio * scale * MASS * DIRECTIONS


def _value_only_spinor():
    """A wave spinor without an analytic gradient: its gradient is the FD fallback."""
    return WaveSpinor(gaussian_test_spinor(make_rng(5))._fn)


def _fresh_operator(name):
    """A catalog entry's function behind a memo of its own; the basis kind is unused."""
    return lambda kind: FourierOperator(OPERATOR_CATALOG[name].func)


# quantity -> (fresh owner in a basis kind, evaluation on an owner)
OWNERS = {
    "xi": (make_basis, lambda b, p: b.xi(p)),
    "eta": (make_basis, lambda b, p: b.eta(p)),
    "sigma": (make_basis, lambda b, p: b.sigma(p)),
    "omega": (make_basis, lambda b, p: b.omega(p)),
    "u": (make_basis, lambda b, p: u_matrix(b, Momentum(p, MASS))),
    "v": (make_basis, lambda b, p: v_matrix(b, Momentum(p, MASS))),
    "coef_boost": (lambda k: AssociatedFamily(MASS, make_basis(k)).boost_orbital(), lambda o, p: o.coef(p)),
    "coef_pryce_c": (
        lambda k: AssociatedFamily(MASS, make_basis(k)).position_pryce_c(), lambda o, p: o.coef(p)
    ),
    "value": (lambda k: gaussian_test_spinor(make_rng(3)), lambda s, p: s.value(p)),
    "gradient": (lambda k: gaussian_test_spinor(make_rng(3)), lambda s, p: s.gradient(p)),
    "gradient_fd": (lambda k: _value_only_spinor(), lambda s, p: s.gradient(p)),
    "pair_frame": (make_basis, _pair_bilinears),
    "diag_frames": (make_basis, lambda b, p: _diag_frame(b, Momentum(p, MASS))),
    "offdiag_frames": (make_basis, lambda b, p: _offdiag_frame(b, Momentum(p, MASS))),
    **{
        f"operator_{name}": (_fresh_operator(name), lambda op, p: op(Momentum(p, MASS)))
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


@pytest.mark.parametrize("ratio", (1e-6, 1.0, 1e6))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("quantity", OWNERS)
def test_memoized_equals_fresh_bit_for_bit(quantity, kind, ratio):
    make, evaluate = OWNERS[quantity]
    owner = make(kind)
    p, other = _batch(ratio), _batch(ratio, 1.1)  # two batches of one shape
    first = evaluate(owner, p)
    at_other = evaluate(owner, other)
    again = evaluate(owner, p.copy())
    assert _same_bits(first, evaluate(make(kind), p))
    assert _same_bits(at_other, evaluate(make(kind), other))
    assert _same_bits(again, first)


@pytest.mark.parametrize("ratio", (1e-6, 1.0, 1e6))
@pytest.mark.parametrize("name", OPERATOR_CATALOG)
def test_catalog_entry_equals_its_function_bit_for_bit(name, ratio):
    entry = OPERATOR_CATALOG[name]
    fresh = entry.func(Momentum(_batch(ratio), MASS))
    for _ in range(2):  # evaluated, then read from the memo
        assert _same_bits(entry(Momentum(_batch(ratio), MASS)), fresh)


@pytest.mark.parametrize("name", OPERATOR_CATALOG)
def test_operator_keeps_each_mass_apart(name):
    op, p = _fresh_operator(name)("common"), _batch(1.0)
    for m in (MASS, 0.7, MASS, 0.7):
        assert _same_bits(op(Momentum(p, m)), op.func(Momentum(p, m)))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("quantity", OWNERS)
def test_results_are_read_only(quantity, kind):
    make, evaluate = OWNERS[quantity]
    owner = make(kind)
    for result in (evaluate(owner, _batch(1.0)), evaluate(owner, _batch(1.0))):
        arrays = [a for a in _arrays(result) if a is not None]
        assert arrays and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][...] = 0.0


def test_owners_never_share_an_entry():
    p = _batch(1.0)
    # two helicity bases: each evaluates on its own
    b1, b2 = HelicityBasis(), HelicityBasis()
    u_matrix(b1, Momentum(p, MASS))
    assert len(batch_memo(b1)) == 1 and "_batch_memo" not in vars(b2)
    # operators made and dropped in turn reuse ids; each reads its own mass
    for m in (0.5, 2.0, 1.0) * 10:
        op = AssociatedFamily(m, HelicityBasis()).spin_plus()
        theta = np.swapaxes(theta_tensor(Momentum(p, m))[0], -1, -2)
        assert np.max(np.abs(op.coef(p)[1].v - theta)) < 1e-12
        del op
    for seed in range(20):
        spinor = gaussian_test_spinor(make_rng(seed))
        assert _same_bits(spinor.value(p), np.asarray(spinor._fn(p), dtype=complex))
        del spinor
    # a helicity family and a common family at the same p: Ws~ along n_p and along e3
    ws_h = AssociatedFamily(MASS, HelicityBasis()).polarization().coef(p)[1].v
    ws_c = AssociatedFamily(MASS, CommonBasis()).polarization().coef(p)[1].v
    assert np.max(np.abs(ws_h[..., 0, :] - DIRECTIONS)) < 1e-15
    assert np.array_equal(ws_c[..., 0, :], np.broadcast_to([0.0, 0.0, 1.0], (3, 3)))


@pytest.mark.parametrize("quantity", OWNERS)
def test_owner_keeps_at_most_memo_batches(quantity):
    make, evaluate = OWNERS[quantity]
    owner = make("helicity")
    for k in range(100):
        p = _batch(1.0, 1.0 + 0.01 * k)
        last = evaluate(owner, p)
    assert 1 <= len(batch_memo(owner)) <= MEMO_BATCHES
    assert evaluate(owner, p.copy()) is last  # the latest batch is kept


def test_grid_sized_batch_is_neither_hashed_nor_kept():
    n = 110_592  # the wigner suite's quadrature grid
    assert n > MEMO_MAX_MOMENTA
    grid = np.random.default_rng(1).normal(size=(n, 3))
    out = np.zeros((n, 2), dtype=complex)
    spinor, basis = WaveSpinor(lambda p: out), HelicityBasis()
    tracemalloc.start()
    try:
        spinor.value(grid)  # returns a view of ``out``: nothing to allocate but a key
        peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        basis.xi(grid)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < grid.nbytes / 4  # a key would copy the 2.7 MB grid
    assert kept < 64 * 1024  # xi on the grid is 7 MB
    assert len(batch_memo(spinor)) == 0 and len(batch_memo(basis)) == 0


@pytest.mark.parametrize("quantity", OWNERS)
def test_batch_over_the_cap_is_not_kept(quantity):
    make, evaluate = OWNERS[quantity]
    owner = make("helicity")
    evaluate(owner, np.resize(_batch(1.0), (MEMO_MAX_MOMENTA + 1, 3)))
    assert len(batch_memo(owner)) == 0


def test_pole_error_is_raised_again():
    basis, pole = HelicityBasis(), np.array([[0.3, 0.2, 0.5], [0.0, 0.0, -1.0]])
    kernel = KERNEL_CATALOG["delta_x_osc"]
    for _ in range(2):
        with pytest.raises(PoleError):
            basis.xi(pole)
        with pytest.raises(PoleError):
            u_matrix(basis, Momentum(pole, MASS))
        with pytest.raises(PoleError):
            _pair_bilinears(basis, pole)
        with pytest.raises(PoleError):
            kernel(Momentum(pole, MASS), 0.3, basis)
    assert len(batch_memo(basis)) == 0


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


def test_result_does_not_follow_later_writes_to_the_batch():
    # P~'s a0 is p itself: the memo evaluates on its own copy of the batch
    op, p = AssociatedFamily(MASS, CommonBasis()).momentum(), _batch(1.0)
    a0 = op.coef(p)[0].v
    saved = a0.copy()
    p *= 2.0
    assert np.array_equal(a0, saved)
    assert op.coef(_batch(1.0))[0].v is a0


class _Toy:
    """An owner that records what its ``@memoized`` functions receive."""

    def __init__(self):
        self.seen = []

    @memoized
    def energy(self, q):
        self.seen.append(q)
        return q.energy

    @memoized
    def norm(self, p):
        self.seen.append(p)
        return np.linalg.norm(p, axis=-1)


def test_momentum_is_evaluated_at_its_mass_over_a_read_only_copy():
    toy, p = _Toy(), _batch(1.0)
    for m in (MASS, 0.7, MASS, 0.7):
        assert _same_bits(toy.energy(Momentum(p, m)), Momentum(p, m).energy)
    assert [q.m for q in toy.seen] == [MASS, 0.7]  # two masses, two entries
    assert len(batch_memo(toy)) == 1
    for q in toy.seen:
        assert isinstance(q, Momentum) and np.array_equal(q.p, p)
        assert not q.p.flags.writeable and not np.shares_memory(q.p, p)


def test_first_batch_in_is_first_out():
    toy = _Toy()
    batches = [_batch(1.0, 1.0 + 0.01 * k) for k in range(MEMO_BATCHES + 1)]
    for p in batches[1:]:
        toy.norm(batches[0])  # the first batch is read again before each new one
        toy.norm(p)
    assert len(toy.seen) == MEMO_BATCHES + 1 and len(batch_memo(toy)) == MEMO_BATCHES
    for p in batches[1:]:
        toy.norm(p)
    assert len(toy.seen) == MEMO_BATCHES + 1  # the later batches are all kept
    toy.norm(batches[0])
    assert len(toy.seen) == MEMO_BATCHES + 2  # the first one was evicted


def test_kernels_suite_evaluates_the_projectors_once_each(monkeypatch):
    # phase_reference and decompose_diag_osc read Pi+/- from the catalog entries,
    # so a fresh batch costs one ``projectors`` call per entry
    calls, projectors = [], operators.projectors

    def counted(q):
        calls.append(q)
        return projectors(q)

    for name in ("projector_plus", "projector_minus"):  # fresh memos
        monkeypatch.setitem(OPERATOR_CATALOG, name, FourierOperator(OPERATOR_CATALOG[name].func))
    for module in (operators, associated, verify):  # every binding in the package
        if vars(module).get("projectors") is projectors:
            monkeypatch.setattr(module, "projectors", counted)
    results = verify.run_suite("kernels", 20, 13)
    assert results and all(r.passed for r in results)
    assert len(calls) == 2


# the suites of one operation of the identities benchmark workload
IDENTITIES = (
    "clifford", "boosts", "projectors", "pryce_spin", "spin_types",
    "pauli_lubanski", "associated", "kernels",
)


def _evicted_before_each_repeat(log) -> bool:
    """Each batch of ``log`` is evaluated again only after MEMO_BATCHES newer
    evaluations have pushed it out of its owner's first-in, first-out memo."""
    last = {}
    for i, key in enumerate(log):
        if key in last and i - last[key] - 1 < MEMO_BATCHES:
            return False
        last[key] = i
    return True


def test_identities_suites_draw_and_evaluate_each_batch_once(monkeypatch):
    # seven of the eight suites draw momenta, two distinct draws between them
    # (with and without avoid_poles); the Pryce(e) spin is read at three batches
    # (p of each draw and -p of the avoid_poles one) and the mode spinors in two
    # bases at p and -p of the avoid_poles draw: each is one evaluation.  H_D and
    # the Pryce(c) spin are read only through their entries (by N, Pi+/-, the spin
    # types and the C-parity check too): the Pryce(c) spin at three batches, once
    # each; H_D at six, more than the 4-batch memo holds, so a batch is evaluated
    # again only once it has been evicted
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

    def counted_rest_u(basis, p):  # one call per u_matrix evaluation
        modes.append((id(basis), p.shape, p.tobytes()))
        return rest_u(basis, p)

    for name, entry in OPERATOR_CATALOG.items():  # fresh memos
        func = counted(entry_logs[name], entry.func) if name in entry_logs else entry.func
        monkeypatch.setitem(OPERATOR_CATALOG, name, FourierOperator(func))
    for fn in ("pryce_e_spin", "dirac_hamiltonian", "pc_spin"):
        original = vars(operators)[fn]
        for module in (operators, associated, verify):  # every binding in the package
            if vars(module).get(fn) is original:
                monkeypatch.setattr(module, fn, counted(direct, original))
    monkeypatch.setattr(verify, "sample_momenta", counted_draw)
    monkeypatch.setattr(spinors, "rest_u_matrix", counted_rest_u)
    verify._sampled.cache_clear()
    for suite in IDENTITIES:
        results = verify.run_suite(suite, 20, 11, 0.5)
        assert results and all(r.passed for r in results)
    assert len(draws) == 2
    assert len(modes) == len(set(modes)) == 4
    assert not direct
    spins, h, pc = entry_logs["pryce_e_spin"], entry_logs["h_dirac"], entry_logs["pc_spin"]
    assert len(spins) == len(set(spins)) == 3
    assert len(pc) == len(set(pc)) == 3
    assert len(set(h)) == 6 and _evicted_before_each_repeat(h)


@pytest.mark.parametrize("seed", (1, 3))
def test_suites_give_the_same_residuals_in_either_order(seed):
    # the suites share bases, catalog entries and draws; what one leaves in a
    # memo is what the next would compute itself, so the order changes no bit
    def residuals(names):
        verify._sampled.cache_clear()
        return {name: [(r.name, r.residual) for r in verify.run_suite(name, 20, seed)] for name in names}

    forward = residuals(list(verify.SUITES))
    assert residuals(reversed(list(verify.SUITES))) == forward


def test_sampled_batch_is_drawn_once_and_read_only():
    verify._sampled.cache_clear()
    q = verify._sampled(20, 0.5, 11, avoid_poles=True)
    assert verify._sampled(20, 0.5, 11, avoid_poles=True) is q
    assert verify._sampled(20, 0.5, 11) is not q
    expected = np.array([k.p for k in verify.sample_momenta(20, 0.5, 11, avoid_poles=True)])
    assert np.array_equal(q.p, expected) and q.m == 0.5
    assert not q.p.flags.writeable
