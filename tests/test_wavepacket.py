import dataclasses
import functools
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from diracmr import wavepacket
from diracmr.algebra import Momentum
from diracmr.associated import AssociatedFamily, WaveSpinor
from diracmr.polarization import CommonBasis
from diracmr.wavepacket import (
    OBSERVABLES,
    NormalizationError,
    PacketProfile,
    PacketStatistics,
    QuadratureGrid,
    StatisticsReport,
    _angular_rule,
    _radial_rule,
    _unit_radial_rule,
    cone_filter,
    figure_data,
    g_integral,
    isotropic_closed_forms,
    make_isotropic,
    packet_reports,
    radial_statistics,
    spin_closed_forms,
)

ISO = make_isotropic(1.0, 2.0, 1.0)
GRID = ISO.default_grid()


def report_map(theta_s=0.0, x0=(0, 0, 0)):
    return {r.observable: r for r in packet_reports(ISO, theta_s, x0, GRID)}


def test_parameter_validation():
    with pytest.raises(ValueError):
        make_isotropic(1.0, 0.9, 1.0)  # gamma*pbar <= 1
    with pytest.raises(ValueError):
        make_isotropic(-1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ISO.profile(theta_s=4.0)


def test_grid_probe_gaussian():
    probe = np.exp(-np.sum(GRID.nodes**2, axis=1))
    assert abs(GRID.integrate(probe) - np.pi**1.5) < 1e-10
    assert np.all(GRID.weights > 0)


def test_normalization_against_adaptive_quadrature():
    # independent 1d oracle for the closed-form normalization constant
    val, _ = quad(lambda p: 4 * np.pi * p**2 * ISO.radial(p) ** 2, 0, np.inf)
    assert val == pytest.approx(1.0, abs=1e-10)
    # and the grid agrees
    prof = ISO.profile()
    assert abs(GRID.integrate(prof.phi(GRID.nodes) ** 2) - 1.0) < 1e-10


def test_normalization_guard():
    bad = PacketProfile(
        phi=lambda pts: 2.0 * ISO.radial(np.linalg.norm(pts, axis=-1)),
        grad_phi=lambda pts: np.zeros_like(pts),
        m=1.0,
    )
    with pytest.raises(NormalizationError):
        PacketStatistics(bad, GRID)


def test_normalization_guard_rejects_nan():
    # abs(nan - 1) > tol is False: the guard must not let a NaN norm through
    nan = PacketProfile(lambda p: np.full(p.shape[:-1], np.nan), lambda p: np.zeros_like(p), 1.0)
    with pytest.raises(NormalizationError):
        PacketStatistics(nan, QuadratureGrid(10.0, 20, 4, 4))


def test_grid_needs_two_radial_nodes():
    # the double-exponential step is undefined at one node
    with pytest.raises(ValueError, match="at least 2"):
        QuadratureGrid(10.0, 1, 4, 4)
    assert QuadratureGrid(10.0, 2, 4, 4).radial_nodes.shape == (2,)


def test_radial_momentum_closed_forms():
    rep = report_map()
    assert rep["P"].expectation == pytest.approx(2.0, rel=1e-8)
    assert rep["P"].dispersion == pytest.approx(1.0, rel=1e-8)
    # <H^2> = E(pbar)^2 + pbar/(2 gamma) = 6
    h = rep["H"]
    assert h.dispersion + h.expectation**2 == pytest.approx(6.0, rel=1e-8)


def test_position_statistics():
    x0 = (0.5, -0.2, 1.0)
    rep = report_map(x0=x0)
    for i, name in enumerate(("X1", "X2", "X3")):
        assert rep[name].expectation == pytest.approx(x0[i], abs=1e-10)
        assert rep[name].dispersion == pytest.approx(1.0 / 6.0, rel=1e-6)


def test_cartesian_second_moment_is_angular_average():
    rep = report_map()
    for name in ("P1", "P2", "P3"):
        second = rep[name].dispersion + rep[name].expectation ** 2
        assert second == pytest.approx((4.0 + 1.0) / 3.0, rel=1e-6)
        assert rep[name].expectation == pytest.approx(0.0, abs=1e-12)


def test_spin_statistics_analytic():
    for theta in (0.0, 0.4, np.pi / 2, np.pi):
        rep = report_map(theta_s=theta)
        closed = spin_closed_forms(theta)
        for name, (ce, cd) in closed.items():
            assert rep[name].expectation == pytest.approx(ce, abs=1e-12)
            assert rep[name].dispersion == pytest.approx(cd, abs=1e-12)
    # total polarization measures the third spin component exactly
    rep = report_map(theta_s=0.0)
    assert rep["S3"].dispersion == 0.0


def test_velocity_statistics_match_g_integrals():
    rep = report_map()
    closed = isotropic_closed_forms(ISO)
    assert rep["V"].expectation == pytest.approx(closed["V"][0], rel=1e-8)
    assert rep["V"].dispersion == pytest.approx(closed["V"][1], rel=1e-8)
    assert rep["H"].expectation == pytest.approx(closed["H"][0], rel=1e-8)
    for name in ("V1", "V2", "V3"):
        assert rep[name].dispersion == pytest.approx(closed[name][1], rel=1e-8)


def test_angular_momentum_zero_mean():
    rep = report_map(x0=(0.3, 0.0, -0.5))
    for name in ("L1", "L2", "L3"):
        assert rep[name].expectation == pytest.approx(0.0, abs=1e-10)
        assert rep[name].dispersion >= 0.0


def test_dispersion_time_law():
    prof = ISO.profile()
    eng = PacketStatistics(prof, GRID)
    d0 = eng.position_dispersion_at_time(0.0)
    d10 = eng.position_dispersion_at_time(10.0)
    dv = np.array([eng.report(f"V{i}").dispersion for i in (1, 2, 3)])
    assert np.allclose(d10, d0 + 100.0 * dv, rtol=1e-12)
    assert np.allclose(eng.position_dispersion_at_time(2.0), d0 + 4.0 * dv, rtol=1e-12)
    with pytest.raises(ValueError):
        eng.position_dispersion_at_time(-1.0)


def test_position_dispersion_at_time_matches_associated_family():
    # X~(t) = X~ + t V~ applied to the packet spinor, cross term included
    iso = make_isotropic(1.3, 2.2, 1.0)
    x0 = np.array([0.3, -0.8, 0.5])
    prof = iso.profile(theta_s=0.7, x0=x0)
    grid = iso.default_grid(48, 8, 16)
    eng = PacketStatistics(prof, grid)

    def value(q):
        p = q.p
        return (prof.phi(p) * np.exp(-1j * p @ x0))[:, None] * prof.chi

    def grad(q):
        p = q.p
        g = (prof.grad_phi(p) - 1j * prof.phi(p)[:, None] * x0) * np.exp(-1j * p @ x0)[:, None]
        return g[:, :, None] * prof.chi

    alpha = WaveSpinor(value, grad)
    pts = Momentum(grid.nodes, 1.0)
    val = value(pts)
    fam, basis = AssociatedFamily(1.0), CommonBasis()
    for t in (0.0, 2.0, 10.0):
        got = eng.position_dispersion_at_time(t)
        acted = fam.position(t).apply(alpha, pts, basis)
        for i in range(3):
            x_alpha = acted[..., i, :]
            mean = grid.integrate(np.sum(val.conj() * x_alpha, axis=-1)).real
            want = grid.integrate(np.sum(np.abs(x_alpha) ** 2, axis=-1)) - mean**2
            assert abs(got[i] - want) <= 1e-12 * want, (t, i)


def test_cone_filter_isotropic():
    prof = ISO.profile()
    kappa, phir, r, w, prob = cone_filter(prof, (0.3, 0.5, 0.8), 0.01, GRID.p_max)
    assert kappa == pytest.approx(1.0 / (4 * np.pi), rel=1e-12)
    assert np.sum(w * phir**2) == pytest.approx(1.0, rel=1e-12)
    assert prob == pytest.approx((0.01 * kappa) ** 2)
    stats = radial_statistics(phir, r, w, 1.0)
    # filtered radial statistics coincide with the unfiltered ones
    assert stats["P"][0] == pytest.approx(2.0, rel=1e-10)
    assert stats["P"][1] == pytest.approx(1.0, rel=1e-10)
    rep = report_map()
    assert stats["H"][0] == pytest.approx(rep["H"].expectation, rel=1e-10)
    assert stats["V"][1] == pytest.approx(rep["V"].dispersion, rel=1e-8)
    with pytest.raises(ValueError):
        cone_filter(prof, (0, 0, 1), 0.5, GRID.p_max)  # solid angle too large
    for bad in (-0.05, 0.0, np.nan):  # a solid angle is positive
        with pytest.raises(ValueError):
            cone_filter(prof, (0, 0, 1), bad, GRID.p_max)
    # phi = p1^2 is zero on the whole e3 ray
    axial = PacketProfile(lambda k: k[..., 0] ** 2, lambda k: 2 * k * [1, 0, 0], 1.0)
    with pytest.raises(ValueError, match="profile vanishes along the filter direction"):
        cone_filter(axial, (0, 0, 1), 0.01, GRID.p_max)


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
def test_cone_filter_near_divergent_dispersion(gamma):
    # gamma*pbar = 1.05: |p phi(n p)|^2 ~ p^1.1 at 0, where a polynomial rule
    # loses digits; the radial statistics still match the closed forms
    iso = make_isotropic(gamma, 1.05 / gamma, 1.0)
    kappa, phir, r, w, _ = cone_filter(
        iso.profile(), (0.3, 0.5, 0.8), 0.01, iso.default_grid().p_max
    )
    assert abs(4 * np.pi * kappa - 1.0) <= 1e-12
    stats = radial_statistics(phir, r, w, 1.0)
    closed = isotropic_closed_forms(iso)
    for name in ("H", "P", "V"):
        for got, want in zip(stats[name], closed[name]):
            assert abs(got - want) <= 1e-12 * abs(want), name


def test_cone_filter_direction_scaling():
    # <P^i>' = n^i <P>' after filtering along n
    prof = ISO.profile()
    n = np.array([0.3, 0.5, 0.8])
    n = n / np.linalg.norm(n)
    kappa, phir, r, w, _ = cone_filter(prof, n, 0.01, GRID.p_max)
    mean_p = float(np.sum(w * r * phir**2))
    for i in range(3):
        line = prof.phi(np.outer(r, n))
        mean_pi = float(np.sum(w * r**2 * (r * n[i]) * line**2)) / kappa
        assert mean_pi == pytest.approx(n[i] * mean_p, rel=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.3, 3.0), st.floats(0.5, 4.0))
def test_g_integral_gamma_reduction(nu, mu):
    # rho = 1 collapses to a Gamma integral
    got = g_integral(nu, 1.0, mu, m=1.7)
    expect = math.gamma(2 * nu) / mu ** (2 * nu)
    assert got == pytest.approx(expect, rel=1e-10)


@pytest.mark.parametrize(
    "nu, rho",
    # p^0.1 at 0 (adaptive quadrature warns about roundoff there), and
    # (p^2)^(rho - 1) = p^-4, which overflows as a plain product at the deepest nodes
    [(1.3, 0.7), (0.35, 0.7), (2.5, -1.0)],
)
def test_g_integral_massless_reduction(nu, rho):
    got = g_integral(nu, rho, 2.0, m=0.0)
    expo = 2 * nu + 2 * rho - 2
    assert got == pytest.approx(math.gamma(expo) / 2.0**expo, rel=1e-10)


def test_g_integral_matches_adaptive_quadrature_on_figure_grid():
    # the 180 integrals behind figures 1 and 2 (q in (1, 7], mu = 2, m = 1)
    worst = 0.0
    for q in 1.0 + 6.0 * np.arange(1, 61) / 60:
        for nu, rho in ((q, 1.5), (q + 0.5, 0.5), (q + 1.0, 0.0)):
            def f(p):
                return p ** (2 * nu - 1) * (p * p + 1.0) ** (rho - 1) * np.exp(-2.0 * p)

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ref, _ = quad(f, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=300)
            worst = max(worst, abs(g_integral(nu, rho, 2.0, 1.0) / ref - 1.0))
    assert worst <= 1e-12


def test_g_integral_guards():
    with pytest.raises(ValueError):
        g_integral(1.0, 1.0, -2.0, 1.0)
    with pytest.raises(ValueError):
        g_integral(-0.2, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        g_integral(0.3, 0.5, 2.0, 0.0)


def test_mean_energy_g_integral_vs_grid():
    # 3d grid quadrature against the adaptive 1d G-integral path
    prof = ISO.profile()
    eng = PacketStatistics(prof, GRID)
    mean_h = eng.report("H").expectation
    closed = 4 * np.pi * ISO.norm**2 * g_integral(ISO.a, 1.5, 2 * ISO.gamma, ISO.m)
    assert mean_h == pytest.approx(closed, rel=1e-8)


def test_figure_data_shapes_and_limits():
    f1 = figure_data(1, points=60)
    f2 = figure_data(2, points=60)
    assert f1.shape == (60, 3) and f2.shape == (60, 3)
    assert np.all(f1[:, 0] > 1.0) and f1[-1, 0] == pytest.approx(7.0)
    assert np.all(f1[:, 1] > 1.0)
    assert np.all(np.diff(f1[:, 1]) < 0)
    assert np.all((f1[:, 2] > 0) & (f1[:, 2] < 1))
    assert np.all(np.diff(f1[:, 2]) > 0)
    assert np.all((f2[:, 1] > 0) & (f2[:, 1] < 1))
    assert np.all(np.diff(f2[:, 1]) > 0)
    assert np.all(f2[:, 2] > 0)
    assert f2[-1, 2] < f2[0, 2]
    # endpoints approach the classical values
    assert abs(f1[-1, 1] - 1.0) < 0.2
    assert abs(f1[-1, 2] - 1.0) < 0.2
    assert abs(f2[-1, 1] - 1.0) < 0.2


def _velocity_reference(gamma, pbar, m=1.0):
    """<V> and disp V of the isotropic packet from 40-digit mpmath quadratures."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, pb, m = mp.mpf(gamma), mp.mpf(pbar), mp.mpf(m)
        split = [0, pb / 2, pb, 2 * pb, mp.inf]

        def moment(f):
            return mp.quad(lambda p: p ** (2 * g * pb - 1) * mp.exp(-2 * g * p) * f(p), split)

        def v(p):
            return p / mp.sqrt(p * p + m * m)

        norm = moment(lambda p: 1)
        mean = moment(v) / norm
        return float(mean), float(moment(lambda p: (v(p) - mean) ** 2) / norm)


@pytest.mark.parametrize("gamma, pbar", [(1.0, 5.0), (1.0, 50.0)])
def test_centered_velocity_dispersion_against_mpmath(gamma, pbar):
    # bounds fixed before measuring: 1e-12 relative for the closed forms; 1e-9 for the
    # cone's radial statistics, whose rule stops at the packet's default p_max.  At (1, 50),
    # disp V = 1.8e-9 and second - mean^2 read 3.5e-3 (closed form) and 2.5e-7 (radial) off.
    mean, disp = _velocity_reference(gamma, pbar)
    iso = make_isotropic(gamma, pbar, 1.0)
    fig = figure_data(2, 1.0, 50.0, 49)[int(pbar) - 2]  # rows q = 2, ..., 50 at gamma_m = 1
    assert fig[0] == pbar
    closed = isotropic_closed_forms(iso)["V"]
    _, phi_rad, r, w, _ = cone_filter(iso.profile(), (0.3, -0.2, 1.0), 0.05, iso.default_grid().p_max)
    radial = radial_statistics(phi_rad, r, w, 1.0)["V"]
    for got, want, bound in (
        (closed[0], mean, 1e-12),
        (closed[1], disp, 1e-12),
        (fig[1] * pbar / math.hypot(pbar, 1.0), mean, 1e-12),
        (fig[2], disp, 1e-12),
        (radial[0], mean, 1e-9),
        (radial[1], disp, 1e-9),
    ):
        assert abs(got - want) <= bound * want, (got, want, bound)


def _energy_reference(gamma, pbar, m=1.0):
    """<H>, disp H and <V^2> of the isotropic packet from 40-digit mpmath quadratures."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, pb, m = mp.mpf(gamma), mp.mpf(pbar), mp.mpf(m)
        split = [0, pb / 2, pb, 2 * pb, mp.inf]

        def moment(f):
            return mp.quad(lambda p: p ** (2 * g * pb - 1) * mp.exp(-2 * g * p) * f(p), split)

        norm = moment(lambda p: 1)
        mean_h = moment(lambda p: mp.sqrt(p * p + m * m)) / norm
        disp_h = moment(lambda p: (mp.sqrt(p * p + m * m) - mean_h) ** 2) / norm
        mean_v2 = moment(lambda p: p * p / (p * p + m * m)) / norm
        return float(mean_h), float(disp_h), float(mean_v2)


@pytest.mark.parametrize("gamma, pbar", [(1.0, 100.0), (1.0, 120.0)])
def test_closed_energy_and_velocity_forms_of_narrow_packets_against_mpmath(gamma, pbar):
    # bounds fixed before measuring: 1e-12 relative for <H> and disp V_i = <V^2>/3;
    # 1e-9 for disp H = <H^2> - <H>^2, which cancels by about 2 gamma pbar = 240
    # digits' worth of factor at (1, 120).  4 pi N^2 overflowed to inf * 0 here.
    mean_h, disp_h, mean_v2 = _energy_reference(gamma, pbar)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        closed = isotropic_closed_forms(make_isotropic(gamma, pbar, 1.0))
    for got, want, bound in (
        (closed["H"][0], mean_h, 1e-12),
        (closed["H"][1], disp_h, 1e-9),
        (closed["V1"][1], mean_v2 / 3, 1e-12),
    ):
        assert abs(got - want) <= bound * want, (got, want, bound)


def test_figure_data_guards():
    with pytest.raises(ValueError):
        figure_data(3)
    with pytest.raises(ValueError):
        figure_data(1, q_min=0.5)
    with pytest.raises(ValueError):
        figure_data(1, q_min=2.0, q_max=1.0)
    with pytest.raises(ValueError):
        figure_data(1, gamma_m=0.0)


def test_report_spin_row_and_unknown_observable():
    eng = PacketStatistics(ISO.profile(theta_s=0.3), GRID)
    assert eng.report("S1").expectation == pytest.approx(np.sin(0.3) / 2, abs=1e-12)
    with pytest.raises(KeyError):
        eng.report("Q")


def test_dispersion_clipping():
    from diracmr.wavepacket import _clip_dispersion

    assert _clip_dispersion(1e-3, "x") == 1e-3
    with pytest.warns(UserWarning):
        assert _clip_dispersion(-1e-12, "x") == 0.0
    with pytest.raises(ValueError):
        _clip_dispersion(-1e-6, "x")


SIGMA = np.array([0.6, 1.1, 0.9])
X0 = np.array([0.3, -0.7, 0.4])


def gaussian_profile():
    # phi ~ exp(-sum p_i^2 / 4 sigma_i^2): |phi|^2 is a normal density with variances sigma^2
    amp = (2 * np.pi) ** -0.75 / np.sqrt(np.prod(SIGMA))

    def phi(pts):
        return amp * np.exp(-np.sum(pts**2 / (4 * SIGMA**2), axis=-1))

    def grad_phi(pts):
        return -pts / (2 * SIGMA**2) * phi(pts)[:, None]

    return PacketProfile(phi, grad_phi, m=1.0, x0=X0)


def test_anisotropic_position_and_angular_momentum():
    # p x grad(phi) vanishes for every isotropic profile; here the int w G^2 term of
    # L~ carries (sigma_j^2 - sigma_k^2)^2 / (4 sigma_j^2 sigma_k^2)
    eng = PacketStatistics(gaussian_profile(), QuadratureGrid(12, 120, 32, 64))
    s2 = SIGMA**2
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        closed = {
            f"X{i + 1}": (X0[i], 1 / (4 * s2[i])),
            f"L{i + 1}": (
                0.0,
                (s2[j] - s2[k]) ** 2 / (4 * s2[j] * s2[k])
                + s2[j] * X0[k] ** 2
                + s2[k] * X0[j] ** 2,
            ),
        }
        for name, (mean, disp) in closed.items():
            rep = eng.report(name)
            assert abs(rep.expectation - mean) <= 1e-12 * max(abs(mean), 1.0), name
            assert abs(rep.dispersion - disp) <= 1e-12 * disp, name


@pytest.mark.parametrize("which", ["phi", "grad_phi"])
def test_complex_profile_rejected(which):
    # the engine squares phi; a complex phi or grad_phi would give wrong statistics
    real = gaussian_profile()
    fn = getattr(real, which)
    bad = dataclasses.replace(real, **{which: lambda pts: fn(pts) + 0j})
    with pytest.raises(TypeError, match="real-valued"):
        PacketStatistics(bad, QuadratureGrid(12, 40, 8, 16))


def test_reductions_match_closed_forms_on_default_grid():
    # pairwise summation error times the 5x cancellation in <P^2> - <P>^2
    checked = [r for r in packet_reports(ISO, 0.0, (0, 0, 0), GRID) if r.rel_error is not None]
    assert len(checked) == 16
    for r in checked:
        assert r.rel_error <= 1e-13, (r.observable, r.rel_error)


DEFAULT_SHAPE = (200, 32, 64)
SWEEP_GAMMA = (0.5, 1.0, 2.0)
SWEEP_A = (1.05, 1.2, 1.4, 2.0, 3.0, 5.0, 7.0)  # gamma * pbar


@functools.cache
def sweep_reports(gamma, a, shape):
    iso = make_isotropic(gamma, a / gamma, 1.0)
    return packet_reports(iso, grid=iso.default_grid(*shape))


@pytest.mark.parametrize("gamma", SWEEP_GAMMA)
@pytest.mark.parametrize("a", [1.05, 1.2, 1.4])
def test_position_dispersion_near_divergence(gamma, a):
    # |grad phi|^2 p^2 ~ p^(2 a - 3) at 0, non-integer: disp X = gamma^2 / (6 (a - 1))
    want = gamma**2 / (6.0 * (a - 1.0))
    reps = {r.observable: r for r in sweep_reports(gamma, a, DEFAULT_SHAPE)}
    for name in ("X1", "X2", "X3"):
        assert abs(reps[name].dispersion / want - 1.0) <= 1e-8, name


@pytest.mark.parametrize("shape", [DEFAULT_SHAPE, (100, 16, 32), (50, 4, 8)])
def test_quad_error_bounds_discrepancy(shape):
    # below 1e-12 of the scale the discrepancy is the closed forms' own rounding
    checked = 0
    for gamma in SWEEP_GAMMA:
        for a in SWEEP_A:
            for r in sweep_reports(gamma, a, shape):
                pairs = ((r.expectation, r.closed_expectation), (r.dispersion, r.closed_dispersion))
                for got, ref in pairs:
                    if ref is None or abs(got - ref) <= 1e-12 * max(abs(ref), 1.0):
                        continue
                    checked += 1
                    assert r.quad_error >= abs(got - ref), (gamma, a, r.observable)
    assert checked > 0


@pytest.mark.parametrize("shape", [DEFAULT_SHAPE, (48, 8, 16)])
def test_radial_pair_and_node_tables_agree(shape):
    # the same isotropic profile through both table sources: R, R' on the radial
    # nodes against phi, grad phi on every node
    iso = make_isotropic(1.3, 2.2, 1.0)
    grid = iso.default_grid(*shape)
    prof = iso.profile(theta_s=0.7, x0=(0.3, -0.8, 0.5))
    assert prof.radial is not None
    engines = [PacketStatistics(p, grid) for p in (prof, dataclasses.replace(prof, radial=None))]
    for name in OBSERVABLES:
        a, b = (e.report(name) for e in engines)
        for got, want in ((a.expectation, b.expectation), (a.dispersion, b.dispersion)):
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0), name
    for t in (0.0, 2.0, 10.0):
        got, want = (e.position_dispersion_at_time(t) for e in engines)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0)), t


def test_isotropic_packet_allocates_no_grid_sized_array():
    # one float array over the 409,600 default nodes is 3.3 MB
    iso = make_isotropic(1.3, 2.2, 1.0)
    x0 = (0.3, -0.8, 0.5)
    packet_reports(iso, 0.7, x0)  # warm any lazy module state
    tracemalloc.start()
    try:
        packet_reports(iso, 0.7, x0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


@pytest.mark.parametrize(
    "args", [(10.0,), (5.0, 4, 3, 2), (12.0, 96, 24, 48), (41.5, 200, 32, 64), (7.0, 2, 1, 1)]
)
def test_derived_nodes_and_weights_match_eager_construction(args):
    # the node arrays built eagerly, expression for expression, as QuadratureGrid once did
    grid = QuadratureGrid(*args)
    r, wr = grid.p_max * np.exp(_radial_rule(grid.n_radial, -5.4))
    c, wc = np.polynomial.legendre.leggauss(grid.n_cos)
    phi = 2.0 * np.pi * np.arange(grid.n_phi) / grid.n_phi
    wphi = 2.0 * np.pi / grid.n_phi
    sin_t = np.sqrt(1.0 - c**2)
    dirs = np.empty((grid.n_cos, grid.n_phi, 3))
    dirs[..., 0] = np.outer(sin_t, np.cos(phi))
    dirs[..., 1] = np.outer(sin_t, np.sin(phi))
    dirs[..., 2] = c[:, None]
    nodes = (r[:, None, None, None] * dirs).reshape(-1, 3)
    w = np.repeat(np.outer(wr * r**2, wc) * wphi, grid.n_phi)
    assert grid.nodes.shape == nodes.shape and grid.nodes.tobytes() == nodes.tobytes()
    assert grid.weights.shape == w.shape and grid.weights.tobytes() == w.tobytes()
    assert grid.nodes is grid.nodes  # derived once, then kept


@pytest.mark.parametrize("n_cos, n_phi", [(32, 64), (16, 32), (12, 24)])
def test_angular_factors_built_once_per_shape(n_cos, n_phi, monkeypatch):
    # the default, the packet CLI's and the wigner suite's angular shapes
    leggauss, calls = np.polynomial.legendre.leggauss, []
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or leggauss(n))
    _angular_rule.cache_clear()
    grids = [QuadratureGrid(p_max, n_r, n_cos, n_phi) for p_max, n_r in ((10.0, 40), (41.5, 200))]
    assert calls == [n_cos]
    # the angular factors built eagerly, expression for expression, as QuadratureGrid once did
    c, wc = leggauss(n_cos)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    sin_t = np.sqrt(1.0 - c**2)
    dirs = np.empty((n_cos, n_phi, 3))
    dirs[..., 0] = np.outer(sin_t, np.cos(phi))
    dirs[..., 1] = np.outer(sin_t, np.sin(phi))
    dirs[..., 2] = c[:, None]
    dirs = dirs.reshape(-1, 3)
    u = np.concatenate([np.ones((1, len(dirs))), dirs.T])
    wu = np.repeat(wc * (2.0 * np.pi / n_phi), n_phi) * u
    moments = np.array([[np.sum(a * b) for b in u] for a in wu])
    for name, want in (("cos_weights", wc), ("directions", dirs), ("direction_moments", moments)):
        a, b = (getattr(g, name) for g in grids)
        assert a is b and not a.flags.writeable, name
        assert a.shape == want.shape and a.tobytes() == want.tobytes(), name


def test_radial_rule_built_once_per_size(monkeypatch):
    rule, calls = _radial_rule, []
    monkeypatch.setattr(wavepacket, "_radial_rule", lambda n, t: calls.append((n, t)) or rule(n, t))
    _unit_radial_rule.cache_clear()
    grids = [make_isotropic(gamma, 3.0, 1.0).default_grid() for gamma in (1.0, 0.7)]
    assert grids[0].p_max != grids[1].p_max
    assert calls == [(200, -5.4)]
    assert not _unit_radial_rule(200).flags.writeable
    for grid in grids:  # the rule scaled per grid, bit for bit as the eager expression
        r, wr = grid.p_max * np.exp(rule(200, -5.4))
        assert grid.radial_nodes.tobytes() == r.tobytes()
        assert grid.radial_weights.tobytes() == wr.tobytes()


def test_packet_reports_build_each_row_once(monkeypatch):
    init, built = StatisticsReport.__init__, []
    monkeypatch.setattr(
        StatisticsReport, "__init__", lambda self, *a, **k: built.append(self) or init(self, *a, **k)
    )
    reps = packet_reports(ISO, 0.4, (0.5, 0.0, 1.0), GRID)
    assert len(built) == len(OBSERVABLES) == 19 and all(a is b for a, b in zip(built, reps))
    # the closed forms go into the one construction; no row is copied to attach them
    assert "replace" not in vars(wavepacket)
    assert "dataclasses.replace" not in inspect.getsource(wavepacket)
    rows = {r.observable: r for r in reps}
    assert rows["X3"].closed_expectation == 1.0 and rows["L1"].closed_dispersion is None


def _row_sums(shells):
    # the engine's shell sum and its error estimate, one row at a time
    q = float(shells.sum())
    s0, s1 = abs(float(shells[0])), abs(float(shells[1]))
    tail = s0 * s0 / (s1 - s0) if s1 > s0 else (math.inf if s0 else 0.0)
    return q, abs(q - 2.0 * float(shells[1::2].sum())) + s0 + tail


def _centered(eng, c):
    """The row's mean and c (n_radial, 4) with mu = mean/norm taken off slot 0."""
    mean, e_mean = _row_sums(np.einsum("ak,ak->a", c, eng.moments[:, :, 0]))
    c = c.copy()
    c[:, 0] -= mean / eng.norm
    return mean, e_mean, c


def _row_statistics(eng, c, g2, slot, rows):
    """Mean, dispersion and quadrature error of one row i G + S phi, S = c . u, centered, its
    second moment shell-major.  A lone (n_radial, 1, 4) row takes another matmul kernel than a
    stacked one and differs in its last bits, so the row sits at its own slot of a zero stack
    of the engine's height: 15 rows at build, 3 X~(t) rows at a time."""
    mean, e_mean, c = _centered(eng, c)
    stack = np.zeros((len(c), rows, 4))
    stack[:, slot] = c
    shells = np.einsum("ark,ark->ra", stack @ eng.moments, stack)[slot]
    disp, e_disp = _row_sums(shells + g2)
    return mean, disp, max(e_mean, e_disp)


def _row_dispersion_three_operand(eng, c, g2):
    """The centered dispersion from one 3-operand einsum, and the row's sum of |terms|: every
    product c_k M_kl c_l of every shell, and every shell of w G^2."""
    c = _centered(eng, c)[2]
    disp = _row_sums(np.einsum("ak,akl,al->a", c, eng.moments, c) + g2)[0]
    terms = np.abs(c[:, :, None] * eng.moments * c[:, None, :]).sum() + np.abs(g2).sum()
    return disp, terms


def _row(eng, name, t=0.0):
    """c and the shells of w G^2 of one quadrature row, built on its own."""
    r, x0 = eng.grid.radial_nodes, eng.profile.x0
    e = np.sqrt(r**2 + eng.profile.m**2)
    c, g2 = np.zeros((len(r), 4)), np.zeros(len(r))
    i = int(name[1:] or 0)
    if name[0] == "X":
        c[:, 0], c[:, i] = x0[i - 1], t * r / e
        g2 = eng.gradient[0, i - 1]
    elif name[0] == "L":
        c[:, 1:] = np.outer(r, np.cross(np.eye(3)[i - 1], x0))
        g2 = eng.gradient[1, i - 1]
    else:
        c[:, i] = {"H": e, "P": r, "V": r / e}[name[0]]
    return c, g2


@pytest.mark.parametrize(
    "source, grid",
    [
        ("shell", QuadratureGrid(41.5, 48, 8, 16)),
        ("shell", QuadratureGrid(41.5, 120, 16, 32)),
        ("node", QuadratureGrid(12.0, 60, 16, 32)),
        ("node", QuadratureGrid(10.0, 48, 12, 24)),
    ],
)
def test_stacked_rows_match_per_row_evaluation(source, grid):
    # isotropic profile: shell tables; anisotropic Gaussian: node tables
    if source == "shell":
        prof = make_isotropic(1.3, 2.2, 1.0).profile(theta_s=0.7, x0=(0.3, -0.8, 0.5))
    else:
        prof = gaussian_profile()
    eng = PacketStatistics(prof, grid)
    quadrature = [name for name in OBSERVABLES if name[0] not in "SW"]
    assert len(quadrature) == 15
    for slot, name in enumerate(quadrature):
        rep = eng.report(name)
        mean, disp, err = _row_statistics(eng, *_row(eng, name), slot, 15)
        assert (rep.expectation, rep.dispersion, rep.quad_error) == (mean, disp, err), name
        # the 3-operand einsum the engine took before agrees to rounding (bound fixed a priori)
        old, terms = _row_dispersion_three_operand(eng, *_row(eng, name))
        assert abs(rep.dispersion - old) <= 4e-16 * terms, (name, rep.dispersion, old, terms)
    for t in (0.0, 2.5):
        rows = [_row(eng, f"X{i}", t) for i in (1, 2, 3)]
        want = [_row_statistics(eng, *row, slot, 3)[1] for slot, row in enumerate(rows)]
        got = eng.position_dispersion_at_time(t).tolist()
        assert got == want, t
        for d, row in zip(got, rows):
            old, terms = _row_dispersion_three_operand(eng, *row)
            assert abs(d - old) <= 4e-16 * terms, (t, d, old, terms)


@pytest.mark.parametrize("x", [1e2, 1e4, 1e6])
def test_centered_position_dispersion_far_from_origin(x):
    # disp X~ does not depend on x0; as second - mean^2 it read 0.16748 at x = 1e6, 8.1e-4
    # off 1/6 and beyond its quad_error.  Centered, the probe reads 1.7e-15 relative at every x.
    iso = make_isotropic(1.0, 2.0, 1.0)
    want = iso.gamma**2 / (6.0 * (iso.a - 1.0))
    rows = {r.observable: r for r in packet_reports(iso, 0.0, (x, 0.3 * x, -0.7 * x))}
    for name in ("X1", "X2", "X3"):
        r = rows[name]
        err = abs(r.dispersion - want)
        assert err <= 1e-12 * want, (name, r.dispersion)
        # beyond a rounding floor of 1e-14 relative, the row's quad_error bounds its error
        assert err <= max(r.quad_error, 1e-14 * want), (name, err, r.quad_error)


@pytest.mark.parametrize("gamma, pbar", [(0.7, 3.1), (1.0, 5.0)])
def test_massless_velocity_dispersion_is_zero_without_warning(gamma, pbar):
    # |V~| = |p|/E = 1 at m = 0: centered, S - <S> is 0 on every shell, where
    # second - mean^2 read -1.6e-15 and -2.0e-15 and was clipped with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reps = packet_reports(make_isotropic(gamma, pbar, 0.0), 0.4, (0.3, -0.2, 0.5))
    assert {r.observable: r for r in reps}["V"].dispersion == 0.0
