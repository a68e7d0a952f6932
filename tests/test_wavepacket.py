import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from diracmr.polarization import HelicityBasis
from diracmr.wavepacket import (
    NormalizationError,
    PacketProfile,
    PacketStatistics,
    QuadratureGrid,
    cone_filter,
    expectation_and_dispersion,
    figure_data,
    g_integral,
    isotropic_closed_forms,
    make_isotropic,
    packet_reports,
    position_dispersion_at_time,
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
    assert np.allclose(
        position_dispersion_at_time(prof, 2.0, GRID), d0 + 4.0 * dv, rtol=1e-12
    )
    with pytest.raises(ValueError):
        eng.position_dispersion_at_time(-1.0)


def test_peculiar_basis_rejected_for_packets():
    with pytest.raises(NotImplementedError):
        PacketProfile(
            phi=lambda pts: ISO.radial(np.linalg.norm(pts, axis=-1)),
            grad_phi=lambda pts: np.zeros_like(pts),
            m=1.0,
            basis=HelicityBasis(),
        )


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


def test_figure_data_guards():
    with pytest.raises(ValueError):
        figure_data(3)
    with pytest.raises(ValueError):
        figure_data(1, q_min=0.5)
    with pytest.raises(ValueError):
        figure_data(1, q_min=2.0, q_max=1.0)
    with pytest.raises(ValueError):
        figure_data(1, gamma_m=0.0)


def test_expectation_and_dispersion_wrapper():
    prof = ISO.profile(theta_s=0.3)
    rep = expectation_and_dispersion(prof, "S1", GRID)
    assert rep.expectation == pytest.approx(np.sin(0.3) / 2, abs=1e-12)
    with pytest.raises(KeyError):
        expectation_and_dispersion(prof, "Q", GRID)


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


@pytest.mark.parametrize("shape", [DEFAULT_SHAPE, (100, 16, 32)])
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
