"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line with the measured worst residual and
elapsed time; tolerances and runtime budgets are asserted as stated.
"""

import subprocess
import sys
import time

import numpy as np

from diracmr.algebra import GAMMA, GAMMA5, Momentum
from diracmr.associated import KERNEL_CATALOG, KernelTable, matrix_elements_offdiag
from diracmr.operators import OPERATOR_CATALOG, decompose_diag_osc
from diracmr.polarization import CommonBasis, HelicityBasis, PoleError, spinor_pair
from diracmr.sampling import sample_momenta
from diracmr.spinors import dirac_residuals, norm_factor, projector_from_spinors
from diracmr.operators import projectors
from diracmr.verify import run_suite
from diracmr.wavepacket import figure_data, make_isotropic, packet_reports


def _report(num: int, label: str, passed: bool, detail: str, elapsed: float):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {status} {label}: {detail} ({elapsed:.2f} s)")


def test_criterion_1_operator_identity_suite():
    t0 = time.perf_counter()
    fd_checks = {"offset_matches_boost_derivative", "chakrabarti_nonconservation_witness"}
    worst = 0.0
    fails = []
    for suite in ("clifford", "boosts", "projectors", "pryce_spin", "spin_types", "pauli_lubanski"):
        for r in run_suite(suite, samples=100, seed=7, mass=1.0):
            if r.name in fd_checks:
                if not r.passed:
                    fails.append(f"{suite}/{r.name}")
                continue
            worst = max(worst, r.residual)
            if r.residual > 1e-12:
                fails.append(f"{suite}/{r.name}")
    elapsed = time.perf_counter() - t0
    ok = not fails and elapsed <= 5.0
    _report(1, "closed-form operator identities at 100 momenta",
            ok, f"max residual {worst:.3e} <= 1e-12", elapsed)
    assert not fails, fails
    assert worst <= 1e-12
    assert elapsed <= 5.0


def test_criterion_2_appendix_b_commutators():
    t0 = time.perf_counter()
    results = run_suite("appendix_b", samples=20, seed=7, mass=1.0)
    elapsed = time.perf_counter() - t0
    fails = [r for r in results if not r.passed]
    worst_fd = max(r.residual for r in results if r.tol == 1e-5)
    worst_pt = max(r.residual for r in results if r.tol == 1e-12)
    ok = not fails and elapsed <= 30.0
    _report(2, "associated-operator commutator ledger (3 spinors x 20 momenta)",
            ok, f"FD worst {worst_fd:.3e} <= 1e-5, pointwise worst {worst_pt:.3e} <= 1e-12",
            elapsed)
    assert not fails, [f"{r.name}:{r.residual}" for r in fails]
    assert elapsed <= 30.0


def test_criterion_3_isotropic_closed_forms():
    t0 = time.perf_counter()
    iso = make_isotropic(1.0, 2.0, 1.0)
    rep = {r.observable: r for r in packet_reports(iso, 0.0, (0, 0, 0))}
    checks = {
        "mean P": (rep["P"].expectation, 2.0, 1e-8),
        "disp P": (rep["P"].dispersion, 1.0, 1e-8),
        "mean H^2": (rep["H"].dispersion + rep["H"].expectation ** 2, 6.0, 1e-8),
        "disp X": (rep["X1"].dispersion, 1.0 / 6.0, 1e-6),
        "second moment P^i": (
            rep["P1"].dispersion + rep["P1"].expectation ** 2, 5.0 / 3.0, 1e-6,
        ),
    }
    worst = max(abs(got - ref) / abs(ref) for got, ref, _ in checks.values())
    elapsed = time.perf_counter() - t0
    ok = all(abs(g - r) / abs(r) <= tol for g, r, tol in checks.values()) and elapsed <= 2.0
    _report(3, "isotropic packet closed forms (gamma=1, pbar=2, m=1)",
            ok, f"worst relative error {worst:.3e}", elapsed)
    for name, (got, ref, tol) in checks.items():
        assert abs(got - ref) / abs(ref) <= tol, name
    assert elapsed <= 2.0


def test_criterion_4_figure_reproduction():
    t0 = time.perf_counter()
    f1 = figure_data(1, 1.0, 7.0, 60, 1.0)
    f2 = figure_data(2, 1.0, 7.0, 60, 1.0)
    elapsed = time.perf_counter() - t0
    conds = {
        "H ratio above 1": np.all(f1[:, 1] > 1.0),
        "H ratio decreasing": np.all(np.diff(f1[:, 1]) < 0),
        "scaled disp(H) in (0,1)": np.all((f1[:, 2] > 0) & (f1[:, 2] < 1)),
        "scaled disp(H) increasing": np.all(np.diff(f1[:, 2]) > 0),
        "V ratio in (0,1)": np.all((f2[:, 1] > 0) & (f2[:, 1] < 1)),
        "V ratio increasing": np.all(np.diff(f2[:, 1]) > 0),
        "disp(V) positive": np.all(f2[:, 2] > 0),
        "disp(V) decaying": f2[-1, 2] < f2[0, 2],
        "H endpoint near 1": abs(f1[-1, 1] - 1.0) < 0.2,
        "disp endpoint near 1": abs(f1[-1, 2] - 1.0) < 0.2,
        "V endpoint near 1": abs(f2[-1, 1] - 1.0) < 0.2,
    }
    ok = all(conds.values()) and elapsed <= 10.0
    _report(4, "figure curves over q in (1,7], 60 points",
            ok, f"endpoints H={f1[-1, 1]:.4f}, dH={f1[-1, 2]:.4f}, V={f2[-1, 1]:.4f}", elapsed)
    for name, val in conds.items():
        assert val, name
    assert elapsed <= 10.0


def test_criterion_5_polarization_suite():
    t0 = time.perf_counter()
    hel = HelicityBasis()
    com = CommonBasis()
    worst_exact = 0.0
    worst_closed = 0.0
    worst_fd = 0.0
    for q in sample_momenta(100, 1.0, seed=7, avoid_poles=True):
        p = q.p
        for basis in (com, hel):
            xi = basis.xi(p)
            eta = basis.eta(p)
            for mats in (xi, eta):
                worst_exact = max(
                    worst_exact,
                    np.max(np.abs(mats.conj().T @ mats - np.eye(2))),
                    np.max(np.abs(mats @ mats.conj().T - np.eye(2))),
                )
        sig = hel.sigma(p)
        om = hel.omega(p)
        worst_closed = max(
            worst_closed,
            np.max(np.abs(np.einsum("i,iab->ab", p, sig) - q.mag * np.diag([1, -1]))),
            np.max(np.abs(np.einsum("i,iab->ab", p, om))),
            max(np.max(np.abs(om[i] + om[i].conj().T)) for i in range(3)),
        )
        fd = hel.omega_fd(p, h=1e-4 * q.mag)
        worst_fd = max(worst_fd, np.max(np.abs(fd - om)))
    # pole error within eps_pole of the p + p3 = 0 ray
    pole_raised = False
    try:
        hel.xi(np.array([0.0, 0.0, -1.0]) + np.array([1e-11, 0.0, 0.0]))
    except PoleError:
        pole_raised = True
    try:
        spinor_pair(np.array([0.0, 0.0, -1.0]))
        pole_common = False
    except PoleError:
        pole_common = True
    elapsed = time.perf_counter() - t0
    ok = (
        worst_exact <= 1e-14
        and worst_closed <= 1e-12
        and worst_fd <= 1e-6
        and pole_raised
        and pole_common
    )
    _report(5, "polarization bases (orthonormality, helicity identities, poles)",
            ok, f"ortho {worst_exact:.2e}, closed {worst_closed:.2e}, fd {worst_fd:.2e}",
            elapsed)
    assert worst_exact <= 1e-14
    assert worst_closed <= 1e-12
    assert worst_fd <= 1e-6
    assert pole_raised and pole_common


def test_criterion_6_mode_spinors():
    t0 = time.perf_counter()
    worst_dirac = 0.0
    worst_proj = 0.0
    for basis in (CommonBasis(), HelicityBasis()):
        for q in sample_momenta(100, 1.0, seed=7, avoid_poles=True):
            ru, rv = dirac_residuals(basis, q)
            worst_dirac = max(worst_dirac, ru, rv)
            pp, pm = projector_from_spinors(basis, q)
            plus, minus = projectors(q)
            worst_proj = max(
                worst_proj, np.max(np.abs(pp - plus)), np.max(np.abs(pm - minus))
            )
    n0 = norm_factor(Momentum(np.zeros(3), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_dirac <= 1e-12 and worst_proj <= 1e-12 and n0 == 1.0
    _report(6, "mode spinors (Dirac residuals, projector reconstruction, n(0)=1)",
            ok, f"dirac {worst_dirac:.2e}, projector {worst_proj:.2e}, n(0)={n0}", elapsed)
    assert worst_dirac <= 1e-12
    assert worst_proj <= 1e-12
    assert n0 == 1.0


def test_criterion_7_oscillating_kernels():
    t0 = time.perf_counter()
    worst_match = 0.0
    worst_dt = 0.0
    worst_haha = 0.0
    worst_diag = 0.0
    t = 0.42
    for q in sample_momenta(30, 1.0, seed=7, avoid_poles=True):
        e = q.energy
        for basis in (CommonBasis(), HelicityBasis()):
            for name, ker in KERNEL_CATALOG.items():
                kv = ker(q, t, basis)
                worst_match = max(
                    worst_match, np.max(np.abs(kv - KernelTable((ker,), q, basis).from_offdiag(t)))
                )
                h = 1e-6 / e
                dk = (
                    -ker(q, t + 2 * h, basis)
                    + 8 * ker(q, t + h, basis)
                    - 8 * ker(q, t - h, basis)
                    + ker(q, t - 2 * h, basis)
                ) / (12 * h)
                scale = max(np.max(np.abs(2j * e * kv)), 1e-30)
                worst_dt = max(worst_dt, np.max(np.abs(dk - 2j * e * kv)) / scale)
            for name in ("delta_x", "gamma0", "pauli_dirac_spin", "h_dirac"):
                pm, mp = matrix_elements_offdiag(OPERATOR_CATALOG[name], q, t, basis)
                worst_haha = max(
                    worst_haha, np.max(np.abs(np.transpose(pm.conj(), (0, 2, 1)) - mp))
                )
        parts = decompose_diag_osc(GAMMA[0] @ GAMMA5, q)
        worst_diag = max(worst_diag, np.max(np.abs(parts[0])), np.max(np.abs(parts[1])))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_match <= 1e-10
        and worst_dt <= 1e-6
        and worst_haha <= 1e-12
        and worst_diag <= 1e-12
    )
    _report(7, "oscillating kernels (closed forms vs machinery, phases, pairing)",
            ok, f"match {worst_match:.2e}, d/dt {worst_dt:.2e}, pairing {worst_haha:.2e}",
            elapsed)
    assert worst_match <= 1e-10
    assert worst_dt <= 1e-6
    assert worst_haha <= 1e-12
    assert worst_diag <= 1e-12


def test_criterion_8_wigner_suite():
    t0 = time.perf_counter()
    results = {r.name: r for r in run_suite("wigner", samples=100, seed=7, mass=1.0)}
    elapsed = time.perf_counter() - t0
    d_uni = results["d_unitary"]
    rot = results["rotation_momentum_independent"]
    norm = results["boost_norm_preservation"]
    ok = d_uni.residual <= 1e-12 and rot.residual <= 1e-12 and norm.residual <= 1e-8
    _report(8, "Wigner representation (unitarity, rotations, norm preservation)",
            ok, f"unitary {d_uni.residual:.2e}, rotation {rot.residual:.2e}, "
                f"norm {norm.residual:.2e}", elapsed)
    assert d_uni.residual <= 1e-12
    assert rot.residual <= 1e-12
    assert norm.residual <= 1e-8


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()

    def run(args, out):
        cmd = [sys.executable, "-m", "diracmr.cli", *args, "--out", str(out)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    v1 = run(["verify", "--suite", "all", "--seed", "7"], tmp_path / "v1.txt")
    v2 = run(["verify", "--suite", "all", "--seed", "7"], tmp_path / "v2.txt")
    f1 = run(["figures", "--which", "1"], tmp_path / "f1.csv")
    f2 = run(["figures", "--which", "1"], tmp_path / "f2.csv")
    elapsed = time.perf_counter() - t0
    ok = v1 == v2 and f1 == f2
    _report(9, "CLI determinism (verify --suite all, figures --which 1)",
            ok, f"verify bytes {len(v1)}, figures bytes {len(f1)}", elapsed)
    assert v1 == v2
    assert f1 == f2
