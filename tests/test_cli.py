import ast
import contextlib
import dataclasses
import io
import math
import subprocess
import sys

import numpy as np
import pytest

from diracmr import wavepacket
from diracmr.cli import COMMANDS, FiniteFloat, main
from diracmr.verify import SUITES, run_suite


@dataclasses.dataclass
class Result:
    exit_code: int
    output: str  # stdout and stderr together


def run_cli(*args):
    """``main(args)`` in-process, its stdout and stderr captured into one output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
            code = exc.code
    return Result(code, buf.getvalue())


def test_verify_suite_passes():
    res = run_cli("verify", "--suite", "pryce_spin", "--samples", "25", "--seed", "7")
    assert res.exit_code == 0, res.output
    assert "# summary:" in res.output
    assert "FAIL" not in res.output
    assert "PASS pryce_spin/su2_closure" in res.output


def test_verify_unreachable_tolerance_fails():
    res = run_cli(
        "verify", "--suite", "clifford", "--samples", "2", "--tol", "1e-30"
    )
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_verify_negative_tolerance_is_usage_error():
    # a negative tolerance fails every check, so it is refused up front; 0 stays
    # valid, the tolerance projectors/rest_norm_factor states itself
    res = run_cli("verify", "--suite", "clifford", "--samples", "2", "--tol", "-1")
    assert res.exit_code == 2
    assert "is negative" in res.output
    res = run_cli("verify", "--suite", "projectors", "--samples", "2", "--tol", "0")
    assert res.exit_code in (0, 1), res.output
    assert "PASS projectors/rest_norm_factor residual=0 tol=0\n" in res.output


def test_verify_negative_seed_is_usage_error():
    # exit 1 means a failed identity; a seed the generator refuses is a usage error
    res = run_cli("verify", "--suite", "clifford", "--samples", "2", "--seed", "-1")
    assert res.exit_code == 2
    assert "--seed" in res.output
    assert run_cli("verify", "--suite", "clifford", "--samples", "2", "--seed", "0").exit_code == 0


def test_verify_unknown_suite_is_usage_error():
    res = run_cli("verify", "--suite", "bogus")
    assert res.exit_code == 2
    with pytest.raises(KeyError, match="unknown suite 'nope'"):
        run_suite("nope")


def test_verify_bad_samples():
    res = run_cli("verify", "--suite", "clifford", "--samples", "0")
    assert res.exit_code == 2


def test_verify_bad_mass():
    for mass in ("0", "-1", "nan"):
        assert run_cli("verify", "--suite", "clifford", "--mass", mass).exit_code == 2


def test_packet_rows(tmp_path):
    out = tmp_path / "packet.csv"
    res = run_cli(
        "packet", "--gamma", "1", "--pbar", "2", "--theta-s", "0",
        "--x0", "0.5,0,0", "--grid-radial", "120", "--grid-cos", "16",
        "--grid-phi", "32", "--out", str(out),
    )
    assert res.exit_code == 0, res.output
    rows = out.read_text().strip().splitlines()
    header = rows[0].split(",")
    table = {r.split(",")[0]: r.split(",") for r in rows[1:]}
    exp = header.index("expectation")
    disp = header.index("dispersion")
    assert float(table["P"][exp]) == pytest.approx(2.0, rel=1e-8)
    assert float(table["P"][disp]) == pytest.approx(1.0, rel=1e-8)
    assert float(table["X1"][exp]) == pytest.approx(0.5, abs=1e-9)
    assert float(table["S3"][disp]) == 0.0


def test_packet_invalid_parameters_exit_2():
    assert run_cli("packet", "--gamma", "1", "--pbar", "0.5").exit_code == 2
    assert run_cli("packet", "--theta-s", "9").exit_code == 2
    assert run_cli("packet", "--x0", "1,2").exit_code == 2
    assert run_cli("packet", "--grid-radial", "0").exit_code == 2
    assert run_cli("packet", "--grid-cos", "-1").exit_code == 2
    assert run_cli("packet", "--grid-phi", "0").exit_code == 2
    assert run_cli("packet", "--mass", "-1").exit_code == 2
    assert run_cli("packet", "--mass", "0").exit_code == 2
    assert run_cli("packet", "--mass", "nan").exit_code == 2
    assert run_cli("packet", "--grid-radial", "1").exit_code == 2  # the radial rule needs 2 nodes


def test_figures_columns():
    res = run_cli("figures", "--which", "1", "--points", "10")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert lines[0] == "q,mean_H_over_E,scaled_disp_H"
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.all(vals[:, 1] > 1.0)
    assert np.all(vals[:, 2] < 1.0)
    res2 = run_cli("figures", "--which", "2", "--points", "10")
    vals2 = np.array(
        [[float(v) for v in ln.split(",")] for ln in res2.output.strip().splitlines()[1:]]
    )
    assert np.all(vals2[:, 1] < 1.0)


def test_figures_range_guard():
    assert run_cli("figures", "--q-min", "0.2").exit_code == 2
    assert run_cli("figures", "--q-min", "5", "--q-max", "2").exit_code == 2
    assert run_cli("figures", "--gamma-m", "0").exit_code == 2
    res = run_cli("figures", "--points", "0")
    assert res.exit_code == 2, res.output
    assert "need at least one point" in res.output


def _kernel_entries(output):
    """The printed kernel components, every matrix entry in order."""
    rows = [l.split() for l in output.splitlines() if l.startswith("  ") and "|K|" not in l]
    return np.array([complex(z) for row in rows for z in row])


def test_kernel_output_and_pole():
    res = run_cli("kernel", "--name", "pseudoscalar_osc", "--p", "0.3,0.2,0.5")
    assert res.exit_code == 0
    # the parent of the pseudoscalar kernel has no diagonal part
    label = "# parent diagonal associated part max|.| = "
    (diag_line,) = [l for l in res.output.splitlines() if l.startswith(label)]
    assert float(diag_line.removeprefix(label)) < 1e-12
    # phase negation at a quarter period of the 2E oscillation, t = pi/(2E), E = sqrt(2)
    args = ("kernel", "--name", "delta_x_osc", "--p", "0,0,1", "--t")
    res_0 = run_cli(*args, "0")
    res_t = run_cli(*args, repr(math.pi / (2.0 * math.sqrt(2.0))))
    assert res_0.exit_code == 0 and res_t.exit_code == 0
    k0, kt = _kernel_entries(res_0.output), _kernel_entries(res_t.output)
    assert k0.shape == (12,) and np.max(np.abs(k0)) > 0.2
    assert np.max(np.abs(kt + k0)) <= 1e-12
    # pole in the helicity basis is a usage error
    res_p = run_cli(
        "kernel", "--name", "delta_x_osc", "--p", "0,0,1", "--basis", "helicity"
    )
    assert res_p.exit_code == 2


def _phase_check(output):
    label = "# phase check |K(t)-exp(2iEt)K(0)| = "
    (line,) = [l for l in output.splitlines() if l.startswith(label)]
    return float(line.removeprefix(label))


def test_kernel_phase_check_compares_with_the_evolved_parent(monkeypatch):
    # the printed phase check reads K(t) against the parent evolved by exp(-i H_D t),
    # so a kernel off its parent by 1e-4 fails it; K(t) against exp(2iEt) K(0)
    # would read 0 for any kernel
    from diracmr.associated import KERNEL_CATALOG

    args = ("kernel", "--name", "delta_x_osc", "--p", "0.3,-0.4,0.5", "--t", "0.7")
    for basis in ("common", "helicity"):
        res = run_cli(*args, "--basis", basis)
        assert res.exit_code == 0, res.output
        assert _phase_check(res.output) <= 1e-14
    ker = KERNEL_CATALOG["delta_x_osc"]
    scaled = dataclasses.replace(ker, coef=lambda q: 1.0001 * ker.coef(q))
    monkeypatch.setitem(KERNEL_CATALOG, "delta_x_osc", scaled)
    res = run_cli(*args)
    assert res.exit_code == 0, res.output
    assert _phase_check(res.output) > 1e-12


def test_kernel_rejects_non_finite_input():
    res = run_cli("kernel", "--name", "delta_x_osc", "--p", "nan,0,1")
    assert res.exit_code == 2
    assert "finite" in res.output
    assert run_cli("kernel", "--name", "delta_x_osc", "--mass", "nan").exit_code == 2
    res = run_cli("kernel", "--name", "delta_x_osc", "--p", "1,a,2")
    assert res.exit_code == 2, res.output
    assert "--p must be three comma-separated numbers" in res.output


def test_kernel_rejects_overflowing_momentum():
    # |p|^2 overflows from about 1.3e154, so E is inf; from |p| ~ 1e103 the kernel's
    # E^3 overflows, and both printed nan or zero entries with exit 0
    for p in ("1e160,0,0", "1e150,0,0", "0,-1e160,1"):
        for basis in ("common", "helicity"):
            res = run_cli("kernel", "--name", "delta_x_osc", "--p", p, "--basis", basis)
            assert res.exit_code == 2, (p, basis, res.output)
            assert "--p at --mass out of the double range" in res.output
            assert "nan" not in res.output
    assert run_cli("kernel", "--name", "delta_x_osc", "--p", "1e100,0,0").exit_code == 0


def test_figures_refuse_rows_past_the_radial_rule():
    # past the radial rule's reach disp H = <H^2> - <H>^2 reads twice its value at
    # q = 2e3 and negative at 5e3; figure 2 has no such cancellation and keeps its rows
    for q in ("5000", "2000"):
        res = run_cli("figures", "--which", "1", "--q-min", "1", "--points", "1", "--q-max", q)
        assert res.exit_code == 2, (q, res.output)
        assert "radial-rule error estimate" in res.output and "Traceback" not in res.output
    res = run_cli("figures", "--which", "2", "--q-min", "1", "--points", "1", "--q-max", "5000")
    assert res.exit_code == 0, res.output


def test_figures_default_output_does_not_read_the_guard(monkeypatch):
    # the refusal only refuses: with its bound lifted, the default rows of both
    # figures print byte for byte as with it
    for which in ("1", "2"):
        guarded = run_cli("figures", "--which", which)
        with monkeypatch.context() as patch:
            patch.setattr(wavepacket, "FIGURE_RULE_TOL", math.inf)
            unguarded = run_cli("figures", "--which", which)
        assert guarded.exit_code == unguarded.exit_code == 0, guarded.output
        assert guarded.output == unguarded.output


def test_figures_overflow_is_usage_error():
    # (q/gamma_m)^2 beyond the double range raised OverflowError, exit 1 with a traceback
    for args in (("--q-max", "1e160"), ("--gamma-m", "1e-300")):
        res = run_cli("figures", *args, "--points", "2")
        assert res.exit_code == 2, (args, res.output)
        assert "out of the double range" in res.output


def test_values_starting_with_dash_and_no_abbreviations():
    # every option takes one value, so a value starting with '-' is read as the value
    res = run_cli("packet", "--x0", "-0.5,0.25,-0.1", "--grid-radial", "40",
                  "--grid-cos", "8", "--grid-phi", "16")
    assert res.exit_code == 0, res.output
    row = [l for l in res.output.splitlines() if l.startswith("X1,")][0]
    assert float(row.split(",")[1]) == pytest.approx(-0.5, abs=1e-9)
    for args in (("--p", "-0.3,0.1,-0.2", "--basis", "helicity"), ("--t", "-1e-3")):
        res = run_cli("kernel", "--name", "delta_x_osc", *args)
        assert res.exit_code == 0, (args, res.output)
    assert "t=-0.001 " in res.output
    # an option name is never completed from a prefix
    res = run_cli("verify", "--suite", "clifford", "--samp", "3")
    assert res.exit_code == 2, res.output
    assert run_cli("verify", "--suite", "clifford", "--samples").exit_code == 2


def test_help_names_every_option():
    res = run_cli("--help")
    assert res.exit_code == 0, res.output
    assert all(name in res.output for name in COMMANDS)
    for name, (_, options) in COMMANDS.items():
        res = run_cli(name, "--help")
        assert res.exit_code == 0, (name, res.output)
        for flag in ("--help", "--config", *(opt[0] for opt in options)):
            assert flag in res.output, (name, flag)
    res = run_cli("verify", "--help")
    assert all(suite in res.output for suite in ("all", *SUITES)), res.output


def test_every_float_option_rejects_non_finite():
    # kernel --t nan, packet --gamma inf, figures --q-max inf, verify --tol nan and the
    # rest are usage errors, not nan rows or failed checks
    required = {"kernel": ["--name", "delta_x_osc"]}
    seen = 0
    for name, (_, options) in COMMANDS.items():
        for flag, type_, *_ in options:
            assert type_ is not float, (name, flag)  # a bare float would pass nan
            if not isinstance(type_, FiniteFloat):
                continue
            for bad in ("nan", "inf", "-inf"):
                res = run_cli(name, *required.get(name, []), flag, bad)
                assert res.exit_code == 2, (name, flag, bad, res.output)
                assert "not a finite number" in res.output
            seen += 1
    assert seen == 11


def test_kernel_quarter_period_negation():
    from diracmr.algebra import Momentum
    from diracmr.associated import KERNEL_CATALOG
    from diracmr.polarization import CommonBasis

    q = Momentum((0.2, 0.1, 0.7))
    half = np.pi / (2 * q.energy)
    k0 = KERNEL_CATALOG["delta_x_osc"](q, 0.0, CommonBasis())
    k1 = KERNEL_CATALOG["delta_x_osc"](q, half, CommonBasis())
    assert np.max(np.abs(k1 + k0)) < 1e-12


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# packet defaults\ngamma=1\npbar=3\ntheta-s=0\n")
    res = run_cli("packet", "--config", str(cfg), "--grid-radial", "100",
                  "--grid-cos", "8", "--grid-phi", "16")
    assert res.exit_code == 0
    row = [l for l in res.output.splitlines() if l.startswith("P,")][0]
    assert float(row.split(",")[1]) == pytest.approx(3.0, rel=1e-6)
    # flag overrides the file value
    res2 = run_cli("packet", "--config", str(cfg), "--pbar", "2",
                   "--grid-radial", "100", "--grid-cos", "8", "--grid-phi", "16")
    row2 = [l for l in res2.output.splitlines() if l.startswith("P,")][0]
    assert float(row2.split(",")[1]) == pytest.approx(2.0, rel=1e-6)
    bad = tmp_path / "bad.cfg"
    bad.write_text("no equals sign here\n")
    assert run_cli("packet", "--config", str(bad)).exit_code == 2
    res = run_cli("packet", "--config", str(tmp_path / "missing.cfg"))
    assert res.exit_code == 2, res.output
    assert "cannot read config file" in res.output
    # a key that names no option of the command is refused, not ignored
    for command, key in (("verify", "sampels"), ("packet", "gama"), ("packet", "config")):
        typo = tmp_path / f"{command}-{key}.cfg"
        typo.write_text(f"{key}=3\n")
        res = run_cli(command, "--config", str(typo))
        assert res.exit_code == 2, (command, key, res.output)
        assert f"unknown key '{key}'" in res.output
    # file values pass the same type, range and choice checks as flags
    for command, text, message in (
        ("verify", "suite=bogus\n", "invalid choice: 'bogus'"),
        ("verify", "mass=nan\n", "not a finite number"),
        ("verify", "samples=0\n", "not in the range"),
    ):
        checked = tmp_path / "checked.cfg"
        checked.write_text(text)
        res = run_cli(command, "--config", str(checked))
        assert res.exit_code == 2, (text, res.output)
        assert message in res.output, (text, res.output)
    # and a file value satisfies a required option
    named = tmp_path / "kernel.cfg"
    named.write_text("name=delta_x_osc\np=-0.3,0.1,-0.2\n")
    res = run_cli("kernel", "--config", str(named))
    assert res.exit_code == 0, res.output
    assert res.output.startswith("# kernel delta_x_osc parent=delta_x basis=common\n")
    assert "# p=(-0.29999999999999999, 0.10000000000000001, -0.20000000000000001)" in res.output


def test_unwritable_out_is_usage_error(tmp_path):
    missing = tmp_path / "no-such-dir" / "x.txt"
    res = run_cli("kernel", "--name", "delta_x_osc", "--out", str(missing))
    assert res.exit_code == 2, res.output
    assert "cannot write output file" in res.output
    assert not missing.exists()


def _run_subprocess(args, out):
    cmd = [sys.executable, "-m", "diracmr.cli", *args, "--out", str(out)]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["verify", "--suite", "boosts", "--samples", "40", "--seed", "7"]
    assert _run_subprocess(args, a).returncode == 0
    assert _run_subprocess(args, b).returncode == 0
    assert a.read_bytes() == b.read_bytes()
    fa, fb = tmp_path / "f1.csv", tmp_path / "f2.csv"
    args = ["figures", "--which", "1", "--points", "12"]
    assert _run_subprocess(args, fa).returncode == 0
    assert _run_subprocess(args, fb).returncode == 0
    assert fa.read_bytes() == fb.read_bytes()


def test_commands_run_without_scipy():
    # the runtime dependency is numpy only
    blocked = (
        "import sys; sys.modules['scipy'] = sys.modules['click'] = None; "
        "from diracmr.cli import main; sys.exit(main())"
    )
    for args in (
        ["figures", "--which", "2"],
        ["packet", "--grid-radial", "40", "--grid-cos", "8", "--grid-phi", "16"],
        ["verify", "--suite", "clifford"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", blocked, *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, (args, proc.stderr)


def _loaded_modules(code, *args):
    """The ``diracmr`` modules a fresh interpreter holds when ``code`` exits."""
    hook = (
        "import atexit, sys; atexit.register(lambda: print(sorted("
        "m for m in sys.modules if m.startswith('diracmr'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", hook + code, *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, (args, proc.stderr)
    return {m.removeprefix("diracmr.") for m in ast.literal_eval(proc.stdout.splitlines()[-1])}


def test_commands_import_only_the_modules_they_run():
    command = "from diracmr.cli import main; main()"
    numerics = {"associated", "operators", "polarization", "spinors", "sampling", "verify"}
    for args in (
        ["figures", "--which", "1", "--points", "3"],
        ["packet", "--grid-radial", "40", "--grid-cos", "8", "--grid-phi", "16"],
    ):
        loaded = _loaded_modules(command, *args)
        assert "wavepacket" in loaded and not loaded & numerics, (args, loaded)
    loaded = _loaded_modules(command, "kernel", "--name", "delta_x_osc")
    assert "associated" in loaded and not loaded & {"verify", "sampling", "wavepacket"}, loaded
    assert _loaded_modules("import diracmr") == {"diracmr"}
