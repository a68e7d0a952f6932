import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner

from diracmr.cli import FiniteFloat, main


def run_cli(*args):
    runner = CliRunner()
    return runner.invoke(main, list(args))


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


def test_verify_unknown_suite_is_usage_error():
    res = run_cli("verify", "--suite", "bogus")
    assert res.exit_code == 2


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


def test_kernel_output_and_pole():
    res = run_cli("kernel", "--name", "pseudoscalar_osc", "--p", "0.3,0.2,0.5")
    assert res.exit_code == 0
    assert "parent diagonal associated part max|.| = 0" in res.output or (
        "parent diagonal associated part" in res.output
    )
    # the parent of the pseudoscalar kernel has no diagonal part
    diag_line = [l for l in res.output.splitlines() if "parent diagonal" in l][0]
    assert float(diag_line.rsplit("=", 1)[1]) < 1e-12
    # phase negation at a quarter period of the 2E oscillation
    res_t = run_cli(
        "kernel", "--name", "delta_x_osc", "--p", "0,0,1", "--t", "0",
    )
    assert res_t.exit_code == 0
    # pole in the helicity basis is a usage error
    res_p = run_cli(
        "kernel", "--name", "delta_x_osc", "--p", "0,0,1", "--basis", "helicity"
    )
    assert res_p.exit_code == 2


def test_kernel_rejects_non_finite_input():
    res = run_cli("kernel", "--name", "delta_x_osc", "--p", "nan,0,1")
    assert res.exit_code == 2
    assert "finite" in res.output
    assert run_cli("kernel", "--name", "delta_x_osc", "--mass", "nan").exit_code == 2


def test_every_float_option_rejects_non_finite():
    # kernel --t nan, packet --gamma inf, figures --q-max inf, verify --tol nan and the
    # rest are usage errors, not nan rows or failed checks
    required = {"kernel": ["--name", "delta_x_osc"]}
    seen = 0
    for name, cmd in main.commands.items():
        for param in cmd.params:
            if not isinstance(param.type, click.types.FloatParamType):
                continue
            assert isinstance(param.type, FiniteFloat), (name, param.name)
            for bad in ("nan", "inf", "-inf"):
                res = run_cli(name, *required.get(name, []), param.opts[0], bad)
                assert res.exit_code == 2, (name, param.opts[0], bad, res.output)
                assert "not a finite number" in res.output
            seen += 1
    assert seen == 11


def test_kernel_quarter_period_negation():
    from diracmr.algebra import Momentum
    from diracmr.associated import zitter_kernel
    from diracmr.polarization import CommonBasis

    q = Momentum.of(0.2, 0.1, 0.7)
    half = np.pi / (2 * q.energy)
    k0 = zitter_kernel("delta_x_osc", q, 0.0, CommonBasis())
    k1 = zitter_kernel("delta_x_osc", q, half, CommonBasis())
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
    # runtime dependencies are numpy and click only
    blocked = "import sys; sys.modules['scipy'] = None; from diracmr.cli import main; main()"
    for args in (
        ["figures", "--which", "2"],
        ["packet", "--grid-radial", "40", "--grid-cos", "8", "--grid-phi", "16"],
        ["verify", "--suite", "clifford"],
    ):
        proc = subprocess.run(
            [sys.executable, "-c", blocked, *args], capture_output=True, text=True
        )
        assert proc.returncode == 0, (args, proc.stderr)
