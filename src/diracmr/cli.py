"""Command-line front end: verification suites, packet statistics, figure
data tables and oscillating-kernel evaluation.

Numbers are printed with 17 significant digits and runs are byte-reproducible
for identical configuration.  Exit codes: 0 success, 1 failed identity,
2 usage or configuration error.

Each command imports the package modules it runs inside its own body, and
the ``--suite`` and ``--name`` choices are read on first use, so ``figures``
and ``packet`` load only ``wavepacket`` (and ``algebra``), and ``kernel``
only ``associated`` and what it imports.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys

import click
import numpy as np


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write output file: {exc}")
    else:
        click.echo(text, nl=False)


def _parse_vec(value: str, name: str) -> np.ndarray:
    try:
        parts = [float(v) for v in value.split(",")]
    except ValueError:
        raise click.UsageError(f"{name} must be three comma-separated numbers")
    if len(parts) != 3 or not np.all(np.isfinite(parts)):
        raise click.UsageError(f"{name} must have exactly three finite components")
    return np.array(parts)


class FiniteFloat(click.types.FloatParamType):
    """Float option that rejects nan and +-inf, and non-positive or negative values if asked."""

    def __init__(self, positive: bool = False, nonnegative: bool = False):
        self.positive, self.nonnegative = positive, nonnegative

    def convert(self, value, param, ctx) -> float:
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv!r} is not a finite number", param, ctx)
        if self.positive and rv <= 0:
            self.fail(f"{rv!r} is not positive", param, ctx)
        if self.nonnegative and rv < 0:
            self.fail(f"{rv!r} is negative", param, ctx)
        return rv


class LazyChoice(click.Choice):
    """Choice among ``head`` and the keys of the table ``module.table``, read
    from the package when the option is first parsed or shown."""

    def __init__(self, module: str, table: str, head: tuple = ()):
        self.module, self.table, self.head = module, table, head
        self.case_sensitive = True

    @functools.cached_property
    def choices(self) -> tuple:
        module = importlib.import_module(f".{self.module}", __package__)
        return self.head + tuple(getattr(module, self.table))


FINITE = FiniteFloat()
POSITIVE = FiniteFloat(positive=True)
NONNEGATIVE = FiniteFloat(nonnegative=True)


def _load_config(ctx: click.Context, param, value):
    """Flat key=value file; keys use the flag names with '-' or '_' and must
    name an option of the command."""
    if not value:
        return value
    options = {p.name for p in ctx.command.params if p.expose_value}
    defaults: dict[str, str] = {}
    try:
        with open(value) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(
                        f"{value}:{lineno}: expected key=value, got {raw.strip()!r}"
                    )
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in options:
                    raise click.UsageError(
                        f"{value}:{lineno}: unknown key {key!r}; options are "
                        + ", ".join(sorted(options))
                    )
                defaults[key] = val.strip()
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}")
    ctx.default_map = {**(ctx.default_map or {}), **defaults}
    return value


def config_option(fn):
    return click.option(
        "--config",
        type=str,
        default=None,
        is_eager=True,
        expose_value=False,
        callback=_load_config,
        help="Flat key=value config file; flags override file values.",
    )(fn)


@click.group()
def main():
    """Momentum-space operator toolkit for the free Dirac field."""


@main.command()
@config_option
@click.option(
    "--suite", type=LazyChoice("verify", "SUITES", head=("all",)), default="all",
    show_default=True,
)
@click.option("--samples", type=click.IntRange(min=1), default=100, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=7, show_default=True)
@click.option("--mass", type=POSITIVE, default=1.0, show_default=True)
@click.option("--tol", type=NONNEGATIVE, default=None, help="Override every check tolerance.")
@click.option("--out", type=str, default=None, help="Write the report to a file.")
def verify(suite, samples, seed, mass, tol, out):
    """Run a named identity suite and report residuals."""
    from .verify import run_suite

    results = run_suite(suite, samples=samples, seed=seed, mass=mass, tol=tol)
    lines = [
        f"# diracmr verify suite={suite} samples={samples} seed={seed} "
        f"mass={_fmt(mass)} tol={'default' if tol is None else _fmt(tol)}"
    ]
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failures += 0 if r.passed else 1
        lines.append(
            f"{status} {r.suite}/{r.name} residual={_fmt(r.residual)} tol={_fmt(r.tol)}"
        )
    lines.append(f"# summary: checks={len(results)} failures={failures}")
    _emit("\n".join(lines) + "\n", out)
    if failures:
        sys.exit(1)


@main.command()
@config_option
@click.option("--gamma", type=FINITE, default=1.0, show_default=True)
@click.option("--pbar", type=FINITE, default=2.0, show_default=True)
@click.option("--mass", type=POSITIVE, default=1.0, show_default=True)
@click.option("--theta-s", type=FINITE, default=0.0, show_default=True)
@click.option("--x0", type=str, default="0,0,0", show_default=True)
@click.option("--grid-radial", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--grid-cos", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--grid-phi", type=click.IntRange(min=1), default=64, show_default=True)
@click.option("--out", type=str, default=None)
def packet(gamma, pbar, mass, theta_s, x0, grid_radial, grid_cos, grid_phi, out):
    """Statistics table of an isotropic one-particle wave packet."""
    from .wavepacket import IsotropicProfile, packet_reports

    x0v = _parse_vec(x0, "--x0")
    try:
        iso = IsotropicProfile(gamma, pbar, mass)
        grid = iso.default_grid(grid_radial, grid_cos, grid_phi)
        reports = packet_reports(iso, theta_s, x0v, grid)
    except ValueError as exc:  # packet parameters, theta-s, or a grid too coarse to normalize
        raise click.UsageError(str(exc))
    rows = [
        "observable,expectation,dispersion,uncertainty,"
        "closed_expectation,closed_dispersion,rel_error,quad_error"
    ]
    for r in reports:
        ce = _fmt(r.closed_expectation) if r.closed_expectation is not None else ""
        cd = _fmt(r.closed_dispersion) if r.closed_dispersion is not None else ""
        re_ = _fmt(r.rel_error) if r.rel_error is not None else ""
        rows.append(
            f"{r.observable},{_fmt(r.expectation)},{_fmt(r.dispersion)},"
            f"{_fmt(r.uncertainty)},{ce},{cd},{re_},{_fmt(r.quad_error)}"
        )
    _emit("\n".join(rows) + "\n", out)


@main.command()
@config_option
@click.option("--which", type=click.IntRange(1, 2), default=1, show_default=True)
@click.option("--q-min", type=FINITE, default=1.0, show_default=True)
@click.option("--q-max", type=FINITE, default=7.0, show_default=True)
@click.option("--points", type=int, default=60, show_default=True)
@click.option("--gamma-m", type=FINITE, default=1.0, show_default=True)
@click.option("--out", type=str, default=None)
def figures(which, q_min, q_max, points, gamma_m, out):
    """Emit the ratio curves of the energy/velocity statistics versus q."""
    from .wavepacket import figure_data

    try:
        rows = figure_data(which, q_min, q_max, points, gamma_m)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    header = (
        "q,mean_H_over_E,scaled_disp_H" if which == 1 else "q,mean_V_over_V,disp_V"
    )
    body = [header]
    for row in rows:
        body.append(",".join(_fmt(v) for v in row))
    _emit("\n".join(body) + "\n", out)


@main.command()
@config_option
@click.option("--name", type=LazyChoice("associated", "KERNEL_CATALOG"), required=True)
@click.option("--p", type=str, default="0,0,1", show_default=True)
@click.option("--t", type=FINITE, default=0.0, show_default=True)
@click.option("--mass", type=POSITIVE, default=1.0, show_default=True)
@click.option(
    "--basis", type=click.Choice(("common", "helicity")), default="common",
    show_default=True,
)
@click.option("--out", type=str, default=None)
def kernel(name, p, t, mass, basis, out):
    """Evaluate an oscillating (zitterbewegung) kernel at (t, p)."""
    from .algebra import Momentum
    from .associated import KERNEL_CATALOG, matrix_elements_diag
    from .operators import OPERATOR_CATALOG
    from .polarization import PoleError, make_basis

    pv = _parse_vec(p, "--p")
    q = Momentum(pv, mass)
    b = make_basis(basis)
    ker = KERNEL_CATALOG[name]
    parent = OPERATOR_CATALOG[ker.parent]
    e = q.energy
    try:
        val = ker(q, t, b)
        cross = ker.from_offdiag(q, t, b)
        # the phase law against the parent evolved by U = exp(-i H_D t), read at t = 0
        phase_resid = float(np.max(np.abs(val - ker.phase_reference(q, t, b))))
        parent_plus, parent_minus = matrix_elements_diag(parent, q, b)
    except PoleError as exc:
        raise click.UsageError(f"momentum on a basis pole: {exc}")
    diag_norm = float(max(np.max(np.abs(parent_plus)), np.max(np.abs(parent_minus))))
    lines = [
        f"# kernel {name} parent={ker.parent} basis={basis}",
        f"# p=({_fmt(pv[0])}, {_fmt(pv[1])}, {_fmt(pv[2])}) t={_fmt(t)} "
        f"mass={_fmt(mass)} E={_fmt(e)}",
        f"# oscillation frequency 2E = {_fmt(2 * e)}",
        f"# phase check |K(t)-exp(2iEt)K(0)| = {_fmt(phase_resid)}",
        f"# machinery cross-check |K - scale*offdiag(parent)| = "
        f"{_fmt(float(np.max(np.abs(val - cross))))}",
        f"# parent diagonal associated part max|.| = {_fmt(diag_norm)}",
    ]
    for c in range(val.shape[0]):
        label = f"component {c + 1}" if val.shape[0] > 1 else "scalar"
        lines.append(f"{label}:")
        for row in val[c]:
            lines.append(
                "  " + "  ".join(f"{z.real:+.17g}{z.imag:+.17g}j" for z in row)
            )
        lines.append(
            "  |K| = " + "  ".join(_fmt(abs(z)) for z in val[c].ravel())
        )
    _emit("\n".join(lines) + "\n", out)


if __name__ == "__main__":
    main()
