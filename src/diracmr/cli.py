"""Command-line front end: verification suites, packet statistics, figure
data tables and oscillating-kernel evaluation.

Numbers are printed with 17 significant digits and runs are byte-reproducible
for identical configuration.  Exit codes: 0 success, 1 failed identity,
2 usage or configuration error.

Every option takes one value, so each ``--opt value`` pair is read as
``--opt=value`` and a value starting with '-' (``--x0 -0.5,0,1``) stays a
value.  A ``--config`` file's ``key=value`` lines become ``--key=value`` flags
placed before the command line's: they pass the same checks, and a flag wins.

Each command imports the package modules it runs inside its own body, and
the ``--suite`` and ``--name`` choices are read on first use, so ``figures``
and ``packet`` load only ``wavepacket`` (and ``algebra``), ``kernel`` only
``associated`` and what it imports, and ``verify`` loads ``wavepacket`` only
for the ``wigner`` suite.
"""

from __future__ import annotations

import argparse
import importlib
import math
import sys

import numpy as np


class UsageError(Exception):
    """A bad option value found by a command: exit 2 with its message."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write output file: {exc}")
    else:
        sys.stdout.write(text)


def _parse_vec(value: str, name: str) -> np.ndarray:
    try:
        parts = [float(v) for v in value.split(",")]
    except ValueError:
        raise UsageError(f"{name} must be three comma-separated numbers")
    if len(parts) != 3 or not np.all(np.isfinite(parts)):
        raise UsageError(f"{name} must have exactly three finite components")
    return np.array(parts)


class FiniteFloat:
    """Float option type refusing nan and +-inf, and values <= 0 or < 0 if asked."""

    def __init__(self, positive: bool = False, nonnegative: bool = False):
        self.positive, self.nonnegative = positive, nonnegative

    def __call__(self, text: str) -> float:
        try:
            rv = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid float")
        if not math.isfinite(rv):
            raise argparse.ArgumentTypeError(f"{rv!r} is not a finite number")
        if self.positive and rv <= 0 or self.nonnegative and rv < 0:
            sign = "not positive" if self.positive else "negative"
            raise argparse.ArgumentTypeError(f"{rv!r} is {sign}")
        return rv


def int_range(lo: int, hi: int | None = None):
    """Integer option type bounded to lo <= x (<= hi)."""

    def convert(text: str) -> int:
        try:
            rv = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not a valid integer")
        if rv < lo or (hi is not None and rv > hi):
            bound = f"x>={lo}" if hi is None else f"{lo}<=x<={hi}"
            raise argparse.ArgumentTypeError(f"{rv} is not in the range {bound}")
        return rv

    return convert


class LazyChoices:
    """``head`` and the keys of the table ``module.table``, read from the
    package only when the option is checked or its help is shown."""

    def __init__(self, module: str, table: str, head: tuple = ()):
        self.module, self.table, self.head = module, table, head

    def __iter__(self):
        module = importlib.import_module(f".{self.module}", __package__)
        return iter(self.head + tuple(getattr(module, self.table)))

    def __contains__(self, value) -> bool:
        return value in tuple(self)


FINITE = FiniteFloat()
POSITIVE = FiniteFloat(positive=True)
NONNEGATIVE = FiniteFloat(nonnegative=True)
COMMANDS: dict = {}  # command name -> (function, options)


def command(*options: tuple):
    """Register the function as a command.  Each option is ``(flag, type,
    default)`` with an optional fourth item of ``add_argument`` keywords."""
    return lambda fn: COMMANDS.setdefault(fn.__name__, (fn, options))[0]


def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="diracmr", description="Momentum-space operator toolkit for the free Dirac field.",
        add_help=False, allow_abbrev=False)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    parsers = {}
    for name, (fn, options) in COMMANDS.items():
        p = parsers[name] = sub.add_parser(
            name, help=fn.__doc__, description=fn.__doc__, add_help=False, allow_abbrev=False
        )
        p.add_argument("--help", action="help", help="Show this message and exit.")
        p.add_argument("--config", help="Flat key=value config file; flags override file values.")
        for flag, type_, default, *extra in options:
            kw = dict(extra[0]) if extra else {}
            if default is not None:
                kw["help"] = kw.get("help", "") + " (default: %(default)s)"
            p.add_argument(flag, type=type_, default=default, **kw)
    return parser, parsers


def _config_flags(path: str, parser: argparse.ArgumentParser, options) -> list[str]:
    """Flat key=value file as ``--key=value`` flags; keys use the flag names
    with '-' or '_' and must name an option of the command."""
    keys = {opt[0][2:].replace("-", "_") for opt in options}
    flags = []
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    parser.error(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in keys:
                    parser.error(f"{path}:{lineno}: unknown key {key!r}; options are "
                                 + ", ".join(sorted(keys)))
                flags.append(f"--{key.replace('_', '-')}={val.strip()}")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    return flags


def _tokens(argv: list[str], parsers: dict) -> list[str]:
    """``argv`` with each ``--opt value`` pair joined into ``--opt=value`` and
    the ``--config`` file's flags put before the command line's."""
    if not argv or argv[0] not in parsers:
        return argv
    rest, flags = iter(argv[1:]), []
    for tok in rest:
        if tok.startswith("--") and len(tok) > 2 and "=" not in tok and tok != "--help":
            value = next(rest, None)
            tok = tok if value is None else f"{tok}={value}"
        flags.append(tok)
    configs = [f.partition("=")[2] for f in flags if f.startswith("--config=")]
    config = _config_flags(configs[-1], parsers[argv[0]], COMMANDS[argv[0]][1]) if configs else []
    return [argv[0], *config, *flags]


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit code.  A usage error exits 2."""
    parser, parsers = _parsers()
    args = vars(parser.parse_args(_tokens(sys.argv[1:] if argv is None else list(argv), parsers)))
    name, _ = args.pop("command"), args.pop("config")
    try:
        return COMMANDS[name][0](**args) or 0
    except UsageError as exc:
        parsers[name].error(str(exc))


# ``main.main(args=[...])`` runs a command and exits with its code: the call
# that ``bench/traced_cli.py`` makes
main.main = lambda args=None, **_: sys.exit(main(args))


@command(
    ("--suite", str, "all", dict(choices=LazyChoices("verify", "SUITES", head=("all",)),
                                 metavar="SUITE", help="One of: %(choices)s.")),
    ("--samples", int_range(1), 100), ("--seed", int_range(0), 7), ("--mass", POSITIVE, 1.0),
    ("--tol", NONNEGATIVE, None, dict(help="Override every check tolerance.")),
    ("--out", str, None, dict(help="Write the report to a file.")),
)
def verify(suite, samples, seed, mass, tol, out):
    """Run a named identity suite and report residuals."""
    from .verify import run_suite

    results = run_suite(suite, samples=samples, seed=seed, mass=mass, tol=tol)
    lines = [
        f"# diracmr verify suite={suite} samples={samples} seed={seed} "
        f"mass={_fmt(mass)} tol={'default' if tol is None else _fmt(tol)}"
    ]
    failures = sum(not r.passed for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.suite}/{r.name} residual={_fmt(r.residual)} tol={_fmt(r.tol)}")
    lines.append(f"# summary: checks={len(results)} failures={failures}")
    _emit("\n".join(lines) + "\n", out)
    return 1 if failures else 0


@command(
    ("--gamma", FINITE, 1.0, dict(help="Profile scale g of exp(-g p), in units of 1/mass.")),
    ("--pbar", FINITE, 2.0), ("--mass", POSITIVE, 1.0), ("--theta-s", FINITE, 0.0),
    ("--x0", str, "0,0,0", dict(help="Preparation point x,y,z, in units of 1/m.")),
    ("--grid-radial", int_range(1), 200),
    ("--grid-cos", int_range(1), 32), ("--grid-phi", int_range(1), 64), ("--out", str, None),
)
def packet(gamma, pbar, mass, theta_s, x0, grid_radial, grid_cos, grid_phi, out):
    """Statistics table of an isotropic one-particle wave packet."""
    from .wavepacket import IsotropicProfile, packet_reports

    x0v = _parse_vec(x0, "--x0")
    try:
        iso = IsotropicProfile(gamma, pbar, mass)
        grid = iso.default_grid(grid_radial, grid_cos, grid_phi)
        reports = packet_reports(iso, theta_s, x0v, grid)
    except ValueError as exc:  # packet parameters, theta-s, or a grid too coarse to normalize
        raise UsageError(str(exc))
    rows = [
        "observable,expectation,dispersion,uncertainty,"
        "closed_expectation,closed_dispersion,rel_error,quad_error"
    ]
    for r in reports:
        closed = (r.closed_expectation, r.closed_dispersion, r.rel_error)
        ce, cd, re_ = ("" if v is None else _fmt(v) for v in closed)
        rows.append(
            f"{r.observable},{_fmt(r.expectation)},{_fmt(r.dispersion)},"
            f"{_fmt(r.uncertainty)},{ce},{cd},{re_},{_fmt(r.quad_error)}"
        )
    _emit("\n".join(rows) + "\n", out)


@command(
    ("--which", int_range(1, 2), 1), ("--q-min", FINITE, 1.0), ("--q-max", FINITE, 7.0),
    ("--points", int, 60), ("--gamma-m", FINITE, 1.0), ("--out", str, None),
)
def figures(which, q_min, q_max, points, gamma_m, out):
    """Emit the ratio curves of the energy/velocity statistics versus q."""
    from .wavepacket import figure_data

    try:
        rows = figure_data(which, q_min, q_max, points, gamma_m)
    except ValueError as exc:
        raise UsageError(str(exc))
    except OverflowError:
        raise UsageError("--q-max/--gamma-m out of the double range: (q/gamma_m)^2 overflows")
    header = "q,mean_H_over_E,scaled_disp_H" if which == 1 else "q,mean_V_over_V,disp_V"
    _emit("\n".join([header, *(",".join(_fmt(v) for v in row) for row in rows)]) + "\n", out)


@command(
    ("--name", str, None, dict(choices=LazyChoices("associated", "KERNEL_CATALOG"),
                               metavar="NAME", required=True, help="One of: %(choices)s.")),
    ("--p", str, "0,0,1"), ("--t", FINITE, 0.0, dict(help="Time, in units of 1/m.")),
    ("--mass", POSITIVE, 1.0),
    ("--basis", str, "common", dict(choices=("common", "helicity"))), ("--out", str, None),
)
def kernel(name, p, t, mass, basis, out):
    """Evaluate an oscillating (zitterbewegung) kernel at (t, p)."""
    from .algebra import Momentum
    from .associated import KERNEL_CATALOG, KernelTable, matrix_elements_diag
    from .operators import OPERATOR_CATALOG
    from .polarization import PoleError, make_basis

    pv = _parse_vec(p, "--p")
    q, b = Momentum(pv, mass), make_basis(basis)
    ker = KERNEL_CATALOG[name]
    # one table: K(t), the cross-check and the phase reference share its C.B and parent
    table = KernelTable((ker,), q, b)
    try:
        with np.errstate(over="raise"):
            e = q.energy
            val = table(t)
            cross = table.from_offdiag(t)
            # the phase law against the parent evolved by U = exp(-i H_D t), read at t = 0
            phase_resid = float(np.max(np.abs(val - table.phase_reference(t))))
            parent_plus, parent_minus = matrix_elements_diag(OPERATOR_CATALOG[ker.parent], q, b)
    except PoleError as exc:
        raise UsageError(f"momentum on a basis pole: {exc}")
    except FloatingPointError as exc:  # E ~ |p| of 1e103 and up overflows E^3
        raise UsageError(f"--p at --mass out of the double range: {exc}")
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
            lines.append("  " + "  ".join(f"{z.real:+.17g}{z.imag:+.17g}j" for z in row))
        lines.append("  |K| = " + "  ".join(_fmt(abs(z)) for z in val[c].ravel()))
    _emit("\n".join(lines) + "\n", out)


if __name__ == "__main__":
    sys.exit(main())
