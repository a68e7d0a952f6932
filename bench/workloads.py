"""The four workloads: inputs drawn from the seed, the timed operation, and
the checks of each output against references computed apart from the package.

A run draws one round of operations from its seed and repeats that round.
Each operation is a closed loop: the next one starts when the last returns.
The package is imported by ``load`` only, and ``mpmath`` by the checks only,
so that the set-up probe times exactly the import and the building of the
inputs.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from checks import CLOSED, KERNEL_MACHINERY, KERNEL_NAMES, check_suite, headroom_digits

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict[str, str]:
    """Environment of every child process: package on the path, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({v: "1" for v in THREAD_VARS})
    return env


@dataclass(frozen=True)
class Op:
    label: str
    params: tuple
    fault: bool = False  # a named fault: this operation fails on every run


@dataclass
class Outcome:
    failures: list[str]
    headroom: dict[str, float]  # layer -> min headroom digits


def _unit_vector(rng: random.Random, min_z: float = -1.0) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-6 and v[2] / norm >= min_z:
            return tuple(c / norm for c in v)


# ---------------------------------------------------------------------------


class Ledger:
    """``appendix_b`` on one momentum: the 29-check commutator ledger."""

    name = "ledger"
    in_process = True
    SEEDED = 3  # seeded operations per round, after the fault
    MASS = 1.0
    # WaveSpinor.gradient steps 1e-3 max(|p|, max(m, 1)); at m = 0.25 this
    # momentum has |p| ~ 0.015 and seven nested-FD checks fail (named fault)
    FAULT = Op("appendix_b samples=1 seed=1 mass=0.25", (1, 0.25), fault=True)
    # The same fault fails some seeds at mass 1, whose momentum is small and
    # near the helicity chart's -e3 pole: |p|(1 + n3) ~ 0.008 m fails by up
    # to 1.2x, while |p|(1 + n3) >= 0.03 m kept 1.6 digits of headroom
    # (README, "Faults").  A seeded operation must pass on every seed, so
    # seeds whose momentum is nearer the pole are redrawn.
    MIN_POLE_DISTANCE = 0.03

    def load(self):
        import diracmr.sampling
        import diracmr.verify

        self.verify = diracmr.verify
        self.sampling = diracmr.sampling

    def clear_of_pole(self, seed: int) -> bool:
        # the momentum suite_appendix_b draws for samples=1
        (q,) = self.sampling.sample_momenta(1, self.MASS, seed, lo=0.05, hi=2.0, avoid_poles=True)
        return math.hypot(*q.p) + q.p[2] >= self.MIN_POLE_DISTANCE * self.MASS

    def round(self, seed: int) -> list[Op]:
        rng = random.Random(f"ledger/{seed}")
        seeds = []
        while len(seeds) < self.SEEDED:
            s = rng.randrange(1, 2**31)
            if self.clear_of_pole(s):
                seeds.append(s)
        return [self.FAULT] + [
            Op(f"appendix_b samples=1 seed={s} mass={self.MASS}", (s, self.MASS))
            for s in seeds
        ]

    def run(self, op: Op):
        seed, mass = op.params
        return self.verify.run_suite("appendix_b", samples=1, seed=seed, mass=mass)

    def check(self, op: Op, out) -> Outcome:
        failures, worst = check_suite("appendix_b", [(r.name, r.residual, r.tol) for r in out])
        return Outcome(failures, {"verify.appendix_b": worst})


class Identities:
    """The closed-form suites at one seed and a mass from a fixed set."""

    name = "identities"
    in_process = True
    # wigner is left out: its d_unitary check fails on some seeds (CHANGES.md)
    SUITES = (
        "clifford", "boosts", "projectors", "pryce_spin", "spin_types",
        "pauli_lubanski", "associated", "kernels",
    )
    SAMPLES = 20
    MASSES = (0.5, 1.0, 2.0)
    PER_ROUND = 4

    def load(self):
        import diracmr.verify

        self.verify = diracmr.verify

    def round(self, seed: int) -> list[Op]:
        rng = random.Random(f"identities/{seed}")
        ops = []
        for _ in range(self.PER_ROUND):
            s, m = rng.randrange(1, 2**31), rng.choice(self.MASSES)
            ops.append(Op(f"closed-form suites seed={s} mass={m}", (s, m)))
        return ops

    def run(self, op: Op):
        seed, mass = op.params
        return {
            suite: self.verify.run_suite(suite, samples=self.SAMPLES, seed=seed, mass=mass)
            for suite in self.SUITES
        }

    def check(self, op: Op, out) -> Outcome:
        failures, headroom = [], {}
        for suite in self.SUITES:
            f, worst = check_suite(suite, [(r.name, r.residual, r.tol) for r in out.get(suite, ())])
            failures += f
            headroom[f"verify.{suite}"] = worst
        return Outcome(failures, headroom)


# packet statistics against the closed forms: 1e-8 relative, 1e-6 for the
# position dispersions, which go through the gradient of the profile
STAT_TOL = 1e-8
POSITION_DISP_TOL = 1e-6


def _packet_failures(rows, gamma, pbar, theta_s, x0, tag=""):
    """Compare (observable, expectation, dispersion) rows with the references."""
    from references import packet_table, rel_error

    ref = packet_table(gamma, pbar, 1.0, theta_s, x0)
    failures, worst = [], float("inf")
    seen = set()
    for name, mean, disp in rows:
        seen.add(name)
        if name not in ref:
            failures.append(f"{tag}{name}: unknown observable")
            continue
        for kind, got, want, tol in (
            ("expectation", mean, ref[name][0], STAT_TOL),
            ("dispersion", disp, ref[name][1], POSITION_DISP_TOL if name[0] == "X" else STAT_TOL),
        ):
            err = rel_error(got, want)
            worst = min(worst, headroom_digits(err, tol))
            if not err <= tol:
                failures.append(f"{tag}{name} {kind}: {got!r} vs {want!r} (rel {err:.2e} > {tol:.0e})")
    failures += [f"{tag}{n}: missing" for n in ref if n not in seen]
    return failures, worst, ref


class Packet:
    """One isotropic packet: statistics table, then cone filter and radial statistics."""

    name = "packet"
    in_process = True
    SEEDED = 9
    MASS = 1.0
    D_OMEGA = 0.05
    # gamma*pbar = 1.05: the Gauss-Legendre radial rule misses the
    # p^(2 gamma pbar - 3) endpoint behaviour and disp X is 37 % off (named fault)
    FAULT = Op("gamma=1 pbar=1.05", (1.0, 1.05, 0.0, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)), fault=True)

    def load(self):
        import diracmr.wavepacket

        self.wp = diracmr.wavepacket

    def round(self, seed: int) -> list[Op]:
        rng = random.Random(f"packet/{seed}")
        ops = [self.FAULT]
        for _ in range(self.SEEDED):
            gamma = rng.uniform(0.5, 2.0)
            a = rng.uniform(2.0, 7.0)  # gamma*pbar in [1.3, 1.9] straddles the tolerance
            theta = rng.uniform(0.0, math.pi)
            x0 = tuple(rng.uniform(-1.0, 1.0) for _ in range(3))
            n = _unit_vector(rng)
            ops.append(Op(f"gamma={gamma:.4g} pbar={a / gamma:.4g}", (gamma, a / gamma, theta, x0, n)))
        return ops

    def run(self, op: Op):
        gamma, pbar, theta, x0, n = op.params
        iso = self.wp.make_isotropic(gamma, pbar, self.MASS)
        reports = self.wp.packet_reports(iso, theta, x0)
        # cone cut at the default grid's p_max, far into the exp(-2 gamma p) tail
        p_max = (gamma * pbar + 40.0) / gamma
        kappa, phi_rad, r, w, prob = self.wp.cone_filter(
            iso.profile(theta, x0), n, self.D_OMEGA, p_max
        )
        radial = self.wp.radial_statistics(phi_rad, r, w, self.MASS)
        return reports, kappa, prob, radial

    def check(self, op: Op, out) -> Outcome:
        from references import rel_error

        gamma, pbar, theta, x0, _ = op.params
        reports, kappa, prob, radial = out
        rows = [(r.observable, r.expectation, r.dispersion) for r in reports]
        failures, worst, ref = _packet_failures(rows, gamma, pbar, theta, x0)
        # isotropic profile: cone weight 1/4pi, and the filtered radial profile
        # has the packet's own H, P, V statistics
        kappa_ref = 1.0 / (4.0 * math.pi)
        checks = [("kappa", kappa, kappa_ref), ("probability", prob, (self.D_OMEGA * kappa_ref) ** 2)]
        for name in ("H", "P", "V"):
            checks += [
                (f"radial {name} mean", radial[name][0], ref[name][0]),
                (f"radial {name} dispersion", radial[name][1], ref[name][1]),
            ]
        for label, got, want in checks:
            err = rel_error(got, want) if label != "probability" else abs(got - want) / want
            worst = min(worst, headroom_digits(err, STAT_TOL))
            if not err <= STAT_TOL:
                failures.append(f"cone {label}: {got!r} vs {want!r} (rel {err:.2e})")
        return Outcome(failures, {"wavepacket": worst})


# ---------------------------------------------------------------------------


FIGURE_TOL = 1e-10  # figure rows against the stored 30-digit references
CHEAP_SUITES = ("boosts", "projectors", "pryce_spin", "spin_types", "pauli_lubanski")
PACKET_GRID = ("100", "16", "32")


class Cli:
    """One ``python -m diracmr.cli`` subprocess per operation."""

    name = "cli"
    in_process = False
    KERNELS_PER_ROUND = 4

    def load(self):
        import diracmr.cli  # noqa: F401  (the import every command pays)

    def round(self, seed: int) -> list[Op]:
        rng = random.Random(f"cli/{seed}")
        ops = [Op(f"figures {w}", ("figures", "--which", str(w))) for w in (1, 2)]
        gamma = rng.uniform(0.5, 2.0)
        a = rng.uniform(3.0, 7.0)  # the reduced grid holds 1e-6 on disp X from a = 3
        theta = rng.uniform(0.0, math.pi)
        x0 = ",".join(repr(rng.uniform(-1.0, 1.0)) for _ in range(3))
        ops.append(Op(f"packet gamma={gamma:.4g} a={a:.4g}", (
            "packet", "--gamma", repr(gamma), "--pbar", repr(a / gamma),
            "--theta-s", repr(theta), "--x0", x0, "--grid-radial", PACKET_GRID[0],
            "--grid-cos", PACKET_GRID[1], "--grid-phi", PACKET_GRID[2],
        )))
        suite = rng.choice(CHEAP_SUITES)
        ops.append(Op(f"verify {suite}", (
            "verify", "--suite", suite, "--samples", "20", "--seed", str(rng.randrange(1, 2**31)),
        )))
        combos = [(k, b) for k in KERNEL_NAMES for b in ("common", "helicity")]
        first = self.KERNELS_PER_ROUND * (seed % 3)  # every combination over three seeds
        for name, basis in combos[first:first + self.KERNELS_PER_ROUND]:
            mag = math.exp(rng.uniform(math.log(0.1), math.log(5.0)))
            p = ",".join(repr(mag * c) for c in _unit_vector(rng, min_z=-0.8))
            t = rng.uniform(0.0, 2.0)
            ops.append(Op(f"kernel {name} {basis}", (
                "kernel", "--name", name, "--p", p, "--t", repr(t), "--basis", basis,
            )))
        return ops

    def command(self, op: Op, spans: Path | None = None) -> list[str]:
        if spans is None:
            return [sys.executable, "-m", "diracmr.cli", *op.params]
        return [sys.executable, str(BENCH / "traced_cli.py"), str(spans), *op.params]

    def run(self, op: Op, spans: Path | None = None):
        proc = subprocess.run(
            self.command(op, spans), env=child_env(), cwd=ROOT,
            capture_output=True, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def check(self, op: Op, out) -> Outcome:
        code, stdout, stderr = out
        if code != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:]
            return Outcome([f"exit {code} {tail}"], {})
        lines = stdout.decode(errors="replace").splitlines()
        try:
            failures, headroom = getattr(self, f"_check_{op.params[0]}")(op, lines)
        except (ValueError, IndexError, KeyError) as exc:
            failures, headroom = [f"unparseable output ({exc!r})"], {}
        return Outcome(failures, headroom)

    def _check_figures(self, op, lines):
        import json

        which = op.params[2]
        refs = json.loads((BENCH / "figure_refs.json").read_text())[which]
        header = "q,mean_H_over_E,scaled_disp_H" if which == "1" else "q,mean_V_over_V,disp_V"
        failures = [] if lines[:1] == [header] else [f"header {lines[:1]}"]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if len(rows) != len(refs):
            return failures + [f"{len(rows)} rows, expected {len(refs)}"], {}
        worst = float("inf")
        for row, ref in zip(rows, refs):
            for got, want in zip(row, ref):
                err = abs(got - want) / max(abs(want), 1.0)
                worst = min(worst, headroom_digits(err, FIGURE_TOL))
                if not err <= FIGURE_TOL:
                    failures.append(f"q={row[0]}: {got!r} vs {want!r}")
        return failures, {"wavepacket.figures": worst}

    def _check_packet(self, op, lines):
        args = dict(zip(op.params[1::2], op.params[2::2]))
        gamma, pbar, theta = (float(args[k]) for k in ("--gamma", "--pbar", "--theta-s"))
        x0 = tuple(float(v) for v in args["--x0"].split(","))
        header = lines[0].split(",") if lines else []
        if header[:3] != ["observable", "expectation", "dispersion"]:
            return [f"header {lines[:1]}"], {}
        rows = []
        for line in lines[1:]:
            cells = line.split(",")
            rows.append((cells[0], float(cells[1]), float(cells[2])))
        failures, worst, _ = _packet_failures(rows, gamma, pbar, theta, x0)
        return failures, {"wavepacket": worst}

    def _check_verify(self, op, lines):
        suite = op.params[2]
        results, failures = [], []
        for line in lines[1:-1]:
            status, label, res, tol = line.split(" ")
            name = label.split("/", 1)[1]
            results.append((name, float(res.split("=")[1]), float(tol.split("=")[1])))
            if status != "PASS":
                failures.append(f"{label} printed {status}")
        if lines[-1] != f"# summary: checks={len(results)} failures={len(failures)}":
            failures.append(f"summary {lines[-1]!r}")
        if not lines[0].startswith(f"# diracmr verify suite={suite} "):
            failures.append(f"header {lines[0]!r}")
        f, worst = check_suite(suite, results)
        return failures + f, {f"verify.{suite}": worst}

    def _check_kernel(self, op, lines):
        args = dict(zip(op.params[1::2], op.params[2::2]))
        name, basis = args["--name"], args["--basis"]
        p = [float(v) for v in args["--p"].split(",")]
        energy = math.sqrt(sum(c * c for c in p) + 1.0)
        head = {}
        for line in lines:
            if line.startswith("# ") and " = " in line:
                key, _, value = line[2:].rpartition(" = ")
                head[key] = float(value)
        failures = []
        if not lines or not lines[0].startswith(f"# kernel {name} parent=") or not lines[0].endswith(f"basis={basis}"):
            failures.append(f"header {lines[:1]}")
        e_printed = float(lines[1].rsplit("E=", 1)[1]) if len(lines) > 1 and "E=" in lines[1] else float("nan")
        if not abs(e_printed - energy) <= 1e-14 * energy:
            failures.append(f"E={e_printed!r}, expected {energy!r}")
        if head.get("oscillation frequency 2E") != 2.0 * e_printed:
            failures.append("oscillation frequency is not 2E")
        worst = float("inf")
        for key, tol in (
            ("phase check |K(t)-exp(2iEt)K(0)|", CLOSED),
            ("machinery cross-check |K - scale*offdiag(parent)|", KERNEL_MACHINERY),
        ):
            value = head.get(key, float("nan"))
            worst = min(worst, headroom_digits(value, tol))
            if not value <= tol:
                failures.append(f"{key} = {value!r} > {tol:.0e}")
        # each component block: two matrix rows, then |K| of its four entries
        blocks = [i for i, line in enumerate(lines) if line.endswith(":") and not line.startswith("#")]
        expected = 1 if name in ("scalar_charge_osc", "pseudoscalar_osc") else 3
        if len(blocks) != expected:
            failures.append(f"{len(blocks)} components, expected {expected}")
        for i in blocks:
            entries = [complex(z) for row in lines[i + 1:i + 3] for z in row.split()]
            moduli = [float(v) for v in lines[i + 3].split("=", 1)[1].split()]
            if len(entries) != 4 or any(
                not abs(abs(z) - r) <= 1e-14 * max(r, 1e-300) for z, r in zip(entries, moduli)
            ):
                failures.append(f"{lines[i]} |K| does not match its entries")
        return failures, {"associated.kernel": worst}


WORKLOADS = {w.name: w for w in (Ledger(), Identities(), Packet(), Cli())}
