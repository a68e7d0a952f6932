"""Benchmark of the diracmr package: four closed-loop workloads, checked outputs.

    python3 bench/run.py --workload {ledger,identities,packet,cli} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of the named workload; with
``--trace 1`` one round of every workload runs untraced and then traced, and
the metrics are the per-layer ones.  A record of each run (machine, probes,
per-operation times, failure messages) and the span dump of a traced run are
written under bench/out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from checks import MAX_HEADROOM_DIGITS
from workloads import BENCH, ROOT, SRC, THREAD_VARS, WORKLOADS, Op, child_env

# one BLAS/OpenMP thread in the measuring process; nothing above imports numpy
os.environ.update({var: "1" for var in THREAD_VARS})

OUT = BENCH / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
TAIL_MIN_BEYOND = 10  # a tail percentile needs ten operations beyond it


@dataclass
class Record:
    op: Op
    wall: float
    cpu: float
    out: object
    probe_before: float
    probe_after: float
    scale: float  # rescales this operation's times to the probe's reference speed


def cpu_clock(in_process: bool) -> float:
    if in_process:
        return time.process_time()
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


class SmallArrayProbe:
    """Machine-speed probe: fixed work that does not use the package.

    This host's speed swings by tens of percent within seconds.  A probe
    doing the same kind of work as a workload's operations, timed just
    before and just after each measured step, moves with it, so end-to-end
    times are rescaled to a machine on which the probe takes ``reference``
    seconds (README, "Steadiness").  This one does what ``ledger`` and
    ``identities`` do: small complex matrices, einsum and Python dispatch.
    """

    reference = 0.045

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.mats = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(64)]
        self.vecs = [rng.standard_normal(3) for _ in range(64)]

    def __call__(self) -> float:
        np, mats, vecs = self.np, self.mats, self.vecs
        t0 = time.perf_counter()
        acc, table = 0.0, {}
        for k in range(1800):
            m, v = mats[k % 64], vecs[k % 64]
            s = np.einsum("ab,bc->ac", m, m.conj().T) - m @ m
            acc += float(np.max(np.abs(s))) + float(np.linalg.norm(v))
            table[k % 97] = np.stack([m, s])
        return time.perf_counter() - t0

    def median(self, repeats: int = 5) -> float:
        return statistics.median(self() for _ in range(repeats))


class LargeArrayProbe(SmallArrayProbe):
    """Probe for ``packet``: elementwise work and a reduction over a complex
    array as large as its default grid (409,600 nodes)."""

    reference = 0.012

    def __init__(self):
        import numpy as np

        self.np = np
        self.big = np.random.default_rng(12345).standard_normal(2 * 409_600).view(complex)

    def __call__(self) -> float:
        np, big = self.np, self.big
        t0 = time.perf_counter()
        for _ in range(4):
            np.sum(np.abs(big * big.conj()))
        return time.perf_counter() - t0


class StartProbe(SmallArrayProbe):
    """Probe for child processes (``cli`` commands and set-ups): a fresh
    interpreter that imports numpy.  Process start-up and imports move with
    the host's file cache and memory, which in-process probes do not follow."""

    reference = 0.200
    command = [sys.executable, "-c", "import numpy"]

    def __init__(self):
        pass

    def __call__(self) -> float:
        return timed_subprocess(self.command)


# the probe of each workload's kind of work
PROBES = {"ledger": SmallArrayProbe, "identities": SmallArrayProbe,
          "packet": LargeArrayProbe, "cli": StartProbe}


def timed_subprocess(cmd: list[str]) -> float:
    t0 = time.perf_counter()
    subprocess.run(cmd, env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - t0


def setup_times(workload: str, seed: int, probe: StartProbe) -> list[tuple[float, float]]:
    """(wall, rescaled wall) of fresh interpreters that import the package and
    build the inputs; each is probed before and after, sharing probes."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out, before = [], probe()
    for _ in range(SETUP_REPEATS):
        wall = timed_subprocess(cmd)
        after = probe()
        out.append((wall, wall * probe.reference / (0.5 * (before + after))))
        before = after
    return out


def run_op(wl, op: Op, probe, before: float | None = None, run=None, **kwargs) -> Record:
    """One timed operation between two probes; ``before`` reuses the last
    operation's closing probe, ``run`` replaces ``wl.run`` (a traced root span)."""
    if before is None:
        before = probe()
    c0, w0 = cpu_clock(wl.in_process), time.perf_counter()
    out = (run or wl.run)(op, **kwargs)
    w1, c1 = time.perf_counter(), cpu_clock(wl.in_process)
    after = probe()
    scale = probe.reference / (0.5 * (before + after))
    return Record(op, w1 - w0, c1 - c0, out, before, after, scale)


def run_ops(wl, ops: list[Op], probe, run=None, **kwargs) -> list[Record]:
    records: list[Record] = []
    for op in ops:
        before = records[-1].probe_after if records else None
        records.append(run_op(wl, op, probe, before, run, **kwargs))
    return records


def measure(wl, ops: list[Op], seconds: float, probe) -> list[Record]:
    """Whole rounds of ``ops``; no round starts that would end past ``seconds``."""
    records: list[Record] = []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        records += run_ops(wl, ops, probe)
        now = time.perf_counter()
        if now - t0 + (now - r0) > seconds:
            return records


class Verdict:
    """Attempted/failed counts, unexpected failures and min headroom per layer."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = 0
        self.correct = True
        self.messages: dict[str, list[str]] = {}
        self.headroom: dict[str, float] = {}
        self.first_output: dict[Op, object] = {}

    def judge(self, rec: Record, counted: bool = True) -> None:
        outcome = self.wl.check(rec.op, rec.out)
        failures = outcome.failures
        if not self.wl.in_process:
            # a repeated command must print the same bytes
            stdout = rec.out[1]
            first = self.first_output.setdefault(rec.op, stdout)
            if stdout != first:
                failures = failures + ["output differs from the first run of the same command"]
        if counted:
            self.attempted += 1
            self.failed += bool(failures)
        if failures:
            self.messages.setdefault(rec.op.label, failures[:8])
            if not rec.op.fault:
                self.correct = False
        elif not rec.op.fault:
            self._lower_headroom(outcome.headroom)

    def _lower_headroom(self, headroom: dict[str, float]) -> None:
        for layer, digits in headroom.items():
            self.headroom[layer] = min(self.headroom.get(layer, digits), digits)

    def absorb(self, other: "Verdict", prefix: str) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.correct &= other.correct
        self.messages.update({prefix + k: m for k, m in other.messages.items()})
        self._lower_headroom(other.headroom)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten operations beyond it, and its value."""
    n = len(values)
    if n < 4 * TAIL_MIN_BEYOND:
        return None
    pct = 100.0 * (n - TAIL_MIN_BEYOND) / n
    return pct, sorted(values)[n - TAIL_MIN_BEYOND - 1]


def machine_record() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # the record is informative only
        blas = f"unknown ({exc.__class__.__name__})"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_sha": sha,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
    }


def write_record(name: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------


def untraced_run(wl, seed: int, seconds: float) -> tuple[Verdict, dict, dict]:
    machine, start_probe = SmallArrayProbe(), StartProbe()
    probe_start = machine.median()
    setup = setup_times(wl.name, seed, start_probe)
    if wl.in_process:
        wl.load()
    ops = wl.round(seed)
    probe = PROBES[wl.name]()
    verdict = Verdict(wl)
    warm = next(op for op in ops if not op.fault)
    verdict.judge(run_op(wl, warm, probe), counted=False)  # discarded warm-up
    records = measure(wl, ops, seconds, probe)
    for rec in records:
        verdict.judge(rec)
    probe_end = machine.median()
    walls = [r.wall * r.scale for r in records]
    metrics = {
        "setup_s": metric(statistics.median(adjusted for _, adjusted in setup), "s"),
        "op_p50_s": metric(statistics.median(walls), "s"),
        "cpu_s": metric(statistics.median(r.cpu * r.scale for r in records), "s"),
        "peak_rss_mb": metric(peak_rss_mb(wl.in_process), "MB"),
    }
    tail = tail_percentile(walls)
    record = {
        "unadjusted": {
            "setup_s": statistics.median(wall for wall, _ in setup),
            "op_p50_s": statistics.median(r.wall for r in records),
            "cpu_s": statistics.median(r.cpu for r in records),
        },
        "setup_s": setup,
        "probe_s": {"start": probe_start, "end": probe_end},
        "op_tail_s": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "ops": [(r.op.label, r.wall, r.cpu, r.probe_before, r.probe_after) for r in records],
    }
    return verdict, metrics, record


SUITE_LAYERS = (
    "clifford", "boosts", "projectors", "pryce_spin", "spin_types",
    "pauli_lubanski", "associated", "kernels", "appendix_b",
)
SPAN_LAYERS = (
    "associated.apply", "associated.commutator_action", "associated.gradient",
    "associated.matrix_elements_diag", "associated.matrix_elements_offdiag",
    "associated.kernel", "polarization.omega", "polarization.xi",
    "polarization.sigma", "operators.eval", "algebra.boost_for_momentum",
    "algebra.theta_tensor", "spinors.eval", "wavepacket.report",
    "wavepacket.g_integral",
)
SELF_ONLY = (
    "sampling", "wavepacket.grid", "wavepacket.engine_init", "wavepacket.detect",
    "wavepacket.closed_forms", "wavepacket.figure_data",
)
CLI_COMMANDS = ("kernel", "figures", "packet", "verify")
COVERED = ("ledger", "identities", "packet")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric and its unit, in the order BENCHMARK.json lists them."""
    out = []
    for layer in SPAN_LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [(f"{layer}.self_s", "s") for layer in SELF_ONLY]
    out += [("algebra.momentum.count", "count"), ("wavepacket.grid.nodes", "count"),
            ("wavepacket.grid.bytes", "bytes"), ("wavepacket.min_headroom_digits", "digits")]
    for suite in SUITE_LAYERS:
        out += [(f"verify.{suite}.self_s", "s"), (f"verify.{suite}.checks", "count"),
                (f"verify.{suite}.min_headroom_digits", "digits")]
    out += [("cli.import_s", "s"), ("cli.import_scipy_s", "s")]
    out += [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    out += [("machine.probe_s", "s"), ("machine.probe_end_s", "s")]
    out += [(f"trace.{w}.overhead_share", "ratio") for w in WORKLOADS]
    out += [(f"trace.{w}.covered_share", "ratio") for w in COVERED]
    return out


def scipy_import_s() -> float:
    """Self time of every scipy module in a fresh ``import diracmr.cli``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import diracmr.cli"],
        env=child_env(), cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    total_us = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, _, name = (c.strip() for c in line[len("import time:"):].split("|"))
        if own.isdigit() and (name == "scipy" or name.startswith("scipy.")):
            total_us += int(own)
    return total_us / 1e6


def traced_run(seed: int) -> tuple[Verdict, dict, dict]:
    import tracing

    machine = SmallArrayProbe()
    probe_start = machine.median()
    probes = {name: PROBES[name]() for name in WORKLOADS}
    import_s = statistics.median(
        timed_subprocess([sys.executable, "-c", "import diracmr.cli"])
        for _ in range(IMPORT_REPEATS)
    )
    scipy_s = scipy_import_s()
    verdicts = {name: Verdict(wl) for name, wl in WORKLOADS.items()}
    plans, untraced, traced = {}, {}, {}
    for name, wl in WORKLOADS.items():
        if wl.in_process:
            wl.load()
        plans[name] = wl.round(seed)
        warm = next(op for op in plans[name] if not op.fault)
        verdicts[name].judge(run_op(wl, warm, probes[name]), counted=False)
        untraced[name] = run_ops(wl, plans[name], probes[name])

    tracer = tracing.Tracer()
    tracing.install(tracer)
    stats = tracing.LayerStats()
    OUT.mkdir(exist_ok=True)
    for name, wl in WORKLOADS.items():
        if wl.in_process:
            traced[name] = run_ops(wl, plans[name], probes[name], run=tracer.span(f"op.{name}", wl.run))
            continue
        records = []
        for k, op in enumerate(plans[name]):
            spans = OUT / f"spans-cli-{os.getpid()}-{k}.npz"
            before = records[-1].probe_after if records else None
            records.append(run_op(wl, op, probes[name], before, spans=spans))
            stats.add_dump(spans)
            spans.unlink()
        traced[name] = records
    stats.add(tracer.arrays(), tracer.counts, tracer.peaks)
    tracer.dump(OUT / f"spans-seed{seed}-{os.getpid()}.npz")
    probe_end = machine.median()

    total = Verdict(None)
    for name, v in verdicts.items():
        for rec in untraced[name] + traced[name]:
            v.judge(rec)
        total.absorb(v, prefix=f"{name}: ")

    values: dict[str, float] = {}
    for layer in SPAN_LAYERS:
        values[f"{layer}.calls"] = stats.calls[layer]
        values[f"{layer}.self_s"] = stats.self_s[layer]
    for layer in SELF_ONLY:
        values[f"{layer}.self_s"] = stats.self_s[layer]
    values["algebra.momentum.count"] = stats.counters["algebra.momentum.count"]
    values["wavepacket.grid.nodes"] = stats.peaks.get("peak.wavepacket.grid.nodes", 0.0)
    values["wavepacket.grid.bytes"] = stats.peaks.get("peak.wavepacket.grid.bytes", 0.0)
    # a layer whose every operation failed reads as -MAX_HEADROOM_DIGITS
    values["wavepacket.min_headroom_digits"] = total.headroom.get("wavepacket", -MAX_HEADROOM_DIGITS)
    checks_per_suite = {}
    for rec in untraced["ledger"]:
        checks_per_suite["appendix_b"] = len(rec.out)
    for rec in untraced["identities"]:
        checks_per_suite.update({s: len(r) for s, r in rec.out.items()})
    for suite in SUITE_LAYERS:
        values[f"verify.{suite}.self_s"] = stats.self_s[f"verify.{suite}"]
        values[f"verify.{suite}.checks"] = checks_per_suite.get(suite, 0)
        values[f"verify.{suite}.min_headroom_digits"] = total.headroom.get(f"verify.{suite}", -MAX_HEADROOM_DIGITS)
    values["cli.import_s"] = import_s
    values["cli.import_scipy_s"] = scipy_s
    for command in CLI_COMMANDS:
        walls = [r.wall for r in untraced["cli"] if r.op.params[0] == command]
        values[f"cli.{command}_s"] = statistics.median(walls)
    values["machine.probe_s"] = probe_start
    values["machine.probe_end_s"] = probe_end
    for name in WORKLOADS:
        before = statistics.median(r.wall * r.scale for r in untraced[name])
        after = statistics.median(r.wall * r.scale for r in traced[name])
        values[f"trace.{name}.overhead_share"] = after / before - 1.0
    for name in COVERED:
        root = f"op.{name}"
        values[f"trace.{name}.covered_share"] = 1.0 - stats.root_self[root] / stats.root_total[root]

    units = dict(per_layer_names())
    metrics = {k: metric(float(values[k]), units[k]) for k in units}
    record = {
        "probe_s": {"start": probe_start, "end": probe_end},
        "ops": {
            name: {
                "untraced": [(r.op.label, r.wall, r.scale) for r in untraced[name]],
                "traced": [(r.op.label, r.wall, r.scale) for r in traced[name]],
            }
            for name in WORKLOADS
        },
    }
    return total, metrics, record


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if not (SRC / "diracmr" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        wl.load()
        wl.round(args.seed)
        return 0
    try:
        import mpmath  # noqa: F401  (the references need it)
    except ImportError:
        print("error: mpmath is required for the reference values", file=sys.stderr)
        return 2

    if args.trace:
        verdict, metrics, record = traced_run(args.seed)
    else:
        verdict, metrics, record = untraced_run(wl, args.seed, args.seconds)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(), "metrics": metrics,
        "attempted": verdict.attempted, "failed": verdict.failed,
        "correct": verdict.correct, "failures": verdict.messages,
    })
    write_record(f"run-{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json", record)
    probes = record["probe_s"]
    print(f"machine probe: start {probes['start']:.4f} s, end {probes['end']:.4f} s", file=sys.stderr)
    for label, failures in verdict.messages.items():
        print(f"failed: {label}: {'; '.join(failures[:3])}", file=sys.stderr)
    print(json.dumps({
        "correct": verdict.correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
