"""Span tracing of the package's layers, installed from outside the package.

``install`` wraps the public functions and methods that mark each layer
boundary and rebinds every ``diracmr`` module attribute that refers to a
wrapped function, because modules import functions by name.  Each call
records a span (name, start, end, parent) in flat arrays kept in memory;
``LayerStats`` turns them into per-layer call counts and self times.  Only
the traced run imports this module.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name_id = array("l")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.peaks: dict[str, float] = {}

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """Wrap ``fn`` so every call records one span called ``name``."""
        nid = self.name_index(name)
        start, end, parent, name_id, stack = (
            self.start, self.end, self.parent, self.name_id, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(clock())
            end.append(0.0)
            parent.append(stack[-1])
            name_id.append(nid)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                end[idx] = clock()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "names": np.array(self.names),
        }

    def dump(self, path) -> None:
        """Write the spans and counters (``np.savez_compressed``)."""
        counters = sorted({**self.counts, **self.peaks}.items())
        np.savez_compressed(
            path,
            counter_names=np.array([k for k, _ in counters], dtype=str),
            counter_values=np.array([v for _, v in counters], dtype=float),
            **self.arrays(),
        )


class LayerStats:
    """Per-layer calls and self time, summed over any number of span sets.

    A layer's calls are its spans whose parent belongs to another layer, so
    a layer calling itself counts once.  Its self time is the spans'
    durations minus the durations of their direct children.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self.root_total: Counter = Counter()
        self.root_self: Counter = Counter()

    def add(self, spans: dict, counters=(), peaks=()):
        names = [str(n) for n in spans["names"]]
        start, end = spans["start"], spans["end"]
        parent, nid = spans["parent"], spans["name_id"]
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        parent_nid = np.where(has_parent, nid[np.maximum(parent, 0)], -1)
        for k, name in enumerate(names):
            sel = nid == k
            if not sel.any():
                continue
            if name.startswith("op."):
                self.root_total[name] += float(dur[sel].sum())
                self.root_self[name] += float(own[sel].sum())
                continue
            self.self_s[name] += float(own[sel].sum())
            self.calls[name] += int(np.count_nonzero(sel & (parent_nid != k)))
        self.counters.update(dict(counters))
        for key, value in dict(peaks).items():
            self.peaks[key] = max(self.peaks.get(key, 0.0), value)

    def add_dump(self, path):
        with np.load(path) as z:
            spans = {k: z[k] for k in ("start", "end", "parent", "name_id", "names")}
            pairs = zip(z["counter_names"].tolist(), z["counter_values"].tolist())
            counters, peaks = {}, {}
            for name, value in pairs:
                (peaks if name.startswith("peak.") else counters)[name] = value
        self.add(spans, counters, peaks)


# ---------------------------------------------------------------------------
# layer boundaries


def _targets():
    """(owner, attribute, span name) for every wrapped layer boundary."""
    from diracmr import algebra, associated, operators, polarization, sampling
    from diracmr import spinors, wavepacket

    out = [
        (algebra, "boost_for_momentum", "algebra.boost_for_momentum"),
        (algebra, "theta_tensor", "algebra.theta_tensor"),
        (associated.AssociatedOperator, "apply", "associated.apply"),
        (associated.WaveSpinor, "gradient", "associated.gradient"),
        (associated, "commutator_action", "associated.commutator_action"),
        (associated, "matrix_elements_diag", "associated.matrix_elements_diag"),
        (associated, "matrix_elements_offdiag", "associated.matrix_elements_offdiag"),
        (associated, "d_matrix", "associated.d_matrix"),
        (associated.OscillatingKernel, "__call__", "associated.kernel"),
        (operators.FourierOperator, "__call__", "operators.eval"),
        (wavepacket.PacketStatistics, "__init__", "wavepacket.engine_init"),
        (wavepacket.PacketStatistics, "report", "wavepacket.report"),
        (wavepacket, "cone_filter", "wavepacket.detect"),
        (wavepacket, "radial_statistics", "wavepacket.detect"),
        (wavepacket, "g_integral", "wavepacket.g_integral"),
        (wavepacket, "isotropic_closed_forms", "wavepacket.closed_forms"),
        (wavepacket, "figure_data", "wavepacket.figure_data"),
    ]
    for fn in ("make_rng", "sample_momenta", "sample_boosts"):
        out.append((sampling, fn, "sampling"))
    for cls in (
        polarization.PolarizationBasis,
        polarization.CommonBasis,
        polarization.HelicityBasis,
    ):
        for meth in ("xi", "sigma", "omega"):
            if meth in vars(cls):
                out.append((cls, meth, f"polarization.{meth}"))
    for fn in (
        "dirac_hamiltonian", "projectors", "projectors_boost_form", "n_operator",
        "pryce_e_spin", "chakrabarti_spin", "pryce_e_spin_sandwich",
        "pryce_e_position_offset", "position_offset_from_boost_derivative",
        "auxiliary_spins", "frankel_spin", "pc_spin", "fradkin_good_spin",
        "spin_type_operators", "pauli_lubanski", "pryce_cd_offsets",
        "decompose_diag_osc",
    ):
        out.append((operators, fn, "operators.eval"))
    for fn in (
        "rest_u_matrix", "rest_v_matrix", "rest_spinors", "norm_factor",
        "u_matrix", "v_matrix", "u_spinor", "v_spinor", "dirac_residuals",
        "projector_from_spinors",
    ):
        out.append((spinors, fn, "spinors.eval"))
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported package with ``tracer``."""
    import diracmr.verify as verify
    from diracmr import algebra, wavepacket

    replaced: dict[int, object] = {}
    for owner, attr, name in _targets():
        original = vars(owner)[attr]
        wrapped = tracer.span(name, original)
        replaced[id(original)] = wrapped
        setattr(owner, attr, wrapped)
    for suite, fn in list(verify.SUITES.items()):
        wrapped = tracer.span(f"verify.{suite}", fn)
        replaced[id(fn)] = wrapped
        verify.SUITES[suite] = wrapped

    counts = tracer.counts
    momentum_init = algebra.Momentum.__post_init__

    def counted_post_init(self):
        counts["algebra.momentum.count"] += 1
        momentum_init(self)

    algebra.Momentum.__post_init__ = counted_post_init

    grid_init = tracer.span("wavepacket.grid", wavepacket.QuadratureGrid.__post_init__)
    peaks = tracer.peaks

    def grid_post_init(self):
        grid_init(self)
        arrays = (self.radial_nodes, self.radial_weights, self.nodes, self.weights)
        nodes = float(self.weights.size)
        if nodes > peaks.get("peak.wavepacket.grid.nodes", 0.0):
            peaks["peak.wavepacket.grid.nodes"] = nodes
            peaks["peak.wavepacket.grid.bytes"] = float(sum(a.nbytes for a in arrays))

    wavepacket.QuadratureGrid.__post_init__ = grid_post_init

    # rebind names imported elsewhere (``from .algebra import theta_tensor``)
    for modname, module in list(sys.modules.items()):
        if modname != "diracmr" and not modname.startswith("diracmr."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced and callable(value):
                setattr(module, attr, replaced[id(value)])
