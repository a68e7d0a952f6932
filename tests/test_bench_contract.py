"""The names and checks the benchmark's layer tracer and workloads rely on.

``bench/tracing.py`` wraps package attributes by name, counts
``Momentum.__post_init__`` calls, patches ``QuadratureGrid.__post_init__`` and
reads the grid's four node and weight arrays; ``bench/workloads.py`` unpacks
single momenta from ``sample_momenta``; ``bench/checks.py`` lists the verify
checks every operation must report, with their tolerances.  A refactor that
drops one of these breaks the benchmark without failing any other test.
"""

import importlib.util
from pathlib import Path

import numpy as np

from diracmr.algebra import Momentum
from diracmr.sampling import sample_momenta
from diracmr.verify import run_suite
from diracmr.wavepacket import QuadratureGrid

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_bench_tracer_contract():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, span in tracing._targets():
        assert callable(vars(owner).get(attr)), f"{span}: {owner.__name__}.{attr}"
    assert "__post_init__" in vars(Momentum)
    (q,) = sample_momenta(1, 1.0, 3, lo=0.05, hi=2.0, avoid_poles=True)
    momenta = sample_momenta(4, 1.0, 3)
    assert isinstance(momenta, list)
    assert all(isinstance(k, Momentum) and k.p.shape == (3,) for k in [q, *momenta])
    assert "__post_init__" in vars(QuadratureGrid)
    grid = QuadratureGrid(5.0, 4, 3, 2)
    arrays = (grid.radial_nodes, grid.radial_weights, grid.nodes, grid.weights)
    assert all(isinstance(a, np.ndarray) for a in arrays)
    assert grid.radial_nodes.shape == grid.radial_weights.shape == (4,)
    assert grid.nodes.shape == (24, 3) and grid.weights.shape == (24,)


def test_bench_check_table_contract():
    # every check the benchmark's table lists is reported, at no looser a tolerance
    spec = importlib.util.spec_from_file_location("bench_checks", TRACING.with_name("checks.py"))
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    for suite, table in checks.TABLE.items():
        results = run_suite(suite, 20, 7)
        tols = {r.name: r.tol for r in results}
        assert [n for n in table if n not in tols] == [], suite
        assert [n for n, tol in table.items() if tols[n] > tol] == [], suite
        if suite in ("appendix_b", "associated"):
            # the reported order, which the verify output prints, is the table's
            assert [r.name for r in results if r.name in table] == list(table), suite
