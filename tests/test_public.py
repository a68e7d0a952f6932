import ast
from pathlib import Path

import diracmr

PACKAGE = Path(diracmr.__file__).parent


def test_public_names_are_unique_and_resolve():
    names = diracmr.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(diracmr, name) is not None, name


def test_lazy_namespace_lists_and_binds_every_public_name():
    assert set(diracmr.__all__) <= set(dir(diracmr))
    namespace = {}
    exec("from diracmr import *", namespace)
    for name in diracmr.__all__:
        assert namespace[name] is getattr(diracmr, name), name


def _callers(name):
    """(module, outermost enclosing function with its class) of every call of
    ``name`` in the package source; functions nested in a function count as it."""
    found = set()

    def walk(node, module, scope, in_function):
        for child in ast.iter_child_nodes(node):
            inner, nested = scope, in_function
            if isinstance(child, ast.ClassDef) or (
                isinstance(child, ast.FunctionDef) and not in_function
            ):
                inner, nested = scope + (child.name,), isinstance(child, ast.FunctionDef)
            elif isinstance(child, ast.Call):
                fn = child.func
                if getattr(fn, "id", getattr(fn, "attr", None)) == name:
                    found.add((module, ".".join(scope)))
            walk(child, module, inner, nested)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, (), False)
    return found


def test_batch_memo_is_called_only_by_memoized():
    # every per-batch cache in the package is a ``@memoized`` declaration
    assert _callers("batch_memo") == {("algebra", "memoized")}


def test_stencils_run_only_in_oracles():
    # no production path differentiates numerically: the stencil serves verify's
    # oracles, the FD cross-check of Omega, the FD pull-back of delta X and the
    # fallback of a wave spinor built without a gradient
    callers = _callers("central_gradient")
    oracles = {
        ("polarization", "PolarizationBasis.omega_fd"),
        ("operators", "position_offset_from_boost_derivative"),
        ("associated", "WaveSpinor.gradient"),
    }
    assert any(module == "verify" for module, _ in callers), callers
    assert {c for c in callers if c[0] != "verify"} <= oracles
