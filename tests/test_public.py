import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import diracmr
from diracmr import verify
from diracmr.algebra import Momentum
from diracmr.associated import AssociatedFamily
from diracmr.wavepacket import IsotropicProfile, PacketProfile, cone_filter, g_integral

PACKAGE = Path(diracmr.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def test_public_names_are_unique_and_resolve():
    names = diracmr.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(diracmr, name) is not None, name


def test_readme_tour_runs():
    # the README's one python block, the library tour, as a user would paste it
    (tour,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(tour, str(README), "exec"), {})


def test_lazy_namespace_lists_and_binds_every_public_name():
    assert set(diracmr.__all__) <= set(dir(diracmr))
    namespace = {}
    exec("from diracmr import *", namespace)
    for name in diracmr.__all__:
        assert namespace[name] is getattr(diracmr, name), name


def _scopes(match):
    """(module, outermost enclosing function with its class) of every node of the
    package source that ``match`` accepts; functions nested in a function count as it."""
    found = set()

    def walk(node, module, scope, in_function):
        for child in ast.iter_child_nodes(node):
            inner, nested = scope, in_function
            if isinstance(child, ast.ClassDef) or (
                isinstance(child, ast.FunctionDef) and not in_function
            ):
                inner, nested = scope + (child.name,), isinstance(child, ast.FunctionDef)
            elif match(child):
                found.add((module, ".".join(scope)))
            walk(child, module, inner, nested)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, (), False)
    return found


def _callers(name):
    """``_scopes`` of every call of ``name``."""

    def calls(node):
        fn = getattr(node, "func", None)
        return isinstance(node, ast.Call) and getattr(fn, "id", getattr(fn, "attr", None)) == name

    return _scopes(calls)


def test_batch_store_is_read_and_written_only_by_memoized():
    # every per-batch cache in the package is a ``@memoized`` declaration: only
    # ``memoized`` touches a batch's store of evaluations, by attribute or by name
    def touches(node):
        return (isinstance(node, ast.Attribute) and node.attr == "_evaluations") or (
            isinstance(node, ast.Constant) and node.value == "_evaluations"
        )

    assert _scopes(touches) == {("algebra", "memoized")}


def test_stencils_run_only_in_oracles():
    # no production path differentiates numerically: the stencil serves verify's
    # oracles, the FD pull-back of delta X and the fallback of a wave spinor built
    # without a gradient (the FD cross-check of Omega lives in the tests)
    callers = _callers("central_gradient")
    oracles = {
        ("operators", "position_offset_from_boost_derivative"),
        ("associated", "WaveSpinor.gradient"),
    }
    assert any(module == "verify" for module, _ in callers), callers
    assert {c for c in callers if c[0] != "verify"} <= oracles


def test_projectors_are_read_through_the_catalog():
    # production reads Pi+/- from the memoized catalog entries; only those entries,
    # two oracles and verify call ``projectors`` itself
    callers = _callers("projectors")
    allowed = {
        ("operators", ""),  # the module-level OPERATOR_CATALOG entries
        ("operators", "pryce_e_spin_sandwich"),
        ("operators", "position_offset_from_boost_derivative"),
    }
    assert ("operators", "") in callers
    assert {c for c in callers if c[0] != "verify"} <= allowed


def test_verify_shares_its_bases_and_reads_operators_through_the_catalog():
    # the two bases are made once, at module level, so what they keep on a shared
    # draw serves every suite; production 4x4 operators come from the memoized entries
    for basis in ("CommonBasis", "HelicityBasis", "make_basis"):
        assert {c for c in _callers(basis) if c[0] == "verify"} <= {("verify", "")}, basis
    for name in (
        "dirac_hamiltonian", "pryce_e_spin", "n_operator", "projectors", "chakrabarti_spin",
        "pauli_lubanski", "pc_spin", "auxiliary_spins",
    ):
        assert name not in vars(verify), name
    # inside operators, too, these are read from their entries only: N reads
    # h_dirac, Pi+/- read n_op and the spin types read their entries
    for name in (
        "pryce_e_spin", "dirac_hamiltonian", "pc_spin", "frankel_spin", "fradkin_good_spin",
    ):
        assert not _callers(name), name


def test_associated_images_read_two_frames():
    # A~(-) and A~(-+) come from the u/u and u(p)/v(-p) frames through A^c and
    # A^+, so v enters the images through the off-diagonal frame only
    assert {c for c in _callers("v_matrix") if c[0] == "associated"} == {
        ("associated", "_offdiag_frame")
    }
    # A^c is formed in one place, kept on the batch, and read by the images there
    assert {c for c in _callers("charge_conjugate") if c[0] != "verify"} == {
        ("associated", "charge_conjugated")
    }
    assert {c for c in _callers("charge_conjugated") if c[0] != "verify"} == {
        ("associated", "matrix_elements_diag")
    }


_PROFILE = IsotropicProfile(1.0, 2.0, 1.0).profile()
_P = np.array([0.3, -0.4, 0.5])


def _packet(m):
    return PacketProfile(_PROFILE.phi, _PROFILE.grad_phi, m)


# entry point with a NaN or out-of-range input -> the message it raises
INVALID = {
    "momentum_nan_mass": (lambda: Momentum(_P, math.nan), "mass must be positive"),
    "momentum_inf_mass": (lambda: Momentum(_P, math.inf), "mass must be positive"),
    "family_nan_mass": (lambda: AssociatedFamily(math.nan), "mass must be positive"),
    "isotropic_nan_mass": (lambda: IsotropicProfile(1.0, 2.0, math.nan), "mass must be"),
    "isotropic_negative_mass": (lambda: IsotropicProfile(1.0, 2.0, -1.0), "mass must be"),
    "isotropic_inf_gamma": (lambda: IsotropicProfile(math.inf, 2.0, 1.0), "gamma and pbar"),
    "packet_nan_mass": (lambda: _packet(math.nan), "mass must be"),
    "packet_negative_mass": (lambda: _packet(-1.0), "mass must be"),
    "cone_zero_direction": (lambda: cone_filter(_PROFILE, (0, 0, 0), 0.05, 40.0), "direction"),
    "cone_nan_direction": (
        lambda: cone_filter(_PROFILE, (math.nan, 0, 1), 0.05, 40.0), "direction"
    ),
    "cone_inf_p_max": (lambda: cone_filter(_PROFILE, (0, 0, 1), 0.05, math.inf), "p_max"),
    "cone_nan_p_max": (lambda: cone_filter(_PROFILE, (0, 0, 1), 0.05, math.nan), "p_max"),
    "cone_negative_p_max": (lambda: cone_filter(_PROFILE, (0, 0, 1), 0.05, -3.0), "p_max"),
    "g_nan_nu": (lambda: g_integral(math.nan, 1.0, 2.0, 1.0), "finite"),
    "g_nan_rho": (lambda: g_integral(1.0, math.nan, 2.0, 1.0), "finite"),
    "g_nan_mu": (lambda: g_integral(1.0, 1.0, math.nan, 1.0), "finite"),
    "g_nan_mass": (lambda: g_integral(1.0, 1.0, 2.0, math.nan), "finite"),
    "g_negative_mass": (lambda: g_integral(1.0, 1.0, 2.0, -1.0), "m nonnegative"),
}


@pytest.mark.parametrize("case", INVALID)
def test_entry_points_reject_nan_and_out_of_range_inputs(case):
    call, message = INVALID[case]
    with pytest.raises(ValueError, match=message):
        call()
