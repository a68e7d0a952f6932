"""Momentum-representation operator theory of the free Dirac field.

Closed-form momentum-space operators (spin and position families, frequency
projectors, Pauli-Lubanski), polarization bases, associated 2x2 operators on
wave spinors with their Wigner induced representations and zitterbewegung
kernels, and a wave-packet statistics engine.

The namespace is lazy (PEP 562): ``import diracmr`` loads no submodule, and
each public name imports its home module on first access, so ``diracmr.X``
and ``from diracmr import X`` give the same object as X's home module.
"""

import importlib

__version__ = "0.1.0"

# home module of every public name
_EXPORTS = {
    "algebra": (
        "GAMMA", "GAMMA5", "SL2C", "Momentum", "boost_for_momentum", "foldy_wouthuysen",
        "lorentz_boost_matrix", "rotation", "theta_tensor",
    ),
    "associated": (
        "KERNEL_CATALOG", "AssociatedFamily", "AssociatedOperator", "KernelTable",
        "OscillatingKernel", "WaveSpinor", "commutator_action", "d_matrix",
        "matrix_elements_diag", "matrix_elements_offdiag", "wigner_little_group",
        "wigner_transform",
    ),
    "operators": (
        "OPERATOR_CATALOG", "FourierOperator", "chakrabarti_spin", "decompose_diag_osc",
        "dirac_hamiltonian", "n_operator", "pauli_lubanski", "projectors", "pryce_cd_offsets",
        "pryce_e_position_offset", "pryce_e_spin", "spin_type_operators",
    ),
    "polarization": (
        "CommonBasis", "HelicityBasis", "PoleError", "PolarizationBasis", "make_basis",
    ),
    "spinors": (
        "ModeSpinorField", "projector_from_spinors", "rest_spinors", "u_spinor", "v_spinor",
    ),
    "verify": ("CheckResult", "run_suite"),
    "wavepacket": (
        "IsotropicProfile", "PacketProfile", "PacketStatistics", "QuadratureGrid",
        "StatisticsReport", "cone_filter", "figure_data", "g_integral", "make_isotropic",
        "packet_reports", "radial_statistics",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
