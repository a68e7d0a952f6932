"""Momentum-representation operator theory of the free Dirac field.

Closed-form momentum-space operators (spin and position families, frequency
projectors, Pauli-Lubanski), polarization bases, associated 2x2 operators on
wave spinors with their Wigner induced representations and zitterbewegung
kernels, and a wave-packet statistics engine.
"""

from .algebra import (
    GAMMA,
    GAMMA5,
    SL2C,
    Momentum,
    boost_for_momentum,
    foldy_wouthuysen,
    lorentz_boost_matrix,
    rotation,
    theta_tensor,
)
from .associated import (
    KERNEL_CATALOG,
    AssociatedFamily,
    AssociatedOperator,
    OscillatingKernel,
    WaveSpinor,
    commutator_action,
    d_matrix,
    matrix_elements_diag,
    matrix_elements_offdiag,
    wigner_little_group,
    wigner_transform,
)
from .operators import (
    OPERATOR_CATALOG,
    FourierOperator,
    chakrabarti_spin,
    decompose_diag_osc,
    dirac_hamiltonian,
    n_operator,
    pauli_lubanski,
    projectors,
    pryce_cd_offsets,
    pryce_e_position_offset,
    pryce_e_spin,
    spin_type_operators,
)
from .polarization import (
    CommonBasis,
    HelicityBasis,
    PoleError,
    PolarizationBasis,
    make_basis,
)
from .spinors import (
    ModeSpinorField,
    projector_from_spinors,
    rest_spinors,
    u_spinor,
    v_spinor,
)
from .verify import CheckResult, run_suite
from .wavepacket import (
    IsotropicProfile,
    PacketProfile,
    PacketStatistics,
    QuadratureGrid,
    StatisticsReport,
    cone_filter,
    figure_data,
    g_integral,
    make_isotropic,
    packet_reports,
    radial_statistics,
)

__version__ = "0.1.0"

__all__ = [
    "AssociatedFamily",
    "AssociatedOperator",
    "CheckResult",
    "CommonBasis",
    "FourierOperator",
    "GAMMA",
    "GAMMA5",
    "HelicityBasis",
    "IsotropicProfile",
    "KERNEL_CATALOG",
    "ModeSpinorField",
    "Momentum",
    "OPERATOR_CATALOG",
    "OscillatingKernel",
    "PacketProfile",
    "PacketStatistics",
    "PolarizationBasis",
    "PoleError",
    "QuadratureGrid",
    "SL2C",
    "StatisticsReport",
    "WaveSpinor",
    "boost_for_momentum",
    "chakrabarti_spin",
    "commutator_action",
    "cone_filter",
    "d_matrix",
    "decompose_diag_osc",
    "dirac_hamiltonian",
    "figure_data",
    "foldy_wouthuysen",
    "g_integral",
    "lorentz_boost_matrix",
    "make_basis",
    "make_isotropic",
    "matrix_elements_diag",
    "matrix_elements_offdiag",
    "n_operator",
    "packet_reports",
    "pauli_lubanski",
    "projector_from_spinors",
    "projectors",
    "pryce_cd_offsets",
    "pryce_e_position_offset",
    "pryce_e_spin",
    "radial_statistics",
    "rest_spinors",
    "rotation",
    "run_suite",
    "spin_type_operators",
    "theta_tensor",
    "u_spinor",
    "v_spinor",
    "wigner_little_group",
    "wigner_transform",
]
