"""The benchmark's own table of every verify suite's checks and tolerances.

Each tolerance is the one stated for the check's class (README, "Tolerance
classes"), written here apart from the package so that a change to a suite
cannot loosen what the benchmark accepts.  A check listed here that is
missing from a suite's results, or whose residual exceeds its listed
tolerance, fails the operation.  A check the table does not list must meet
the tolerance it states itself.
"""

from __future__ import annotations

import math

EXACT = 1e-15  # exact matrix algebra (integer entries, fixed matrices)
EXACT_ROTATION = 1e-14  # 2 pi rotation: one trigonometric rounding
CLOSED = 1e-12  # closed-form identities at sampled momenta
KERNEL_MACHINERY = 1e-10  # kernel against the generic off-diagonal machinery
GRID_NORM = 1e-8  # norm preservation on a quadrature grid
FD = 1e-6  # single finite difference
NESTED_FD = 1e-5  # nested finite differences (commutators of derivatives)
ZERO = 0.0  # exact equality
WITNESS = 1.0  # 1e-6 / |[H, S_Ch]|: a non-conservation witness, not a residual


def _closed(*names):
    return {n: CLOSED for n in names}


KERNEL_NAMES = (
    "delta_x_osc",
    "axial_current_osc",
    "fw_generator_osc",
    "scalar_charge_osc",
    "pseudoscalar_osc",
    "chakrabarti_osc",
)

TABLE: dict[str, dict[str, float]] = {
    "clifford": {
        "anticommutation": EXACT,
        "gamma5_diag": EXACT,
        "gamma5_product": EXACT,
        "charge_conjugation_involution": EXACT,
        "generator_antisymmetry": EXACT,
        "generator_dirac_selfadjoint": EXACT,
        "spin_su2_closure": EXACT,
        "rotation_identity": EXACT,
        "rotation_double_cover": EXACT_ROTATION,
        "rotation_unitary": CLOSED,
        "rotation_homomorphism": CLOSED,
    },
    "boosts": {
        "rest_frame_boost": EXACT,
        "rest_frame_fw": EXACT,
        **_closed(
            "boost_hermitian", "boost_inverse_flip", "boost_square",
            "boost_projection_plus", "boost_projection_minus",
            "canonical_homomorphism", "metric_preservation", "boost_action",
            "theta_product", "theta_is_space_block", "fw_unitary",
            "fw_flip_adjoint", "fw_diagonalises_h", "fw_maps_spin",
        ),
    },
    "projectors": {
        "rest_norm_factor": ZERO,
        **_closed(
            "projector_forms_agree", "idempotent", "orthogonal", "complete",
            "n_squared", "h_projector_split", "h_eigenvalues", "spinor_sum_plus",
            "spinor_sum_minus", "dirac_equation_u", "dirac_equation_v",
            "u_orthonormal", "uv_cross_orthogonal", "h_acts_on_u", "h_acts_on_v",
        ),
    },
    "pryce_spin": {
        **_closed(
            "form_agreement", "square_three_quarters", "hermitian", "conserved",
            "su2_closure", "anticommutator_half_delta",
            "offset_restores_angular_momentum", "chakrabarti_flip_adjoint",
            "chakrabarti_projector_plus", "chakrabarti_projector_minus",
        ),
        "offset_matches_boost_derivative": FD,
        "chakrabarti_nonconservation_witness": WITNESS,
    },
    "spin_types": _closed(
        "frankel_theta_form", "pc_theta_form", "cross_identity_pc",
        "cross_identity_fr", "frankel_norm", "pc_norm",
        "fradkin_good_is_spin_times_n", "fradkin_good_square",
        "helicity_projection_pryce", "helicity_projection_frankel",
        "helicity_projection_pc", "conserved_frankel", "conserved_pc",
        "conserved_fg", "frankel_commutator", "pc_commutator",
        "fradkin_good_commutator", "offset_ratio", "j_split_pc",
        "j_split_frankel", "decomposition_sum", "oscillating_frequency",
        "pauli_dirac_diagonal_is_pc", "pryce_spin_reducible",
    ),
    "pauli_lubanski": _closed(
        "w0_is_helicity", "wi_is_theta_spin", "transverse", "casimir", "conserved"
    ),
    "associated": {
        **_closed(
            "projector_plus_image", "projector_minus_image", "n_image", "h_image",
            "spin_image", "spin_antiparticle_sign", "spin_plus_image",
            "spin_plus_sign", "pl_time_image", "pl_time_sign", "pl_space_image",
            "pl_space_sign", "delta_x_diagonal_image", "delta_x_sign",
            "pauli_dirac_image", "pauli_dirac_sign", "scalar_charge_image",
            "axial_charge_image", "offdiag_adjoint_pairing",
            "pryce_spin_offdiag_vanishes",
        ),
        "covariant_derivative_kills_sigma": FD,
    },
    "appendix_b": {
        **_closed(
            "spin_su2_pointwise", "spin_boostspin_pointwise",
            "boostspin_boostspin_pointwise", "spin_pl_pointwise",
            "spin_pl0_pointwise", "y_pryce_c_closed_form", "y_pryce_d_closed_form",
        ),
        **{
            n: NESTED_FD
            for n in (
                "angular_su2", "boost_boost_closes_rotation", "position_commute",
                "pryce_c_noncommutativity", "pryce_d_noncommutativity",
                "angular_spin_commute", "angular_boost_vector",
                "boost_orbital_spin_mix", "boost_position", "boost_velocity",
                "position_velocity", "position_rotates_as_vector",
                "position_spin_commute", "boostspin_position", "position_pl_space",
                "angular_momentum_vector", "boost_momentum",
                "position_momentum_canonical", "angular_energy_commute",
                "boost_energy", "position_energy_gives_velocity", "position_pl_time",
            )
        },
    },
    "wigner": {
        **_closed(
            "w_block_structure", "w_blocks_equal", "w_unitary", "d_unitary",
            "rotation_momentum_independent", "rotation_is_su2_matrix",
            "identity_transform", "translation_modulus_invariance",
        ),
        "boost_norm_preservation": GRID_NORM,
    },
    "kernels": {
        **{f"{k}_matches_machinery": KERNEL_MACHINERY for k in KERNEL_NAMES},
        **{f"{k}_phase_law": CLOSED for k in KERNEL_NAMES},
        **{f"{k}_modulus_static": CLOSED for k in KERNEL_NAMES},
        **{f"{k}_time_derivative": FD for k in KERNEL_NAMES},
        "pseudoscalar_diagonal_vanishes": CLOSED,
    },
}

# headroom reported when a residual is exactly zero
MAX_HEADROOM_DIGITS = 20.0


def headroom_digits(residual: float, tol: float) -> float:
    """log10(tol / residual): digits between a residual and its tolerance."""
    if residual != residual or tol <= 0.0 < residual:  # NaN, or any residual against 0
        return -MAX_HEADROOM_DIGITS
    if residual <= 0.0:
        return MAX_HEADROOM_DIGITS
    return min(math.log10(tol / residual), MAX_HEADROOM_DIGITS)


def check_suite(suite: str, results) -> tuple[list[str], float]:
    """Failures of one suite's results against the table, and min headroom.

    ``results`` is a sequence of (name, residual, tol) triples, as the
    package's ``CheckResult`` objects or parsed ``verify`` output give them.
    """
    table = TABLE[suite]
    seen = {}
    for name, residual, own_tol in results:
        seen[name] = (float(residual), float(own_tol))
    failures = [f"{suite}/{n}: missing" for n in table if n not in seen]
    worst = MAX_HEADROOM_DIGITS
    for name, (residual, own_tol) in seen.items():
        tol = table.get(name, own_tol)
        if not residual <= tol:
            failures.append(f"{suite}/{name}: residual {residual:.3e} > {tol:.0e}")
        worst = min(worst, headroom_digits(residual, tol))
    return failures, worst
