"""Finite-dimensional real spectral triples twisted by algebra automorphisms.

Matrix geometries with a real structure and grading, twisted commutators,
twisted fluctuations, the twist-by-grading construction, and a finite
standard model with its chirally twisted point model.  Everything is
verified numerically: constructions return report objects whose records
carry measured residuals against explicit tolerances.
"""

from .algebra import (
    QUATERNION_UNITS,
    Algebra,
    Placement,
    Representation,
    doubled,
    join_double,
    projected_double,
    quaternion,
    split_double,
)
from .clifford import (
    MAX_M,
    ChargeConjugation,
    CliffordData,
    charge_conjugation,
    gamma,
    grading_product,
    pauli,
)
from .fluct import (
    TwistedOneForm,
    adjoint_one_form,
    compose_fluctuations,
    eval_one_form,
    fluctuate,
    fluctuate_with_operator,
    fluctuation_operator,
    leibniz_check,
    one_form_basis,
    one_form_opposite_checks,
    span_membership_residual,
    symmetrized,
    verify_fluctuated,
)
from .matlin import (
    DEFAULT_TOL,
    AntilinearOperator,
    Tolerance,
    anticommutator,
    commutator,
    commutant,
    dagger,
    fro,
    intertwiner_space,
    intertwiners,
    match_sign,
    nullspace,
    polar_unitary,
    twisted_commutator,
)
from .mintwist import (
    GammaTildeReport,
    conjugation_lemma_check,
    double_unit_element,
    free_dirac_pointwise,
    gamma_tilde_diagnostics,
    grading_compat_check,
    irreducibility_triviality_check,
    twist_by_grading,
    uniqueness_engine,
)
from .report import CheckRecord, Report
from .samples import (
    clifford_tensor,
    flip_toy,
    left_regular_geometry,
    random_graded_geometry,
    random_matrix_geometry,
    random_one_form,
    random_twisted_geometry,
    toy_triple,
)
from .sm import (
    DEFAULT_MAJORANA,
    DEFAULT_YUKAWAS,
    build_dirac,
    finite_grading,
    finite_real_structure,
    generalized_minimal_twist_check,
    label_swap_check,
    lean_generators,
    rep_F,
    rho_sm,
    sm_algebra,
    sm_finite_geometry,
    sm_first_order_residuals,
    sm_rep,
    sm_twist,
    twisted_rep,
    twisted_sm_algebra,
    twisted_sm_geometry,
    twisted_sm_rep,
    verify_sm_twisted,
    yukawa_block,
)
from .triple import (
    FiniteGeometry,
    SignTriple,
    measure_ko_signs,
    opposite_action,
    order_one_residual,
    order_zero_residual,
    verify_spectral_triple,
)
from .twist import (
    Automorphism,
    TwistedGeometry,
    check_regular,
    coexistence_first_order_check,
    twisted_order_zero_residual,
    verify_twisted,
    verify_twisted_first_order,
    zero_order_conflict_check,
)

__version__ = "0.1.0"
