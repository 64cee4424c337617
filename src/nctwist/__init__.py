"""Finite-dimensional real spectral triples twisted by algebra automorphisms.

Matrix geometries with a real structure and grading, twisted commutators,
twisted fluctuations, the twist-by-grading construction, and a finite
standard model with its chirally twisted point model.  Everything is
verified numerically: constructions return report objects whose records
carry measured residuals against explicit tolerances.

The top level re-exports what the README and the demos use; everything
else is imported from its module.
"""

from .algebra import Algebra
from .clifford import charge_conjugation, gamma, grading_product
from .fluct import (
    compose_fluctuations,
    eval_one_form,
    fluctuate,
    symmetrized,
    verify_fluctuated,
)
from .matlin import dagger, fro, intertwiner_space
from .mintwist import free_dirac_pointwise, twist_by_grading
from .samples import flip_toy, left_regular_geometry, random_one_form, toy_triple
from .sm import (
    generalized_minimal_twist_check,
    label_swap_check,
    sm_finite_geometry,
    sm_rep,
    twisted_sm_geometry,
    verify_sm_twisted,
)
from .triple import measure_ko_signs, order_one_residual, order_zero_residual
from .twist import (
    Automorphism,
    TwistedGeometry,
    check_regular,
    coexistence_first_order_check,
    verify_twisted,
    zero_order_conflict_check,
)

__version__ = "0.1.0"
