"""Fluctuate a twisted Dirac operator by twisted one-forms.

Uses two scalar blocks acting on M_2 by left multiplication, so the
one-form bimodule is nontrivial (on the doubled-scalar toy every twisted
one-form evaluates to zero).  The script builds a symmetrised one-form,
fluctuates, re-verifies all axioms on the new operator, and shows that a
second fluctuation composes into a single one.
"""

import numpy as np

from nctwist import (
    Algebra,
    compose_fluctuations,
    eval_one_form,
    fluctuate,
    left_regular_geometry,
    measure_ko_signs,
    random_one_form,
    symmetrized,
    twist_by_grading,
    verify_fluctuated,
)

rng = np.random.default_rng(20)

alg = Algebra.of("C", "C")
m_small = np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.0]])
base = left_regular_geometry(alg, [1, -1], m_small)
tg = twist_by_grading(base)
print(f"twisted block geometry on dim {tg.geometry.hilbert_dim}, signs {measure_ko_signs(tg.geometry).as_tuple()}")

form = symmetrized(random_one_form(rng, tg, symmetric=False), tg)
a_mat = eval_one_form(form, tg)
print(f"symmetrised one-form, ||A|| = {np.linalg.norm(a_mat):.4f}")

fluctuated = fluctuate(tg, form)
print(f"||D_A - D|| = {np.linalg.norm(fluctuated.geometry.dirac - tg.geometry.dirac):.4f}")

print("\naxioms on the fluctuated operator")
print(verify_fluctuated(tg, form).format_text())

print("\nfluctuating twice composes")
second = random_one_form(rng, tg)
print(compose_fluctuations(tg, form, second).format_text())
