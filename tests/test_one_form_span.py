"""The one-form span is read at the pair rows, plus ``i`` times the
evaluations at a component whose ``i E`` rows are dropped.

Its reference is the full-row grid pi(g_i) [D, g_j]_rho over every generator
row: both must have the same real span.  The span record of
``compose_fluctuations`` reads it, so it must accept an ``i`` multiple on a
dropped component and reject one on H, whose complex span is larger than
its real one.
"""

import numpy as np
import pytest

from nctwist.algebra import Algebra, Placement, Representation
from nctwist.fluct import (
    TwistedOneForm,
    compose_fluctuations,
    eval_one_form,
    one_form_basis,
    symmetrized,
)
from nctwist.matlin import AntilinearOperator
from nctwist.mintwist import twist_by_grading
from nctwist.samples import (
    clifford_tensor,
    left_regular_geometry,
    random_hermitian,
    random_unitary,
)
from nctwist.triple import FiniteGeometry
from nctwist.twist import Automorphism, TwistedGeometry

SPAN = "second one-form lies in the original bimodule"


def full_grid(tg: TwistedGeometry) -> np.ndarray:
    """pi(g_i) [D, g_j]_rho over every generator row, stacked."""
    g, d = tg.geometry, tg.geometry.dirac
    rows = g.algebra.generator_rows
    pi_a, pi_rho_a = g.rep.images(rows), tg.twisted_rep.images(rows)
    return (pi_a[:, None] @ (d @ pi_a - pi_rho_a @ d)[None]).reshape((-1,) + d.shape)


def pair_grid(tg: TwistedGeometry) -> np.ndarray:
    """pi(a) [D, b]_rho over the pair rows alone, without the ``i`` multiples."""
    d = tg.geometry.dirac
    pi_a, pi_rho_a = (s.array for s in tg.stacks()[:2])
    return (pi_a[:, None] @ (d @ pi_a - pi_rho_a @ d)[None]).reshape((-1,) + d.shape)


def real_columns(stack: np.ndarray) -> np.ndarray:
    """Each matrix of ``stack`` as one real column: real parts, then imaginary."""
    flat = stack.reshape(len(stack), -1)
    return np.concatenate([flat.real, flat.imag], axis=1).T


def outside(stack: np.ndarray, span: np.ndarray) -> np.ndarray:
    """The distance of each matrix of ``stack`` from the real span of ``span``."""
    a, b = real_columns(span), real_columns(stack)
    coeff = np.linalg.lstsq(a, b, rcond=None)[0]
    return np.linalg.norm(b - a @ coeff, axis=0)


def odd_hermitian(rng, alg: Algebra, signs) -> np.ndarray:
    """A Hermitian k x k matrix that anticommutes with the block sign matrix."""
    gam = np.concatenate([np.full(c.dim, float(s)) for c, s in zip(alg.components, signs)])
    m = random_hermitian(rng, len(gam))
    return (m - gam[:, None] * m * gam[None, :]) / 2.0


def left_regular(rng, specs, signs, frame=False) -> FiniteGeometry:
    alg = Algebra.of(*specs)
    k = sum(c.dim for c in alg.components)
    w = random_unitary(rng, k * k) if frame else None
    return left_regular_geometry(alg, signs, odd_hermitian(rng, alg, signs), frame=w)


# the catalogue's shapes: framed e1 and e3, H in e2 and e7, Clifford e6 to e9
CASES = {
    "e1-framed": lambda rng: left_regular(rng, ["C", "C"], [1, -1], frame=True),
    "e3-framed": lambda rng: left_regular(rng, [("M", 2), "C"], [1, -1], frame=True),
    "e2-H": lambda rng: left_regular(rng, ["H", "C"], [1, -1]),
    "e7-H": lambda rng: clifford_tensor(1, left_regular(rng, ["H", "C"], [-1, 1])),
    "e6": lambda rng: clifford_tensor(1, left_regular(rng, ["C", "C"], [1, -1])),
    "e7": lambda rng: clifford_tensor(1, left_regular(rng, [("M", 2), "C"], [1, -1])),
    "e8": lambda rng: clifford_tensor(2, left_regular(rng, ["C", "C"], [-1, 1])),
    "e9": lambda rng: clifford_tensor(3, left_regular(rng, ["C", "C"], [1, -1])),
}


def scalar_pair(rng, perm) -> TwistedGeometry:
    """C + C placed ``scalar`` and ``conj-scalar`` on C^2, a random Hermitian D
    and J complex conjugation, twisted by ``perm``."""
    alg = Algebra.of("C", "C")
    rep = Representation.from_placements(
        alg, 2, [Placement(0, 0, "scalar"), Placement(1, 1, "conj-scalar")]
    )
    g = FiniteGeometry(rep, random_hermitian(rng, 2), real_structure=AntilinearOperator(np.eye(2)))
    return TwistedGeometry(g, Automorphism(perm))


def assert_same_real_span(tg: TwistedGeometry) -> None:
    full, basis = full_grid(tg), one_form_basis(tg)
    assert len(basis) <= len(full)
    # the larger column norm of the two sets
    scale = max(np.linalg.norm(real_columns(s), axis=0).max() for s in (full, basis))
    assert np.isfinite(scale) and scale > 0.1
    assert outside(full, basis).max() <= 1e-12 * scale
    assert outside(basis, full).max() <= 1e-12 * scale


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_span_equals_the_full_row_span(case, seed):
    tg = twist_by_grading(CASES[case](np.random.default_rng(seed)))
    rows, _ = tg.geometry.rep.pair_rows(tg.rho.perm)
    assert len(rows) < len(tg.algebra.generator_rows)  # some rows are dropped
    assert_same_real_span(tg)


@pytest.mark.parametrize("perm", [(0, 1), (1, 0)], ids=["identity", "flip"])
def test_the_span_of_a_conjugate_scalar_pair_equals_the_full_row_span(perm):
    tg = scalar_pair(np.random.default_rng(3), perm)
    rows, _ = tg.geometry.rep.pair_rows(tg.rho.perm)
    # each component alone has one known sign; the flip meets +1 and -1
    assert len(rows) == (2 if perm == (0, 1) else 4)
    assert_same_real_span(tg)


# -- mutations -------------------------------------------------------------


def span_record(tg: TwistedGeometry, f2: TwistedOneForm):
    """The span record of composing the empty fluctuation with ``f2``."""
    report = compose_fluctuations(tg, TwistedOneForm.of(), f2)
    return {r.name: r for r in report.records}[SPAN]


def test_an_i_multiple_on_a_dropped_component_is_in_the_span():
    # a real D and real matrix units: the pair-row grid is real, so only the
    # i multiples reach the imaginary one-forms
    rng = np.random.default_rng(4)
    alg = Algebra.of(("M", 2), "C")
    m = odd_hermitian(rng, alg, [1, -1]).real
    tg = twist_by_grading(left_regular_geometry(alg, [1, -1], m))
    alg, pi = tg.algebra, tg.geometry.rep
    assert pi.drops(tg.rho.perm) == (True,) * 4
    e, f = np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([[0.0, 1.0], [0.0, 0.0]])
    # pi(i E) [D, E']_rho = i pi(E) [D, E']_rho, on the two copies of M_2
    form = TwistedOneForm.of((alg.basis_element(0, 1j * e), alg.basis_element(2, f)))
    f2 = symmetrized(form, tg)
    rec = span_record(tg, f2)
    assert rec.passed, rec
    # without the i multiples it is far outside the span
    a2 = eval_one_form(f2, tg)
    assert np.linalg.norm(a2) > 0.1
    assert outside(a2[None], pair_grid(tg))[0] > 1e6 * rec.tol


def test_an_i_multiple_on_h_is_outside_the_span():
    # H placed fund twice and C once on C^5, J complex conjugation, D real
    alg = Algebra.of("H", "C")
    rep = Representation.from_placements(
        alg, 5, [Placement(0, 0, "fund", mult=2), Placement(1, 4, "scalar")]
    )
    d = random_hermitian(np.random.default_rng(6), 5).real
    g = FiniteGeometry(rep, d, real_structure=AntilinearOperator(np.eye(5)))
    tg = TwistedGeometry.untwisted(g)
    assert rep.drops(tg.rho.perm) == (False, True)
    basis = one_form_basis(tg)
    # the complex span is strictly larger than the real one
    rank = np.linalg.matrix_rank(real_columns(basis))
    assert np.linalg.matrix_rank(real_columns(np.concatenate([basis, 1j * basis]))) > rank
    # i pi(h) [D, h']_rho with both slots in H: pi(i h) = i pi(h) on M_2(C)
    qi, qj = np.diag([1j, -1j]), np.array([[0.0, 1.0], [-1.0, 0.0]])
    f2 = symmetrized(TwistedOneForm.of(((1j * qi, 0j), (qj, 0j))), tg)
    rec = span_record(tg, f2)
    assert not rec.passed
    assert np.isfinite(rec.residual) and rec.residual > 1e6 * rec.tol
    # a complex least-squares would take it in
    a2 = eval_one_form(f2, tg).reshape(-1)
    flat = basis.reshape(len(basis), -1).T
    coeff = np.linalg.lstsq(flat, a2, rcond=None)[0]
    assert np.linalg.norm(a2 - flat @ coeff) < 1e-3 * rec.tol
