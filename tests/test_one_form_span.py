"""The one-form span is read at the pair rows, plus ``i`` times the
evaluations at a component whose ``i E`` rows are dropped.

Its reference is the full-row grid pi(g_i) [D, g_j]_rho over every generator
row: both must have the same real span.  The span record of
``compose_fluctuations`` reads it, so it must accept an ``i`` multiple on a
dropped component and reject one on H, whose complex span is larger than
its real one.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctwist import fluct
from nctwist.algebra import Algebra, Placement, Representation
from nctwist.fluct import (
    TwistedOneForm,
    compose_fluctuations,
    eval_one_form,
    fluctuate,
    one_form_basis,
    symmetrized,
)
from nctwist.matlin import DEFAULT_TOL, AntilinearOperator, Operand, fro, residual_against_span
from nctwist.mintwist import twist_by_grading
from nctwist.report import Report
from nctwist.samples import (
    clifford_tensor,
    left_regular_geometry,
    random_hermitian,
    random_matrix_geometry,
    random_one_form,
    random_unitary,
)
from nctwist.triple import FiniteGeometry
from nctwist.twist import Automorphism, TwistedGeometry, order_one, order_one_operand
from span_reference import dense_one_form_basis, dense_residual_against_span

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
    full, basis = full_grid(tg), one_form_basis(tg).array
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


def h_untwisted(rng) -> TwistedGeometry:
    """H placed fund twice and C once on C^5: H keeps its ``i`` rows."""
    alg = Algebra.of("H", "C")
    rep = Representation.from_placements(
        alg, 5, [Placement(0, 0, "fund", mult=2), Placement(1, 4, "scalar")]
    )
    d = random_hermitian(rng, 5).real
    return TwistedGeometry.untwisted(FiniteGeometry(rep, d, real_structure=AntilinearOperator(np.eye(5))))


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
    # J complex conjugation, D real
    tg = h_untwisted(np.random.default_rng(6))
    assert tg.geometry.rep.drops(tg.rho.perm) == (False, True)
    basis = one_form_basis(tg).array
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


# -- the entry-built grid and solve against the dense reference ------------


def e4_shaped(rng) -> FiniteGeometry:
    """A placed M3 (+) C geometry on M_4 (n = 16), as catalogue entry 4 draws it."""
    g = random_matrix_geometry(rng, 4)
    while g.algebra.signature() != (("M", 3), ("C", None)):
        g = random_matrix_geometry(rng, 4)
    return g


# twisted by grading, each is a doubled algebra; e4 is placed, e1 and e3 framed
SAMPLES = {
    **{case: lambda rng, c=case: twist_by_grading(CASES[c](rng)) for case in CASES},
    "e4-placed": lambda rng: twist_by_grading(e4_shaped(rng)),
    "H-untwisted": h_untwisted,
}


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(sorted(SAMPLES)), seed=st.integers(0, 2**32 - 1))
def test_the_grid_and_the_span_residual_are_the_dense_ones(case, seed):
    rng = np.random.default_rng(seed)
    tg = SAMPLES[case](rng)
    grid, reference = one_form_basis(tg), dense_one_form_basis(tg)
    assert grid.shape == reference.shape
    assert np.array_equal(grid.array, reference)
    # the nonzero values bit for bit (a zero's sign may differ)
    nonzero = reference != 0
    assert grid.array[nonzero].tobytes() == reference[nonzero].tobytes()
    f, f2 = random_one_form(rng, tg), random_one_form(rng, tg)
    report = compose_fluctuations(tg, f, f2)
    a2 = eval_one_form(f2, fluctuate(tg, f))
    assert report.info["a2_span_residual"] == dense_residual_against_span(a2, reference)
    assert residual_against_span(a2, grid) == residual_against_span(a2, reference)


def test_the_e4_grid_is_entry_built_and_the_framed_one_dense():
    rng = np.random.default_rng(7)
    assert not one_form_basis(twist_by_grading(e4_shaped(rng))).dense
    assert one_form_basis(twist_by_grading(CASES["e3-framed"](rng))).dense


def test_the_order_one_stack_has_the_dense_formula_s_bits_however_stored():
    # entry-built on both sides it is built from the entries (the Clifford
    # e9 shape, n = 32); a dense side takes the one dense formula
    tg = twist_by_grading(CASES["e9"](np.random.default_rng(7)))
    d, (pi_a, pi_rho_a) = tg.geometry.dirac, tg.stacks()[:2]
    assert not (pi_a.dense or pi_rho_a.dense)
    want = order_one(d, pi_a.array, pi_rho_a.array)
    for xs in (pi_a, Operand(pi_a.array)):
        for zs in (pi_rho_a, Operand(pi_rho_a.array)):
            got = order_one_operand(d, xs, zs)
            assert got.dense == (xs.dense or zs.dense)
            assert np.array_equal(got.array, want)
            nonzero = want != 0
            assert got.array[nonzero].tobytes() == want[nonzero].tobytes()


def test_compose_holds_no_dense_grid():
    # e4: the dense grid is 800 matrices of 16 x 16 (3.3 MB), and composing
    # peaked at 6.35 MiB when it was formed
    rng = np.random.default_rng(7)
    tg = twist_by_grading(e4_shaped(rng))
    f, f2 = random_one_form(rng, tg), random_one_form(rng, tg)
    assert len(dense_one_form_basis(tg)) == 800
    tracemalloc.start()
    try:
        report = compose_fluctuations(tg, f, f2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok, report.format_text()
    assert peak < 2**20


def test_a_term_off_the_grid_fails_the_span_record_by_its_norm(monkeypatch):
    rng = np.random.default_rng(11)
    tg = twist_by_grading(e4_shaped(rng))
    f, f2 = random_one_form(rng, tg), random_one_form(rng, tg)
    assert span_record(tg, f2).passed
    # a position that no matrix of the grid reaches, real or imaginary
    (r, c), *_ = np.argwhere(~one_form_basis(tg).array.any(axis=0))
    term = np.zeros_like(tg.geometry.dirac)
    term[r, c] = 3.0 - 4.0j
    solve = fluct.residual_against_span
    monkeypatch.setattr(fluct, "residual_against_span", lambda a2, span: solve(a2 + term, span))
    rec = span_record(tg, f2)
    assert not rec.passed
    assert rec.residual == fro(term) == 5.0


def test_a_nan_in_d_fails_the_span_record():
    # compose reads no D with a NaN (its signs are undecided), so the record
    # is formed as compose forms it, on the grid of such a D
    rng = np.random.default_rng(12)
    tg = twist_by_grading(e4_shaped(rng))
    a2 = eval_one_form(random_one_form(rng, tg), tg)
    d = tg.geometry.dirac.copy()
    d[0, 1] = np.nan
    grid = one_form_basis(tg.with_dirac(d))
    assert grid.dense and np.isnan(grid.array).any()
    r = residual_against_span(a2, grid)
    assert np.isnan(r)
    rec = Report("span").check(SPAN, r, DEFAULT_TOL, max(1.0, fro(a2)))
    assert not rec.passed


def test_an_inf_in_a_pi_image_fails_the_span_record():
    rng = np.random.default_rng(13)
    tg = twist_by_grading(e4_shaped(rng))
    pi = tg.geometry.rep
    stack = pi.stack.copy()
    stack[0][stack[0] != 0] = np.inf
    rep = Representation(pi.algebra, stack, signs=pi.signs)
    bad = TwistedGeometry(replace(tg.geometry, rep=rep), tg.rho)
    # the empty one-forms fluctuate nothing, so compose reaches the record
    empty = TwistedOneForm.of()
    report = compose_fluctuations(bad, empty, empty)
    rec = {r.name: r for r in report.records}[SPAN]
    assert np.isnan(rec.residual) and not rec.passed
    assert not report.ok
