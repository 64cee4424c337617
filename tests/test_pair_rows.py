"""The pair checks walk ``Algebra.pair_rows``: the ``i E`` rows are dropped
exactly where structure shows that they repeat the ``E`` rows.

A representation's ``signs`` come from its placement modes and travel
through the transforms that build a representation from a parent's stack; a
bare stack knows none, so its pair checks walk every generator row.  That
bare stack is the reference here: the same pi, with the same images, and
nothing dropped.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctwist.algebra import Algebra, Placement, Representation, projected_double
from nctwist.fluct import compose_fluctuations, verify_fluctuated
from nctwist.matlin import DEFAULT_TOL, AntilinearOperator
from nctwist.mintwist import twist_by_grading
from nctwist.samples import (
    _CATALOGUE,
    clifford_tensor,
    flip_toy,
    random_hermitian,
    random_matrix_geometry,
    random_one_form,
    random_unitary,
)
from nctwist.triple import FiniteGeometry, verify_spectral_triple
from nctwist.twist import Automorphism, TwistedGeometry, first_order_residuals, verify_twisted

PRIMARY = "order one: primary form on generator pairs"
SYMMETRIC = "order one: symmetric form on generator pairs"


def placed(alg, dim, modes):
    """One placement per component, in order, each of multiplicity 1."""
    placements, start = [], 0
    for k, (comp, mode) in enumerate(zip(alg.components, modes)):
        placements.append(Placement(k, start, mode))
        start += comp.dim
    assert start == dim
    return Representation.from_placements(alg, dim, placements)


# -- the signs are decided from structure --------------------------------


def test_placement_modes_decide_the_signs():
    alg = Algebra.of("C", "C", ("M", 2), "H", "C")
    rep = Representation.from_placements(
        alg,
        8,
        [
            Placement(0, 0, "scalar"),
            Placement(1, 1, "conj-scalar"),
            Placement(2, 2, "fund"),
            Placement(2, 4, "conj-fund"),  # a mix: not known
            Placement(3, 6, "conj-fund"),
        ],
    )
    # component 4 has no placement: the zero map, which is complex-linear
    assert rep.signs == (1, -1, None, -1, 1)
    assert Representation(alg, rep.stack).signs == (None,) * 5


def test_the_transforms_carry_the_signs():
    g = random_matrix_geometry(np.random.default_rng(2), 3)
    signs = g.rep.signs
    assert None not in signs
    framed = random_matrix_geometry(np.random.default_rng(2), 3, frame=True)
    assert framed.rep.signs == signs
    assert clifford_tensor(1, g).rep.signs == signs
    assert projected_double(g.rep, g.grading).signs == signs * 2
    tg = twist_by_grading(g)
    assert tg.geometry.rep.signs == tg.twisted_rep.signs == signs * 2
    # pi o rho takes on each component the sign of the one rho maps it onto
    alg = Algebra.of("C", "C", "C")
    rep = placed(alg, 3, ["scalar", "conj-scalar", "scalar"])
    cycled = TwistedGeometry(FiniteGeometry(rep, np.zeros((3, 3))), Automorphism((1, 2, 0)))
    # rho(a)_i = a_perm[i]: a on component 0 lands on component 2
    assert cycled.twisted_rep.signs == (1, 1, -1)


def kept_rows(rep, perm) -> int:
    return len(rep.pair_rows(perm)[0])


def test_a_bare_stack_or_a_mixed_component_keeps_every_row():
    alg = Algebra.of(("M", 2), "C")
    mixed = Representation.from_placements(
        alg, 5, [Placement(0, 0, "fund"), Placement(0, 2, "conj-fund"), Placement(1, 4, "scalar")]
    )
    assert kept_rows(mixed, (0, 1)) == 8 + 1  # M_2 keeps all 8, C keeps 1 of 2
    assert kept_rows(Representation(alg, mixed.stack), (0, 1)) == 10
    # H keeps its four rows whatever its sign
    quaternions = placed(Algebra.of("H", "C"), 3, ["fund", "scalar"])
    assert kept_rows(quaternions, (0, 1)) == 4 + 1


def test_a_twist_keeps_the_rows_of_an_orbit_of_mixed_signs():
    alg = Algebra.of("C", "C")
    rep = placed(alg, 2, ["scalar", "conj-scalar"])
    assert kept_rows(rep, (0, 1)) == 2  # each component alone is known
    assert kept_rows(rep, (1, 0)) == 4  # the flip meets +1 and -1
    # a 3-cycle keeps every row of its orbit when any sign differs on it
    three = placed(Algebra.of("C", "C", "C"), 3, ["scalar", "scalar", "conj-scalar"])
    assert kept_rows(three, (1, 2, 0)) == 6
    assert kept_rows(three, (1, 0, 2)) == 3  # one row per component


# -- mutations: a defect that only the i rows show ----------------------


def conjugate_flip_geometry(alg, modes, dim):
    """pi = the components placed in ``modes`` on C^dim, J complex conjugation,
    D the off-diagonal swap of the two halves, twisted by the flip."""
    half = dim // 2
    d = np.zeros((dim, dim), dtype=np.complex128)
    d[:half, half:] = d[half:, :half] = np.eye(half)
    g = FiniteGeometry(
        placed(alg, dim, modes), d, real_structure=AntilinearOperator(np.eye(dim))
    )
    return TwistedGeometry(g, Automorphism.flip(alg.ncomponents))


@pytest.mark.parametrize(
    "alg, modes, dim",
    [
        (Algebra.of("C", "C"), ["scalar", "conj-scalar"], 2),
        (Algebra.of(("M", 2), ("M", 2)), ["fund", "conj-fund"], 4),
    ],
    ids=["C+C", "M2+M2"],
)
def test_order_one_broken_only_at_i_fails(alg, modes, dim):
    # pi(i) = diag(i, -i): under the flip, pi o rho(i E) = -i pi(rho(E)) while
    # pi(i E) = i pi(E), so [D, a]_rho vanishes on every E and not on i E
    tg = conjugate_flip_geometry(alg, modes, dim)
    rows, _ = tg.geometry.rep.pair_rows(tg.rho.perm)
    assert np.array_equal(rows, alg.generator_rows)
    report = verify_twisted(tg)
    records = {r.name: r for r in report.records}
    for name in (PRIMARY, SYMMETRIC):
        assert not records[name].passed
        assert records[name].residual > 1.0 > records[name].tol
    # on the E rows alone, both forms read zero: the i rows carry the defect
    real = alg.generator_rows[::2]
    primary, symmetric = first_order_residuals(tg.geometry.dirac, *tg.stacks(real))
    assert primary == symmetric == 0.0


# -- equivalence with the full rows -------------------------------------


def bare(g: FiniteGeometry) -> FiniteGeometry:
    """``g`` with pi rebuilt as a bare stack: no signs, every row walked."""
    return replace(g, rep=Representation(g.algebra, g.rep.stack))


def rebuilt(tg: TwistedGeometry) -> TwistedGeometry:
    return TwistedGeometry(bare(tg.geometry), tg.rho)


def scale_of(tol: float) -> float:
    """The scale a default-tolerance bound was taken at."""
    return (tol - DEFAULT_TOL.abs) / DEFAULT_TOL.rel


def agree(x: float, y: float, tol: float) -> bool:
    """``x`` and ``y`` within 1e-13 relative to the larger of them and of the
    scale their bound was taken at (a NaN agrees with a NaN).

    A residual that rounding alone makes is itself rounding noise, and the
    maximum over fewer rows can read another noise value: relative to the
    residual alone it need not agree, relative to what it is judged at it does.
    """
    if np.isnan(x) or np.isnan(y):
        return np.isnan(x) and np.isnan(y)
    if x == y:
        return True
    scale = scale_of(tol) if np.isfinite(tol) else 0.0
    return abs(x - y) <= 1e-13 * max(1.0, abs(x), abs(y), scale)


def assert_same_records(got, want):
    assert [r.name for r in got.records] == [r.name for r in want.records]
    for r, w in zip(got.records, want.records):
        assert (r.passed, r.floor) == (w.passed, w.floor), r.name
        assert agree(r.tol, w.tol, w.tol), (r.name, r.tol, w.tol)
        assert agree(r.residual, w.residual, w.tol), (r.name, r.residual, w.residual)


def catalogue_geometry(entry: int, rng: np.random.Generator) -> FiniteGeometry:
    """A draw of one ``samples._CATALOGUE`` entry, as ``random_graded_geometry`` makes it."""
    kind, params = _CATALOGUE[entry]
    if kind == "plain":
        return random_matrix_geometry(rng, params["k"], frame=params.get("frame", False))
    return clifford_tensor(params["m"], random_matrix_geometry(rng, params["k"]))


def drops_rows(tg: TwistedGeometry) -> bool:
    rows, _ = tg.geometry.rep.pair_rows(tg.rho.perm)
    return len(rows) < len(tg.algebra.generator_rows)


@pytest.mark.parametrize("entry", range(len(_CATALOGUE)))
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), broken=st.booleans())
def test_catalogue_records_equal_their_full_row_values(entry, seed, broken):
    rng = np.random.default_rng(seed)
    g = catalogue_geometry(entry, rng)
    if broken:  # a self-adjoint change of D that breaks order one, and more
        g = g.with_dirac(g.dirac + 0.5 * random_hermitian(rng, g.hilbert_dim))
    tg = twist_by_grading(g)
    assert drops_rows(tg) == any(c.kind != "H" for c in g.algebra.components)
    assert_same_records(verify_twisted(tg), verify_twisted(rebuilt(tg)))
    assert_same_records(verify_spectral_triple(g), verify_spectral_triple(bare(g)))


def test_flip_toy_records_equal_their_full_row_values():
    tg = flip_toy()
    assert drops_rows(tg)
    assert_same_records(verify_twisted(tg), verify_twisted(rebuilt(tg)))


@settings(max_examples=10, deadline=None)
@given(entry=st.sampled_from([0, 2, 3, 4, 6]), seed=st.integers(0, 2**32 - 1))
def test_fluctuation_records_equal_their_full_row_values(entry, seed):
    rng = np.random.default_rng(seed)
    tg = twist_by_grading(catalogue_geometry(entry, rng))
    ref = rebuilt(tg)
    forms = [random_one_form(rng, tg) for _ in range(2)]
    assert_same_records(verify_fluctuated(tg, forms[0]), verify_fluctuated(ref, forms[0]))
    assert_same_records(
        compose_fluctuations(tg, *forms), compose_fluctuations(ref, *forms)
    )


@settings(max_examples=12, deadline=None)
@given(entry=st.sampled_from(range(len(_CATALOGUE))), seed=st.integers(0, 2**32 - 1))
def test_an_irregular_twist_keeps_its_records(entry, seed):
    # the flip with inner unitaries on the H and M components and a
    # non-unit complex scale, which is not regular
    rng = np.random.default_rng(seed)
    g = twist_by_grading(catalogue_geometry(entry, rng)).geometry
    comps = g.algebra.components
    inner = tuple(None if c.kind == "C" else random_unitary(rng, c.dim) for c in comps)
    scale = (1.5j,) + (1.0,) * (len(comps) - 1)
    perm = Automorphism.flip(len(comps)).perm
    tg = TwistedGeometry(g, Automorphism(perm, inner=inner, scale=scale))
    report = verify_twisted(tg)
    assert not {r.name: r for r in report.records}["rho: regular: rho(a*) = (rho^-1(a))*"].passed
    assert_same_records(report, verify_twisted(rebuilt(tg)))
