"""Algebra automorphisms, twisted commutators, and the twisted axioms."""

import json
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from coordinates import inverse_automorphism, per_tuple_linear_map
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctwist import algebra, matlin, triple, twist
from nctwist.algebra import Algebra, Placement, Representation
from nctwist.matlin import AntilinearOperator, Operand, Tolerance, adjoint, dagger, fro
from nctwist.mintwist import twist_by_grading
from nctwist.samples import (
    clifford_tensor,
    flip_toy,
    random_graded_geometry,
    random_hermitian,
    random_matrix_geometry,
    random_unitary,
)
from nctwist.serialize import _finite_number
from nctwist.sm import (
    display_twist_rep,
    lean_generators,
    sm_first_order_residuals,
    twisted_sm_geometry,
)
from nctwist.triple import FiniteGeometry, verify_spectral_triple
from nctwist.twist import (
    Automorphism,
    TwistedGeometry,
    check_regular,
    coexistence_first_order_check,
    first_order_residuals,
    verify_twisted,
    verify_twisted_first_order,
    zero_order_conflict_check,
)

# frozen from the doubled-scalar toy: pi(z, w) = diag(z, w), flip twist
FLIP_TOY_OBSTRUCTION = 1.4142135623730951


class TestAutomorphism:
    def test_identity_and_flip(self):
        ident = Automorphism.identity(4)
        assert ident.perm == (0, 1, 2, 3)
        assert ident.is_involutive_perm()
        flip = Automorphism.flip(4)
        assert flip.perm == (2, 3, 0, 1)
        assert flip.is_involutive_perm()

    def test_flip_needs_even_count(self):
        with pytest.raises(ValueError):
            Automorphism.flip(3)

    def test_apply_permutes_components(self):
        alg = Algebra.of("C", "C")
        rho = Automorphism.flip(2)
        out = rho.apply((1.0 + 0j, 2.0 + 0j))
        assert out == (2.0 + 0j, 1.0 + 0j)

    def test_apply_with_scale(self):
        rho = Automorphism(perm=(0,), scale=(2.0,))
        assert rho.apply((3.0 + 0j,)) == (6.0 + 0j,)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(0)
        alg = Algebra.of("C", ("M", 2), "C", ("M", 2))
        u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
        rho = Automorphism(
            perm=(2, 3, 0, 1),
            inner=(None, u, None, None),
            scale=(1.0, 1.0, 1.0, 1.0),
        )
        x = alg.random_element(rng)
        back = inverse_automorphism(rho).apply(rho.apply(x))
        assert np.linalg.norm(alg.coords(x) - alg.coords(back)) < 1e-12

    def test_validate_for_checks_component_kinds(self):
        # flipping C into M_2 is not an algebra map
        alg = Algebra.of("C", ("M", 2))
        rho = Automorphism.flip(2)
        with pytest.raises(ValueError):
            rho.validate_for(alg)
        # matching kinds pass
        Automorphism.flip(2).validate_for(Algebra.of("C", "C"))

    def test_perm_must_be_a_permutation(self):
        with pytest.raises(ValueError):
            Automorphism(perm=(0, 0))


def test_twisted_geometry_accessors():
    tg = flip_toy()
    assert tg.algebra.ncomponents == 2
    z = (2.0 + 0j, -1.0 + 0j)
    assert np.allclose(tg.geometry.rep(z), np.diag([2.0, -1.0]))
    assert np.allclose(tg.twisted_rep(z), np.diag([-1.0, 2.0]))


def test_check_regular_on_flip_toy():
    tg = flip_toy()
    report = check_regular(tg.rho, tg.geometry)
    assert report.ok
    names = [r.name for r in report.records]
    assert any("rho(a*)" in n for n in names)
    assert any("involutive" in n for n in names)


def test_the_involutive_record_reads_the_map_not_its_spelling():
    # the label swap written bare, with explicit trivial inner unitaries,
    # and with explicit unit scales is one map, checked alike
    g = flip_toy().geometry
    spellings = [
        Automorphism((1, 0)),
        Automorphism((1, 0), inner=(None, None)),
        Automorphism((1, 0), scale=(1, 1)),
    ]
    reports = [check_regular(rho, g) for rho in spellings]
    assert len({r.to_json() for r in reports}) == 1
    assert [r.name for r in reports[0].records][-1] == "involutive"


def test_check_regular_rejects_scaling_twist():
    # nontrivial scaling fails regularity (and multiplicativity); the class
    # admits it on purpose so the failure is reported, not hidden
    tg = flip_toy()
    rho = Automorphism(perm=(0, 1), scale=(2.0, 0.5))
    report = check_regular(rho, tg.geometry)
    assert not report.ok


def test_twisted_first_order_both_forms_on_flip_toy():
    tg = flip_toy()
    report = verify_twisted_first_order(tg)
    assert report.ok
    assert report.info["primary_residual"] <= 1e-12
    assert report.info["symmetric_residual"] <= 1e-12


def test_zero_order_conflict_frozen_oracle():
    tg = flip_toy()
    report = zero_order_conflict_check(tg)
    assert report.ok
    assert report.info["untwisted_residual"] == 0.0
    assert report.info["twisted_residual"] == pytest.approx(1.0)
    assert report.info["obstruction"] == pytest.approx(FLIP_TOY_OBSTRUCTION)


def test_identity_twist_has_no_obstruction():
    tg = flip_toy()
    ident = TwistedGeometry(tg.geometry, Automorphism.identity(2))
    report = zero_order_conflict_check(ident)
    assert report.ok
    assert report.info["obstruction"] == 0.0
    assert report.info["twisted_residual"] == report.info["untwisted_residual"]


def coexistence_record(tg):
    report = zero_order_conflict_check(tg)
    (rec,) = [r for r in report.records if r.name == "coexistence forces trivial twist"]
    return rec


def test_coexistence_is_checked_only_when_both_order_zero_conditions_hold():
    tg = flip_toy()
    # the twisted condition fails on the flip toy: the obstruction is recorded
    rec = coexistence_record(tg)
    assert rec.passed and rec.tol == float("inf")
    assert rec.residual == pytest.approx(FLIP_TOY_OBSTRUCTION)
    assert "premise fails" in rec.note
    # under the identity twist both hold, and the obstruction is checked
    rec = coexistence_record(TwistedGeometry(tg.geometry, Automorphism.identity(2)))
    assert rec.passed and rec.residual == 0.0
    assert 0.0 < rec.tol < float("inf")
    assert "premise fails" not in rec.note


def test_coexistence_first_order_on_flip_toy():
    tg = flip_toy()
    report = coexistence_first_order_check(tg)
    assert report.ok
    # the toy is small enough that both order-one forms hold everywhere
    assert report.info["twisted_residual"] <= 1e-12
    assert report.info["fixed_subalgebra_residual"] <= 1e-12


def test_twisted_order_zero_matches_untwisted_for_regular_twist():
    tg = flip_toy()
    r = zero_order_conflict_check(tg).info["twisted_residual"]
    assert r == pytest.approx(1.0)


def test_verify_twisted_on_flip_toy():
    # doubling along the grading leaves D, grading, J alone, so the sign
    # triple is still the untwisted one
    tg = flip_toy()
    report = verify_twisted(tg)
    assert report.ok, report.format_text()
    assert report.info["signs"] == [1, 1, 1]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_verify_twisted_on_random_geometries(seed):
    tg = twist_by_grading(random_graded_geometry(np.random.default_rng(seed)))
    report = verify_twisted(tg)
    assert report.ok, report.format_text()


def test_verify_twisted_detects_wrong_rho():
    # replacing the grading flip by the identity breaks the twisted
    # first-order condition whenever the off-diagonal Dirac part is nonzero
    tg = flip_toy()
    wrong = TwistedGeometry(tg.geometry, Automorphism.identity(2))
    report = verify_twisted_first_order(wrong)
    assert not report.ok


# records of verify_twisted(flip_toy()) that never evaluate pi of the last
# generator (0, i): everything else reads its image
NAN_FREE_RECORDS = {
    "rep: unit maps to identity",
    "rho: implementing unitary is unitary",
    "Dirac operator self-adjoint",
    "grading self-adjoint",
    "grading squares to identity",
    "grading anticommutes with D",
    "real structure antiunitary",
    "sign triple determinate",
}


def poisoned_flip_toy(poisoned=True):
    """flip_toy() on a bare stack with a NaN in pi of its last generator, and
    only there (``poisoned=False``: the bare stack as it is)."""
    tg = flip_toy()
    base = tg.geometry.rep
    (k,) = np.flatnonzero(base.algebra.coords(base.algebra.generators()[-1]))
    stack = base.stack.copy()
    if poisoned:
        stack[k, 1, 1] = np.nan
    geom = tg.geometry
    return TwistedGeometry(replace(geom, rep=Representation(base.algebra, stack)), tg.rho)


def assert_nan_fails_what_reads_it(report):
    assert not report.ok
    assert np.isnan(report.max_residual)
    for rec in report.records:
        # a NaN image leaves every bound a number: finite, or inf when only
        # measured
        assert not np.isnan(rec.tol), rec.format_line()
        if rec.name in NAN_FREE_RECORDS:
            assert rec.passed, rec.name
        else:
            assert not rec.passed, rec.name
            assert np.isnan(rec.residual), rec.name


def test_nan_image_fails_every_record_that_reads_it():
    report = verify_twisted(poisoned_flip_toy())
    assert NAN_FREE_RECORDS <= {r.name for r in report.records}
    assert_nan_fails_what_reads_it(report)


def test_a_nan_image_fails_regularity_on_kept_tables(monkeypatch):
    # the bare clean twin keeps the tables of the poisoned toy's key, whose
    # differences hold no entries; reading them must not pass a NaN image
    monkeypatch.setattr(twist, "_TABLES", {})
    calls, apply = [], Automorphism.apply
    monkeypatch.setattr(Automorphism, "apply", lambda rho, x: calls.append(1) or apply(rho, x))
    assert verify_twisted(flip_toy()).ok
    assert verify_twisted(poisoned_flip_toy(poisoned=False)).ok
    tables = list(twist._TABLES.values())
    assert all(len(t.regular.key) == len(t.multiplicative.key) == 0 for t in tables)
    calls.clear()
    report = verify_twisted(poisoned_flip_toy())
    assert calls == []
    assert_nan_fails_what_reads_it(report)
    regularity = [r for r in report.records if r.name.startswith("rho: ")]
    assert {r.name for r in regularity} - NAN_FREE_RECORDS == {
        "rho: regular: rho(a*) = (rho^-1(a))*",
        "rho: multiplicative on generator pairs",
        "rho: involutive",
        "rho: pi(rho(a)) = U pi(a) U*",
    }


def test_a_nan_image_report_is_strict_json():
    # a NaN residual is written as null; no bound is NaN, so none is written
    # as the bare NaN token that strict JSON refuses
    payload = verify_twisted(poisoned_flip_toy()).to_json()
    saved = json.loads(payload, parse_float=_finite_number, parse_constant=_finite_number)
    assert all(0.0 < c["tol"] < np.inf for c in saved["checks"])
    assert any(c["residual"] is None for c in saved["checks"])


@pytest.mark.parametrize(
    "verifier",
    [
        lambda tg: verify_spectral_triple(tg.geometry),
        zero_order_conflict_check,
        coexistence_first_order_check,
    ],
    ids=["verify_spectral_triple", "zero_order_conflict", "coexistence_first_order"],
)
def test_nan_image_fails_the_untwisted_and_coexistence_reports(verifier):
    assert_nan_fails_what_reads_it(verifier(poisoned_flip_toy()))


def test_complex_scale_on_quaternions_keeps_its_residuals():
    # i q is not a quaternion: the representation must see it unprojected
    alg = Algebra.of("H", "C")
    rep = Representation.from_placements(
        alg, 3, [Placement(0, 0, "fund", 1), Placement(1, 2, "scalar", 1)]
    )
    g = FiniteGeometry(rep, np.zeros((3, 3)))
    report = check_regular(Automorphism(perm=(0, 1), scale=(1j, 1.0)), g)
    residuals = {r.name: r.residual for r in report.records}
    assert residuals == {
        "regular: rho(a*) = (rho^-1(a))*": 0.0,
        "multiplicative on generator pairs": 2.0,
    }


# -- batched generator-pair records against one pi call per pair ----------


def per_pair_records(rho, g):
    """The generator loops of Representation.check and check_regular, written
    out with one pi call per generator and per pair."""
    alg, pi = g.algebra, g.rep
    gens = alg.generators()
    mats = [pi(a) for a in gens]
    rho_inv = inverse_automorphism(rho)
    out = {
        "rep: star preserved on generators": max(
            fro(pi(alg.star(a)) - dagger(m)) for a, m in zip(gens, mats)
        ),
        "rep: multiplicative on generator pairs": max(
            fro(pi(alg.mul(a, b)) - ma @ mb)
            for a, ma in zip(gens, mats)
            for b, mb in zip(gens, mats)
        ),
        "rho: regular: rho(a*) = (rho^-1(a))*": max(
            fro(pi(rho.apply(alg.star(a))) - pi(alg.star(rho_inv.apply(a))))
            for a in gens
        ),
        "rho: multiplicative on generator pairs": max(
            fro(
                pi(rho.apply(alg.mul(a, b)))
                - pi(alg.mul(rho.apply(a), rho.apply(b)))
            )
            for a in gens
            for b in gens
        ),
    }
    if rho.is_involutive_perm() and rho.inner is None and rho.scale is None:
        out["rho: involutive"] = max(
            fro(pi(rho.apply(rho.apply(a))) - m) for a, m in zip(gens, mats)
        )
    if rho.u_rho is not None:
        u = rho.u_rho
        out["rho: pi(rho(a)) = U pi(a) U*"] = max(
            fro(pi(rho.apply(a)) - u @ m @ dagger(u)) for a, m in zip(gens, mats)
        )
    return out, max([1.0] + [fro(m) for m in mats])


SCALES = [1.0, -1.0, 1j, 2.0, 0.5 - 0.5j]


@st.composite
def twisted_cases(draw):
    """An automorphism and a geometry whose representation is placed, framed
    or an arbitrary stack (no homomorphism, so every pair has a residual).

    n = 64 puts 8 images in a block of j, so the larger algebras span
    several blocks.
    """
    spec = st.sampled_from(["C", "H", ("M", 2), ("M", 3)])
    alg = Algebra.of(*draw(st.lists(spec, min_size=1, max_size=3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    placements, start = [], 0
    for i, comp in enumerate(alg.components):
        modes = ["scalar"] if comp.kind == "C" else ["fund", "conj-fund"]
        p = Placement(i, start, draw(st.sampled_from(modes)), draw(st.integers(1, 2)))
        placements.append(p)
        start += p.block_size(comp)
    n = draw(st.sampled_from([start, 64]))
    stack = np.zeros((alg.basis_offsets()[-1], n, n), dtype=np.complex128)
    placed = Representation.from_placements(alg, start, placements)
    stack[:, :start, :start] = placed.stack
    kind = draw(st.sampled_from(["placed", "framed", "arbitrary"]))
    if kind == "framed":
        w = random_unitary(rng, n)
        stack = w @ stack @ dagger(w)
    elif kind == "arbitrary":
        shape = stack.shape
        stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = draw_automorphism(draw, alg, rng, n)
    return rho, FiniteGeometry(Representation(alg, stack), np.zeros((n, n)))


def draw_automorphism(draw, alg, rng, n):
    """Blocks of one signature may trade places; optional inner unitaries,
    complex scales and an implementing unitary on C^n."""
    sig = alg.signature()
    perm = list(range(alg.ncomponents))
    for key in dict.fromkeys(sig):
        idx = [i for i, k in enumerate(sig) if k == key]
        for i, j in zip(idx, draw(st.permutations(idx))):
            perm[i] = j
    inner = None
    if draw(st.booleans()):
        inner = tuple(
            random_unitary(rng, c.dim)
            if c.kind != "C" and draw(st.booleans())
            else None
            for c in alg.components
        )
    scale = None
    if draw(st.booleans()):
        scale = tuple(draw(st.sampled_from(SCALES)) for _ in alg.components)
    u_rho = random_unitary(rng, n) if draw(st.booleans()) else None
    return Automorphism(tuple(perm), inner, scale, u_rho)


@settings(max_examples=80, deadline=None)
@given(twisted_cases())
def test_batched_records_equal_the_per_pair_loops(case):
    rho, g = case
    want, scale = per_pair_records(rho, g)
    got = {"rep: " + r.name: r.residual for r in g.rep.check().records}
    got.update({"rho: " + r.name: r.residual for r in check_regular(rho, g).records})
    assert want.keys() <= got.keys()
    for name, value in want.items():
        # relative, with rounding-level residuals read against the record's scale
        assert abs(got[name] - value) <= 1e-13 * max(value, scale**2), name


@st.composite
def twisted_geometries(draw):
    """A drawn automorphism on a drawn stack, or a twist by grading."""
    if draw(st.booleans()):
        rho, g = draw(twisted_cases())
        return TwistedGeometry(g, rho)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = random_matrix_geometry(rng, draw(st.sampled_from([2, 3])), frame=draw(st.booleans()))
    return twist_by_grading(g)


# -- coordinate maps: one batched evaluation against one tuple at a time ----


@st.composite
def twisted_algebras(draw):
    """A mix of C, H and M_n blocks, repeats included, and a drawn rho on it."""
    spec = st.sampled_from(["C", "H", ("M", 1), ("M", 2), ("M", 3)])
    alg = Algebra.of(*draw(st.lists(spec, min_size=1, max_size=4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return alg, draw_automorphism(draw, alg, rng, 2)


@settings(max_examples=100, deadline=None)
@given(twisted_algebras())
def test_batched_coordinate_maps_equal_the_per_tuple_reference(case):
    alg, rho = case
    for f in (alg.star, rho.apply, inverse_automorphism(rho).apply):
        assert np.array_equal(alg.linear_map(f), per_tuple_linear_map(alg, f))
    # the cached tables are the same maps, read-only
    assert np.array_equal(alg.star_matrix, per_tuple_linear_map(alg, alg.star))
    assert np.array_equal(alg.generator_rows, alg.coord_rows(alg.generators()))
    for table in (alg.star_matrix, alg.generator_rows):
        assert not table.flags.writeable
    assert alg.star_matrix is alg.star_matrix


@settings(max_examples=100, deadline=None)
@given(twisted_algebras())
def test_the_inverse_coordinate_map_is_rho_inverse(case):
    # check_regular reads rho^-1 on coordinates as inv(R)
    alg, rho = case
    got = np.linalg.inv(alg.linear_map(rho.apply))
    want = alg.linear_map(inverse_automorphism(rho).apply)
    if rho.inner is None and rho.scale is None:
        assert np.array_equal(got, want)
    assert np.abs(got - want).max() <= 1e-14


def test_each_coordinate_map_is_evaluated_once(monkeypatch):
    calls = {"apply": 0, "star": 0}
    apply, star = Automorphism.apply, Algebra.star

    def counted_apply(rho, x):
        calls["apply"] += 1
        return apply(rho, x)

    def counted_star(alg, x):
        calls["star"] += 1
        return star(alg, x)

    monkeypatch.setattr(Automorphism, "apply", counted_apply)
    monkeypatch.setattr(Algebra, "star", counted_star)
    g = random_graded_geometry(np.random.default_rng(4))
    report = verify_twisted(twist_by_grading(g))
    assert report.ok, report.format_text()
    # rho and the star each at most once per value in a process (an earlier
    # test may have built these tables): pi o rho and regularity read one
    # R, not once per basis direction and per check
    assert calls["apply"] <= 1 and calls["star"] <= 1
    # a second doubling is a new but equal algebra with an equal twist: it
    # reads the same tables
    before = dict(calls)
    report = verify_twisted(twist_by_grading(g))
    assert report.ok, report.format_text()
    assert calls == before


def test_twists_of_one_perm_read_their_own_tables(monkeypatch):
    # one algebra and one perm: a plain twist, an inner reflection (u^2 = 1,
    # so regular) and a scale of 2, which fails regularity; each keeps the
    # report it gets alone, whichever was verified before it
    alg = Algebra.of(("M", 2), "C")
    rep = Representation.from_placements(
        alg, 3, [Placement(0, 0, "fund", 1), Placement(1, 2, "scalar", 1)]
    )
    g = FiniteGeometry(rep, np.zeros((3, 3)))
    v = random_unitary(np.random.default_rng(3), 2)
    twists = [
        Automorphism((0, 1)),
        Automorphism((0, 1), inner=(v @ np.diag([1.0, -1.0]) @ dagger(v), None)),
        Automorphism((0, 1), scale=(2, 1)),
    ]

    def verified(rho):
        tg = TwistedGeometry(g, rho)
        x = alg.random_element(np.random.default_rng(5))
        return verify_twisted(tg).to_json(), tg.twisted_rep(x), g.rep(rho.apply(x))

    alone = []
    for rho in twists:
        monkeypatch.setattr(twist, "_TABLES", {})
        alone.append(verified(rho))
    failed = [
        [c["name"] for c in json.loads(report)["checks"] if not c["passed"]]
        for report, _, _ in alone
    ]
    assert failed[:2] == [[], []]
    assert "rho: regular: rho(a*) = (rho^-1(a))*" in failed[2]
    # only the plain twist is checked for involution
    assert ["involutive" in report for report, _, _ in alone] == [True, False, False]
    for k, (report, got, want) in enumerate(alone):
        assert fro(got - want) <= 1e-14, k
    for first, second in [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]:
        monkeypatch.setattr(twist, "_TABLES", {})
        for k in (first, second):
            report, got, _ = verified(twists[k])
            assert report == alone[k][0], (first, second, k)
            assert np.array_equal(got, alone[k][1]), (first, second, k)


def test_twists_that_differ_only_in_u_rho_share_their_tables(monkeypatch):
    monkeypatch.setattr(twist, "_TABLES", {})
    calls, apply = [], Automorphism.apply
    monkeypatch.setattr(Automorphism, "apply", lambda rho, x: calls.append(1) or apply(rho, x))
    tg = flip_toy()
    assert calls == [1]
    bare = TwistedGeometry(tg.geometry, Automorphism(tg.rho.perm))
    assert bare.rho.u_rho is None and tg.rho.u_rho is not None
    assert bare._built["r"] is tg._built["r"]
    assert check_regular(bare.rho, bare.geometry).ok
    assert calls == [1]


def held_bytes(tables) -> int:
    """The bytes of every array a kept ``_CoordinateTables`` holds, whatever
    its ``PairCoords`` keep beside their keys and values."""
    arrays = [a for a in tables if isinstance(a, np.ndarray)]
    for c in tables[2:]:
        for v in vars(c).values() if c is not None else ():
            arrays += [a for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
    return sum(a.nbytes for a in arrays)


@pytest.mark.parametrize("d", [4, 5])
def test_a_kept_table_holds_no_more_than_the_byte_bound(monkeypatch, d):
    # an unplaced M_d under a dense inner unitary; on M_5 the differences'
    # keys and values fit in the bound, but not with their per-axis indices
    alg = Algebra.of(("M", d))
    g = FiniteGeometry(Representation.from_placements(alg, 2, []), np.zeros((2, 2)))
    rho = Automorphism((0,), inner=(random_unitary(np.random.default_rng(0), d),))
    monkeypatch.setattr(twist, "_TABLES", {})
    verify_twisted(TwistedGeometry(g, rho))
    kept = list(twist._TABLES.values())
    assert len(kept) == (d == 4)
    for tables in kept:
        assert held_bytes(tables) <= twist._KEPT_BYTES
        for c in tables[2:]:
            assert c is None or not any(a.flags.writeable for a in (c.key, c.value, *c.index))


@settings(max_examples=80, deadline=None)
@given(twisted_geometries(), st.integers(0, 2**32 - 1))
def test_twisted_rep_is_pi_of_the_twisted_element(tg, seed):
    g, rho, alg = tg.geometry, tg.rho, tg.algebra
    # a block permutation moves whole images: generators match bit for bit
    permutation = rho.inner is None and rho.scale is None
    rng = np.random.default_rng(seed)
    for k, e in enumerate(alg.generators() + [alg.random_element(rng) for _ in range(3)]):
        got, want = tg.twisted_rep(e), g.rep(rho.apply(e))
        if permutation and k < len(alg.generators()):
            assert np.array_equal(got, want), k
        assert fro(got - want) <= 1e-13 * max(1.0, fro(want)), k


def test_check_regular_rejects_u_rho_of_the_wrong_shape():
    # the same check as TwistedGeometry's, for a direct call on C^2
    rho = Automorphism.flip(2, u_rho=np.eye(3))
    with pytest.raises(ValueError, match=r"shape \(3, 3\), expected \(2, 2\)"):
        check_regular(rho, flip_toy().geometry)


def test_a_singular_inner_is_rejected_and_a_nan_inner_is_measured():
    # M_2 on C^2: a rank-one inner has no inverse; a NaN one fails its records
    alg = Algebra.of(("M", 2))
    g = FiniteGeometry(
        rep=Representation.from_placements(alg, 2, [Placement(0, 0, "fund", 1)]),
        dirac=np.zeros((2, 2)),
    )
    with pytest.raises(ValueError, match="inner unitary 0 is not invertible"):
        TwistedGeometry(g, Automorphism((0,), inner=(np.ones((2, 2)),)))
    nan = TwistedGeometry(g, Automorphism((0,), inner=(np.diag([np.nan, 1.0]),)))
    failed = [r for r in verify_twisted(nan).records if not r.passed]
    assert [r.name for r in failed] == [
        "rho: regular: rho(a*) = (rho^-1(a))*",
        "rho: multiplicative on generator pairs",
    ]
    assert all(np.isnan(r.residual) for r in failed)


def test_overlapping_units_fail_multiplicativity_on_a_cross_block_pair():
    # pi(z, w) = z E11 + w I: each block alone is a homomorphism, but
    # pi(1, 0) pi(0, 1) = E11 while (1, 0)(0, 1) = 0
    alg = Algebra.of("C", "C")
    e11, eye = np.diag([1.0, 0.0]), np.eye(2)
    rep = Representation(alg, [e11, 1j * e11, eye, 1j * eye])
    records = {r.name: r for r in rep.check().records}
    assert records["star preserved on generators"].residual == 0.0
    mult = records["multiplicative on generator pairs"]
    assert not mult.passed and mult.residual == 1.0


def test_scaled_matrix_block_fails_rho_multiplicativity():
    # rho(a) = 2 a on M_2: rho(ab) - rho(a) rho(b) = -2 ab, and
    # rho(a*) - (rho^-1(a))* = 1.5 a*
    alg = Algebra.of(("M", 2), "C")
    rep = Representation.from_placements(
        alg, 3, [Placement(0, 0, "fund", 1), Placement(1, 2, "scalar", 1)]
    )
    g = FiniteGeometry(rep, np.zeros((3, 3)))
    report = check_regular(Automorphism((0, 1), scale=(2, 1)), g)
    records = {r.name: r for r in report.records}
    assert not report.ok
    assert not records["multiplicative on generator pairs"].passed
    assert records["multiplicative on generator pairs"].residual == 2.0
    assert records["regular: rho(a*) = (rho^-1(a))*"].residual == 1.5


# -- TwistedGeometry.stacks against its per-element definitions ---------


def per_element_stacks(g, rho, gens, twisted_rep=None):
    """pi(a), pi(rho(a)), J pi(b*) J^-1 and J pi(rho(b*)) J^-1, one element
    at a time; ``twisted_rep`` stands in for pi o rho when given."""
    alg, j = g.algebra, g.real_structure
    pi_rho = twisted_rep or (lambda e: g.rep(rho.apply(e)))
    return (
        [g.rep(e) for e in gens],
        [pi_rho(e) for e in gens],
        [j.conjugate(g.rep(alg.star(e))) for e in gens],
        [j.conjugate(pi_rho(alg.star(e))) for e in gens],
    )


@st.composite
def stack_cases(draw):
    """A twisted geometry with a real structure and the elements to stack.

    The geometry is placed, framed or a Clifford factor; it is doubled and
    flipped by twist_by_grading, or twisted on its own algebra by block
    permutations, inner unitaries, complex scales and an implementing
    unitary.  The elements are the generators and a few random ones.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["placed", "framed", "clifford"]))
    k = draw(st.sampled_from([2, 3]))
    if kind == "clifford":
        g = clifford_tensor(draw(st.sampled_from([1, 2])), random_matrix_geometry(rng, k))
    else:
        g = random_matrix_geometry(rng, k, frame=kind == "framed")
    if draw(st.booleans()):
        tg = twist_by_grading(g)
    else:
        tg = TwistedGeometry(g, draw_automorphism(draw, g.algebra, rng, g.hilbert_dim))
    extra = [tg.algebra.random_element(rng) for _ in range(draw(st.integers(0, 2)))]
    return tg, tg.algebra.generators() + extra


def pair_generators(tg) -> list:
    """The generators whose coordinate rows are pi's ``pair_rows`` under rho, in order."""
    alg = tg.algebra
    rows, _ = tg.geometry.rep.pair_rows(tg.rho.perm)
    gens = alg.generators()
    return [gens[np.flatnonzero((alg.generator_rows == r).all(axis=1))[0]] for r in rows]


def assert_stacks_agree(got, want):
    for name, s, w in zip(("pi", "pi o rho", "opposite", "twisted opposite"), got, want):
        s = s.array
        assert s.shape == (len(w),) + w[0].shape, name
        for k, m in enumerate(w):
            assert fro(s[k] - m) <= 1e-13 * max(1.0, fro(m)), (name, k)


@settings(max_examples=60, deadline=None)
@given(stack_cases())
def test_stacks_equal_their_per_element_definitions(case):
    tg, gens = case
    alg = tg.algebra
    assert_stacks_agree(
        tg.stacks(alg.coord_rows(gens)), per_element_stacks(tg.geometry, tg.rho, gens)
    )
    # the default is the generators at pi's pair rows under rho
    default = tg.stacks()
    explicit = tg.stacks(alg.coord_rows(pair_generators(tg)))
    assert all(np.array_equal(a.array, b.array) for a, b in zip(default, explicit))


def test_stacks_without_real_structure_have_no_opposite():
    tg = flip_toy()
    bare = TwistedGeometry(replace(tg.geometry, real_structure=None), tg.rho)
    pi_a, pi_rho_a, opp_b, rho_opp_b = bare.stacks()
    assert opp_b is None and rho_opp_b is None
    assert np.array_equal(pi_a.array, tg.stacks()[0].array)
    assert np.array_equal(pi_rho_a.array, tg.stacks()[1].array)


def counting_builds(monkeypatch) -> list:
    """Record the representation of every ``FiniteGeometry.conjugated`` call
    from now on: J conjugates a stack there and nowhere else."""
    seen, build = [], FiniteGeometry.conjugated

    def counted(g, rep):
        seen.append(rep)
        return build(g, rep)

    monkeypatch.setattr(FiniteGeometry, "conjugated", counted)
    return seen


def test_verify_twisted_builds_the_generator_stacks_once(monkeypatch):
    tg = twist_by_grading(random_graded_geometry(np.random.default_rng(3)))
    seen = counting_builds(monkeypatch)
    report = verify_twisted(tg)
    assert report.ok, report.format_text()
    assert [rep is tg.geometry.rep for rep in seen] == [True]


def test_built_stacks_are_read_only():
    for stack in flip_toy().stacks():
        with pytest.raises(ValueError, match="read-only"):
            stack.array[0, 0, 0] = 1.0


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_with_dirac_shares_the_build_and_reports_as_a_fresh_geometry(
    monkeypatch, seed
):
    rng = np.random.default_rng(seed)
    tg = twist_by_grading(random_graded_geometry(rng))
    built = tg.stacks()
    # a grading-odd change of D keeps the geometry a twisted triple
    gam = tg.geometry.grading
    p = random_hermitian(rng, tg.geometry.hilbert_dim)
    d = tg.geometry.dirac + (p - gam @ p @ gam) / 4.0
    moved = tg.with_dirac(d)
    assert np.array_equal(moved.geometry.dirac, d)
    assert moved.twisted_rep is tg.twisted_rep
    fresh = TwistedGeometry(tg.geometry.with_dirac(d), tg.rho)
    seen = counting_builds(monkeypatch)
    assert moved.stacks() is built and seen == []
    assert verify_twisted(moved).to_json() == verify_twisted(fresh).to_json()
    assert len(seen) == 1  # the fresh geometry's own build


def test_a_replaced_real_structure_gets_its_own_stacks():
    tg = twist_by_grading(random_graded_geometry(np.random.default_rng(5)))
    j = AntilinearOperator(random_unitary(np.random.default_rng(6), tg.geometry.hilbert_dim))
    other = replace(tg, geometry=replace(tg.geometry, real_structure=j))
    built = tg.stacks()
    got, gens = other.stacks(), pair_generators(other)
    assert_stacks_agree(got, per_element_stacks(other.geometry, other.rho, gens))
    assert not np.allclose(got[2].array, built[2].array)


@pytest.mark.parametrize("convention", ["flip", "display"])
def test_sm_stacks_equal_their_definitions_in_both_conventions(convention):
    tg = twisted_sm_geometry()
    g, alg = tg.geometry, tg.algebra
    # the generators whose matrix-block values are real
    gens = [
        e
        for e in alg.generators()
        if all(np.isreal(v).all() for c, v in zip(alg.components, e) if c.kind == "M")
    ]
    rows = lean_generators(alg)
    assert np.array_equal(rows, alg.coord_rows(gens))
    shown = display_twist_rep() if convention == "display" else None
    want = per_element_stacks(g, tg.rho, gens, shown)
    if convention == "flip":
        assert_stacks_agree(tg.stacks(rows), want)
    # the order-one residuals of the convention, over the lean generators
    got = sm_first_order_residuals(tg, convention)
    primary, symmetric = first_order_residuals(g.dirac, *(np.stack(w) for w in want))
    assert abs(got["primary"] - primary) <= 1e-13 * max(1.0, primary)
    assert abs(got["symmetric"] - symmetric) <= 1e-13 * max(1.0, symmetric)


# -- the pair kernel's two evaluators on real stacks ----------------------
#
# A random unitary frame (catalogue entries 1 and 3) fills every image, so
# the order-one products stay dense; the same draw without the frame keeps
# its placement images sparse, and the kernel joins their nonzero entries.


def drawn_with(frame):
    """The same ``random_matrix_geometry(k=3)`` draw, with or without a frame, twisted."""
    return twist_by_grading(random_matrix_geometry(np.random.default_rng(11), 3, frame=frame))


@pytest.mark.parametrize("frame, joins", [(True, 0), (False, 2)])
def test_order_one_goes_dense_on_a_frame_and_sparse_on_placements(monkeypatch, frame, joins):
    tg = drawn_with(frame)
    calls = []
    sparse = matlin._sparse_pair_max
    monkeypatch.setattr(matlin, "_sparse_pair_max", lambda *a: calls.append(a) or sparse(*a))
    first_order_residuals(tg.geometry.dirac, *tg.stacks())
    assert len(calls) == joins


def counting_scans(monkeypatch) -> dict:
    """Record the operand of every ``Operand.counts`` and ``Operand.entries``
    derivation from now on, and of every per-axis order ``Operand.ordered``
    sorts (axis 0 is the entries as they are): the kernel scans and sorts a
    stack there and nowhere else."""
    seen = {"counts": [], "entries": [], "orders": []}
    for name in ("counts", "entries"):
        derive = getattr(Operand, name).func

        def counted(op, derive=derive, operands=seen[name]):
            operands.append(op)
            return derive(op)

        prop = cached_property(counted)
        prop.__set_name__(Operand, name)
        monkeypatch.setattr(Operand, name, prop)
    ordered = Operand.ordered

    def counted_order(op, axis):
        if axis and axis not in op._orders:
            seen["orders"].append(op)
        return ordered(op, axis)

    monkeypatch.setattr(Operand, "ordered", counted_order)
    return seen


def kept_stacks(tg) -> list:
    """The stacks a twisted geometry builds once and keeps: pi's basis stack,
    the four generator stacks, and the basis stacks of pi o rho and of J pi J^-1."""
    return [
        tg.geometry.rep.operand,
        *tg.stacks(),
        tg.twisted_rep.operand,
        tg.conjugated_rep.operand,
    ]


def drawn_large(frame):
    """The n = 25 catalogue shape, where the entry joins pay for themselves."""
    g = random_matrix_geometry(np.random.default_rng(11), 5, frame=frame)
    return twist_by_grading(g)


@pytest.mark.parametrize("frame", [True, False])
def test_verify_twisted_scans_each_shared_stack_once(monkeypatch, cold_verdicts, frame):
    seen = counting_scans(monkeypatch)
    order_one, make = [], twist.order_one_operand
    monkeypatch.setattr(
        twist, "order_one_operand", lambda *a: order_one.append(make(*a)) or order_one[-1]
    )
    for draw in (drawn_with, drawn_large):
        for operands in (*seen.values(), order_one):
            operands.clear()
        assert_each_shared_stack_scanned_once(seen, order_one, draw, frame)


def assert_each_shared_stack_scanned_once(seen, order_one, draw, frame):
    """What ``verify_twisted`` of ``draw(frame)`` scans, counted in ``seen``,
    with the order-one operands it builds in ``order_one``."""
    tg = draw(frame)
    report = verify_twisted(tg)
    assert report.ok, report.format_text()
    pi = tg.geometry.rep
    kept = kept_stacks(tg)
    shared = kept[:5]
    assert tg.stacks()[0] is pi.pair_images(tg.rho.perm)
    assert tg.stacks()[1] is tg.twisted_rep.pair_images(tg.rho.perm)
    # a frame fills every image and the n = 9 products stay dense; placements
    # at n = 25 build every kept stack and both order-one operands from their
    # parents' entries, and the sparse evaluator never forms the operands'
    # dense view
    entry_built = draw is drawn_large and not frame
    assert [s.dense for s in kept] == [not entry_built] * len(kept)
    assert [op.dense for op in order_one] == [not entry_built] * 2
    if entry_built:
        assert not any("array" in vars(op) for op in order_one)
    # a stack is scanned by its own kept operand, never by a per-call wrapper:
    # none shares its dense array or its entry values
    for name, operands in seen.items():
        for s in kept:
            scans = [op for op in operands if np.shares_memory(op.array, s.array)]
            assert scans in ([], [s]), name
            if not s.dense:
                values = s.entries.value
                scans = [
                    op
                    for op in operands
                    if "entries" in vars(op) and np.shares_memory(op.entries.value, values)
                ]
                assert scans in ([], [s]), name
    # pi's basis stack and the generator stacks are counted; the placed
    # n = 9 basis and generator stacks are joined, the framed basis stack is
    # read densely (a coordinate side with no entries reads no stack), and
    # entry-built stacks are never scanned
    assert all(any(op is s for op in seen["counts"]) for s in shared)
    joined = [k for k, s in enumerate(shared) if any(op is s for op in seen["entries"])]
    if entry_built:
        assert joined == []
    else:
        assert joined == ([] if frame else [0, 1, 2, 3, 4])
    # a second call reads what the first kept
    for operands in seen.values():
        operands.clear()
    assert verify_twisted(tg).to_json() == report.to_json()
    again = [op for operands in seen.values() for op in operands]
    assert not any(op is s for op in again for s in kept)
    fresh = [op.array for op in again]
    assert not any(np.shares_memory(a, s.array) for a in fresh for s in kept)


def test_a_second_verify_twisted_sorts_no_kept_stack_again(monkeypatch):
    tg = drawn_large(False)
    sorts = counting_scans(monkeypatch)["orders"]
    report = verify_twisted(tg)
    kept = kept_stacks(tg)
    first = [op for op in sorts if any(op is s for s in kept)]
    assert first  # the joins read kept stacks sorted by their shared index
    sorts.clear()
    assert verify_twisted(tg).to_json() == report.to_json()
    assert not any(op is s for op in sorts for s in kept)


def test_a_plain_array_is_scanned_once_per_call(monkeypatch):
    rng = np.random.default_rng(2)
    xs, ys = (rng.standard_normal((3, 4, 4)) + 0j for _ in range(2))
    seen = counting_scans(monkeypatch)
    # xs on both sides of [xs, ys]_zs, and ys = zs in a plain commutator
    matlin.pair_max(xs, ys, xs)
    matlin.pair_residual(xs, ys)
    scanned = [op.array.base for op in seen["counts"]]
    assert len(scanned) == 4 and all(b is a for b, a in zip(scanned, (xs, ys, xs, ys)))


# -- entry-built stacks give the bits of the dense formulas -----------------
#
# matlin.built forms a derived stack from its parent's nonzero entries only
# where that is exact; these draws check each stack it builds that way
# against the dense formula it replaces, bit for bit.


def assert_entry_built_is(op, want):
    """``op`` holds the entries of ``want``: the same bits (a zero of either
    sign), the counts and finiteness of a dense scan, in C order."""
    want = np.ascontiguousarray(want)
    assert not op.dense and op.shape == want.shape
    assert np.array_equal(op.array.view(np.float64), want.view(np.float64))
    assert np.array_equal(op.array != 0, want != 0)
    scan = Operand(want)
    assert all(np.array_equal(a, b) for a, b in zip(op.counts, scan.counts))
    assert op.finite == scan.finite
    key = np.flatnonzero(want)
    assert np.array_equal(op.entries.key, key)
    assert np.array_equal(op.entries.value, want.reshape(-1)[key])


def checking_builds(monkeypatch) -> list:
    """From now on, check every entry-built result of ``matlin.built``
    against its dense formula; the list collects them."""
    built, found = matlin.built, []

    def checked(dense, a, steps, conj):
        out = built(dense, a, steps, conj)
        if not out.dense:
            assert_entry_built_is(out, dense())
            found.append(out)
        return out

    for module in (algebra, triple, twist):
        monkeypatch.setattr(module, "built", checked)
    return found


@st.composite
def build_cases(draw):
    """A geometry on a C/H/M_n mix, placed or framed, maybe a Clifford factor,
    with its own J (monomial), a phased one (monomial, not real) or a dense
    unitary; maybe a NaN or an infinity in a basis image, in J's unitary or
    in D; and how to twist it: by grading, by the identity, or by inner
    unitaries and block swaps (an automorphism is drawn for the last)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # joins pay for themselves from about n = 16, so the larger k come often
    k = draw(st.sampled_from([2, 3, 4, 5, 5]))
    g = random_matrix_geometry(rng, k, frame=draw(st.sampled_from([False, False, True])))
    if k <= 3 and draw(st.booleans()):
        g = clifford_tensor(draw(st.sampled_from([1, 2])), g)
    n, u = g.hilbert_dim, g.real_structure.unitary
    j = draw(st.sampled_from(["own", "own", "phased", "dense"]))
    if j != "own":
        u = np.exp(2j * np.pi * rng.random()) * u if j == "phased" else random_unitary(rng, n)
    bad = draw(st.sampled_from([None, None, None, np.nan, np.inf, -np.inf]))
    where = draw(st.sampled_from(["image", "J", "D"]))
    rep, d = g.rep, g.dirac
    if bad is not None:
        at = tuple(rng.integers(0, m) for m in rep.stack.shape)
        if where == "image":
            stack = rep.stack.copy()
            stack[at] = bad
            rep = Representation(g.algebra, stack)
        elif where == "J":
            u = u.copy()
            u[at[1:]] = bad
        else:
            d = d.copy()
            d[at[1:]] = bad
    g = replace(g, rep=rep, dirac=d, real_structure=AntilinearOperator(u))
    # twist_by_grading solves for an implementing unitary on pi's images,
    # which a non-finite image stops before any stack is built
    hows = ["identity", "inner"]
    if bad is None or where != "image":
        hows.append("grading")
    how = draw(st.sampled_from(hows))
    rho = draw_automorphism(draw, g.algebra, rng, n) if how == "inner" else None
    return g, how, rho, bad


@settings(max_examples=100, deadline=None)
@given(build_cases())
def test_entry_built_stacks_are_the_dense_formulas_bit_for_bit(case):
    g, how, rho, bad = case
    # an infinity meets a zero in the dense products: NaN, as intended
    with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
        found = checking_builds(mp)
        if how == "grading":
            tg = twist_by_grading(g)
        else:
            tg = TwistedGeometry(g, rho or Automorphism.identity(g.algebra.ncomponents))
        report = verify_twisted(tg)
    # only finite stacks are built from entries: a non-finite input takes the
    # dense formula, and its NaN reaches the records that read it
    assert all(op.finite for op in found)
    if bad is not None:
        assert not report.ok
    # the doubled stack of projected_double and the star check's adjoints
    pi = tg.geometry.rep
    if how == "grading" and not pi.operand.dense:
        s, gam = g.rep.stack, g.grading
        eye = np.eye(len(gam))
        halves = [(eye + gam) / 2.0 @ s, (eye - gam) / 2.0 @ s]
        assert_entry_built_is(pi.operand, np.concatenate(halves))
    if not pi.generator_images.dense:
        assert_entry_built_is(adjoint(pi.generator_images), dagger(pi.generator_images.array))
    # D S - S' D of the primary order-one form, subtracted from the entries
    pi_a, pi_rho_a = tg.stacks()[:2]
    d = tg.geometry.dirac
    with np.errstate(invalid="ignore"):
        operand = twist.order_one_operand(d, pi_a, pi_rho_a)
        if not operand.dense:
            assert_entry_built_is(operand, d @ pi_a.array - pi_rho_a.array @ d)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.sampled_from([1, 2, 3]))
def test_placed_and_clifford_stacks_are_built_from_their_entries(seed, k, m):
    g = random_matrix_geometry(np.random.default_rng(seed), k)
    rep = g.rep
    # the dense assembly of the placements
    offsets = g.algebra.basis_offsets()
    units = g.algebra.blocks(np.eye(offsets[-1]))
    want = np.zeros(rep.operand.shape, np.complex128)
    for p in rep.placements:
        blk = slice(p.start, p.start + p.block_size(g.algebra.components[p.component]))
        rows = slice(offsets[p.component], offsets[p.component + 1])
        want[rows, blk, blk] = p.block(units[p.component][rows])
    assert_entry_built_is(rep.operand, want)
    tensor = clifford_tensor(m, g).rep.operand
    assert_entry_built_is(tensor, np.kron(np.eye(2**m)[None], want))


@pytest.mark.parametrize("where", ["pi", "J"])
def test_a_stack_built_from_a_non_finite_input_gives_nan(where):
    # the NaN sits in the last row and column of one image, which no
    # generator image reaches with a nonzero (the doubled toy is diagonal)
    tg = flip_toy()
    g = tg.geometry
    assert verify_twisted(tg).ok
    if where == "pi":
        stack = g.rep.stack.copy()
        stack[0, -1, -1] = np.nan
        g = replace(g, rep=Representation(g.algebra, stack))
    else:
        u = g.real_structure.unitary.copy()
        u[-1, -1] = np.nan
        g = replace(g, real_structure=AntilinearOperator(u))
    bad = TwistedGeometry(g, tg.rho)
    assert not all(s.finite for s in bad.stacks())
    report = verify_twisted(bad)
    records = {r.name: r for r in report.records}
    zero = records["order zero: algebra commutes with opposite"]
    assert np.isnan(zero.residual) and not zero.passed
    assert not report.ok


@pytest.mark.parametrize("frame", [True, False])
def test_forced_evaluators_agree_on_every_record(monkeypatch, frame):
    reports = []
    for factor in (0, 2**62):  # always join, then never (unless nothing is nonzero)
        monkeypatch.setattr(matlin, "_SPARSE_FACTOR", factor)
        # a fresh draw per evaluator: a shared holder would hand the second
        # run the first one's D-free residuals instead of recomputing them
        reports.append(verify_twisted(drawn_with(frame)))
    sparse, dense = reports
    assert [r.name for r in sparse.records] == [r.name for r in dense.records]
    for a, b in zip(sparse.records, dense.records):
        assert a.passed == b.passed, a.name
        assert a.residual == pytest.approx(b.residual, rel=0.0, abs=1e-13), a.name


# -- verdicts do not depend on J's phase or on the frame --------------------


def moved_to_frame(tg: TwistedGeometry, w: np.ndarray) -> TwistedGeometry:
    """``tg`` in the frame W: ``W X W*`` for pi's stack, D, the grading and u_rho; ``W U W^T`` for J."""
    g = tg.geometry
    moved = FiniteGeometry(
        rep=Representation(g.algebra, w @ g.rep.stack @ dagger(w)),
        dirac=w @ g.dirac @ dagger(w),
        grading=w @ g.grading @ dagger(w),
        real_structure=AntilinearOperator(w @ g.real_structure.unitary @ w.T),
    )
    u_rho = tg.rho.u_rho
    return TwistedGeometry(
        moved, replace(tg.rho, u_rho=None if u_rho is None else w @ u_rho @ dagger(w))
    )


def assert_same_verdicts(before, after):
    assert [(r.name, r.passed) for r in after.records] == [
        (r.name, r.passed) for r in before.records
    ]
    for old, new in zip(before.records, after.records):
        assert abs(new.residual - old.residual) <= 1e-13, old.name


# the four Clifford entries of the catalogue: m = 1 on k = 2 and 3, m = 2, m = 3
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(5)
@example(4)
@example(0)
@example(7)
def test_verdicts_do_not_depend_on_the_phase_of_j_or_the_frame(seed):
    rng = np.random.default_rng(seed)
    tg = twist_by_grading(random_graded_geometry(rng))
    g = tg.geometry
    before = verify_twisted(tg)
    assert before.ok, before.format_text()

    phase = np.exp(2j * np.pi * rng.random())
    j = AntilinearOperator(phase * g.real_structure.unitary)
    assert_same_verdicts(
        before, verify_twisted(TwistedGeometry(replace(g, real_structure=j), tg.rho))
    )

    w = random_unitary(rng, g.hilbert_dim)
    assert_same_verdicts(before, verify_twisted(moved_to_frame(tg, w)))
