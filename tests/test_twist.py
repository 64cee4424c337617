"""Algebra automorphisms, twisted commutators, and the twisted axioms."""

from dataclasses import replace

import numpy as np
import pytest
from coordinates import inverse_automorphism, per_tuple_linear_map
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctwist import matlin
from nctwist.algebra import Algebra, Placement, Representation
from nctwist.matlin import AntilinearOperator, Tolerance, dagger, fro
from nctwist.mintwist import twist_by_grading
from nctwist.samples import (
    clifford_tensor,
    flip_toy,
    random_graded_geometry,
    random_hermitian,
    random_matrix_geometry,
    random_unitary,
)
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


def poisoned_flip_toy():
    """flip_toy() with a NaN in pi of its last generator, and only there."""
    tg = flip_toy()
    base = tg.geometry.rep
    (k,) = np.flatnonzero(base.algebra.coords(base.algebra.generators()[-1]))
    stack = base.stack.copy()
    stack[k, 1, 1] = np.nan
    geom = tg.geometry
    return TwistedGeometry(replace(geom, rep=Representation(base.algebra, stack)), tg.rho)


def assert_nan_fails_what_reads_it(report):
    assert not report.ok
    assert np.isnan(report.max_residual)
    for rec in report.records:
        if rec.name in NAN_FREE_RECORDS:
            assert rec.passed, rec.name
        else:
            assert not rec.passed, rec.name
            assert np.isnan(rec.residual), rec.name


def test_nan_image_fails_every_record_that_reads_it():
    report = verify_twisted(poisoned_flip_toy())
    assert NAN_FREE_RECORDS <= {r.name for r in report.records}
    assert_nan_fails_what_reads_it(report)


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
    tg = twist_by_grading(random_graded_geometry(np.random.default_rng(4)))
    report = verify_twisted(tg)
    assert report.ok, report.format_text()
    # rho once for pi o rho and once for regularity, which inverts its
    # matrix; the star once for the algebra, not once per basis direction
    # and per check
    assert calls == {"apply": 2, "star": 1}


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


def assert_stacks_agree(got, want):
    for name, s, w in zip(("pi", "pi o rho", "opposite", "twisted opposite"), got, want):
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
    # the default is the generator set
    default = tg.stacks()
    explicit = tg.stacks(alg.coord_rows(alg.generators()))
    assert all(np.array_equal(a, b) for a, b in zip(default, explicit))


def test_stacks_without_real_structure_have_no_opposite():
    tg = flip_toy()
    bare = TwistedGeometry(replace(tg.geometry, real_structure=None), tg.rho)
    pi_a, pi_rho_a, opp_b, rho_opp_b = bare.stacks()
    assert opp_b is None and rho_opp_b is None
    assert np.array_equal(pi_a, tg.stacks()[0])
    assert np.array_equal(pi_rho_a, tg.stacks()[1])


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
            stack[0, 0, 0] = 1.0


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
    got, gens = other.stacks(), other.algebra.generators()
    assert_stacks_agree(got, per_element_stacks(other.geometry, other.rho, gens))
    assert not np.allclose(got[2], built[2])


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
    # the order-one residuals of the convention, on a spread of generators
    few = slice(None, None, 5)
    got = sm_first_order_residuals(tg, convention, rows[few])
    primary, symmetric = first_order_residuals(g.dirac, *(np.stack(w[few]) for w in want))
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
