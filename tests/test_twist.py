"""Algebra automorphisms, twisted commutators, and the twisted axioms."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctwist.algebra import Algebra, Placement, Representation
from nctwist.matlin import Tolerance, dagger, fro
from nctwist.mintwist import twist_by_grading
from nctwist.samples import (
    clifford_tensor,
    flip_toy,
    random_graded_geometry,
    random_matrix_geometry,
    random_unitary,
)
from nctwist.sm import (
    display_twist_operator,
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
        back = rho.inverse().apply(rho.apply(x))
        assert alg.norm(alg.add(x, alg.neg(back))) < 1e-12

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
    assert np.allclose(tg.pi(z), np.diag([2.0, -1.0]))
    assert np.allclose(tg.pi_rho(z), np.diag([-1.0, 2.0]))
    d = tg.geometry.dirac
    expected = d @ tg.pi(z) - tg.pi_rho(z) @ d
    assert fro(tg.twisted_commutator(z) - expected) == 0.0


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
    last = base.algebra.generators()[-1]

    def act(x):
        m = base(x)
        if all(np.array_equal(v, w) for v, w in zip(x, last)):
            m[1, 1] = np.nan
        return m

    geom = tg.geometry
    return TwistedGeometry(
        replace(geom, rep=Representation.from_function(base.algebra, base.dim, act)),
        tg.rho,
    )


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
    alg, pi = g.algebra, g.pi
    gens = alg.generators()
    mats = [pi(a) for a in gens]
    rho_inv = rho.inverse()
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
    stack = np.zeros((len(alg.basis()), n, n), dtype=np.complex128)
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
    assert_stacks_agree(tg.stacks(gens), per_element_stacks(tg.geometry, tg.rho, gens))
    # the default is the generator set
    default = tg.stacks()
    explicit = tg.stacks(tg.algebra.generators())
    assert all(np.array_equal(a, b) for a, b in zip(default, explicit))


def test_stacks_without_real_structure_have_no_opposite():
    tg = flip_toy()
    bare = TwistedGeometry(replace(tg.geometry, real_structure=None), tg.rho)
    pi_a, pi_rho_a, opp_b, rho_opp_b = bare.stacks()
    assert opp_b is None and rho_opp_b is None
    assert np.array_equal(pi_a, tg.stacks()[0])
    assert np.array_equal(pi_rho_a, tg.stacks()[1])


@pytest.mark.parametrize("convention", ["flip", "display"])
def test_sm_stacks_equal_their_definitions_in_both_conventions(convention):
    tg = twisted_sm_geometry()
    g, gens = tg.geometry, lean_generators(tg.algebra)
    shown = display_twist_operator if convention == "display" else None
    want = per_element_stacks(g, tg.rho, gens, shown)
    if convention == "flip":
        assert_stacks_agree(tg.stacks(gens), want)
    # the order-one residuals of the convention, on a spread of generators
    few = slice(None, None, 5)
    got = sm_first_order_residuals(tg, convention, gens[few])
    primary, symmetric = first_order_residuals(g.dirac, *(np.stack(w[few]) for w in want))
    assert abs(got["primary"] - primary) <= 1e-13 * max(1.0, primary)
    assert abs(got["symmetric"] - symmetric) <= 1e-13 * max(1.0, symmetric)
