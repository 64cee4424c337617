"""Finite direct sums of C, H, M_n(C) and their matrix representations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctwist.algebra import (
    QUATERNION_UNITS,
    Algebra,
    Placement,
    Representation,
    doubled,
    is_quaternion,
    join_double,
    projected_double,
    quaternion,
)
from nctwist.matlin import dagger, fro
from nctwist.samples import clifford_tensor, left_regular_geometry, random_unitary

RNG_SEED = 20


@pytest.fixture
def alg():
    return Algebra.of("C", "H", ("M", 3))


def test_quaternion_encoding():
    q = quaternion(1 + 2j, 3 - 1j)
    assert q.shape == (2, 2)
    assert q[0, 0] == 1 + 2j
    assert q[0, 1] == 3 - 1j
    assert q[1, 0] == -np.conj(3 - 1j)
    assert q[1, 1] == np.conj(1 + 2j)
    assert is_quaternion(q)
    assert not is_quaternion(np.array([[1, 2], [3, 4]], dtype=np.complex128))


def test_quaternion_units_multiply_like_quaternions():
    i, j, k = QUATERNION_UNITS["i"], QUATERNION_UNITS["j"], QUATERNION_UNITS["k"]
    one = QUATERNION_UNITS["1"]
    assert np.allclose(i @ i, -one)
    assert np.allclose(j @ j, -one)
    assert np.allclose(i @ j, k)
    assert np.allclose(j @ i, -k)


def test_signature_and_generator_counts(alg):
    assert alg.signature() == (("C", None), ("H", None), ("M", 3))
    assert alg.ncomponents == 3
    gens = alg.generators()
    # C contributes 1, i; H the four units; M_3 pairs E_rs, iE_rs
    assert len(gens) == 2 + 4 + 18


def test_unit_zero_and_arithmetic(alg):
    rng = np.random.default_rng(RNG_SEED)
    x = alg.random_element(rng)
    y = alg.random_element(rng)
    assert alg.norm(alg.add(x, alg.neg(x))) < 1e-14
    assert alg.norm(alg.mul(alg.unit(), x)) == pytest.approx(alg.norm(x))
    # star is an antihomomorphism: (xy)* = y* x*
    lhs = alg.star(alg.mul(x, y))
    rhs = alg.mul(alg.star(y), alg.star(x))
    assert alg.norm(alg.add(lhs, alg.neg(rhs))) < 1e-12


def test_element_validation(alg):
    with pytest.raises(ValueError):
        alg.element([1.0, 2.0])  # wrong component count
    with pytest.raises(ValueError):
        # H slot must carry the 2x2 quaternion encoding
        alg.element([1.0, np.array([[1, 2], [3, 4]]), np.eye(3)])
    with pytest.raises(ValueError):
        alg.element([1.0, QUATERNION_UNITS["1"], np.eye(2)])  # M_3 shape


def test_basis_element_places_value(alg):
    e = alg.basis_element(2, np.eye(3))
    assert e[0] == 0
    assert fro(np.asarray(e[1])) == 0
    assert np.allclose(e[2], np.eye(3))


def test_random_element_is_reproducible(alg):
    a = alg.random_element(np.random.default_rng(7))
    b = alg.random_element(np.random.default_rng(7))
    assert alg.norm(alg.add(a, alg.neg(b))) == 0.0


def test_coordinate_products_and_linear_maps(alg):
    gens = alg.generators()
    cg = np.stack([alg.coords(g) for g in gens])
    # structure constants: products of generators are exact
    assert np.array_equal(
        alg.mul_coords(cg[:, None], cg[None]),
        [[alg.coords(alg.mul(a, b)) for b in gens] for a in gens],
    )
    rng = np.random.default_rng(RNG_SEED + 5)
    xs = [alg.random_element(rng) for _ in range(3)]
    cx = np.stack([alg.coords(x) for x in xs])
    prod = alg.mul_coords(cx, cx[::-1])
    for x, y, p in zip(xs, xs[::-1], prod):
        assert np.allclose(p, alg.coords(alg.mul(x, y)), rtol=0, atol=1e-12)
    star = alg.linear_map(alg.star)
    assert np.array_equal(cg @ star, [alg.coords(alg.star(g)) for g in gens])
    want = [alg.coords(alg.star(x)) for x in xs]
    assert np.allclose(cx @ star, want, rtol=0, atol=1e-12)


def test_doubled_split_join(alg):
    dbl = doubled(alg)
    assert dbl.ncomponents == 6
    rng = np.random.default_rng(RNG_SEED + 1)
    x = alg.random_element(rng)
    y = alg.random_element(rng)
    both = join_double(x, y)
    back_x, back_y = both[: alg.ncomponents], both[alg.ncomponents :]
    assert alg.norm(alg.add(x, alg.neg(back_x))) == 0.0
    assert alg.norm(alg.add(y, alg.neg(back_y))) == 0.0


class TestPlacements:
    def test_scalar_and_conj_scalar_blocks(self):
        alg = Algebra.of("C")
        comp = alg.components[0]
        p = Placement(component=0, start=0, mode="scalar", mult=3)
        assert np.allclose(p.block(comp, 2 + 1j), (2 + 1j) * np.eye(3))
        pc = Placement(component=0, start=0, mode="conj-scalar", mult=3)
        assert np.allclose(pc.block(comp, 2 + 1j), (2 - 1j) * np.eye(3))

    def test_fund_and_conj_fund_blocks(self):
        alg = Algebra.of(("M", 2))
        comp = alg.components[0]
        v = np.array([[0, 1], [0, 0]], dtype=np.complex128)
        p = Placement(component=0, start=0, mode="fund", mult=2)
        assert np.allclose(p.block(comp, v), np.kron(v, np.eye(2)))
        pc = Placement(component=0, start=0, mode="conj-fund", mult=1)
        assert np.allclose(pc.block(comp, v), np.conj(v))

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Placement(component=0, start=0, mode="weird", mult=1)
        with pytest.raises(ValueError):
            Placement(component=0, start=0, mode="fund", mult=0)


def test_representation_rejects_overlap():
    alg = Algebra.of("C", "C")
    with pytest.raises(ValueError):
        Representation.from_placements(
            alg,
            3,
            [
                Placement(component=0, start=0, mode="scalar", mult=2),
                Placement(component=1, start=1, mode="scalar", mult=2),
            ],
        )


def test_representation_rejects_overflow():
    alg = Algebra.of("C")
    with pytest.raises(ValueError):
        Representation.from_placements(
            alg, 2, [Placement(component=0, start=1, mode="scalar", mult=2)]
        )


def test_representation_action_and_check(alg):
    rep = Representation.from_placements(
        alg,
        8,
        [
            Placement(component=0, start=0, mode="scalar", mult=2),
            Placement(component=0, start=2, mode="conj-scalar", mult=1),
            Placement(component=1, start=3, mode="fund", mult=1),
            Placement(component=2, start=5, mode="fund", mult=1),
        ],
    )
    rng = np.random.default_rng(RNG_SEED + 2)
    x = alg.random_element(rng)
    m = rep(x)
    assert m.shape == (8, 8)
    assert m[0, 0] == x[0]
    assert m[2, 2] == np.conj(x[0])
    assert np.allclose(m[3:5, 3:5], np.asarray(x[1]))
    report = rep.check()
    assert report.ok
    names = [r.name for r in report.records]
    assert any("unit" in n for n in names)


def assert_stack_transform(rep, formula, rng):
    """``rep`` equals ``formula``: exactly on the basis, closely elsewhere."""
    alg = rep.algebra
    for e in alg.basis():
        assert np.array_equal(rep(e), formula(e))
    for _ in range(3):
        x = alg.random_element(rng)
        assert fro(rep(x) - formula(x)) < 1e-12


def test_projected_double_blocks():
    alg = Algebra.of(("M", 2))
    rep0 = Representation.from_placements(
        alg, 4, [Placement(component=0, start=0, mode="fund", mult=2)]
    )
    # grading acts on the multiplicity factor, so it commutes with the rep
    grading = np.diag([1.0, -1.0, 1.0, -1.0]).astype(np.complex128)
    dbl_rep = projected_double(rep0, grading)
    dbl = dbl_rep.algebra
    assert dbl.ncomponents == 2
    rng = np.random.default_rng(RNG_SEED + 3)
    p_plus = (np.eye(4) + grading) / 2
    p_minus = (np.eye(4) - grading) / 2

    def doubled_action(elem):
        x, y = elem[: alg.ncomponents], elem[alg.ncomponents :]
        return p_plus @ rep0(x) + p_minus @ rep0(y)

    assert_stack_transform(dbl_rep, doubled_action, rng)
    x = alg.random_element(rng)
    assert fro(grading @ rep0(x) - rep0(x) @ grading) < 1e-12

    # the framed and Clifford-tensored families are stack transforms too
    sub = Algebra.of("C", "H")
    m_small = np.zeros((3, 3), dtype=np.complex128)
    m_small[0, 1:] = [1.0, 0.5j]
    m_small[1:, 0] = [1.0, -0.5j]
    plain = left_regular_geometry(sub, [1, -1], m_small)
    w = random_unitary(rng, 9)
    framed = left_regular_geometry(sub, [1, -1], m_small, frame=w)
    assert_stack_transform(
        framed.rep, lambda e: w @ plain.rep(e) @ dagger(w), rng
    )
    tensored = clifford_tensor(2, plain)
    assert_stack_transform(
        tensored.rep, lambda e: np.kron(np.eye(4), plain.rep(e)), rng
    )


# -- basis-image stack ----------------------------------------------------

COMPONENT_SPECS = ["C", "H", ("M", 1), ("M", 2), ("M", 3)]


def assemble(rep, x):
    """Direct placement assembly: every block from the component value."""
    out = np.zeros((rep.dim, rep.dim), dtype=np.complex128)
    for p in rep.placements:
        comp = rep.algebra.components[p.component]
        blk = slice(p.start, p.start + p.block_size(comp))
        out[blk, blk] += p.block(comp, x[p.component])
    return out


@st.composite
def placed_elements(draw):
    """A placement representation and an element with arbitrary values.

    Quaternion blocks get arbitrary 2x2 complex values, as a complex scale
    factor of an automorphism produces.
    """
    alg = Algebra.of(
        *draw(st.lists(st.sampled_from(COMPONENT_SPECS), min_size=1, max_size=3))
    )
    placements, start = [], 0
    for i, comp in enumerate(alg.components):
        modes = ("scalar", "conj-scalar") if comp.kind == "C" else ("fund", "conj-fund")
        for mode in draw(st.lists(st.sampled_from(modes), min_size=1, max_size=2)):
            p = Placement(i, start, mode, draw(st.integers(1, 3)))
            placements.append(p)
            start += p.block_size(comp)
    entry = st.floats(-1e3, 1e3) | st.just(0.0)
    values = []
    for comp in alg.components:
        n = 1 if comp.kind == "C" else comp.dim
        parts = draw(st.lists(entry, min_size=2 * n * n, max_size=2 * n * n))
        v = (np.array(parts[::2]) + 1j * np.array(parts[1::2])).reshape(n, n)
        values.append(complex(v[0, 0]) if comp.kind == "C" else v)
    return Representation.from_placements(alg, start, placements), tuple(values)


@settings(max_examples=200, deadline=None)
@given(placed_elements())
def test_stack_matches_direct_placement_assembly(case):
    rep, x = case
    assert np.array_equal(rep(x), assemble(rep, x))


def test_stack_constructor_checks_images(alg):
    stack = _base_rep(alg).stack
    rep = Representation(alg, stack)
    assert rep.dim == 6 and np.array_equal(rep.stack, stack)
    with pytest.raises(AttributeError):
        rep.dim = 7
    with pytest.raises(ValueError):
        Representation(alg, stack[:-1])  # one image short
    with pytest.raises(ValueError):
        Representation(alg, stack[:, :, :5])  # non-square images


def test_coords_invert_basis(alg):
    basis = alg.basis()
    assert len(basis) == 2 + 8 + 18
    for k, e in enumerate(basis):
        c = alg.coords(e)
        assert c[k] == 1.0 and np.count_nonzero(c) == 1
    assert np.array_equal(alg.coord_rows(basis), np.eye(len(basis)))


def _base_rep(alg):
    return Representation.from_placements(
        alg,
        6,
        [
            Placement(component=0, start=0, mode="scalar", mult=1),
            Placement(component=1, start=1, mode="fund", mult=1),
            Placement(component=2, start=3, mode="fund", mult=1),
        ],
    )
