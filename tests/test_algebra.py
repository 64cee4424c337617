"""Finite direct sums of C, H, M_n(C) and their matrix representations."""

import tracemalloc

import numpy as np
import pytest
from coordinates import basis_tuples
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
from nctwist.triple import FiniteGeometry
from nctwist.twist import Automorphism, check_regular

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
    assert np.array_equal(alg.coords(alg.neg(x)), -alg.coords(x))
    assert np.array_equal(alg.coords(alg.mul(alg.unit(), x)), alg.coords(x))
    # star is an antihomomorphism: (xy)* = y* x*
    lhs = alg.star(alg.mul(x, y))
    rhs = alg.mul(alg.star(y), alg.star(x))
    assert np.linalg.norm(alg.coords(lhs) - alg.coords(rhs)) < 1e-12


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
    assert np.linalg.norm(alg.coords(a) - alg.coords(b)) == 0.0


def entry_reference(alg, xs, ys):
    """Dense ``(len(xs), len(ys), B)`` coordinates of the products ``Algebra.mul``."""
    return np.array([[alg.coords(alg.mul(x, y)) for y in ys] for x in xs])


def assert_entries_of(coords, want):
    """``coords`` lists exactly the nonzeros of ``want``: ascending unique keys, no zero."""
    assert coords.shape == want.shape
    assert np.array_equal(coords.key, np.flatnonzero(want))
    assert np.array_equal(coords.value, want.reshape(-1)[coords.key])
    assert np.all(np.diff(coords.key) > 0)
    assert np.all(coords.value != 0)


STRUCTURE = {
    "C": (Algebra.of("C"), 4),
    "H": (Algebra.of("H"), 32),
    "M2": (Algebra.of(("M", 2)), 32),
    "M3": (Algebra.of(("M", 3)), 108),
    "doubled M3+C+C": (doubled(Algebra.of(("M", 3), "C", "C")), 2 * (108 + 4 + 4)),
}


@pytest.mark.parametrize("name", STRUCTURE)
def test_structure_constants_are_the_nonzero_generator_products(name):
    alg, count = STRUCTURE[name]
    gens = alg.generators()
    sc = alg.structure_constants
    assert_entries_of(sc, entry_reference(alg, gens, gens))
    # one real entry per product of matrix units: 4 d^3 for M_d, 2 per H product
    assert len(sc.key) == count
    assert alg.structure_constants is sc


def test_equal_algebras_share_their_read_only_tables():
    # every doubling builds a new algebra; equal ones read one set of tables
    base = Algebra.of("H", ("M", 2), "C")
    first, second = doubled(base), doubled(Algebra.of("H", ("M", 2), "C"))
    spelled = Algebra.of("H", ("M", 2), "C", "H", ("M", 2), "C")
    assert first is not second and first == second == spelled
    for name in ("generator_rows", "star_matrix", "structure_constants", "_places"):
        table = getattr(first, name)
        assert getattr(second, name) is table and getattr(spelled, name) is table
        if name == "structure_constants":
            arrays = (table.key, table.value)
        else:
            arrays = table if name == "_places" else (table,)
        assert not any(a.flags.writeable for a in arrays), name
    # another signature, or the same blocks in another order, has its own
    for other in (base, Algebra.of(("M", 2), "H", "C", "H", ("M", 2), "C")):
        assert other != first
        assert other.generator_rows is not first.generator_rows
        assert other.structure_constants is not first.structure_constants
        assert other._places is not first._places


def test_products_of_twisted_rows_are_the_nonzero_products():
    # rho = flip composed with monomial inner unitaries: exact entries
    alg = doubled(Algebra.of(("M", 3), "C", "H"))
    u3 = np.array([[0, 1j, 0], [0, 0, -1], [1, 0, 0]])
    uh = np.array([[0, 1], [1j, 0]])
    inner = (u3, None, uh, None, None, None)
    rho = Automorphism((3, 4, 5, 0, 1, 2), inner=inner)
    gens = alg.generators()
    cr = alg.generator_rows @ alg.linear_map(rho.apply)
    twisted = [rho.apply(g) for g in gens]
    assert_entries_of(alg.products(cr, cr), entry_reference(alg, twisted, twisted))


def test_products_carry_a_non_finite_row(alg):
    # a NaN in the M_3 block of x meets the zeros of the other blocks as well
    rows = alg.coord_rows([alg.random_element(np.random.default_rng(RNG_SEED))])
    rows[0, -1] = np.nan
    got = alg.products(rows, alg.generator_rows)
    assert 0 <= got.key.min() and got.key.max() < np.prod(got.shape)
    nan_pairs = set(got.key[np.isnan(got.value)] // got.shape[2])
    # the last 18 generators are those of M_3
    assert nan_pairs and nan_pairs <= set(range(len(alg.generator_rows) - 18, len(alg.generator_rows)))


def test_the_pair_checks_hold_no_dense_product_table():
    # an unplaced M_10 (G = B = 200): a (G, G, B) float64 table is 64 MB
    alg = Algebra.of(("M", 10))
    g = FiniteGeometry(Representation.from_placements(alg, 2, []), np.zeros((2, 2)))
    tracemalloc.start()
    try:
        assert g.rep.check().ok is False  # pi = 0 misses the unit
        assert check_regular(Automorphism.identity(1), g).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_a_dense_inner_twist_keeps_no_large_coordinate_tables():
    # an unplaced M_10 under a dense inner unitary: the multiplicative
    # difference holds 1.8 M rounding-level entries (28 MiB), built per call
    # and not kept; the peak was 144 MiB before the tables were shared
    alg = Algebra.of(("M", 10))
    g = FiniteGeometry(Representation.from_placements(alg, 2, []), np.zeros((2, 2)))
    rho = Automorphism((0,), inner=(random_unitary(np.random.default_rng(0), 10),))
    assert g.rep.check().ok is False  # the algebra builds its own tables first
    tracemalloc.start()
    try:
        assert check_regular(rho, g).ok
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 4 * 2**20
    assert peak < 1.05 * 144 * 2**20


def test_coordinate_products_and_linear_maps(alg):
    gens = alg.generators()
    cg = alg.generator_rows
    rng = np.random.default_rng(RNG_SEED + 5)
    xs = [alg.random_element(rng) for _ in range(3)]
    cx = alg.coord_rows(xs)
    # products of general rows, which fill every block
    got = alg.products(cx, cx[::-1])
    dense = np.zeros(got.shape)
    dense.reshape(-1)[got.key] = got.value
    assert np.allclose(dense, entry_reference(alg, xs, xs[::-1]), rtol=0, atol=1e-12)
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
    assert np.linalg.norm(alg.coords(x) - alg.coords(back_x)) == 0.0
    assert np.linalg.norm(alg.coords(y) - alg.coords(back_y)) == 0.0


class TestPlacements:
    def test_scalar_and_conj_scalar_blocks(self):
        p = Placement(component=0, start=0, mode="scalar", mult=3)
        assert np.allclose(p.block(2 + 1j), (2 + 1j) * np.eye(3))
        pc = Placement(component=0, start=0, mode="conj-scalar", mult=3)
        assert np.allclose(pc.block(2 + 1j), (2 - 1j) * np.eye(3))

    def test_fund_and_conj_fund_blocks(self):
        v = np.array([[0, 1], [0, 0]], dtype=np.complex128)
        p = Placement(component=0, start=0, mode="fund", mult=2)
        assert np.allclose(p.block(v), np.kron(v, np.eye(2)))
        pc = Placement(component=0, start=0, mode="conj-fund", mult=1)
        assert np.allclose(pc.block(v), np.conj(v))

    def test_a_stack_of_values_gives_the_stack_of_blocks(self):
        rng = np.random.default_rng(RNG_SEED + 6)
        values = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        for mode in ("fund", "conj-fund"):
            p = Placement(component=0, start=0, mode=mode, mult=3)
            assert np.array_equal(p.block(values), [p.block(v) for v in values])
        scalars = values[:, :1, :1]
        p = Placement(component=0, start=0, mode="conj-scalar", mult=2)
        assert np.array_equal(p.block(scalars), [p.block(complex(z)) for z in scalars[:, 0, 0]])

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
    for e in basis_tuples(alg):
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
        out[blk, blk] += p.block(x[p.component])
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
    basis = basis_tuples(alg)
    assert len(basis) == 2 + 8 + 18
    for k, e in enumerate(basis):
        c = alg.coords(e)
        assert c[k] == 1.0 and np.count_nonzero(c) == 1
    assert np.array_equal(alg.coord_rows(basis), np.eye(len(basis)))


def test_basis_offsets_delimit_each_component_of_the_basis(alg):
    offsets = alg.basis_offsets()
    assert offsets.tolist() == [0, 2, 10, 28]
    basis = basis_tuples(alg)
    assert len(basis) == offsets[-1]
    units = alg.blocks(np.eye(offsets[-1]))
    for i, (start, stop) in enumerate(zip(offsets, offsets[1:])):
        # the elements between two offsets are the ones of component i
        assert all(np.any(e[i]) for e in basis[start:stop])
        # and so are the identity rows there, read as blocks
        for j, u in enumerate(units):
            assert np.count_nonzero(u[start:stop]) == (stop - start) * (i == j)


def test_blocks_view_rows_and_from_blocks_inverts_them(alg):
    rng = np.random.default_rng(RNG_SEED + 7)
    rows = rng.standard_normal((2, 3, 28))
    blocks = alg.blocks(rows)
    assert [b.shape for b in blocks] == [(2, 3, d, d) for d in (1, 2, 3)]
    assert all(np.shares_memory(b, rows) for b in blocks)
    assert np.array_equal(alg.from_blocks(blocks), rows)
    x = alg.random_element(rng)
    assert np.array_equal(alg.coords(x), alg.from_blocks(x))
    assert alg.blocks(alg.coords(x))[0][0, 0] == x[0]
    assert np.array_equal(alg.blocks(alg.coords(x))[2], x[2])


def test_representations_are_built_without_the_basis_elements(alg, monkeypatch):
    def unread(*args):
        raise AssertionError("element tuples read")

    for name in ("coords", "coord_rows", "basis_element", "generators"):
        monkeypatch.setattr(Algebra, name, unread)
    rep = _base_rep(alg)
    assert len(Representation(alg, rep.stack).stack) == 28
    assert not hasattr(alg, "basis")


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
