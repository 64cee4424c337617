"""Dense-matrix helpers: norms, conjugations, nullspaces; the Kronecker reference solvers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nctwist import matlin
from nctwist.fluct import compose_fluctuations
from nctwist.matlin import (
    DEFAULT_TOL,
    AntilinearOperator,
    Operand,
    PairCoords,
    Tolerance,
    anticommutator,
    as_matrix,
    dagger,
    fro,
    kron,
    match_sign,
    nullspace,
    pair_max,
    pair_residual,
    residual_against_span,
    sign_fits,
)
from nctwist.mintwist import twist_by_grading
from nctwist.report import Report
from nctwist.samples import random_matrix_geometry, random_one_form

from kronecker import intertwiner_space, intertwiners

RNG_SEED = 1234


def rand_mat(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_tolerance_accepts_scales_with_operator_norm():
    tol = Tolerance(rel=1e-10, abs=1e-12)
    assert tol.accepts(0.0)
    assert tol.accepts(5e-11, scale=1.0)
    assert not tol.accepts(5e-9, scale=1.0)
    # large scale loosens the relative part
    assert tol.accepts(5e-9, scale=100.0)


def test_as_matrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))
    m = as_matrix(np.ones((2, 3)), allow_nonsquare=True)
    assert m.dtype == np.complex128


def test_fro_dagger_kron_basics():
    rng = np.random.default_rng(RNG_SEED)
    a = rand_mat(rng, 3)
    b = rand_mat(rng, 4)
    assert fro(a) == pytest.approx(np.linalg.norm(a))
    assert np.allclose(dagger(a), a.conj().T)
    assert np.allclose(kron(a, b), np.kron(a, b))
    assert fro(kron(a, b)) == pytest.approx(fro(a) * fro(b))


def test_commutators_and_twisted_variant():
    rng = np.random.default_rng(RNG_SEED + 1)
    x, y, r = rand_mat(rng, 4), rand_mat(rng, 4), rand_mat(rng, 4)
    assert np.allclose(anticommutator(x, y), x @ y + y @ x)
    # twisted bracket with rho-image r in place of y on the left
    assert pair_residual([x], [y], [r]) == pytest.approx(fro(x @ y - r @ x))
    # degenerates to the plain bracket when the twist fixes y
    assert pair_residual([x], [y]) == pytest.approx(fro(x @ y - y @ x))


def explicit_pair_max(xs, ys, zs):
    return max(fro(x @ y - z @ x) for x in xs for y, z in zip(ys, zs))


# n = 64 puts 8 matrices in a block, so up to 20 j span several blocks;
# about half the cases draw it
pair_cases = st.tuples(
    st.one_of(st.integers(1, 8), st.just(64)),
    st.integers(1, 6),
    st.integers(1, 20),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


def draw_stacks(case):
    n, g1, g2, twisted, seed = case
    rng = np.random.default_rng(seed)
    xs = np.stack([rand_mat(rng, n) for _ in range(g1)])
    ys = np.stack([rand_mat(rng, n) for _ in range(g2)])
    zs = np.stack([rand_mat(rng, n) for _ in range(g2)]) if twisted else None
    return xs, ys, zs, rng


@settings(max_examples=60, deadline=None)
@given(pair_cases)
def test_pair_residual_equals_the_explicit_double_loop(case):
    xs, ys, zs, _ = draw_stacks(case)
    want = explicit_pair_max(xs, ys, ys if zs is None else zs)
    assert pair_residual(xs, ys, zs) == pytest.approx(want, rel=1e-13, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(pair_cases, st.sampled_from(["xs", "ys", "zs"]))
def test_pair_residual_nan_anywhere_is_the_result(case, slot):
    xs, ys, zs, rng = draw_stacks(case)
    stacks = {"xs": xs, "ys": ys, "zs": ys if zs is None else zs}
    target = stacks[slot]
    target[tuple(rng.integers(0, dim) for dim in target.shape)] = np.nan
    assert np.isnan(pair_residual(xs, ys, zs))


# n = 64 and 70 put 8 and 6 differences in a column block, so up to 20
# columns may end in a partial block; rows differ from cols and take 0 and 1
pair_max_cases = st.tuples(
    st.sampled_from([1, 5, 64, 70]),
    st.integers(0, 4),
    st.integers(0, 20),
    st.integers(0, 2**32 - 1),
).filter(lambda case: case[1] != case[2])


def draw_differences(case):
    """``(rows, cols, n, n)`` differences, each at its own scale in [1, 10]."""
    n, rows, cols, seed = case
    rng = np.random.default_rng(seed)
    shape = (rows, cols, n, n)
    diffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    diffs *= rng.uniform(1.0, 10.0, (rows, cols, 1, 1))
    return diffs, rng


def kernel_max(diffs):
    """``pair_max`` of pair (i, j) reading ``diffs[i, j]`` as its own basis image."""
    rows, cols, n = diffs.shape[:3]
    coords = np.eye(rows * cols).reshape(rows, cols, rows * cols)
    return pair_max(coords=PairCoords.of(coords), stack=diffs.reshape(-1, n, n))


@settings(max_examples=80, deadline=None)
@given(pair_max_cases)
def test_pair_max_equals_the_explicit_double_loop(case):
    diffs, _ = draw_differences(case)
    want = 0.0
    for i in range(diffs.shape[0]):
        for j in range(diffs.shape[1]):
            want = max(want, fro(diffs[i, j]))
    assert kernel_max(diffs) == pytest.approx(want, rel=1e-13, abs=0.0)


@settings(max_examples=80, deadline=None)
@given(pair_max_cases)
def test_pair_max_nan_at_any_pair_is_the_result(case):
    diffs, rng = draw_differences(case)
    assume(diffs.size > 0)
    diffs[tuple(rng.integers(0, dim) for dim in diffs.shape)] = np.nan
    assert np.isnan(kernel_max(diffs))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pair_max_of_no_coordinate_entries_reads_the_stack(bad):
    # a coordinate side with no entries gives 0.0 on a finite stack and NaN
    # on a non-finite one, which no entry reads
    empty = PairCoords((1, 4, 2), np.zeros(0, np.intp), np.zeros(0))
    stack = np.zeros((2, 3, 3), np.complex128)
    stack[0, 1, 2] = 1.0
    assert pair_max(coords=empty, stack=stack) == 0.0
    stack[1, 0, 0] = bad
    assert np.isnan(pair_max(coords=empty, stack=stack))


# -- the sparse evaluator ----------------------------------------------------
#
# pair_max joins the nonzero entries of sparse operands instead of
# multiplying dense slices.  These draws put 1 to 3 nonzeros in each matrix,
# on rows and columns taken from a random subset of a random permutation, so
# that products meet and terms often share a key.  ``pinned`` fixes the
# choice: a factor of 0 always joins, and 2**62 joins only when no term
# exists.

SPARSE_FORMS = ("commutator", "multiplicative", "regular")

sparse_cases = st.tuples(
    st.one_of(st.integers(1, 8), st.just(25)),
    st.integers(1, 5),
    st.integers(1, 12),
    st.sampled_from(SPARSE_FORMS),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)


def entry_form(operands):
    """``operands`` with dense ``coords`` passed as ``PairCoords``."""
    if "coords" in operands:
        operands = dict(operands, coords=PairCoords.of(operands["coords"]))
    return operands


def pinned(path, **operands):
    """``pair_max`` with its choice fixed to ``"sparse"`` or ``"dense"``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matlin, "_SPARSE_FACTOR", {"sparse": 0, "dense": 2**62}[path])
        return pair_max(**entry_form(operands))


def draw_sparse(case):
    """Operands of one caller's form, as ``pair_max`` keywords (dense ``coords``).

    "commutator" is ``pair_residual`` (twisted or not), "multiplicative"
    ``Representation.check`` (coordinates, stack and a product) and
    "regular" ``check_regular`` (coordinates and stack).
    """
    n, rows, cols, form, twisted, seed = case
    rng = np.random.default_rng(seed)
    hot = rng.permutation(n)[: rng.integers(1, n + 1)]

    def stack(count):
        out = np.zeros((count, n, n), np.complex128)
        for m in out:
            for _ in range(rng.integers(1, 4)):
                m[rng.choice(hot), rng.choice(hot)] = complex(*rng.standard_normal(2))
        return out

    if form == "commutator":
        ys = stack(cols)
        return {"xs": stack(rows), "ys": ys, "zs": stack(cols) if twisted else ys}
    basis = int(rng.integers(1, 6))
    coords = np.zeros((rows, cols, basis))
    for i in range(rows):
        for j in range(cols):
            coords[i, j, rng.integers(basis, size=rng.integers(0, 3))] = rng.standard_normal()
    operands = {"coords": coords, "stack": stack(basis)}
    if form == "multiplicative":
        operands.update(xs=stack(rows), ys=stack(cols))
    return operands


def explicit_difference_max(xs=None, ys=None, zs=None, coords=None, stack=None):
    """The pair difference of ``pair_max``, formed densely pair by pair."""
    lead = xs if xs is not None else coords
    cols = len(ys) if ys is not None else coords.shape[1]
    n = (xs if xs is not None else stack).shape[-1]
    best = 0.0
    for i in range(len(lead)):
        for j in range(cols):
            d = np.zeros((n, n), np.complex128)
            if coords is not None:
                d += np.tensordot(coords[i, j], stack, 1)
            if xs is not None:
                d -= xs[i] @ ys[j]
            if zs is not None:
                d += zs[j] @ xs[i]
            best = max(best, fro(d))
    return best


@settings(max_examples=100, deadline=None)
@given(sparse_cases)
def test_sparse_evaluator_equals_the_explicit_double_loop(case):
    operands = draw_sparse(case)
    want = explicit_difference_max(**operands)
    assert pinned("sparse", **operands) == pytest.approx(want, rel=1e-13, abs=1e-13)
    assert pinned("dense", **operands) == pytest.approx(want, rel=1e-13, abs=1e-13)
    assert pair_max(**entry_form(operands)) == pytest.approx(want, rel=1e-13, abs=1e-13)


@settings(max_examples=80, deadline=None)
@given(sparse_cases, st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_sparse_evaluator_nonfinite_anywhere_is_nan(case, bad, data):
    operands = draw_sparse(case)
    target = operands[data.draw(st.sampled_from(sorted(operands)))]
    target[tuple(data.draw(st.integers(0, d - 1)) for d in target.shape)] = bad
    assert np.isnan(pinned("sparse", **operands))
    assert np.isnan(pinned("dense", **operands))


@settings(max_examples=100, deadline=None)
@given(sparse_cases, st.sampled_from([None, np.nan, np.inf, -np.inf]), st.data())
def test_kept_operands_give_the_bits_of_writable_copies(case, bad, data):
    operands = draw_sparse(case)
    if bad is not None:
        target = operands[data.draw(st.sampled_from(sorted(operands)))]
        target[tuple(data.draw(st.integers(0, d - 1)) for d in target.shape)] = bad
    kept = {}
    for name, a in operands.items():  # ys is zs in a plain commutator
        same = [k for k, b in operands.items() if b is a and k in kept]
        kept[name] = a if name == "coords" else kept[same[0]] if same else Operand(a)
    for path in ("sparse", "dense"):
        pinned(path, **kept)  # an earlier check reads every fact first
        got = pinned(path, **kept)
        want = pinned(path, **{k: a.copy() for k, a in operands.items()})
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), path


def dense(coords):
    """The dense array of a ``PairCoords``."""
    out = np.zeros(coords.shape, coords.value.dtype)
    out.reshape(-1)[coords.key] = coords.value
    return out


def assert_entry_list(coords):
    """Keys ascending and unique, no zero value, and the per-axis indices of
    ``np.unravel_index``."""
    assert np.all(np.diff(coords.key) > 0)
    assert np.all(coords.value != 0)
    want = np.unravel_index(coords.key, coords.shape)
    assert all(np.array_equal(i, w) for i, w in zip(coords.index, want, strict=True))


def assert_bits(coords, want):
    """``coords`` lists the nonzeros of ``want``, bit for bit."""
    assert coords.shape == want.shape
    assert np.array_equal(coords.key, np.flatnonzero(want))
    got = dense(coords)
    want = np.ascontiguousarray(want, got.dtype)
    assert np.array_equal(got.view(np.float64), want.view(np.float64))
    assert_entry_list(coords)


def joined(a, axis, m):
    """``PairCoords.join`` of ``a``'s entries on ``axis`` with ``m``'s rows, merged:
    the entries of ``a`` with its ``axis`` contracted against ``m``."""
    shape = list(a.shape)
    shape[axis] = m.shape[1]
    strides = np.cumprod([1, *shape[:0:-1]])[::-1]
    weights = tuple(0 if k == axis else int(w) for k, w in enumerate(strides))
    left, right = PairCoords.of(a), PairCoords.of(m).grouped(np.count_nonzero(m, axis=1))
    key, li, ri = left.join(axis, weights, right, (0, int(strides[axis])))
    return PairCoords.merged(shape, key, left.value[li] * right.value[ri])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pair_coords_differences_and_products_are_the_dense_ones(seed):
    rng = np.random.default_rng(seed)
    rows, cols, basis, width = rng.integers(1, 6, 4)

    def sparse(*shape, complex_values=False):
        out = rng.standard_normal(shape) * (rng.random(shape) < 0.3)
        if complex_values:
            out = out + 1j * rng.standard_normal(shape) * (rng.random(shape) < 0.5)
        return out

    a, b, m = sparse(rows, cols, basis), sparse(rows, cols, basis), sparse(basis, width)
    same = rng.random(a.shape) < 0.3
    b[same] = a[same]  # equal entries cancel to no entry
    diff = PairCoords.of(a) - PairCoords.of(b)
    assert_entry_list(diff)
    assert diff.shape == a.shape
    assert np.array_equal(diff.key, np.flatnonzero(a - b))
    assert np.array_equal(diff.value, (a - b).reshape(-1)[diff.key])
    moved = PairCoords.of(a) @ m
    assert_entry_list(moved)
    assert moved.shape == (rows, cols, width)
    assert np.allclose(dense(moved), a @ m, rtol=0, atol=1e-13)

    # complex (k, n, n) stacks: the difference holds the bits of the dense one
    k, n = rng.integers(1, 5), rng.integers(1, 7)
    x, y = sparse(k, n, n, complex_values=True), sparse(k, n, n, complex_values=True)
    same = rng.random(x.shape) < 0.3
    y[same] = x[same]
    assert_bits(PairCoords.of(x) - PairCoords.of(y), x - y)
    for z in (x, y):  # a list and its dense array, both ways, bit for bit
        entries = PairCoords.of(z)
        assert_bits(entries, z)
        assert_bits(PairCoords(z.shape, entries.key, entries.value), z)
        shuffled = rng.permutation(len(entries.value))  # ``at`` sorts what it is given
        index = tuple(i[shuffled] for i in entries.index)
        assert_bits(PairCoords.at(z.shape, index, entries.value[shuffled]), z)
        assert np.array_equal(Operand(entries).array.view(np.float64), z.view(np.float64))
        assert_bits(entries.transposed((0, 2, 1)), z.transpose(0, 2, 1))
        assert_bits(entries.real_view(), z.view(np.float64))

    # repeated keys into the merge sum in the order given; x then -x cancels
    size = k * n * n
    key = rng.integers(0, size, rng.integers(0, 3 * size))
    value = rng.standard_normal(len(key)) + 1j * rng.standard_normal(len(key))
    gone = rng.integers(0, size)
    key, value = np.append(key, [gone, gone]), np.append(value, [2.5 - 1j, -2.5 + 1j])
    want = np.zeros(size, np.complex128)
    np.add.at(want, key, value)
    assert_bits(PairCoords.merged((k, n, n), key, value), want.reshape(k, n, n))

    # a join on each axis, merged, is the dense contraction
    for axis in range(3):
        p = sparse(x.shape[axis], rng.integers(1, 5), complex_values=True)
        want = np.moveaxis(np.tensordot(x, p, axes=([axis], [0])), -1, axis)
        got = joined(x, axis, p)
        assert_entry_list(got)
        assert np.allclose(dense(got), want, rtol=0, atol=1e-13)

    # empty lists: a difference, a merge, a product and a join with no entries
    zero = np.zeros((k, n, n), np.complex128)
    assert_bits(PairCoords.of(zero) - PairCoords.of(zero), zero)
    assert_bits(PairCoords.merged((k, n, n), np.zeros(0, np.intp), zero[:0, 0, 0]), zero)
    assert_bits(PairCoords.of(np.zeros_like(a)) @ m, np.zeros((rows, cols, width)))
    axis = int(rng.integers(3))
    assert_bits(joined(zero, axis, np.eye(zero.shape[axis])), zero)
    assert_bits(joined(x, 0, np.zeros((k, 2))), np.zeros((2, n, n), np.complex128))

    # a long list over one to four axes splits its keys like np.unravel_index
    shape = tuple(int(s) for s in rng.integers(1, 30, rng.integers(1, 5)))
    key = np.sort(rng.choice(math.prod(shape), min(3000, math.prod(shape)), replace=False))
    assert_entry_list(PairCoords(shape, key, rng.random(len(key)) + 1.0))


def test_nan_on_a_row_of_ys_that_no_x_reaches_is_the_result():
    # every x_i reads column 0 only, so the join never meets row 3 of a y_j
    xs = np.zeros((2, 4, 4), np.complex128)
    xs[:, :, 0] = 1.0
    ys = np.zeros((3, 4, 4), np.complex128)
    ys[:, 0, 1] = 2.0
    assert pair_max(xs, ys) == pytest.approx(4.0)
    ys[1, 3, 2] = np.nan
    assert np.isnan(pair_max(xs, ys))
    assert np.isnan(pinned("sparse", xs=xs, ys=ys))


class TestAntilinear:
    def test_conjugate_matches_vector_action(self):
        # J T J^{-1} applied to psi must equal J(T(J^{-1} psi))
        rng = np.random.default_rng(RNG_SEED + 4)
        u, _ = np.linalg.qr(rand_mat(rng, 4))
        j = AntilinearOperator(u)
        assert j.dim == 4
        t = rand_mat(rng, 4)
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # J psi = U conj(psi), and J^{-1} psi solves J x = psi: x = conj(U^dagger psi)
        x = np.conj(dagger(u) @ psi)
        assert np.allclose(j.conjugate(t) @ psi, u @ np.conj(t @ x))

    def test_square_signs(self):
        j = AntilinearOperator(np.eye(3))
        assert match_sign(j.square(), np.eye(3))[0] == 1
        # sigma_y style square: J^2 = -1
        j = AntilinearOperator(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert match_sign(j.square(), np.eye(2))[0] == -1

    def test_square_ambiguous_raises(self):
        # U conj(U) = diag(-i, i), which matches neither +id nor -id
        j = AntilinearOperator(np.array([[0.0, 1.0], [1j, 0.0]]))
        with pytest.raises(ValueError):
            match_sign(j.square(), np.eye(2))


def test_match_sign_plus_minus_and_failures():
    rng = np.random.default_rng(RNG_SEED + 5)
    x = rand_mat(rng, 3)
    assert match_sign(x, x)[0] == 1
    assert match_sign(x, -x)[0] == -1
    # an undecided sign raises with the evidence it was decided on
    with pytest.raises(ValueError) as info:
        match_sign(np.zeros((2, 2)), np.zeros((2, 2)))  # ambiguous
    assert info.value.evidence == (0.0, 0.0, DEFAULT_TOL.bound(1.0))
    with pytest.raises(ValueError) as info:
        match_sign(x, 1j * x)  # neither sign fits
    bound = DEFAULT_TOL.bound(max(1.0, fro(x)))
    assert info.value.evidence == (fro(x - 1j * x), fro(x + 1j * x), bound)


def test_match_sign_evidence_is_exact():
    rng = np.random.default_rng(RNG_SEED + 6)
    x = rand_mat(rng, 3)
    y = -x + 1e-12 * rand_mat(rng, 3)
    tol = Tolerance(rel=1e-9, abs=1e-11)
    sign, evidence = match_sign(x, y, tol)
    bound = tol.bound(max(fro(x), fro(y), 1.0))
    assert sign == -1
    assert evidence == (fro(x - y), fro(x + y), bound)
    assert sign_fits([1, -1], [evidence, evidence]) == [
        (fro(x - y), bound),
        (fro(x + y), bound),
    ]


@pytest.mark.parametrize("side", ["x", "y"])
def test_match_sign_of_a_nan_operand_fits_no_sign(side):
    x = np.eye(2, dtype=np.complex128)
    y = x.copy()
    (x if side == "x" else y)[0, 1] = np.nan
    with pytest.raises(ValueError, match="no sign fits") as info:
        match_sign(x, y)
    # the NaN norm is passed over: the bound is at the other side's scale
    r_plus, r_minus, bound = info.value.evidence
    assert np.isnan(r_plus) and np.isnan(r_minus)
    assert bound == DEFAULT_TOL.bound(np.sqrt(2))


def test_nullspace_known_kernel():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    basis, sv = nullspace(a)
    assert basis.shape == (3, 1)
    assert sv.shape == (1,)
    assert sv[0] < 1e-12
    assert fro(a @ basis) < 1e-12
    # returned basis is orthonormal
    assert np.allclose(dagger(basis) @ basis, np.eye(1))


def test_commutant_of_irreducible_set_is_scalars():
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    basis = intertwiners([sx, sz], [sx, sz])
    assert len(basis) == 1
    m = basis[0]
    assert fro(m - m[0, 0] * np.eye(2)) < 1e-12


def test_commutant_of_scalars_is_everything():
    basis = intertwiners([np.eye(3)], [np.eye(3)])
    assert len(basis) == 9


def test_intertwiners_between_equivalent_reps():
    # conjugated copy of an irreducible pair: intertwiner space is 1-dim
    rng = np.random.default_rng(RNG_SEED + 6)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    w, _ = np.linalg.qr(rand_mat(rng, 2))
    lhs = [sx, sz]
    rhs = [dagger(w) @ sx @ w, dagger(w) @ sz @ w]
    basis = intertwiners(lhs, rhs)
    assert len(basis) == 1
    x = basis[0]
    assert fro(sx @ x - x @ rhs[0]) < 1e-10


def test_intertwiners_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        intertwiners([np.eye(2)], [np.eye(2), np.eye(2)])
    with pytest.raises(ValueError):
        intertwiners([np.eye(2)], [np.eye(3)])


def test_intertwiner_space_pairs_satisfy_relation():
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    pairs = intertwiner_space([sx, sz], [sx, sz])
    for a, b in pairs:
        assert fro(sx @ a - b @ sx) < 1e-10
        assert fro(sz @ a - b @ sz) < 1e-10
    # gamma^mu A = B gamma^mu with one anticommuting pair: A scalar forces
    # B = A on sz and B = A on sx only when both are the same scalar
    assert len(pairs) == 2


def test_residual_against_span_real_coefficients_only():
    e1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    e2 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=np.complex128)
    assert residual_against_span(3 * e1 - 2 * e2, [e1, e2]) < 1e-12
    # 1j*e1 is not in the real span of {e1}
    r = residual_against_span(1j * e1, [e1])
    assert r == pytest.approx(1.0, rel=1e-10)
    off = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    assert residual_against_span(off, [e1, e2]) == pytest.approx(1.0, rel=1e-10)


def uncompressed_residual(target, span) -> float:
    """The span test on the full real form: every position, every matrix."""
    t = as_matrix(target).reshape(-1)
    cols = np.stack([as_matrix(s).reshape(-1) for s in span], axis=1)
    a = np.vstack([cols.real, cols.imag])
    b = np.concatenate([t.real, t.imag])
    coeff = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.linalg.norm(b - a @ coeff))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 3),
    pad=st.integers(0, 3),
    rank=st.integers(1, 3),
    extra=st.integers(0, 4),
    off=st.sampled_from(["none", "off-support", "anywhere"]),
)
def test_span_residual_equals_the_uncompressed_solve(seed, m, pad, rank, extra, off):
    # a low-rank real span of m x m blocks, zero-padded into n x n matrices
    rng = np.random.default_rng(seed)
    n = m + pad
    base = rng.standard_normal((rank, m, m)) + 1j * rng.standard_normal((rank, m, m))
    small = np.einsum("kr,rij->kij", rng.standard_normal((rank + extra, rank)), base)
    i0, j0 = rng.integers(0, pad + 1, size=2)
    span = np.zeros((rank + extra, n, n), dtype=np.complex128)
    span[:, i0 : i0 + m, j0 : j0 + m] = small
    target = np.einsum("k,kij->ij", rng.standard_normal(len(span)), span)
    if off == "off-support":
        target = target + rand_mat(rng, n) * ~span.any(axis=0)
    elif off == "anywhere":
        target = target + rand_mat(rng, n)
    expected = uncompressed_residual(target, span)
    got = residual_against_span(target, span)
    assert abs(got - expected) <= 1e-12 * max(1.0, fro(target))
    # the same span given as its entries gives the same bits
    assert residual_against_span(target, Operand(PairCoords.of(span))) == got
    if off == "none":
        assert got <= 1e-12 * max(1.0, fro(target))


def test_span_residual_keeps_a_target_entry_where_the_span_is_zero():
    rng = np.random.default_rng(RNG_SEED)
    span = np.zeros((5, 4, 4), dtype=np.complex128)
    span[:, :2, :2] = rng.standard_normal((5, 2, 2)) + 1j * rng.standard_normal((5, 2, 2))
    target = np.zeros((4, 4), dtype=np.complex128)
    target[3, 1] = 3.0 - 4.0j
    # the entry's rows are zero in every column: the solve fits nothing there
    assert residual_against_span(target, span) == 5.0
    assert residual_against_span(target, list(span)) == 5.0
    assert residual_against_span(target, Operand(PairCoords.of(span))) == 5.0


def test_span_residual_of_an_all_zero_span_is_the_target_norm():
    target = np.array([[1.0, 2.0j], [0.0, -2.0]], dtype=np.complex128)
    assert residual_against_span(target, np.zeros((3, 2, 2))) == fro(target) == 3.0
    assert residual_against_span(target, []) == 3.0
    assert residual_against_span(target, Operand(PairCoords.of(np.zeros((3, 2, 2))))) == 3.0
    assert residual_against_span(np.zeros((2, 2)), np.zeros((3, 2, 2))) == 0.0


def test_span_residual_rejects_a_span_of_another_shape():
    with pytest.raises(ValueError):
        residual_against_span(np.eye(2), np.zeros((3, 3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("where", ["target", "span"])
def test_span_residual_of_a_nonfinite_operand_is_nan(capfd, bad, where):
    e1 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    target, span = 2 * e1, np.stack([e1, np.eye(2, dtype=np.complex128)])
    if where == "target":
        target[1, 0] = bad
    else:
        span[1, 0, 1] = bad
    r = residual_against_span(target, span)
    assert np.isnan(r)
    # decided before LAPACK, which would print to stderr or fail to converge
    assert capfd.readouterr().err == ""
    rep = Report("span")
    rec = rep.check("lies in the span", r, Tolerance(rel=1e-8, abs=1e-8), 1.0)
    assert not rec.passed and not rep.ok


@pytest.mark.parametrize("seed", [7, 29])
def test_compose_solves_the_span_test_on_the_grid_support(monkeypatch, seed):
    # a twisted M3 (+) C geometry on M_4 (catalogue entry 4): the one-form
    # grid is 2 n^2 = 512 real positions by G^2 = 1600 matrices (G = 40
    # generators of the doubled algebra)
    rng = np.random.default_rng(seed)
    g = random_matrix_geometry(rng, 4)
    while g.algebra.signature() != (("M", 3), ("C", None)):
        g = random_matrix_geometry(rng, 4)
    tg = twist_by_grading(g)
    forms = [random_one_form(rng, tg) for _ in range(2)]
    shapes, lstsq = [], np.linalg.lstsq

    def spy(a, b, rcond=None):
        shapes.append(a.shape)
        return lstsq(a, b, rcond=rcond)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    report = compose_fluctuations(tg, *forms)
    assert report.ok, report.format_text()
    ((rows, cols),) = shapes
    assert rows == 48 < 2 * g.hilbert_dim**2
    assert cols < len(tg.algebra.generator_rows) ** 2
