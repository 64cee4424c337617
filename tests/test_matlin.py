"""Dense-matrix helpers: norms, conjugations, nullspaces; the Kronecker reference solvers."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nctwist import matlin
from nctwist.matlin import (
    DEFAULT_TOL,
    AntilinearOperator,
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
)

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
    return pair_max(coords=coords, stack=diffs.reshape(-1, n, n))


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


def pinned(path, **operands):
    """``pair_max`` with its choice fixed to ``"sparse"`` or ``"dense"``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matlin, "_SPARSE_FACTOR", {"sparse": 0, "dense": 2**62}[path])
        return pair_max(**operands)


def draw_sparse(case):
    """Operands of one caller's form, as ``pair_max`` keywords.

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
    assert pair_max(**operands) == pytest.approx(want, rel=1e-13, abs=1e-13)


@settings(max_examples=80, deadline=None)
@given(sparse_cases, st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_sparse_evaluator_nonfinite_anywhere_is_nan(case, bad, data):
    operands = draw_sparse(case)
    target = operands[data.draw(st.sampled_from(sorted(operands)))]
    target[tuple(data.draw(st.integers(0, d - 1)) for d in target.shape)] = bad
    assert np.isnan(pinned("sparse", **operands))
    assert np.isnan(pinned("dense", **operands))


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
        assert AntilinearOperator(np.eye(3)).sign_of_square() == 1
        # sigma_y style square: J^2 = -1
        u = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert AntilinearOperator(u).sign_of_square() == -1

    def test_square_ambiguous_raises(self):
        # U conj(U) = diag(-i, i), which matches neither +id nor -id
        u = np.array([[0.0, 1.0], [1j, 0.0]])
        with pytest.raises(ValueError):
            AntilinearOperator(u).sign_of_square()


def test_match_sign_plus_minus_and_failures():
    rng = np.random.default_rng(RNG_SEED + 5)
    x = rand_mat(rng, 3)
    assert match_sign(x, x) == 1
    assert match_sign(x, -x) == -1
    with pytest.raises(ValueError):
        match_sign(np.zeros((2, 2)), np.zeros((2, 2)))  # ambiguous
    with pytest.raises(ValueError):
        match_sign(x, 1j * x)  # neither sign fits


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
