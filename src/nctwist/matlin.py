"""Complex linear algebra helpers: tolerances, the pair kernel, solvers.

Everything in the package works with square ``numpy.ndarray`` matrices of
dtype complex128.  This module collects the primitives the rest of the code
is built on: the tolerance and its bound, ``pair_max``, the one walk over
generators or generator pairs behind every order, regularity and
multiplicativity check (``pair_residual`` is its commutator form), which
evaluates on dense slices or on the nonzero entries of its operands,
antilinear operators in unitary-times-conjugation form, the SVD nullspace
and the distance to a real span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute tolerance pair used by every numerical decision.

    A residual r measured against a scale s passes when
    ``r <= rel * s + abs``.  The same ``rel`` drives the singular-value
    cutoff in nullspace computations.  Both must be finite and
    non-negative (zero is allowed): an infinite bound passes every check,
    and a negative or NaN one fails every check.
    """

    rel: float = DEFAULT_RTOL
    abs: float = DEFAULT_ATOL

    def __post_init__(self):
        for name, value in (("rel", self.rel), ("abs", self.abs)):
            if not 0.0 <= value < np.inf:
                raise ValueError(
                    f"tolerance {name} must be finite and non-negative, got {value}"
                )

    def bound(self, scale: float = 1.0) -> float:
        """``rel * scale + abs``: the largest residual accepted at ``scale``."""
        return self.rel * scale + self.abs

    def accepts(self, residual: float, scale: float = 1.0) -> bool:
        return residual <= self.bound(scale)


DEFAULT_TOL = Tolerance()


def as_matrix(a, allow_nonsquare: bool = False) -> np.ndarray:
    """Coerce input to a 2-d complex128 array, checking squareness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    if not allow_nonsquare and m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def fro(a: np.ndarray) -> float:
    """Frobenius norm; the norm behind every vanishes/bounded decision."""
    return float(np.linalg.norm(a))


def worst(residuals, floor: float = 0.0) -> float:
    """Largest of ``residuals`` and ``floor``; a NaN anywhere is the result.

    The builtin ``max`` keeps its running value when compared with NaN, so
    a non-finite residual after the first would silently pass.
    """
    return float(np.max(np.fromiter(residuals, dtype=float), initial=floor))


def tightest(checks) -> tuple[float, float]:
    """The failing ``(residual, bound)`` of ``checks``, else the one nearest its bound.

    A NaN residual fails.
    """
    failing = [c for c in checks if not c[0] <= c[1]]
    return (failing or sorted(checks, key=lambda c: c[1] - c[0]))[0]


def generator_scale(images) -> float:
    """``max(1, max_k ||images[k]||)``: the scale of a stack of generator images."""
    return worst((fro(m) for m in images), 1.0)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, complex128."""
    return np.kron(
        np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    )


def anticommutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y + y @ x


# the sparse evaluator runs when the dense multiply-adds outnumber its
# product terms by at least this factor
_SPARSE_FACTOR = 256


def pair_max(xs=None, ys=None, zs=None, coords=None, stack=None) -> float:
    """``max_{i,j} ||sum_b coords[i, j, b] stack[b] - xs[i] ys[j] + zs[j] xs[i]||``.

    The one walk over generators or generator pairs.  Each part of the
    difference is optional: ``xs`` and ``ys`` come together, ``zs`` needs
    them, and ``coords`` (real, ``(rows, cols, B)``) needs ``stack``
    (``(B, n, n)``).  An empty side gives 0.0, and a NaN or inf anywhere in
    an operand makes the result NaN.

    Two evaluators give the same maximum.  The dense one walks rows outer
    and slices of ``max(1, 32768 // n^2)`` columns inner, which keeps its
    temporaries small on large n.  The sparse one (``_sparse_pair_max``)
    joins the nonzero entries of the operands on their shared index.  It
    runs when its term count, read from the nonzero counts of each shared
    index, is at least ``_SPARSE_FACTOR`` times below the dense
    multiply-add count.
    """
    rows = len(xs) if xs is not None else len(coords)
    cols = len(ys) if ys is not None else coords.shape[1]
    if rows == 0 or cols == 0:
        return 0.0
    # the join skips products with zero, so it cannot carry a NaN through
    given = [a for a in (xs, ys, zs, coords, stack) if a is not None]
    if not all(np.isfinite(a).all() for a in given):
        return float("nan")
    n = (xs if xs is not None else stack).shape[-1]
    joins = _joins(xs, ys, zs, coords, stack, cols, n)
    terms = sum(int(left[3] @ right[3]) for _, left, right in joins)
    used = 0 if coords is None else np.count_nonzero(coords.any(axis=(0, 1)))
    products = (xs is not None) + (zs is not None)
    if terms * _SPARSE_FACTOR <= rows * cols * n * n * (products * n + used):
        return _sparse_pair_max(joins, n)

    flat = None if stack is None else stack.view(np.float64).reshape(len(stack), -1)

    def block(i, s):
        out = 0.0
        if coords is not None:
            c = coords[i, s]
            col = np.flatnonzero((c != 0).any(axis=0))
            out = (c[:, col] @ flat[col]).view(np.complex128).reshape(-1, n, n)
        if xs is not None:
            out = out - xs[i] @ ys[s]
        if zs is not None:
            out = out + zs[s] @ xs[i]
        return out

    step = max(1, 32768 // n**2)
    return worst(
        np.linalg.norm(block(i, slice(j, j + step)), axis=(-2, -1)).max()
        for i in range(rows)
        for j in range(0, cols, step)
    )


def _joins(xs, ys, zs, coords, stack, cols, n):
    """The products of a pair difference, as ``(sign, left, right)`` sides.

    An entry's key weights its three indices, so that a term of pair (i, j)
    at entry (r, c) has the key ``((i cols + j) n + r) n + c``, the sum of
    the keys of its two factors.  The shared axis has weight 0.
    """
    pair, mat = cols * n * n, n * n
    out = []
    if coords is not None:  # coords[i, j, b] stack[b, r, c]
        out.append((1.0, _side(coords, 2, (pair, mat, 0)), _side(stack, 0, (0, n, 1))))
    if xs is not None:  # xs[i, r, k] ys[j, k, c]
        out.append((-1.0, _side(xs, 2, (pair, n, 0)), _side(ys, 1, (mat, 0, 1))))
    if zs is not None:  # zs[j, r, k] xs[i, k, c]
        out.append((1.0, _side(zs, 2, (mat, n, 0)), _side(xs, 1, (pair, 0, 1))))
    return out


def _side(a: np.ndarray, shared: int, weights: tuple) -> tuple:
    """``(a, shared, weights, count)``: ``count[k]`` nonzeros at shared index k."""
    others = tuple(k for k in range(3) if k != shared)
    return a, shared, weights, np.count_nonzero(a, axis=others)


def _sparse_pair_max(joins, n: int) -> float:
    """``pair_max`` from the nonzero entries of its operands.

    Every term of every product is formed for all pairs at once, by joining
    the entries of the two factors on their shared index (sort, then
    ``repeat``): the textbook sparse product (Gustavson, ACM TOMS 4(3),
    1978).  Terms of one key are summed, then the squared moduli of each
    pair's keys.  Operands must be finite.
    """
    keys, values = [], []
    for sign, left, right in joins:
        (ls, lk, lv), (rs, rk, rv) = _entries(left), _entries(right)
        rcount = right[3]
        # the right entries of shared index k sit from start[k] in sorted order
        order = np.argsort(rs, kind="stable")
        start = np.cumsum(rcount) - rcount
        count = rcount[ls]
        li = np.repeat(np.arange(len(ls)), count)
        offset = np.repeat(start[ls] - np.cumsum(count) + count, count)
        ri = order[np.arange(len(li)) + offset]
        keys.append(lk[li] + rk[ri])
        values.append((sign * lv)[li] * rv[ri])
    key, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    value = np.concatenate(values)
    square = np.bincount(inverse, value.real) ** 2 + np.bincount(inverse, value.imag) ** 2
    per_pair = np.bincount(key // (n * n), square)
    return float(np.sqrt(per_pair.max(initial=0.0)))


def _entries(side):
    """``(shared index, key, value)`` of the nonzero entries of one side."""
    a, shared, weights, _ = side
    idx = np.nonzero(a)
    return idx[shared], sum(w * k for w, k in zip(weights, idx) if w), a[idx]


def pair_residual(xs, ys, zs=None) -> float:
    """``max_{i,j} ||xs[i] ys[j] - zs[j] xs[i]||`` over ``(G, n, n)`` stacks.

    ``zs`` defaults to ``ys`` (plain commutators); passing the twisted
    images gives twisted ones, and ``xs = [I]`` a single-generator maximum
    of ``||ys[j] - zs[j]||`` (``pair_max``).  A NaN anywhere is the result.
    """
    xs = np.asarray(xs, dtype=np.complex128)
    ys = np.asarray(ys, dtype=np.complex128)
    zs = ys if zs is None else np.asarray(zs, dtype=np.complex128)
    return pair_max(xs, ys, zs)


@dataclass(frozen=True)
class AntilinearOperator:
    """Antilinear operator stored as ``psi -> unitary @ conj(psi)``.

    The unitary part is mandatory: the conjugation convention is fixed so
    that composition and conjugation of linear operators are unambiguous.
    """

    unitary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "unitary", as_matrix(self.unitary))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]

    def conjugate(self, t: np.ndarray) -> np.ndarray:
        """Return J T J^{-1} = U conj(T) U^dagger for linear T, or a stack of T."""
        t = np.asarray(t, dtype=np.complex128)
        return self.unitary @ np.conj(t) @ dagger(self.unitary)

    def square(self) -> np.ndarray:
        """The linear operator J^2 = U conj(U)."""
        return self.unitary @ np.conj(self.unitary)

    def sign_of_square(self, tol: Tolerance = DEFAULT_TOL) -> int:
        """Return +1 or -1 such that J^2 = sign * id, else raise."""
        return match_sign(self.square(), np.eye(self.dim), tol, what="J^2")


def match_sign(
    x: np.ndarray,
    y: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    what: str = "operator pair",
) -> int:
    """Decide the sign s in x = s*y with s in {+1, -1}.

    Raises ValueError when neither or both signs fit within tolerance (the
    degenerate case x = y = 0 is reported as ambiguous rather than guessed).
    """
    scale = max(fro(x), fro(y), 1.0)
    r_plus = fro(x - y)
    r_minus = fro(x + y)
    ok_plus = tol.accepts(r_plus, scale)
    ok_minus = tol.accepts(r_minus, scale)
    if ok_plus and not ok_minus:
        return 1
    if ok_minus and not ok_plus:
        return -1
    if ok_plus and ok_minus:
        raise ValueError(f"ambiguous sign for {what}: both signs fit")
    raise ValueError(
        f"no sign fits {what}: residuals +:{r_plus:.3e} -:{r_minus:.3e}"
    )


def nullspace(
    mat: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of the right nullspace of ``mat``.

    Singular values below ``tol.rel * smax`` (or below ``tol.abs`` when the
    matrix is identically zero) count as zero.  Returns ``(basis, sv)``
    where the columns of ``basis`` span the nullspace, ordered so that the
    most reliably null directions come first, and ``sv`` holds the
    corresponding singular values.
    """
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.size == 0:
        n = mat.shape[1]
        return np.eye(n, dtype=np.complex128), np.zeros(n)
    # U is never read; a wide matrix still needs all of vh for its null rows
    _, s, vh = np.linalg.svd(mat, full_matrices=mat.shape[0] < mat.shape[1])
    smax = s[0] if s.size else 0.0
    cutoff = max(tol.rel * smax, tol.abs)
    ncols = mat.shape[1]
    sv_full = np.concatenate([s, np.zeros(ncols - s.size)])
    null_mask = sv_full < cutoff
    basis = vh[null_mask].conj().T
    # ascending singular value: most null first
    order = np.argsort(sv_full[null_mask])
    return basis[:, order], sv_full[null_mask][order]


def residual_against_span(
    target: np.ndarray,
    span: Sequence[np.ndarray],
) -> float:
    """Distance from ``target`` to the real span of ``span`` matrices (or a stack).

    Real coefficients keep quaternionic blocks honest: the spanning sets
    used by callers are real bases of the algebras involved.  Stacking real
    and imaginary parts turns the least-squares problem into a real one.
    """
    t = as_matrix(target).reshape(-1)
    if len(span) == 0:
        return fro(target)
    cols = np.stack([as_matrix(s).reshape(-1) for s in span], axis=1)
    a = np.vstack([cols.real, cols.imag])
    b = np.concatenate([t.real, t.imag])
    coeff = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.linalg.norm(b - a @ coeff))
