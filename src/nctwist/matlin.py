"""Complex linear algebra helpers: tolerances, the pair kernel, solvers.

Everything in the package works with square ``numpy.ndarray`` matrices of
dtype complex128.  This module collects the primitives the rest of the code
is built on: the tolerance and its bound, ``pair_max``, the one walk over
generators or generator pairs behind every order, regularity and
multiplicativity check (``pair_residual`` is its commutator form), which
evaluates on dense slices or on the nonzero entries of its operands (each
an ``Operand``, a stack given densely or as its entries, which keeps what
the kernel reads off it) and reads coordinates over pairs as the entry list
``PairCoords``; ``built``, which derives a stack from a parent's entries
where that gives the dense formula's bits; antilinear
operators in unitary-times-conjugation form, the SVD nullspace and the
distance to a real span.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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


def worst(residuals) -> float:
    """Largest of ``residuals``, 0 when there are none; a NaN anywhere is the result.

    The builtin ``max`` keeps its running value when compared with NaN, so
    a non-finite residual after the first would silently pass.
    """
    return float(np.max(np.fromiter(residuals, dtype=float), initial=0.0))


def tightest(checks) -> tuple[float, float]:
    """The failing ``(residual, bound)`` of ``checks``, else the one nearest its bound.

    A NaN residual fails.
    """
    failing = [c for c in checks if not c[0] <= c[1]]
    return (failing or sorted(checks, key=lambda c: c[1] - c[0]))[0]


def generator_scale(images) -> float:
    """``max(1, max_k ||images[k]||)`` over the finite norms (``match_sign`` also
    passes over a NaN norm): the scale of a stack of generator images."""
    norms = np.fromiter((fro(m) for m in images), dtype=float)
    return float(np.max(norms[np.isfinite(norms)], initial=1.0))


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

# the fixed cost, in dense multiply-adds, of a join in a product by U, D or a
# projection (``built``): its few dozen numpy calls took 35-50 us on small
# stacks (one OpenBLAS thread), about what BLAS takes for this many
# multiply-adds on small matrices.  Tuned on its own, not from _SPARSE_FACTOR:
# without it the n <= 9 products joined and ran 5-10% slower
_JOIN_OVERHEAD = 65536


def distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ascending distinct values of an integer ``key`` and where each entry went.

    ``np.unique(key, return_inverse=True)`` by a stable sort.
    """
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.diff(ordered, prepend=ordered[:1] - 1) != 0
    at = np.empty_like(order)
    at[order] = np.cumsum(new) - 1
    return ordered[new], at


class Operand:
    """A ``(k, n, n)`` complex stack, with what the pair kernel reads off it.

    ``pair_max`` reads three facts off each stack: whether it is finite, how
    many nonzeros sit in each matrix, at each row and at each column, and
    the nonzero entries themselves.  Each is found on first read and kept, so a
    stack that is built once and shared (a representation's basis or
    generator images, a twisted geometry's generator stacks) is scanned once
    however many checks read it.

    A stack is given either densely (``Operand(stack)``) or as its nonzero
    entries (``Operand.of_entries``, which ``built`` uses).  An entry-built
    operand reads its counts off the entries and forms ``array``, the dense
    view, only when something reads it.  ``array`` is read-only; a dense
    stack must not change through another reference once read.
    """

    def __init__(self, stack):
        array = np.asarray(stack, dtype=np.complex128).view()
        array.flags.writeable = False
        self.shape = array.shape
        self.array = array
        self.dense = True

    @classmethod
    def of(cls, stack) -> "Operand":
        """``stack`` itself if it is an ``Operand``, else an ``Operand`` of it."""
        return stack if isinstance(stack, cls) else cls(stack)

    @classmethod
    def of_entries(cls, shape: tuple, idx: tuple, values: np.ndarray) -> "Operand":
        """The stack of ``shape`` whose nonzeros are ``values`` at ``idx``.

        The entries must be finite and nonzero and come in ``np.nonzero`` order.
        """
        out = cls.__new__(cls)
        out.shape, out.dense, out.finite = tuple(map(int, shape)), False, True
        out.entries = idx, values
        return out

    @classmethod
    def of_keys(cls, shape: tuple, key: np.ndarray, values: np.ndarray) -> "Operand":
        """``of_entries`` with each entry's index given by its C-order flat key.

        The keys must be distinct; they are sorted here unless they come in
        order already.
        """
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key, values = key[order], values[order]
        k, rc = np.divmod(key, shape[1] * shape[2])
        return cls.of_entries(shape, (k, *np.divmod(rc, shape[2])), values)

    @cached_property
    def array(self) -> np.ndarray:
        """The dense stack, formed from the entries on first read."""
        out = np.zeros(self.shape, np.complex128)
        idx, values = self.entries
        out[idx] = values
        out.flags.writeable = False
        return out

    @cached_property
    def finite(self) -> bool:
        return bool(np.isfinite(self.array).all())

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The number of nonzeros in each matrix, at each row and at each column."""
        if not self.dense:
            idx, _ = self.entries
            return tuple(np.bincount(i, minlength=m) for i, m in zip(idx, self.shape))
        nonzero = self.array != 0
        rows = nonzero.sum(axis=2, dtype=np.intp)
        cols = nonzero.sum(axis=1, dtype=np.intp)
        return rows.sum(axis=1), rows.sum(axis=0), cols.sum(axis=0)

    @cached_property
    def entries(self) -> tuple[tuple, np.ndarray]:
        """``(indices, values)`` of the nonzeros, as ``np.nonzero`` orders them."""
        idx = np.nonzero(self.array)
        return idx, self.array[idx]

    @cached_property
    def _orders(self) -> dict:
        return {}

    def ordered(self, axis: int) -> tuple[tuple, np.ndarray]:
        """``entries`` stably sorted by their index on ``axis``; sorted once per axis.

        ``np.nonzero`` order is already sorted on axis 0.
        """
        if axis not in self._orders:
            self._orders[axis] = _sorted_by(self.entries, axis)
        return self._orders[axis]


def _sorted_by(entries: tuple, axis: int) -> tuple[tuple, np.ndarray]:
    """``entries`` stably sorted by their index on ``axis``."""
    idx, values = entries
    if axis == 0:
        return entries
    order = np.argsort(idx[axis], kind="stable")
    return tuple(i[order] for i in idx), values[order]


def built(dense, a: Operand, steps, conj: bool) -> Operand:
    """A stack derived from ``a``, from its nonzero entries when that is exact.

    ``steps`` apply in turn to ``a`` (to ``conj(a)`` when ``conj``), each a
    ``(m, axis)`` with a 2-d ``m``: axis 0 gives ``sum_b m[p, b] a[b]`` (the
    images of coordinate rows), axis 1 ``m @ a[k]`` and axis 2 ``a[k] @ m``.
    ``dense()`` is the same stack by the dense BLAS formula.

    A stack given densely, or a non-finite ``a`` or ``m``, takes the dense
    formula: ``Operand(dense())``.  Otherwise each step is the sparse
    product of the nonzero entries (``_join``) when that is cheaper by the
    measure of ``pair_max``: a join costs ``_SPARSE_FACTOR`` dense
    multiply-adds per term, its terms read from the nonzero counts of each
    shared index.  A product by U, D or a projection (axes 1 and 2) adds
    ``_JOIN_OVERHEAD`` for the join's fixed cost; images at coordinate rows
    (axis 0) add none, since their real coefficients need no purity check
    and their dense formula would first form ``a``'s dense view.  A product is kept only when it gives the bits of the dense
    formula: every entry is a single product, and one factor of each product
    is purely real or purely imaginary, so that every rounding order of BLAS
    rounds it alike.  A step that is not kept ends in the dense formula.
    """
    if a.dense or not all(np.isfinite(m).all() for m, _ in steps):
        return Operand(dense())
    for m, axis in steps:
        a = _product(m, a, axis, conj)
        conj = False
        if a is None:
            return Operand(dense())
    return a


def _product(m: np.ndarray, a: Operand, axis: int, conj: bool) -> Operand | None:
    """One step of ``built`` on the entries of finite ``m`` and entry-built
    ``a``, or None where the dense formula is cheaper or not exactly met."""
    n = a.shape[-1]
    if axis:  # a product by U, D or a projection, and the join's fixed cost
        cost, fixed = a.shape[0] * n**3, _JOIN_OVERHEAD
        if fixed > cost:
            return None
    # m, transposed for axis 1, so that for axes 1 and 2 its rows run over
    # the shared index (for axis 0, m[p, b] shares its columns)
    mt = m.T if axis == 1 else m
    mcount = np.count_nonzero(mt, axis=0 if axis == 0 else 1)
    if axis == 0:  # real multiply-adds, four to a complex one
        cost, fixed = len(m) * int(np.count_nonzero(mcount)) * n * n // 2, 0
    if int(mcount @ a.counts[axis]) * _SPARSE_FACTOR + fixed > cost:
        return None
    mi, mj = np.nonzero(mt)
    mv = mt[mi, mj]
    idx, av = a.entries
    av = np.conj(av) if conj else av
    if axis == 0:  # m[p, b] a[b, r, c]; a's entries come sorted by b
        left, lv = (mj, mi * (n * n)), mv
        rkey, rv, rcount = idx[1] * n + idx[2], av, a.counts[0]
        shape = (len(m), n, n)
    else:  # a[k, r, s] m[s, c], or a[k, s, c] m.T[s, r]; m's entries sorted by s
        kept = idx[1] * n if axis == 2 else idx[2]
        left, lv = (idx[axis], idx[0] * (n * n) + kept), av
        rkey, rv, rcount = (mj if axis == 2 else mj * n), mv, mcount
        shape = a.shape
    key, li, ri = _join(left, rkey, rcount)
    pure, mpure = _pure(av), True
    if pure is not True and (mpure := _pure(mv)) is not True:
        lp, rp = (mpure, pure) if axis == 0 else (pure, mpure)
        if not (lp[li] | rp[ri]).all():
            return None
    value = lv[li] * rv[ri]
    keep = value != 0  # an underflow
    if not keep.all():
        key, value = key[keep], value[keep]
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, value = key[order], value[order]
        if not (key[1:] > key[:-1]).all():  # a sum of products
            return None
    return Operand.of_keys(shape, key, value)


def _pure(v: np.ndarray):
    """True if every value of ``v`` is purely real or purely imaginary, else which are."""
    if not np.iscomplexobj(v):
        return True
    pure = (v.real == 0) | (v.imag == 0)
    return True if pure.all() else pure


def identity_kron(d: int, a: Operand) -> Operand:
    """The stack of ``I_d kron a[k]``, entry-built when ``a`` is."""
    if a.dense:
        return Operand(kron(np.eye(d)[None], a.array))
    (k, r, c), values = a.entries
    n = a.shape[-1]
    shift = np.arange(d)[:, None] * n  # block i moves each entry by i n
    key = ((k * d * n + shift + r) * d * n + shift + c).ravel()
    return Operand.of_keys((a.shape[0], d * n, d * n), key, np.tile(values, d))


def stacked(parts: Sequence[Operand]) -> Operand:
    """The concatenation of operand stacks of equal ``(n, n)``, entry-built when all are."""
    if any(p.dense for p in parts):
        return Operand(np.concatenate([p.array for p in parts]))
    start = np.cumsum([0] + [p.shape[0] for p in parts])
    idx = [p.entries[0] for p in parts]
    k = np.concatenate([i[0] + s for i, s in zip(idx, start)])
    rest = (np.concatenate([i[axis] for i in idx]) for axis in (1, 2))
    values = np.concatenate([p.entries[1] for p in parts])
    return Operand.of_entries((start[-1],) + parts[0].shape[1:], (k, *rest), values)


def adjoint(a: Operand) -> Operand:
    """The stack of conjugate transposes of ``a``'s matrices."""
    if a.dense:
        return Operand(dagger(a.array))
    (k, r, c), values = a.entries
    n = a.shape[-1]
    return Operand.of_keys(a.shape, (k * n + c) * n + r, np.conj(values))


def difference(x: Operand, y: Operand) -> Operand:
    """``x - y`` of operands of one shape, entry-built when both are.

    Each value is ``x - y`` at a shared entry, ``x`` or ``-y`` elsewhere: the
    bits of the dense subtraction.  Exact zeros are dropped.
    """
    if x.dense or y.dense:
        return Operand(x.array - y.array)
    n = x.shape[-1]
    (xi, xv), (yi, yv) = x.entries, y.entries
    keys = [(i[0] * n + i[1]) * n + i[2] for i in (xi, yi)]
    key, at = distinct(np.concatenate(keys))
    both = np.concatenate([xv, -yv])  # summed in order: x + (-y) is x - y
    value = np.empty(len(key), np.complex128)
    value.real = np.bincount(at, both.real, len(key))
    value.imag = np.bincount(at, both.imag, len(key))
    keep = value != 0
    return Operand.of_keys(x.shape, key[keep], value[keep])


@dataclass(frozen=True)
class PairCoords:
    """Real ``(rows, cols, B)`` coordinates over pairs, as their nonzero entries.

    Entry (i, j, b) has the key ``(i cols + j) B + b``, its index in the dense
    array read in C order.  Keys are unique and ascending and no value is
    zero: the list is what ``np.flatnonzero`` reads off the dense array.
    """

    shape: tuple[int, int, int]
    key: np.ndarray
    value: np.ndarray

    @classmethod
    def of(cls, a: np.ndarray) -> "PairCoords":
        """The entries of a dense ``(rows, cols, B)`` array."""
        key = np.flatnonzero(a)
        return cls(a.shape, key, a.reshape(-1)[key])

    @classmethod
    def summed(cls, shape: tuple, key: np.ndarray, value: np.ndarray) -> "PairCoords":
        """Entries of ``shape`` whose values sum ``value`` over equal ``key``s.

        Sums that are exactly zero are dropped.
        """
        key, at = distinct(key)
        value = np.bincount(at, value, len(key))
        keep = value != 0
        return cls(tuple(shape), key[keep], value[keep])

    def __sub__(self, other: "PairCoords") -> "PairCoords":
        key = np.concatenate([self.key, other.key])
        return PairCoords.summed(self.shape, key, np.concatenate([self.value, -other.value]))

    def __matmul__(self, m: np.ndarray) -> "PairCoords":
        """The entries of ``dense @ m`` for a real ``(B, B')`` matrix ``m``."""
        rows, cols, basis = self.shape
        mb, mc = np.nonzero(m)
        left = (self.key % basis, self.key // basis * m.shape[1], self.value)
        count = np.bincount(mb, minlength=basis)
        key, li, ri = _join(left[:2], mc, count)
        value = left[2][li] * m[mb, mc][ri]
        return PairCoords.summed((rows, cols, m.shape[1]), key, value)


def pair_max(xs=None, ys=None, zs=None, coords=None, stack=None) -> float:
    """``max_{i,j} ||sum_b coords[i, j, b] stack[b] - xs[i] ys[j] + zs[j] xs[i]||``.

    The one walk over generators or generator pairs.  Each part of the
    difference is optional: ``xs`` and ``ys`` come together, ``zs`` needs
    them, and ``coords`` (a ``PairCoords`` of shape ``(rows, cols, B)``)
    needs ``stack`` (``(B, n, n)``).  The stacks are ``Operand``s, or arrays
    that this call wraps in one (once, if one array is passed twice).  A NaN
    or inf anywhere in an operand makes the result NaN; otherwise an empty
    side, or a ``coords`` with no entries and no products, gives 0.0.

    Two evaluators give the same maximum.  The dense one walks rows outer
    and slices of ``max(1, 32768 // n^2)`` columns inner, which keeps its
    temporaries small on large n; it fills each slice's ``(columns, B)``
    coordinates from the entries.  The sparse one (``_sparse_pair_max``)
    joins the nonzero entries of the operands on their shared index, and
    reads the entries of ``coords`` as they are.  It runs when its term
    count, read from the nonzero counts of each shared index, is at least
    ``_SPARSE_FACTOR`` times below the dense multiply-add count.
    """
    xs, ys, zs, stack = _operands(xs, ys, zs, stack)
    rows = xs.shape[0] if xs is not None else coords.shape[0]
    cols = ys.shape[0] if ys is not None else coords.shape[1]
    if rows == 0 or cols == 0:
        return 0.0
    # the join skips products with zero, so it cannot carry a NaN through
    given = [a for a in (xs, ys, zs, stack) if a is not None]
    if not all(a.finite for a in given) or (
        coords is not None and not np.isfinite(coords.value).all()
    ):
        return float("nan")
    if xs is None and not len(coords.key):
        return 0.0
    n = (xs if xs is not None else stack).shape[-1]
    joins = _joins(xs, ys, zs, coords, stack, cols, n)
    terms = sum(int(left[0] @ right[0]) for _, left, right in joins)
    # the coords join comes first; its left count is per basis image
    used = 0 if coords is None else np.count_nonzero(joins[0][1][0])
    products = (xs is not None) + (zs is not None)
    if terms * _SPARSE_FACTOR <= rows * cols * n * n * (products * n + used):
        return _sparse_pair_max(joins, n)

    xs, ys, zs = (None if a is None else a.array for a in (xs, ys, zs))
    step = max(1, 32768 // n**2)
    if coords is not None:
        basis = coords.shape[2]
        flat = stack.array.view(np.float64).reshape(basis, -1)
        # where the entries of pair (i, j), in key order, start
        first = np.searchsorted(coords.key, np.arange(rows * cols + 1) * basis)

    def block(i, j):
        s = slice(j, min(j + step, cols))
        out = 0.0
        if coords is not None:
            lo, hi = first[i * cols + s.start], first[i * cols + s.stop]
            c = np.zeros((s.stop - s.start, basis))
            c.flat[coords.key[lo:hi] - (i * cols + j) * basis] = coords.value[lo:hi]
            col = np.flatnonzero((c != 0).any(axis=0))
            out = (c[:, col] @ flat[col]).view(np.complex128).reshape(-1, n, n)
        if xs is not None:
            out = out - xs[i] @ ys[s]
        if zs is not None:
            out = out + zs[s] @ xs[i]
        return out

    return worst(
        np.linalg.norm(block(i, j), axis=(-2, -1)).max()
        for i in range(rows)
        for j in range(0, cols, step)
    )


def _operands(*stacks) -> list:
    """``stacks`` as ``Operand``s; an array passed twice is wrapped once."""
    wrapped = {}
    for s in stacks:
        if s is not None and id(s) not in wrapped:
            wrapped[id(s)] = Operand.of(s)
    return [None if s is None else wrapped[id(s)] for s in stacks]


def _joins(xs, ys, zs, coords, stack, cols, n):
    """The products of a pair difference, as ``(sign, left, right)`` sides.

    An entry's key weights its three indices, so that a term of pair (i, j)
    at entry (r, c) has the key ``((i cols + j) n + r) n + c``, the sum of
    the keys of its two factors.  The shared axis has weight 0.
    """
    pair, mat = cols * n * n, n * n
    out = []
    if coords is not None:  # coords[i, j, b] stack[b, r, c]
        basis = coords.shape[2]
        b = coords.key % basis
        entries = (b, coords.key // basis * mat, coords.value)
        side = (np.bincount(b, minlength=basis), lambda: entries)
        out.append((1.0, side, _side(stack, 0, (0, n, 1))))
    if xs is not None:  # xs[i, r, k] ys[j, k, c]
        out.append((-1.0, _side(xs, 2, (pair, n, 0)), _side(ys, 1, (mat, 0, 1))))
    if zs is not None:  # zs[j, r, k] xs[i, k, c]
        out.append((1.0, _side(zs, 2, (mat, n, 0)), _side(xs, 1, (pair, 0, 1))))
    return out


def _side(a: Operand, shared: int, weights: tuple) -> tuple:
    """``(count, entries)`` of an operand, joined on its axis ``shared``.

    ``count[k]`` is the number of nonzeros at shared index k, and
    ``entries()`` lists them as ``(shared index, key, value)``.  A right side
    (joined on its axis 0 or 1) lists them sorted by shared index
    (``Operand.ordered``); a left side (axis 2) in ``np.nonzero`` order.
    """

    def entries():
        idx, values = a.ordered(shared) if shared < 2 else a.entries
        return idx[shared], sum(w * k for w, k in zip(weights, idx) if w), values

    return a.counts[shared], entries


def _join(left, rk, rcount):
    """Every pair of a left and a right entry that share an index.

    The left side is ``(shared index, key)``; the right entries are given by
    their keys ``rk``, sorted by shared index, and ``rcount[k]`` counts them
    at shared index k.  Returns the key of each product, the sum of the keys
    of its factors, and the positions ``li`` and ``ri`` of its factors; a
    left entry's products come together, in the order of the right entries.
    This is the textbook sparse product (Gustavson, ACM TOMS 4(3), 1978).
    """
    ls, lk = left
    # the right entries of shared index k sit from start[k]
    start = np.cumsum(rcount) - rcount
    count = rcount[ls]
    li = np.repeat(np.arange(len(ls)), count)
    ri = np.arange(len(li)) + np.repeat(start[ls] - np.cumsum(count) + count, count)
    return lk[li] + rk[ri], li, ri


def _sparse_pair_max(joins, n: int) -> float:
    """``pair_max`` from the nonzero entries of its operands.

    Every term of every product is formed for all pairs at once by
    ``_join``.  Terms of one key are summed, then the squared moduli of each
    pair's keys.  Operands must be finite.
    """
    keys, values = [], []
    for sign, (_, left), (rcount, right) in joins:
        (ls, lk, lv), (_, rk, rv) = left(), right()
        key, li, ri = _join((ls, lk), rk, rcount)
        keys.append(key)
        values.append(sign * (lv[li] * rv[ri]))
    key, inverse = distinct(np.concatenate(keys))
    value = np.concatenate(values)
    square = np.bincount(inverse, value.real) ** 2 + np.bincount(inverse, value.imag) ** 2
    per_pair = np.bincount(key // (n * n), square)
    return float(np.sqrt(per_pair.max(initial=0.0)))


def pair_residual(xs, ys, zs=None) -> float:
    """``max_{i,j} ||xs[i] ys[j] - zs[j] xs[i]||`` over ``(G, n, n)`` stacks.

    ``zs`` defaults to ``ys`` (plain commutators); passing the twisted
    images gives twisted ones, and ``xs = [I]`` a single-generator maximum
    of ``||ys[j] - zs[j]||`` (``pair_max``).  A NaN anywhere is the result.
    """
    return pair_max(xs, ys, ys if zs is None else zs)


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


def match_sign(
    x: np.ndarray,
    y: np.ndarray,
    tol: Tolerance = DEFAULT_TOL,
    what: str = "operator pair",
) -> tuple[int, tuple[float, float, float]]:
    """Decide the sign s in x = s*y with s in {+1, -1}; return ``(s, evidence)``.

    The evidence is ``(||x - y||, ||x + y||, bound)``: the residuals of both
    candidates and the bound at the scale ``max(1, ||x||, ||y||)``, in which
    a NaN norm is passed over, so the bound stays finite.  Raises ValueError,
    with the evidence as its ``evidence`` attribute, when neither sign fits
    (a NaN fits neither) or both do (x = y = 0 is reported as ambiguous
    rather than guessed).
    """
    bound = tol.bound(max(1.0, fro(x), fro(y)))
    r_plus, r_minus = fro(x - y), fro(x + y)
    evidence = (r_plus, r_minus, bound)
    if (r_plus <= bound) == (r_minus <= bound):
        exc = ValueError(
            f"ambiguous sign for {what}: both signs fit"
            if r_plus <= bound
            else f"no sign fits {what}: residuals +:{r_plus:.3e} -:{r_minus:.3e}"
        )
        exc.evidence = evidence
        raise exc
    return (1 if r_plus <= bound else -1), evidence


def sign_fits(signs, evidence) -> list[tuple[float, float]]:
    """``(residual, bound)`` of each of ``signs`` in its ``match_sign`` evidence."""
    return [(e[0] if s == 1 else e[1], e[2]) for s, e in zip(signs, evidence)]


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

    The problem is solved on its structural support: the real and imaginary
    positions that are nonzero in some spanning matrix or in the target, and
    the spanning matrices that are nonzero there.  Both drops are exact: a
    dropped position is zero in every column and in the right-hand side, so
    it adds nothing to the residual, and a dropped matrix adds nothing to
    the span.  The target's own positions stay, so a target off the support
    keeps its distance.  A NaN or inf in an operand gives NaN, decided
    before LAPACK sees it.
    """
    t = as_matrix(target)
    if not np.isfinite(t).all():
        return float("nan")
    if len(span) == 0:
        return fro(t)
    cols = np.asarray(span, dtype=np.complex128)
    if cols.shape[1:] != t.shape:
        raise ValueError(f"span of shape {cols.shape} does not fit target {t.shape}")
    if not np.isfinite(cols).all():
        return float("nan")
    flat, t = cols.reshape(len(cols), -1), t.reshape(-1)
    parts = [(flat.real, t.real), (flat.imag, t.imag)]
    rows = [(m != 0).any(axis=0) | (v != 0) for m, v in parts]
    a = np.concatenate([m[:, r] for (m, _), r in zip(parts, rows)], axis=1)
    b = np.concatenate([v[r] for (_, v), r in zip(parts, rows)])
    a = a[(a != 0).any(axis=1)].T
    if a.size == 0:
        return float(np.linalg.norm(b))
    coeff = np.linalg.lstsq(a, b, rcond=None)[0]
    return float(np.linalg.norm(b - a @ coeff))
