"""Complex linear algebra helpers: tolerances, the pair kernel, solvers.

Everything in the package works with square ``numpy.ndarray`` matrices of
dtype complex128.  This module collects the primitives the rest of the code
is built on: the tolerance and its bound, ``pair_max``, the one walk over
generators or generator pairs behind every order, regularity and
multiplicativity check (``pair_residual`` is its commutator form), and
``built``, which derives a stack from a parent's entries where that gives
the dense formula's bits; antilinear operators, the SVD nullspace and the
distance to a real span.  The sparse layer has one entry type,
``PairCoords`` (nonzero values under ascending flat C-order keys), with one
merge, one join step and one cost rule (``_pays``, one tuned constant); an
``Operand`` is a stack, dense or as entries, with what the kernel reads off it.
"""

from __future__ import annotations

import hashlib
import math
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


# The one cost rule (``_pays``): join nonzero entries where the dense
# multiply-adds outnumber the product terms by this factor.  A product by U, D
# or a projection (``built``) is charged this many extra terms, 256 x 256 =
# 65,536 multiply-adds for the join's few dozen numpy calls (35-50 us on small
# stacks, one OpenBLAS thread).  Without that fixed cost (8 s runs at seed 7,
# 4 alternating pairs, 1 BLAS thread) the n <= 9 products joined: tbg_stream
# ops_per_s fell 415.7 -> 402.3 and fluct_chain latency_p50_ms rose 0.888 ->
# 0.954 (medians), each worse on 4 of 4 pairs.
_SPARSE_FACTOR = 256


def _pays(terms: int, dense: int, extra: int = 0) -> bool:
    """Whether a join of ``terms`` (plus ``extra``) terms beats ``dense`` multiply-adds."""
    return (terms + extra) * _SPARSE_FACTOR <= dense


def digest(*parts) -> bytes:
    """The blake2b-256 digest of ``parts``: arrays, by their dtype, shape and
    exact bytes, or None, strings or bytes (another digest).  Tables kept by
    value key their arrays by this, so that a key holds 32 bytes however
    large the arrays are."""
    h = hashlib.blake2b(digest_size=32)
    for p in parts:
        if p is None:
            h.update(b"none;")
        elif isinstance(p, str):
            h.update(f"str{len(p)}:{p};".encode())
        elif isinstance(p, bytes):
            h.update(f"bytes{len(p)}:".encode())
            h.update(p)
        else:
            a = np.ascontiguousarray(p)
            h.update(f"{a.dtype.str}{a.shape}:".encode())
            h.update(a)
    return h.digest()


# The bound of the tables kept by value for the whole process
# (``twist._VERDICTS``, ``mintwist._UNITARIES``).  Over 300 blocks of
# tbg_stream at seed 7 (3,900 reads, 1,220 keys; the 4 framed ops of a
# block never repeat) 20 keys repeat and 128 keeps all 2,680 repeats, where
# 64 keeps 2,669 and 32 2,265.  An entry is a few KB: a kept unitary is
# 16 KB at the largest n, 32.
KEPT_VALUES = 128


def kept(table: dict, key, value, bound: int = KEPT_VALUES):
    """``value``, stored in ``table`` under ``key`` as its most recently read
    entry; the least recently read entries beyond ``bound`` are dropped.  A
    reader ``pop``s its key first, so that ``table`` stays in reading order."""
    table[key] = value
    if len(table) > bound:
        del table[next(iter(table))]
    return value


def distinct(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(key, return_inverse=True)`` of integer keys, by a stable sort."""
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    new = np.empty(len(key), bool)  # the first of each run of equal keys
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    at = np.empty_like(order)
    at[order] = np.cumsum(new) - 1
    return ordered[new], at


class PairCoords:
    """An array of any shape, real or complex, as its nonzero entries.

    An entry's key is its position in the array read in C order.  Keys are
    distinct and ascending and no value is zero: the list is what
    ``np.flatnonzero`` reads off the dense array.  The pair checks read
    coordinates over generator pairs in this form, and an ``Operand`` keeps
    a stack's entries in it.  Keys and per-axis indices are converted here
    and nowhere else: builders hand in indices (``at``, ``placed``), and
    ``index`` derives them from the keys on first read and keeps them with
    the list.
    """

    def __init__(self, shape: tuple, key: np.ndarray, value: np.ndarray):
        self.shape, self.key, self.value = tuple(shape), key, value
        self._index = self._groups = None

    @classmethod
    def of(cls, a: np.ndarray) -> "PairCoords":
        """The entries of a dense array."""
        key = np.flatnonzero(a != 0)  # much faster than nonzero on complex values
        return cls(a.shape, key, a.reshape(-1)[key])

    @classmethod
    def at(cls, shape: tuple, index: tuple, value: np.ndarray) -> "PairCoords":
        """The entries of ``shape`` with ``value`` at distinct ``index``, one
        integer array per axis."""
        key = np.ravel_multi_index(index, shape)
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key, kind="stable")
            key, value = key[order], value[order]
        return cls(shape, key, value)

    @classmethod
    def placed(cls, shape: tuple, parts) -> "PairCoords":
        """The entries of ``shape`` holding each list of ``parts``, given as
        ``(list, corner)``, with its index moved by ``corner``; none overlap."""
        if not parts:
            return cls(shape, np.empty(0, np.intp), np.empty(0, np.complex128))
        index = [[i + c if c else i for i, c in zip(e.index, corner)] for e, corner in parts]
        value = np.concatenate([e.value for e, _ in parts])
        return cls.at(shape, tuple(map(np.concatenate, zip(*index))), value)

    @classmethod
    def merged(cls, shape: tuple, key: np.ndarray, value: np.ndarray) -> "PairCoords":
        """The one merge: entries of ``shape`` whose values sum ``value`` over
        equal ``key``s in the order given (``x`` then ``-y`` gives the bits of
        ``x - y``), the real and imaginary parts apart; exact zeros are dropped."""
        key, at = distinct(key)
        out = np.bincount(at, value.real, len(key))
        if value.dtype.kind == "c":
            out = out.astype(np.complex128)
            out.imag = np.bincount(at, value.imag, len(key))
        if np.count_nonzero(out) < len(out):
            keep = out != 0
            key, out = key[keep], out[keep]
        return cls(shape, key, out)

    @classmethod
    def merged_norms(cls, shape: tuple, key: np.ndarray, value: np.ndarray) -> np.ndarray:
        """The squared Frobenius norm of each slice along axis 0 of
        ``merged(shape, key, value)``, from its real and imaginary sums alone."""
        key, at = distinct(key)
        square = np.bincount(at, value.real, len(key)) ** 2
        square += np.bincount(at, value.imag, len(key)) ** 2
        return np.bincount(key // math.prod(shape[1:]), square, shape[0])

    @property
    def index(self) -> tuple:
        """The index of each entry on each axis (``np.unravel_index``)."""
        if self._index is None:
            rest, index = self.key.view(), []
            for size in self.shape[:0:-1]:  # floor division, the last axis first
                quotient = rest // size
                index.append(rest - quotient * size)
                rest = quotient
            self._index = (rest, *index[::-1])
        return self._index

    def grouped(self, count: np.ndarray) -> "PairCoords":
        """This list, with ``count[s]`` of its entries at index s on axis 0 (for ``join``)."""
        self._groups = np.cumsum(count) - count, count
        return self

    def weighted(self, weights: tuple) -> np.ndarray:
        """``sum_a weights[a] index[a]``: the keys under other strides."""
        terms = [i if w == 1 else w * i for w, i in zip(weights, self.index) if w]
        return sum(terms[1:], terms[0])

    def transposed(self, axes: tuple) -> "PairCoords":
        """The entries of the dense array transposed by ``axes`` (``np.transpose``)."""
        shape, index = tuple(self.shape[a] for a in axes), [self.index[a] for a in axes]
        key = np.ravel_multi_index(index, shape)
        order = np.argsort(key, kind="stable")
        out = PairCoords(shape, key[order], self.value[order])
        out._index = tuple(i[order] for i in index)  # cheaper than splitting the keys
        return out

    def real_view(self) -> "PairCoords":
        """The entries of a complex array viewed as float64 (``a.view(np.float64)``):
        each entry's real and imaginary parts, a zero part dropped."""
        key = (2 * self.key[:, None] + np.arange(2)).reshape(-1)
        value = np.ascontiguousarray(self.value).view(np.float64)
        keep = value != 0
        shape = (*self.shape[:-1], 2 * self.shape[-1])
        return PairCoords(shape, key[keep], value[keep])

    def __sub__(self, other: "PairCoords") -> "PairCoords":
        key = np.concatenate([self.key, other.key])
        value = np.concatenate([self.value, -other.value])
        return PairCoords.merged(self.shape, key, value)

    def __matmul__(self, m: np.ndarray) -> "PairCoords":
        """The entries of ``dense @ m`` for a real ``(B, B')`` matrix ``m`` and a
        ``(rows, cols, B)`` array."""
        rows, cols, _ = self.shape
        width = m.shape[1]
        right = PairCoords.of(m).grouped(np.count_nonzero(m, axis=1))
        key, li, ri = self.join(2, (cols * width, width, 0), right, (0, 1))
        value = self.value[li] * right.value[ri]
        return PairCoords.merged((rows, cols, width), key, value)

    def join(self, axis: int, weights: tuple, right: "PairCoords", rweights: tuple):
        """The one join step: every product of an entry of this list and one
        of ``right`` whose indices on ``axis`` and on right's axis 0 agree;
        right's keys ascend, so its entries come in the groups it was given
        (``grouped``).

        A product's key sums its factors' indices weighted by ``weights`` and
        ``rweights`` (per axis, the shared ones 0).  Returns the keys and the
        positions ``li``, ``ri`` of the factors, a left entry's products
        together, in right's order: the textbook sparse product (Gustavson,
        ACM TOMS 4(3), 1978).
        """
        ls = self.index[axis]
        lk, rk = self.weighted(weights), right.weighted(rweights)
        start, rcount = right._groups
        count = rcount[ls]
        li = np.repeat(np.arange(len(ls)), count)
        ri = np.arange(len(li)) + np.repeat(start[ls] - np.cumsum(count) + count, count)
        return lk[li] + rk[ri], li, ri


class Operand:
    """A ``(k, n, n)`` complex stack, with what the pair kernel reads off it.

    ``pair_max`` reads four facts off each stack: whether it is finite, how
    many nonzeros sit in each matrix, at each row and at each column, its
    nonzero ``entries`` (a ``PairCoords``), and those sorted by their index
    on an axis (``ordered``).  Each is found on first read and kept, so a
    stack built once and shared (a representation's basis or generator
    images, a twisted geometry's generator stacks) is scanned and sorted
    once however many checks read it.  A stack is given densely, or as its
    finite entries (``Operand(PairCoords)``, which ``built`` uses), when it
    reads its counts off the entries and forms ``array``, the read-only dense
    view, only when something reads it.  A dense stack must not change
    through another reference once read.
    """

    def __init__(self, stack):
        self._orders = {}  # per axis, sorted once
        if isinstance(stack, PairCoords):
            self.shape, self.dense, self.entries, self.finite = stack.shape, False, stack, True
            return
        array = np.asarray(stack, dtype=np.complex128).view()
        array.flags.writeable = False
        self.shape = array.shape
        self.array = array
        self.dense = True

    @classmethod
    def of(cls, stack) -> "Operand":
        """``stack`` itself if it is an ``Operand``, else an ``Operand`` of it."""
        return stack if isinstance(stack, cls) else cls(stack)

    @cached_property
    def array(self) -> np.ndarray:
        """The dense stack, formed from the entries on first read."""
        out = np.zeros(self.shape, np.complex128)
        out.reshape(-1)[self.entries.key] = self.entries.value
        out.flags.writeable = False
        return out

    @cached_property
    def finite(self) -> bool:
        return bool(np.isfinite(self.array).all())

    @cached_property
    def counts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The number of nonzeros in each matrix, at each row and at each column."""
        if not self.dense:
            pairs = zip(self.entries.index, self.shape)
            return tuple(np.bincount(i, minlength=m) for i, m in pairs)
        nonzero = self.array != 0
        rows = nonzero.sum(axis=2, dtype=np.intp)
        cols = nonzero.sum(axis=1, dtype=np.intp)
        return rows.sum(axis=1), rows.sum(axis=0), cols.sum(axis=0)

    @cached_property
    def entries(self) -> PairCoords:
        """The nonzero entries."""
        return PairCoords.of(self.array)

    def ordered(self, axis: int) -> PairCoords:
        """``entries`` with ``axis`` moved first, so that they come sorted by
        their index on it; sorted once per axis.  Axis 0 is ``entries``."""
        if axis not in self._orders:
            moved = (axis, *(a for a in range(3) if a != axis))
            out = self.entries.transposed(moved) if axis else self.entries
            self._orders[axis] = out.grouped(self.counts[axis])  # from the counts at hand
        return self._orders[axis]


def built(dense, a: Operand, steps, conj: bool) -> Operand:
    """A stack derived from ``a``, from its nonzero entries when that is exact.

    ``steps`` apply in turn to ``a`` (to ``conj(a)`` when ``conj``), each a
    ``(m, axis)`` with a 2-d ``m``: axis 0 gives ``sum_b m[p, b] a[b]`` (the
    images of coordinate rows), axis 1 ``m @ a[k]`` and axis 2 ``a[k] @ m``.
    ``dense()`` is the same stack by the dense BLAS formula.

    A stack given densely, or a non-finite ``a`` or ``m``, takes the dense
    formula: ``Operand(dense())``.  Otherwise each step joins the nonzero
    entries (``PairCoords.join``) where ``_pays`` says so, charging a product
    by U, D or a projection (axes 1 and 2) ``_SPARSE_FACTOR`` extra terms;
    images at coordinate rows (axis 0) need no purity check, and their dense
    formula would first form ``a``'s dense view.  A product is kept only when
    it gives the dense formula's bits: every entry is a single product, and
    one factor of each is purely real or purely imaginary, so that every
    rounding order of BLAS rounds it alike; else the step is the dense formula.
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
    extra = _SPARSE_FACTOR if axis else 0  # the join's fixed cost, in terms
    if axis:  # a product by U, D or a projection
        cost = a.shape[0] * n**3
        if not _pays(0, cost, extra):
            return None
    # m, transposed for axis 1, so that for axes 1 and 2 its rows run over
    # the shared index (for axis 0, m[p, b] shares its columns)
    mt = m.T if axis == 1 else m
    mcount = np.count_nonzero(mt, axis=0 if axis == 0 else 1)
    if axis == 0:  # real multiply-adds, four to a complex one
        cost = len(m) * int(np.count_nonzero(mcount)) * n * n // 2
    if not _pays(int(mcount @ a.counts[axis]), cost, extra):
        return None
    me, ae = PairCoords.of(mt), a.entries if axis else a.ordered(0)
    av = np.conj(ae.value) if conj else ae.value
    if axis == 0:  # m[p, b] a[b, r, c]
        key, li, ri = me.join(1, (n * n, 0), ae, (0, n, 1))
        lv, rv, shape = me.value, av, (len(m), n, n)
    else:  # a[k, r, s] m[s, c], or a[k, s, c] m.T[s, r]
        weights = (n * n, n, 0) if axis == 2 else (n * n, 0, 1)
        key, li, ri = ae.join(axis, weights, me.grouped(mcount), (0, 1 if axis == 2 else n))
        lv, rv, shape = av, me.value, a.shape
    pure, mpure = _pure(av), True
    if pure is not True and (mpure := _pure(me.value)) is not True:
        lp, rp = (mpure, pure) if axis == 0 else (pure, mpure)
        if not (lp[li] | rp[ri]).all():
            return None
    value = lv[li] * rv[ri]
    if np.count_nonzero(value) < len(value):  # an underflow
        keep = value != 0
        key, value = key[keep], value[keep]
    if not (key[1:] > key[:-1]).all():
        order = np.argsort(key, kind="stable")
        key, value = key[order], value[order]
        if not (key[1:] > key[:-1]).all():  # a sum of products
            return None
    return Operand(PairCoords(shape, key, value))


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
    n = a.shape[-1]
    blocks = [(a.entries, (0, i * n, i * n)) for i in range(d)]
    return Operand(PairCoords.placed((a.shape[0], d * n, d * n), blocks))


def stacked(parts: Sequence[Operand]) -> Operand:
    """The concatenation of operand stacks of equal ``(n, n)``, entry-built when all are."""
    if any(p.dense for p in parts):
        return Operand(np.concatenate([p.array for p in parts]))
    start = np.cumsum([0] + [p.shape[0] for p in parts])
    shape = (int(start[-1]),) + parts[0].shape[1:]
    return Operand(PairCoords.placed(shape, [(p.entries, (s, 0, 0)) for p, s in zip(parts, start)]))


def adjoint(a: Operand) -> Operand:
    """The stack of conjugate transposes of ``a``'s matrices."""
    if a.dense:
        return Operand(dagger(a.array))
    t = a.entries.transposed((0, 2, 1))
    return Operand(PairCoords(t.shape, t.key, np.conj(t.value)))


def difference(x: Operand, y: Operand) -> Operand:
    """``x - y`` of operands of one shape, entry-built when both are.

    Each value is ``x - y`` at a shared entry, ``x`` or ``-y`` elsewhere: the
    bits of the dense subtraction.  Exact zeros are dropped.
    """
    if x.dense or y.dense:
        return Operand(x.array - y.array)
    return Operand(x.entries - y.entries)


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
    temporaries small on large n, filling each slice's ``(columns, B)``
    coordinates from the entries.  The sparse one (``_sparse_pair_max``)
    joins the nonzero entries of the operands; it runs where ``_pays`` says
    so, its terms read from the nonzero counts of each shared index.
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
    if xs is None and not len(coords.value):
        return 0.0
    n = (xs if xs is not None else stack).shape[-1]
    joins = _joins(xs, ys, zs, coords, stack, cols, n)
    terms = [int(left[0] @ right[0]) for _, left, right in joins]
    # the coords join comes first; its left count is per basis image
    used = 0 if coords is None else np.count_nonzero(joins[0][1][0])
    products = (xs is not None) + (zs is not None)
    if _pays(sum(terms), rows * cols * n * n * (products * n + used)):
        joins = [j for j, t in zip(joins, terms) if t]
        return _sparse_pair_max(joins, coords, rows * cols, n)

    xs, ys, zs = (None if a is None else a.array for a in (xs, ys, zs))
    step = max(1, 32768 // n**2)
    if coords is not None:
        basis, key, value = coords.shape[2], coords.key, coords.value
        flat = stack.array.view(np.float64).reshape(basis, -1)
        # where the entries of pair (i, j), in key order, start
        first = np.searchsorted(key, np.arange(rows * cols + 1) * basis)

    def block(i, j):
        s = slice(j, min(j + step, cols))
        out = 0.0
        if coords is not None:
            lo, hi = first[i * cols + s.start], first[i * cols + s.stop]
            c = np.zeros((s.stop - s.start, basis))
            c.flat[key[lo:hi] - (i * cols + j) * basis] = value[lo:hi]
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
    """The products of a pair difference, each ``(sign, (count, x, weights),
    (count, y, axis, weights))``: ``x`` (an operand, or ``coords`` itself)
    joined on its last axis with ``y`` on ``axis``, ``count[s]`` nonzeros at
    shared index s.  The weights (``PairCoords.join``) make the key of a
    term of pair (i, j) at entry (r, c) ``((i cols + j) n + r) n + c``.
    """
    pair, mat = cols * n * n, n * n
    out = []
    if coords is not None:  # coords[i, j, b] stack[b, r, c]
        count = np.bincount(coords.index[2], minlength=coords.shape[2])
        out.append((1.0, (count, coords, (pair, mat, 0)), (stack.counts[0], stack, 0, (0, n, 1))))
    if xs is not None:  # xs[i, r, k] ys[j, k, c], ys ordered (k, j, c)
        left, right = (xs.counts[2], xs, (pair, n, 0)), (ys.counts[1], ys, 1, (0, mat, 1))
        out.append((-1.0, left, right))
    if zs is not None:  # zs[j, r, k] xs[i, k, c], xs ordered (k, i, c)
        left, right = (zs.counts[2], zs, (mat, n, 0)), (xs.counts[1], xs, 1, (0, pair, 1))
        out.append((1.0, left, right))
    return out


def _sparse_pair_max(joins, coords, pairs: int, n: int) -> float:
    """``pair_max`` from the nonzero entries of its finite operands: every
    term of every product for all pairs at once (``PairCoords.join``), then
    each pair's squared norm after the merge (``PairCoords.merged_norms``)."""
    if not joins:
        return 0.0
    keys, values = [], []
    for sign, (_, x, lw), (_, y, axis, rw) in joins:
        left, right = (x if x is coords else x.entries), y.ordered(axis)
        key, li, ri = left.join(2, lw, right, rw)
        keys.append(key)
        values.append(sign * (left.value[li] * right.value[ri]))
    # a pair's terms fill its row of a (pairs, n n) array
    norms = PairCoords.merged_norms((pairs, n * n), np.concatenate(keys), np.concatenate(values))
    return float(np.sqrt(norms.max(initial=0.0)))


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
