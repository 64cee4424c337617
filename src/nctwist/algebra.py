"""Finite direct-sum *-algebras and their matrix representations.

An algebra is a direct sum of blocks of three kinds: complex scalars C,
quaternions H (stored in the 2x2 complex encoding ``[[a, b], [-conj(b),
conj(a)]]``), and full matrix algebras M_n(C).  Elements are tuples holding
one value per block.  Everything is treated as a real *-algebra so that
quaternionic blocks make sense; generating sets are real-spanning, which
makes checks of (bi)linear conditions on generators exhaustive.  A pair
check need not walk all of them: on a C or M_d component where pi and
pi o rho are both complex-linear, or both antilinear, the image of ``i E``
under pi, pi o rho and the opposite action is one unit multiple of the
image of ``E``, so every pair residual at ``i E`` equals the one at ``E``
and ``Algebra.pair_rows`` drops the ``i E`` rows.  Which components qualify
is decided from structure alone (``Representation.signs``).

A representation is real-linear, so it is fixed by its images of a real
basis, and it is stored as exactly that stack of images, one
``matlin.Operand``: the nonzero entries of a placed stack and of the
transforms built from them, else a dense array.  The stack is either
assembled from a table of block placements (serialisable) or transformed
from the stack of a parent representation (projector doubling, unitary
frames, tensor factors, the chirality sectors of the twisted standard
model); every evaluation is then a real combination of the images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .matlin import (
    DEFAULT_TOL,
    Operand,
    PairCoords,
    Tolerance,
    adjoint,
    as_matrix,
    built,
    dagger,
    digest,
    distinct,
    fro,
    generator_scale,
    kron,
    pair_max,
    stacked,
)
from .report import Report

# ---------------------------------------------------------------------------
# components


@dataclass(frozen=True)
class ScalarBlock:
    """The complex numbers as a real *-algebra; values are python complex.

    A stack of values, as ``Algebra.blocks`` gives it, is ``(..., 1, 1)``.
    """

    kind = "C"
    dim = 1

    def unit(self):
        return 1.0 + 0.0j

    def zero(self):
        return 0.0j

    def generators(self) -> list[complex]:
        return [1.0 + 0.0j, 1.0j]

    def star(self, v):
        return np.conj(v)

    def check_value(self, v) -> None:
        complex(v)

    def random(self, rng: np.random.Generator):
        return complex(rng.standard_normal() + 1j * rng.standard_normal())


def _matrix_units(n: int) -> list[np.ndarray]:
    """Matrix units E_rs and their i-multiples: a real basis of M_n(C)."""
    out = []
    for r in range(n):
        for s in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[r, s] = 1.0
            out.append(e)
            out.append(1j * e)
    return out


QUATERNION_UNITS = {
    "1": np.eye(2, dtype=np.complex128),
    "i": np.array([[1j, 0], [0, -1j]]),
    "j": np.array([[0, 1], [-1, 0]], dtype=np.complex128),
    "k": np.array([[0, 1j], [1j, 0]]),
}


def quaternion(alpha: complex, beta: complex) -> np.ndarray:
    """Encode a quaternion by two complex numbers."""
    return np.array(
        [[alpha, beta], [-np.conj(beta), np.conj(alpha)]], dtype=np.complex128
    )


def is_quaternion(v: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    v = as_matrix(v)
    if v.shape != (2, 2):
        return False
    expected = quaternion(v[0, 0], v[0, 1])
    return tol.accepts(fro(v - expected), max(1.0, fro(v)))


@dataclass(frozen=True)
class QuaternionBlock:
    """Quaternions in the 2x2 complex encoding; a real *-algebra."""

    kind = "H"
    dim = 2

    def unit(self):
        return QUATERNION_UNITS["1"].copy()

    def zero(self):
        return np.zeros((2, 2), dtype=np.complex128)

    def generators(self) -> list[np.ndarray]:
        return [QUATERNION_UNITS[k].copy() for k in ("1", "i", "j", "k")]

    def star(self, v):
        return dagger(np.asarray(v))

    def check_value(self, v) -> None:
        if not is_quaternion(v):
            raise ValueError("value is not in the quaternion encoding")

    def random(self, rng: np.random.Generator):
        coeff = rng.standard_normal(4)
        return sum(
            c * QUATERNION_UNITS[k] for c, k in zip(coeff, ("1", "i", "j", "k"))
        )


@dataclass(frozen=True)
class MatrixBlock:
    """Full matrix algebra M_n(C)."""

    n: int
    kind = "M"

    @property
    def dim(self) -> int:
        return self.n

    def unit(self):
        return np.eye(self.n, dtype=np.complex128)

    def zero(self):
        return np.zeros((self.n, self.n), dtype=np.complex128)

    def generators(self) -> list[np.ndarray]:
        return _matrix_units(self.n)

    def star(self, v):
        return dagger(np.asarray(v))

    def check_value(self, v) -> None:
        v = as_matrix(v)
        if v.shape != (self.n, self.n):
            raise ValueError(f"expected {self.n}x{self.n} value")

    def random(self, rng: np.random.Generator):
        return (
            rng.standard_normal((self.n, self.n))
            + 1j * rng.standard_normal((self.n, self.n))
        )


Component = ScalarBlock | QuaternionBlock | MatrixBlock


def _component_from_spec(spec) -> Component:
    if isinstance(spec, (ScalarBlock, QuaternionBlock, MatrixBlock)):
        return spec
    if spec == "C":
        return ScalarBlock()
    if spec == "H":
        return QuaternionBlock()
    if isinstance(spec, tuple) and spec[0] == "M":
        return MatrixBlock(int(spec[1]))
    raise ValueError(f"unknown component spec {spec!r}")


# ---------------------------------------------------------------------------
# algebra


@dataclass(frozen=True)
class Algebra:
    """Direct sum of scalar, quaternion, and matrix blocks."""

    components: tuple[Component, ...]

    @classmethod
    def of(cls, *specs) -> "Algebra":
        return cls(tuple(_component_from_spec(s) for s in specs))

    @property
    def ncomponents(self) -> int:
        return len(self.components)

    def signature(self) -> tuple:
        return tuple(
            (c.kind, c.dim if c.kind == "M" else None) for c in self.components
        )

    def unit(self) -> tuple:
        return tuple(c.unit() for c in self.components)

    def zero(self) -> tuple:
        return tuple(c.zero() for c in self.components)

    def element(self, values: Sequence) -> tuple:
        if len(values) != self.ncomponents:
            raise ValueError(
                f"expected {self.ncomponents} component values, got {len(values)}"
            )
        vals = []
        for comp, v in zip(self.components, values):
            comp.check_value(v)
            if comp.kind == "C":
                vals.append(complex(v))
            else:
                vals.append(as_matrix(v))
        return tuple(vals)

    def basis_element(self, index: int, value) -> tuple:
        """Element with a single nonzero component."""
        vals = list(self.zero())
        self.components[index].check_value(value)
        vals[index] = value
        return tuple(vals)

    def generators(self) -> list[tuple]:
        """Real-spanning generating set, one block at a time."""
        out = []
        for i, comp in enumerate(self.components):
            for g in comp.generators():
                out.append(self.basis_element(i, g))
        return out

    def mul(self, x: tuple, y: tuple) -> tuple:
        vals = []
        for comp, a, b in zip(self.components, x, y):
            vals.append(a * b if comp.kind == "C" else a @ b)
        return tuple(vals)

    def neg(self, x: tuple) -> tuple:
        return tuple(-a for a in x)

    def star(self, x: Sequence) -> tuple:
        """The star of an element, or of per-component stacks of values."""
        return tuple(c.star(v) for c, v in zip(self.components, x))

    def basis_offsets(self) -> np.ndarray:
        """Where each component's coordinates start, then their count B.

        A component of matrix size d has the 2 d^2 real coordinates of its
        complex entries.
        """
        return np.cumsum([0] + [2 * c.dim**2 for c in self.components])

    def blocks(self, c: np.ndarray) -> list[np.ndarray]:
        """One ``(..., d, d)`` complex stack per component of ``(..., B)`` rows.

        A component's coordinates are its complex entries in row-major
        order, real and imaginary parts interleaved.  C is the case d = 1,
        and H spans all of M_2(C): a complex scale factor takes a quaternion
        outside H.  The stacks are views of a C-contiguous float64 ``c``.
        """
        z = np.ascontiguousarray(c, dtype=np.float64).view(np.complex128)
        offsets = self.basis_offsets() // 2
        return [
            z[..., lo:hi].reshape(z.shape[:-1] + (comp.dim, comp.dim))
            for comp, lo, hi in zip(self.components, offsets, offsets[1:])
        ]

    def from_blocks(self, blocks: Iterable) -> np.ndarray:
        """Coordinate rows of per-component values or stacks; inverts ``blocks``."""
        flat = [np.asarray(b, dtype=np.complex128) for b in blocks]
        rows = [b.reshape(b.shape[:-2] + (-1,)) for b in flat]
        return np.concatenate(rows, axis=-1).view(np.float64)

    def coords(self, x: tuple) -> np.ndarray:
        """Real coordinates of an element: ``from_blocks`` of its values."""
        return self.from_blocks(x)

    def coord_rows(self, elems: Sequence[tuple]) -> np.ndarray:
        """``(len(elems), B)`` array whose rows are the ``coords`` of ``elems``,
        formed one component at a time."""
        n = len(elems)
        flat = [np.asarray(v, dtype=np.complex128).reshape(n, -1) for v in zip(*elems)]
        return np.concatenate(flat, axis=1).view(np.float64)

    @cached_property
    def generator_rows(self) -> np.ndarray:
        """Read-only coordinate rows of ``generators()``, shared (``_first_equal``)."""
        if (first := _first_equal(self)) is not self:
            return first.generator_rows
        rows = self.coord_rows(self.generators())
        rows.flags.writeable = False
        return rows

    @cached_property
    def _pair_tables(self) -> dict:
        return {}

    def pair_rows(self, drop: tuple[bool, ...]) -> tuple[np.ndarray, PairCoords]:
        """The generator rows a pair check walks, and ``structure_constants`` over them.

        ``generator_rows`` without the ``i E`` rows of each C or M component
        that ``drop`` marks (the rows of C and M_d alternate ``E`` and
        ``i E``, as ``_matrix_units`` lists them); H keeps its four rows.
        ``Representation.pair_rows`` decides ``drop``.  Read-only, built once
        per ``drop`` and shared (``_first_equal``).
        """
        tables = self._pair_tables
        if drop in tables:
            return tables[drop]
        if (first := _first_equal(self)) is not self:
            tables[drop] = first.pair_rows(drop)
            return tables[drop]
        keep = np.concatenate([
            np.ones(4, bool) if c.kind == "H" else np.tile([True, not d], c.dim**2)
            for c, d in zip(self.components, drop)
        ])
        if keep.all():
            tables[drop] = self.generator_rows, self.structure_constants
        else:
            rows = self.generator_rows[keep]
            table = self.products(rows, rows)
            for a in (rows, table.key, table.value):
                a.flags.writeable = False
            tables[drop] = rows, table
        return tables[drop]

    @cached_property
    def star_matrix(self) -> np.ndarray:
        """Read-only ``linear_map`` of the star, shared (``_first_equal``)."""
        if (first := _first_equal(self)) is not self:
            return first.star_matrix
        star = self.linear_map(self.star)
        star.flags.writeable = False
        return star

    @cached_property
    def structure_constants(self) -> PairCoords:
        """``products`` of the generator rows with themselves, shared (``_first_equal``).

        The product of two generators is a multiple of one matrix unit (or of
        a quaternion unit), so M_d holds 4 d^3 entries and C is the case d = 1.
        """
        if (first := _first_equal(self)) is not self:
            return first.structure_constants
        table = self.products(self.generator_rows, self.generator_rows)
        table.key.flags.writeable = table.value.flags.writeable = False
        return table

    @cached_property
    def _places(self) -> tuple:
        """Row and column of each complex coordinate in the block-diagonal
        matrix of an element, and the coordinate at each position (-1 off
        the blocks); read-only and shared (``_first_equal``)."""
        if (first := _first_equal(self)) is not self:
            return first._places
        dims = np.array([c.dim for c in self.components])
        sizes = dims**2
        d = np.repeat(dims, sizes)
        local = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        first = np.repeat(np.cumsum(dims) - dims, sizes)
        row, col = first + local // d, first + local % d
        coord = np.full((dims.sum(), dims.sum()), -1)
        coord[row, col] = np.arange(len(row))
        for table in (row, col, coord):
            table.flags.writeable = False
        return row, col, coord

    def products(self, cx: np.ndarray, cy: np.ndarray) -> PairCoords:
        """``PairCoords`` of every product ``x_p y_q`` of rows of ``cx`` and ``cy``.

        An element is a block-diagonal matrix.  The rows of those matrices
        that some ``x_p`` fills are packed into one matrix, the columns that
        some ``y_q`` fills into another, and one complex product of the two
        gives every entry ``(x_p y_q)[r, u]``.  A generator fills one or two
        rows and columns, so for generators the packed product holds at most
        4 G^2 values, not G^2 B; a product of blocks of different components
        is zero.
        """
        row, col, coord = self._places
        width = len(coord)

        def packed(c, lines, along):
            """The lines of ``c``'s matrices with an entry, as the rows of one matrix."""
            z = np.ascontiguousarray(c, dtype=np.float64).view(np.complex128)
            p, k = np.nonzero(z)
            ids, at = distinct(p * width + lines[k])
            out = np.zeros((len(ids), width), np.complex128)
            out[at, along[k]] = z[p, k]
            return divmod(ids, width), out

        (p, r), xrows = packed(cx, row, col)  # xrows[(p, r), s] = x_p[r, s]
        (q, u), ycols = packed(cy, col, row)  # ycols[(q, u), s] = y_q[s, u]
        prod = xrows @ ycols.T
        i, j = np.nonzero(prod)
        k = coord[r[i], u[j]]
        same = k >= 0  # a non-finite value also fills other components
        i, j = i[same], j[same]
        # each (p, r) and (q, u) is one packed line, so every index is new
        shape = (len(cx), len(cy), len(row))
        sums = PairCoords.at(shape, (p[i], q[j], k[same]), prod[i, j])
        return sums.real_view()

    def linear_map(self, f: Callable[[Sequence], Sequence]) -> np.ndarray:
        """Real B x B matrix of a real-linear map: ``coords(f(x)) = coords(x) @ M``.

        ``f`` is evaluated once, on the ``blocks`` of the B identity rows, so
        it acts on each component's stack as on a single value.
        """
        return self.from_blocks(f(self.blocks(np.eye(self.basis_offsets()[-1]))))

    def random_element(self, rng: np.random.Generator) -> tuple:
        return tuple(c.random(rng) for c in self.components)


@lru_cache(maxsize=32)
def _first_equal(alg: Algebra) -> Algebra:
    """The first algebra equal to ``alg`` whose tables were asked for.

    ``generator_rows``, ``star_matrix``, ``structure_constants``, the
    ``pair_rows`` tables and ``_places`` are pure functions of
    ``Algebra.components``, so an algebra
    equal to an earlier one (every ``doubled`` algebra of one signature,
    say) reads that one's tables instead of building its own.  The lookup is by value, and the
    last 32 distinct algebras are remembered.
    """
    return alg


def doubled(alg: Algebra) -> Algebra:
    """Two copies of every block: the element (a, a') as one tuple."""
    return Algebra(alg.components + alg.components)


def join_double(a: tuple, b: tuple) -> tuple:
    return tuple(a) + tuple(b)


# ---------------------------------------------------------------------------
# representations


VALID_MODES = ("scalar", "conj-scalar", "fund", "conj-fund")


@dataclass(frozen=True)
class Placement:
    """One diagonal block of a representation.

    The component value lands in the block starting at row/column ``start``
    as ``value kron I_mult``, entrywise conjugated in the conj modes.  A C
    value is a 1 x 1 matrix, so the scalar modes are the fundamental ones
    of d = 1, kept apart because C takes only them.
    """

    component: int
    start: int
    mode: str
    mult: int = 1

    def __post_init__(self):
        if self.mode not in VALID_MODES:
            raise ValueError(f"unknown placement mode {self.mode!r}")
        if self.mult < 1:
            raise ValueError("mult must be >= 1")

    def block_size(self, comp: Component) -> int:
        if self.mode in ("scalar", "conj-scalar"):
            if comp.kind != "C":
                raise ValueError("scalar modes require a C component")
            return self.mult
        if comp.kind == "C":
            raise ValueError(
                f"placement of component {self.component} (C) in mode "
                f"{self.mode!r}: C takes the scalar modes only"
            )
        return comp.dim * self.mult

    def block(self, value) -> np.ndarray:
        """The block of a value, or the ``(..., size, size)`` blocks of a stack."""
        v = np.asarray(value, dtype=np.complex128)
        if self.mode.startswith("conj"):
            v = np.conj(v)
        return kron(v, np.eye(self.mult))


class Representation:
    """Real-linear map from algebra elements to dim x dim matrices.

    The map is stored as one ``matlin.Operand``, ``operand``: the images of
    the B identity coordinate rows (see ``Algebra.blocks``), shape (B, dim,
    dim), given densely or, when derived from a parent's entries, as its
    nonzero entries.  ``stack`` is its read-only dense view.  Calling the
    instance combines the images of the nonzero coordinates of the element.
    ``placements`` is kept as the serialisable source of the stack; it is
    not read to evaluate.  ``operand``, ``generator_images`` and the
    ``pair_images`` are what the pair kernel reads: each is scanned once,
    however many checks read it.

    ``signs`` holds, per component, +1 where the map is known to be
    complex-linear, -1 where it is known to be antilinear and None where
    neither is known.  They are decided from structure alone: from the
    placement modes, and carried through the transforms that build a
    representation from a parent's stack.  A bare stack knows none.
    """

    def __init__(
        self,
        algebra: Algebra,
        stack,
        placements: tuple[Placement, ...] | None = None,
        signs: tuple | None = None,
        digest: bytes | None = None,
    ):
        if not isinstance(stack, Operand):
            stack = Operand(np.array(stack, dtype=np.complex128))
        shape = stack.shape
        if len(shape) != 3 or shape[1] != shape[2]:
            raise ValueError(f"stack must hold square images, got shape {shape}")
        nbasis = algebra.basis_offsets()[-1]
        if shape[0] != nbasis:
            raise ValueError(
                f"stack holds {shape[0]} images, algebra basis has {nbasis}"
            )
        self.algebra = algebra
        self.operand = stack  # shared by every evaluation and check
        self.placements = tuple(placements) if placements is not None else None
        self.signs = (None,) * algebra.ncomponents if signs is None else tuple(signs)
        self._derived_digest = digest  # see ``digest``
        self._drops = {}  # the ``drop`` of ``Algebra.pair_rows`` per ``perm``
        self._pair_images = {}  # per ``drop``

    @classmethod
    def from_placements(
        cls, algebra: Algebra, dim: int, placements: Sequence[Placement]
    ) -> "Representation":
        """Block-diagonal representation assembled from placements.

        A component's sign is +1 when every placement of it is ``scalar`` or
        ``fund`` (none at all is the zero map, which is complex-linear), -1
        when every one is ``conj-scalar`` or ``conj-fund``, else None.
        """
        placements = tuple(placements)
        offsets = algebra.basis_offsets()
        units = algebra.blocks(np.eye(offsets[-1]))
        blocks = []  # the entries of every block, and its corner in the stack
        covered = np.zeros(dim, dtype=bool)
        for p in placements:
            if not 0 <= p.component < algebra.ncomponents:
                raise ValueError(f"placement component {p.component} out of range")
            comp = algebra.components[p.component]
            size = p.block_size(comp)
            if p.start < 0 or p.start + size > dim:
                raise ValueError(
                    f"placement at {p.start} size {size} exceeds dim {dim}"
                )
            blk = slice(p.start, p.start + size)
            if covered[blk].any():
                raise ValueError("placements overlap")
            covered[blk] = True
            rows = slice(offsets[p.component], offsets[p.component + 1])
            block = PairCoords.of(p.block(units[p.component][rows]))
            blocks.append((block, (rows.start, p.start, p.start)))
        stack = Operand(PairCoords.placed((offsets[-1], dim, dim), blocks))
        signs = []
        for k in range(algebra.ncomponents):
            conj = {p.mode.startswith("conj") for p in placements if p.component == k}
            signs.append(None if len(conj) == 2 else -1 if conj == {True} else 1)
        return cls(algebra, stack, placements=placements, signs=signs)

    @property
    def stack(self) -> np.ndarray:
        """The images of the basis as a read-only dense ``(B, dim, dim)`` array."""
        return self.operand.array

    @property
    def dim(self) -> int:
        return self.operand.shape[1]

    def image_operand(self, c: np.ndarray) -> Operand:
        """``images(c)`` as an ``Operand``, from the entries where that is exact
        and cheaper (``matlin.built``)."""
        return built(lambda: self.images(c), self.operand, [(c, 0)], False)

    @cached_property
    def digest(self) -> bytes:
        """``matlin.digest`` of ``operand`` in the form it is held, its
        entries or its dense stack, tagged with the form.  The operand is
        read-only, so it is hashed once.  A maker whose operand is a pure
        function of inputs with known digests passes their digest instead,
        as the ``digest`` argument (``projected_double``)."""
        if self._derived_digest is not None:
            return self._derived_digest
        op = self.operand
        if op.dense:
            return digest("dense", op.array)
        return digest("entries", np.array(op.shape), op.entries.key, op.entries.value)

    @cached_property
    def generator_images(self) -> Operand:
        """The images of ``Algebra.generator_rows``, built on first read."""
        return self.image_operand(self.algebra.generator_rows)

    def pair_rows(self, perm: Sequence[int]) -> tuple[np.ndarray, PairCoords]:
        """``Algebra.pair_rows`` for the pair checks of this map under a twist
        that permutes the blocks by ``perm`` (``Automorphism.perm``).

        An automorphism is complex-linear, so pi o rho takes on a component
        the sign of pi on the component that rho maps it onto, and pi o
        rho^-1 the sign on the one that rho^-1 maps it onto.  A C or M
        component drops its ``i E`` rows when its sign is known and the same
        on every component of its orbit under ``perm``: then the images of
        ``i E`` under pi, pi o rho, pi o rho^-1 and the opposite action
        ``J pi(b*) J^-1`` (the star and J are both antilinear) are one unit
        multiple of the images of ``E``, and every pair residual is
        real-linear in each generator.
        """
        return self.algebra.pair_rows(self.drops(perm))

    def drops(self, perm: Sequence[int]) -> tuple[bool, ...]:
        """Per component, whether ``pair_rows(perm)`` drops its ``i E`` rows:
        the ``drop`` of ``Algebra.pair_rows``, decided once per ``perm``."""
        if perm not in self._drops:
            drop = []
            for k, comp in enumerate(self.algebra.components):
                orbit, j = [k], perm[k]
                while j != k:
                    orbit.append(j)
                    j = perm[j]
                signs = {self.signs[m] for m in orbit}
                drop.append(comp.kind != "H" and len(signs) == 1 and None not in signs)
            self._drops[perm] = tuple(drop)
        return self._drops[perm]

    def pair_images(self, perm: Sequence[int]) -> Operand:
        """The images of ``pair_rows(perm)``, built once per row set."""
        drop = self.drops(perm)
        if not any(drop):
            return self.generator_images
        if drop not in self._pair_images:
            rows, _ = self.algebra.pair_rows(drop)
            self._pair_images[drop] = self.image_operand(rows)
        return self._pair_images[drop]

    @cached_property
    def generator_scale(self) -> float:
        """``matlin.generator_scale`` of the ``pair_images`` with no twist.

        A dropped ``i E`` image is a unit multiple of the ``E`` one, so the
        maximum over all of ``generator_images`` is the same up to rounding.
        """
        return generator_scale(self.pair_images(range(self.algebra.ncomponents)).array)

    def __call__(self, elem: tuple) -> np.ndarray:
        if len(elem) != self.algebra.ncomponents:
            raise ValueError("element does not match algebra")
        return self.images(self.algebra.coords(elem)[None])[0]

    def images(self, c: np.ndarray) -> np.ndarray:
        """Images of a ``(P, B)`` batch of coordinate rows, shape ``(P, dim, dim)``.

        Only the basis images whose column some row uses are combined: a
        generator reads one image.  The coefficients are real, so the images
        combine as float rows.  Rows of a width other than B raise ValueError.
        """
        s = self.stack
        if c.shape[-1] != len(s):
            raise ValueError(f"rows of width {c.shape[-1]} for {len(s)} basis images")
        used = np.flatnonzero((c != 0).any(axis=0))
        rows = s.view(np.float64).reshape(len(s), -1)
        # an inf image meets the zero coefficients of other rows (inf * 0):
        # those rows read NaN, which the checks fail on
        with np.errstate(invalid="ignore"):
            out = (c[:, used] @ rows[used]).view(np.complex128)
        return out.reshape(len(c), self.dim, self.dim)

    # -- checks ------------------------------------------------------------

    def check(self, tol: Tolerance = DEFAULT_TOL) -> Report:
        """Star-homomorphism property on generators."""
        rep = Report("representation")
        alg = self.algebra
        unmoved = range(alg.ncomponents)
        rows, prod = self.pair_rows(unmoved)
        mats, scale = self.pair_images(unmoved), self.generator_scale
        n = self.dim

        r_unit = fro(self(alg.unit()) - np.eye(n))
        rep.check("unit maps to identity", r_unit, tol, 1.0)

        star = PairCoords.of((rows @ alg.star_matrix)[None])
        eye = np.eye(n, dtype=np.complex128)[None]
        r_star = pair_max(eye, adjoint(mats), coords=star, stack=self.operand)
        rep.check("star preserved on generators", r_star, tol, scale)

        # every pair, cross-block ones included: pi(g_i g_j) - pi(g_i) pi(g_j)
        r_mult = pair_max(mats, mats, coords=prod, stack=self.operand)
        rep.check("multiplicative on generator pairs", r_mult, tol, scale**2)
        return rep


def projected_double(
    rep0: Representation, grading: np.ndarray, grading_digest: bytes | None = None
) -> Representation:
    """Representation of the doubled algebra through grading projectors.

    The pair (a, a') acts as P+ pi0(a) + P- pi0(a') where P+- project on the
    grading eigenspaces.  The projectors commute with pi0, so this is again
    a *-homomorphism.  Its digest is derived from pi0's and the grading's
    (``grading_digest``, when the caller knows it, as
    ``FiniteGeometry.digests`` does).
    """
    grading = as_matrix(grading)
    n = grading.shape[0]
    if n != rep0.dim:
        raise ValueError("grading dimension does not match representation")
    s = rep0.operand
    # an inf image meets the projections' zeros (inf * 0): the halves carry
    # NaN, which the checks on the result fail on
    with np.errstate(invalid="ignore"):
        halves = [
            built(lambda p=p: p @ s.array, s, [(p, 1)], False)
            for p in ((np.eye(n) + grading) / 2.0, (np.eye(n) - grading) / 2.0)
        ]
    # (a, 0) and (0, a') run over the basis of the doubled algebra
    if grading_digest is None:
        grading_digest = digest(grading)
    return Representation(
        doubled(rep0.algebra),
        stacked(halves),
        signs=rep0.signs * 2,
        digest=digest("projected_double", rep0.digest, grading_digest),
    )
