"""Finite direct-sum *-algebras and their matrix representations.

An algebra is a direct sum of blocks of three kinds: complex scalars C,
quaternions H (stored in the 2x2 complex encoding ``[[a, b], [-conj(b),
conj(a)]]``), and full matrix algebras M_n(C).  Elements are tuples holding
one value per block.  Everything is treated as a real *-algebra so that
quaternionic blocks make sense; generating sets are real-spanning, which
makes checks of (bi)linear conditions on generators exhaustive.

A representation is real-linear, so it is fixed by its images of a real
basis, and it is stored as exactly that stack of images.  The stack is
either assembled from a table of block placements (serialisable) or
transformed from the stack of a parent representation (projector doubling,
unitary frames, tensor factors, the chirality sectors of the twisted
standard model); every evaluation is then a real combination of the
images.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    fro,
    generator_scale,
    kron,
    pair_max,
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
        """``(len(elems), B)`` array whose rows are the ``coords`` of ``elems``."""
        return np.stack([self.coords(e) for e in elems])

    @cached_property
    def generator_rows(self) -> np.ndarray:
        """Read-only coordinate rows of ``generators()``, built on first read."""
        rows = self.coord_rows(self.generators())
        rows.flags.writeable = False
        return rows

    @cached_property
    def star_matrix(self) -> np.ndarray:
        """Read-only ``linear_map`` of the star, built on first read."""
        star = self.linear_map(self.star)
        star.flags.writeable = False
        return star

    def mul_coords(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """Coordinates of products ``x y``, computed from coordinates.

        ``cx`` and ``cy`` are ``(..., B)`` arrays that broadcast over their
        leading axes.  Their ``blocks`` are multiplied in one batched product
        per component, without a dense B x B x B tensor of structure constants.
        """
        return self.from_blocks(map(np.matmul, self.blocks(cx), self.blocks(cy)))

    def linear_map(self, f: Callable[[Sequence], Sequence]) -> np.ndarray:
        """Real B x B matrix of a real-linear map: ``coords(f(x)) = coords(x) @ M``.

        ``f`` is evaluated once, on the ``blocks`` of the B identity rows, so
        it acts on each component's stack as on a single value.
        """
        return self.from_blocks(f(self.blocks(np.eye(self.basis_offsets()[-1]))))

    def random_element(self, rng: np.random.Generator) -> tuple:
        return tuple(c.random(rng) for c in self.components)


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

    The map is its ``stack``: the images of the B identity coordinate rows
    (see ``Algebra.blocks``), shape (B, dim, dim), read-only.  Calling the
    instance combines the images of the nonzero coordinates of the element.
    ``placements`` is kept as the serialisable source of the stack; it is
    not read to evaluate.
    """

    def __init__(
        self,
        algebra: Algebra,
        stack: np.ndarray,
        placements: tuple[Placement, ...] | None = None,
    ):
        stack = np.array(stack, dtype=np.complex128)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"stack must hold square images, got shape {stack.shape}")
        nbasis = algebra.basis_offsets()[-1]
        if len(stack) != nbasis:
            raise ValueError(
                f"stack holds {len(stack)} images, algebra basis has {nbasis}"
            )
        stack.flags.writeable = False  # shared by every evaluation
        self.algebra = algebra
        self.stack = stack
        self.placements = tuple(placements) if placements is not None else None

    @classmethod
    def from_placements(
        cls, algebra: Algebra, dim: int, placements: Sequence[Placement]
    ) -> "Representation":
        """Block-diagonal representation assembled from placements."""
        placements = tuple(placements)
        offsets = algebra.basis_offsets()
        units = algebra.blocks(np.eye(offsets[-1]))
        stack = np.zeros((offsets[-1], dim, dim), np.complex128)
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
            stack[rows, blk, blk] = p.block(units[p.component][rows])
        return cls(algebra, stack, placements=placements)

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __call__(self, elem: tuple) -> np.ndarray:
        if len(elem) != self.algebra.ncomponents:
            raise ValueError("element does not match algebra")
        c = self.algebra.coords(elem)
        if c.size != len(self.stack):
            raise ValueError("element does not match algebra")
        return self.images(c[None])[0]

    def images(self, c: np.ndarray) -> np.ndarray:
        """Images of a ``(P, B)`` batch of coordinate rows, shape ``(P, dim, dim)``.

        Only the basis images whose column some row uses are combined: a
        generator reads one image.  The coefficients are real, so the images
        combine as float rows.
        """
        s = self.stack
        used = np.flatnonzero((c != 0).any(axis=0))
        rows = s.view(np.float64).reshape(len(s), -1)
        out = (c[:, used] @ rows[used]).view(np.complex128)
        return out.reshape(len(c), self.dim, self.dim)

    # -- checks ------------------------------------------------------------

    def check(self, tol: Tolerance = DEFAULT_TOL) -> Report:
        """Star-homomorphism property on generators."""
        rep = Report("representation")
        alg = self.algebra
        cg = alg.generator_rows
        mats = self.images(cg)
        scale = generator_scale(mats)
        n = self.dim

        r_unit = fro(self(alg.unit()) - np.eye(n))
        rep.check("unit maps to identity", r_unit, tol, 1.0)

        c_star = cg @ alg.star_matrix
        eye = np.eye(n, dtype=np.complex128)[None]
        r_star = pair_max(eye, dagger(mats), coords=c_star[None], stack=self.stack)
        rep.check("star preserved on generators", r_star, tol, scale)

        # every pair, cross-block ones included: pi(g_i g_j) - pi(g_i) pi(g_j)
        prod = alg.mul_coords(cg[:, None], cg[None])
        r_mult = pair_max(mats, mats, coords=prod, stack=self.stack)
        rep.check("multiplicative on generator pairs", r_mult, tol, scale**2)
        return rep


def projected_double(
    rep0: Representation, grading: np.ndarray
) -> Representation:
    """Representation of the doubled algebra through grading projectors.

    The pair (a, a') acts as P+ pi0(a) + P- pi0(a') where P+- project on the
    grading eigenspaces.  The projectors commute with pi0, so this is again
    a *-homomorphism.
    """
    grading = as_matrix(grading)
    n = grading.shape[0]
    if n != rep0.dim:
        raise ValueError("grading dimension does not match representation")
    p_plus = (np.eye(n) + grading) / 2.0
    p_minus = (np.eye(n) - grading) / 2.0
    s = rep0.stack
    # (a, 0) and (0, a') run over the basis of the doubled algebra
    return Representation(
        doubled(rep0.algebra), np.concatenate([p_plus @ s, p_minus @ s])
    )
