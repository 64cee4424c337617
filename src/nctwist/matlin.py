"""Dense complex linear algebra helpers.

Everything in the package works with square ``numpy.ndarray`` matrices of
dtype complex128.  This module collects the primitives the rest of the code
is built on: the pair-residual kernel behind every order condition,
antilinear operators in unitary-times-conjugation form, and SVD-based
solvers for intertwiner spaces (the commutant of a set is its
intertwiners with itself).
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

    def accepts(self, residual: float, scale: float = 1.0) -> bool:
        return residual <= self.rel * scale + self.abs


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


def pair_residual(xs, ys, zs=None) -> float:
    """``max_{i,j} ||xs[i] ys[j] - zs[j] xs[i]||`` over ``(G, n, n)`` stacks.

    ``zs`` defaults to ``ys`` (plain commutators); passing the twisted
    images gives twisted ones, and ``xs = [I]`` a single-generator maximum
    of ``||ys[j] - zs[j]||``.  Each ``xs[i]`` meets one batched product per
    block of the ``j`` (``blocked_max``).  A NaN anywhere is the result.
    """
    ys = np.asarray(ys, dtype=np.complex128)
    zs = ys if zs is None else np.asarray(zs, dtype=np.complex128)
    return worst(
        blocked_max(len(ys), ys.shape[-1], lambda s: x @ ys[s] - zs[s] @ x)
        for x in np.asarray(xs, dtype=np.complex128)
    )


def blocked_max(count: int, n: int, block) -> float:
    """``max_k ||block(s)[k]||`` over ``k < count`` for ``n x n`` differences.

    ``block`` maps a slice of the ``k`` to the ``(len, n, n)`` differences
    it covers; the slices hold ``max(1, 32768 // n^2)`` of them, which keeps
    the temporaries small on large n.  A NaN anywhere is the result.
    """
    step = max(1, 32768 // n**2)
    return worst(
        np.linalg.norm(block(slice(j, j + step)), axis=(-2, -1)).max()
        for j in range(0, count, step)
    )


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

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return self.unitary @ np.conj(psi)

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


def _stack(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = [as_matrix(m) for m in mats]
    if not out:
        raise ValueError("need at least one matrix")
    n = out[0].shape[0]
    if any(m.shape != (n, n) for m in out):
        raise ValueError("all matrices must share one square shape")
    return out


def intertwiners(
    lhs: Sequence[np.ndarray],
    rhs: Sequence[np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
) -> list[np.ndarray]:
    """Basis of ``{X : L_i X = X R_i for all i}``.

    Row-major vectorisation turns each condition into
    ``(L_i kron I - I kron R_i^T) vec(X) = 0``; the joint nullspace is
    extracted by SVD.  The returned matrices are orthonormal for the
    entrywise inner product.
    """
    lhs = _stack(lhs)
    rhs = _stack(rhs)
    if len(lhs) != len(rhs):
        raise ValueError("lhs and rhs must pair up")
    n = lhs[0].shape[0]
    if rhs[0].shape[0] != n:
        raise ValueError("lhs and rhs must act on the same dimension")
    eye = np.eye(n)
    rows = [np.kron(l, eye) - np.kron(eye, r.T) for l, r in zip(lhs, rhs)]
    basis, _ = nullspace(np.vstack(rows), tol)
    return [basis[:, k].reshape(n, n) for k in range(basis.shape[1])]


def intertwiner_space(
    lhs: Sequence[np.ndarray],
    rhs: Sequence[np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Basis of pairs ``(A, B)`` with ``L_i A = B R_i`` for all i.

    The two unknowns are stacked into one vector; the pairs returned are
    orthonormal with respect to the entrywise inner product on the stack.
    """
    lhs = _stack(lhs)
    rhs = _stack(rhs)
    if len(lhs) != len(rhs):
        raise ValueError("lhs and rhs must pair up")
    n = lhs[0].shape[0]
    if rhs[0].shape[0] != n:
        raise ValueError("lhs and rhs must act on the same dimension")
    eye = np.eye(n)
    rows = []
    for l, r in zip(lhs, rhs):
        block_a = np.kron(l, eye)
        block_b = -np.kron(eye, r.T)
        rows.append(np.hstack([block_a, block_b]))
    basis, _ = nullspace(np.vstack(rows), tol)
    out = []
    for k in range(basis.shape[1]):
        v = basis[:, k]
        out.append((v[: n * n].reshape(n, n), v[n * n :].reshape(n, n)))
    return out


def polar_unitary(x: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition of an invertible matrix."""
    u, _, vh = np.linalg.svd(as_matrix(x))
    return u @ vh


def canonical_phase(u: np.ndarray) -> np.ndarray:
    """Fix the global phase: largest-magnitude entry made real positive."""
    u = as_matrix(u)
    idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
    pivot = u[idx]
    if abs(pivot) == 0.0:
        return u
    return u * (np.conj(pivot) / abs(pivot))


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
