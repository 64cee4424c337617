"""Euclidean gamma matrices in the chiral basis, with charge conjugation.

The 2m generators in dimension 2^m are built recursively from the Pauli
matrices; the grading is the normalised product of all generators and is
diagonal (+1 block then -1 block) in this basis.  Every generator is real
or imaginary.  Charge conjugation, the antilinear operator anticommuting
with every generator, is conjugation followed by the product of the real
generators when they are even in number, else of the imaginary ones; it is
unique up to phase when the character sum of the generators is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .matlin import DEFAULT_TOL, AntilinearOperator, Tolerance, fro, match_sign

MAX_M = 6

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class CliffordData:
    """2m anticommuting self-adjoint generators and their grading."""

    m: int
    gammas: tuple[np.ndarray, ...]
    grading: np.ndarray

    @property
    def dim(self) -> int:
        return 2**self.m


def gamma(m: int) -> CliffordData:
    """Generators for 2m Euclidean dimensions on C^(2^m), chiral basis.

    m=1 gives (sigma1, sigma2) with grading sigma3; each further step
    doubles the dimension by the standard off-diagonal recursion and
    appends two new generators built from the previous grading.
    """
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must be in 1..{MAX_M}, got {m}")
    gammas = [SIGMA_1.copy(), SIGMA_2.copy()]
    grading = SIGMA_3.copy()
    for _ in range(m - 1):
        half = gammas[0].shape[0]
        zeros = np.zeros((half, half), dtype=np.complex128)
        lifted = [
            np.block([[zeros, g], [g, zeros]]) for g in gammas
        ]
        lifted.append(np.block([[zeros, grading], [grading, zeros]]))
        eye = np.eye(half, dtype=np.complex128)
        lifted.append(np.block([[zeros, -1j * eye], [1j * eye, zeros]]))
        gammas = lifted
        grading = np.block([[eye, zeros], [zeros, -eye]])
    return CliffordData(m, tuple(gammas), grading)


def grading_product(data: CliffordData) -> np.ndarray:
    """(-i)^m times the ordered product of all generators."""
    out = np.eye(data.dim, dtype=np.complex128)
    for g in data.gammas:
        out = out @ g
    return (-1j) ** data.m * out


@dataclass(frozen=True)
class ChargeConjugation:
    """Antilinear intertwiner J with J gamma^mu = -gamma^mu J."""

    m: int
    j: AntilinearOperator
    eps: int
    eps_dblprime: int
    character_sum: float

    def sign_residuals(self, tol: Tolerance = DEFAULT_TOL) -> list[tuple[float, float]]:
        """``(residual, bound)`` of ``||J^2 - eps I||`` and ``||U conj(G) - eps'' G U||``.

        G is the grading.  Each residual is that of the recorded sign,
        against the bound ``match_sign`` decided that sign on.
        """
        u, grading = self.j.unitary, gamma(self.m).grading
        signs = [
            (self.j.square(), np.eye(len(u)), self.eps),
            (u @ np.conj(grading), grading @ u, self.eps_dblprime),
        ]
        return [
            (fro(x - s * y), tol.bound(max(fro(x), fro(y), 1.0))) for x, y, s in signs
        ]

    def branch(self) -> str:
        """KO branch label determined by the grading sign."""
        return "{0,4}" if self.eps_dblprime == 1 else "{2,6}"


def _subset_products(hs: list[np.ndarray], n: int) -> np.ndarray:
    """Products of the subsets of ``hs``, factors in list order: ``(2^k, n, n)``."""
    out = np.eye(n, dtype=np.complex128)[None]
    for h in hs:
        out = np.concatenate([out, out @ h])
    return out


def _subset_halves(hs: list[np.ndarray], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Subset products of the first and of the second half of ``hs``.

    Every subset product of ``hs`` is one ``l r``, l from the first stack
    and r from the second, so a mean over the 2^k of them runs over two
    stacks of about 2^(k/2).
    """
    half = len(hs) // 2
    return _subset_products(hs[:half], n), _subset_products(hs[half:], n)


def _character_sum(left: np.ndarray, right: np.ndarray) -> float:
    """``mean |tr(l r)|^2`` over every l of ``left`` and r of ``right``.

    Over the products of a set of anticommuting unitaries, which form a
    group up to phases, this is the dimension of their commutant.
    """
    # tr(l r) = sum_ij l_ij r_ji
    flat_r = right.swapaxes(1, 2).reshape(len(right), -1)
    traces = left.reshape(len(left), -1) @ flat_r.T
    return float(np.mean(np.abs(traces) ** 2))


def _conjugation_unitary(gammas) -> np.ndarray:
    """Product of the real generators if they are even in number, else of the imaginary ones.

    ``U conj(gamma) = -gamma U`` asks U to anticommute with the real
    generators and commute with the imaginary ones.  A product of k
    anticommuting generators anticommutes with its own factors when k is
    even and with the others when k is odd.  The real and the imaginary
    counts add up to 2m, so they are both even or both odd.
    """
    real = [g for g in gammas if not g.imag.any()]
    imaginary = [g for g in gammas if g.imag.any()]
    factors = real if len(real) % 2 == 0 else imaginary
    return reduce(np.matmul, factors, np.eye(len(gammas[0]), dtype=np.complex128))


def charge_conjugation(m: int, tol: Tolerance = DEFAULT_TOL) -> ChargeConjugation:
    """J = U conj with U conj(gamma^mu) = -gamma^mu U, its uniqueness and signs.

    U is ``_conjugation_unitary``, checked against every generator.  Every
    other solution is X U with X in the commutant of the generators, so J
    is unique up to phase when the character sum ``mean |tr P|^2`` over the
    2^(2m) subset products P of the generators is 1.  The mean runs over the
    products of two stacks of 2^m (``_subset_halves``).
    """
    data = gamma(m)
    u = _conjugation_unitary(data.gammas)
    for g in data.gammas:
        res = fro(u @ np.conj(g) + g @ u)
        if not tol.accepts(res, max(1.0, fro(g))):
            raise ValueError(f"candidate fails anticommutation, residual {res:.3e}")
    chars = _character_sum(*_subset_halves(list(data.gammas), data.dim))
    if not tol.accepts(abs(chars - 1.0)):
        raise ValueError(f"J is not unique up to phase: character sum {chars:.12f}")
    j = AntilinearOperator(u)
    eps = j.sign_of_square(tol)
    eps_dbl = match_sign(
        u @ np.conj(data.grading), data.grading @ u, tol, what="J vs grading"
    )
    return ChargeConjugation(m, j, eps, eps_dbl, chars)
