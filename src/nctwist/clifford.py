"""Euclidean gamma matrices in the chiral basis, with charge conjugation.

The 2m generators in dimension 2^m are built recursively from the Pauli
matrices; the grading is the normalised product of all generators and is
diagonal (+1 block then -1 block) in this basis.  Charge conjugation is the
antilinear operator anticommuting with every generator, found as an
intertwiner-space solution and normalised canonically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlin import (
    DEFAULT_TOL,
    AntilinearOperator,
    Tolerance,
    canonical_phase,
    fro,
    intertwiners,
    match_sign,
    polar_unitary,
)

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
    solution_dim: int

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


def charge_conjugation(m: int, tol: Tolerance = DEFAULT_TOL) -> ChargeConjugation:
    """Solve U conj(gamma^mu) = -gamma^mu U and package the result.

    The linear unknown U satisfies gamma^mu U = U (-conj(gamma^mu)), an
    intertwining system between the generator family and its negated
    conjugate.  The solution space is one-dimensional here; the basis
    vector is normalised to a unitary with a canonical phase.
    """
    if not 1 <= m <= 3:
        raise ValueError(f"charge conjugation supported for m in 1..3, got {m}")
    data = gamma(m)
    lhs = list(data.gammas)
    rhs = [-np.conj(g) for g in data.gammas]
    space = intertwiners(lhs, rhs, tol)
    if not space:
        raise ValueError(f"no antilinear intertwiner at m={m}")
    # deterministic pick: the direction with the largest singular value of
    # the nullspace ordering (last entry; ordering is most-null-first)
    candidate = space[-1]
    sv = np.linalg.svd(candidate, compute_uv=False)
    if sv[0] <= 0 or (sv[0] - sv[-1]) > tol.rel * sv[0] * 1e3 + tol.abs:
        raise ValueError("intertwiner is not proportional to a unitary")
    u = canonical_phase(polar_unitary(candidate))
    j = AntilinearOperator(u)
    for g in data.gammas:
        res = fro(u @ np.conj(g) + g @ u)
        if not tol.accepts(res, max(1.0, fro(g))):
            raise ValueError(f"candidate fails anticommutation, residual {res:.3e}")
    eps = j.sign_of_square(tol)
    eps_dbl = match_sign(
        u @ np.conj(data.grading), data.grading @ u, tol, what="J vs grading"
    )
    return ChargeConjugation(m, j, eps, eps_dbl, len(space))
