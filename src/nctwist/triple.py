"""Finite-dimensional real spectral triples and their axioms.

A finite geometry bundles an algebra representation on C^n with a
self-adjoint operator D, an optional grading, and an optional antilinear
real structure J.  The three signs relating J to itself, to D, and to the
grading are always measured from the operators, never assumed from a
dimension table.

The order-zero and order-one conditions are checked on the real-spanning
generator set of the algebra; both conditions are real-bilinear in their
two element slots, so passing on generators is equivalent to passing on the
whole algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .algebra import Algebra, Representation
from .matlin import (
    DEFAULT_TOL,
    AntilinearOperator,
    Tolerance,
    as_matrix,
    match_sign,
    pair_residual,
)
from .report import Report


@dataclass(frozen=True)
class SignTriple:
    """Measured signs: J^2 = eps, J D = eps' D J, J Gamma = eps'' Gamma J."""

    eps: int
    eps_prime: int
    eps_dblprime: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.eps, self.eps_prime, self.eps_dblprime)

    def branch(self) -> str:
        return "{0,4}" if self.eps_dblprime == 1 else "{2,6}"


@dataclass(frozen=True)
class FiniteGeometry:
    """Algebra representation + Dirac operator (+ grading, real structure)."""

    rep: Representation
    dirac: np.ndarray
    grading: Optional[np.ndarray] = None
    real_structure: Optional[AntilinearOperator] = None

    def __post_init__(self):
        object.__setattr__(self, "dirac", as_matrix(self.dirac))
        n = self.rep.dim
        if self.dirac.shape != (n, n):
            raise ValueError("Dirac operator does not match Hilbert dimension")
        if self.grading is not None:
            object.__setattr__(self, "grading", as_matrix(self.grading))
            if self.grading.shape != (n, n):
                raise ValueError("grading does not match Hilbert dimension")
        if self.real_structure is not None and self.real_structure.dim != n:
            raise ValueError("real structure does not match Hilbert dimension")

    @property
    def algebra(self) -> Algebra:
        return self.rep.algebra

    @property
    def hilbert_dim(self) -> int:
        return self.rep.dim

    def with_dirac(self, new_d: np.ndarray) -> "FiniteGeometry":
        return replace(self, dirac=as_matrix(new_d))

    def conjugated(self, rep: Representation) -> Representation:
        """The representation ``b -> J rep(b) J^-1``: J conjugates ``rep``'s stack.

        The coordinates are real, so J commutes with combining images; at
        rows moved by ``Algebra.star_matrix`` its images are the opposite
        action ``J rep(b*) J^-1``.
        """
        if self.real_structure is None:
            raise ValueError("geometry has no real structure")
        return Representation(rep.algebra, self.real_structure.conjugate(rep.stack))


def measure_ko_signs(g: FiniteGeometry, tol: Tolerance = DEFAULT_TOL) -> SignTriple:
    """Measure (eps, eps', eps'') from the operators.

    Each sign is decided by comparing residuals for both candidates;
    degenerate inputs (e.g. D = 0) raise instead of guessing.  Without a
    grading, eps'' is reported as +1 by convention and noted by callers.
    """
    if g.real_structure is None:
        raise ValueError("geometry has no real structure")
    u = g.real_structure.unitary
    eps = g.real_structure.sign_of_square(tol)
    eps_prime = match_sign(u @ np.conj(g.dirac), g.dirac @ u, tol, what="J vs D")
    if g.grading is None:
        eps_dbl = 1
    else:
        eps_dbl = match_sign(
            u @ np.conj(g.grading), g.grading @ u, tol, what="J vs grading"
        )
    return SignTriple(eps, eps_prime, eps_dbl)


def _opposite_stacks(g: FiniteGeometry) -> tuple[np.ndarray, np.ndarray]:
    """pi and the opposite action over the generators."""
    rows = g.algebra.generator_rows
    opposite = g.conjugated(g.rep).images(rows @ g.algebra.star_matrix)
    return g.rep.images(rows), opposite


def order_zero_residual(g: FiniteGeometry) -> float:
    """max ||[pi(a), J pi(b*) J^{-1}]|| over generator pairs."""
    return pair_residual(*_opposite_stacks(g))


def order_one_residual(g: FiniteGeometry) -> float:
    """max ||[[D, pi(a)], J pi(b*) J^{-1}]|| over generator pairs."""
    pi_a, opp_b = _opposite_stacks(g)
    return pair_residual(g.dirac @ pi_a - pi_a @ g.dirac, opp_b)


def verify_spectral_triple(
    g: FiniteGeometry, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Full axiom run: the twisted one with the identity twist.

    Returns a report with one record per axiom (the ``rho:`` records of
    the identity included); measured signs are stored in
    ``report.info['signs']`` when a real structure is present.
    """
    from .twist import TwistedGeometry, verify_twisted  # twist imports us

    rep = verify_twisted(TwistedGeometry.untwisted(g), tol)
    rep.title = "real spectral triple"
    return rep
