"""Finite-dimensional real spectral triples and their axioms.

A finite geometry bundles an algebra representation on C^n with a
self-adjoint operator D, an optional grading, and an optional antilinear
real structure J.  The three signs relating J to itself, to D, and to the
grading are always measured from the operators, never assumed from a
dimension table.

The order-zero and order-one conditions are checked on the real-spanning
generator set of the algebra, less the ``i E`` rows that
``Algebra.pair_rows`` drops where pi is known to be complex-linear or
antilinear; both conditions are real-bilinear in their two element slots,
so passing on generators is equivalent to passing on the whole algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .algebra import Algebra, Representation
from .matlin import (
    DEFAULT_TOL,
    AntilinearOperator,
    Tolerance,
    as_matrix,
    built,
    dagger,
    digest,
    match_sign,
    pair_residual,
)
from .report import Report


@dataclass(frozen=True)
class SignTriple:
    """Measured signs: J^2 = eps, J D = eps' D J, J Gamma = eps'' Gamma J.

    ``evidence`` holds the ``match_sign`` evidence of eps, eps' and, with a
    grading, eps'', in that order; it takes no part in comparisons.
    """

    eps: int
    eps_prime: int
    eps_dblprime: int
    evidence: tuple = field(compare=False)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.eps, self.eps_prime, self.eps_dblprime)


@dataclass(frozen=True)
class FiniteGeometry:
    """Algebra representation + Dirac operator (+ grading, real structure).

    ``_signs`` keeps the ``SignTriple`` that ``measure_ko_signs`` measured,
    per ``Tolerance``.  ``__post_init__`` starts it empty, so a geometry made
    by ``with_dirac`` or ``dataclasses.replace`` measures its own; D, the
    grading and J must not change in place once measured.  ``_digests``
    keeps ``digests``, which ``with_dirac`` and ``with_rep`` pass on.
    """

    rep: Representation
    dirac: np.ndarray
    grading: Optional[np.ndarray] = None
    real_structure: Optional[AntilinearOperator] = None
    _signs: dict = field(init=False, repr=False, compare=False)
    _digests: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_signs", {})
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

    @property
    def digests(self) -> tuple:
        """``(grading, J's unitary)`` as ``matlin.digest``s, None where absent.

        They are the parts of this geometry that the tables kept by value
        key by digest, beside pi's (``Representation.digest``), and they are
        hashed once per geometry.
        """
        if self._digests is None:
            j = self.real_structure
            found = (
                None if self.grading is None else digest(self.grading),
                None if j is None else digest(j.unitary),
            )
            object.__setattr__(self, "_digests", found)
        return self._digests

    def with_dirac(self, new_d: np.ndarray) -> "FiniteGeometry":
        return self._keeping_digests(replace(self, dirac=as_matrix(new_d)))

    def with_rep(self, rep: Representation) -> "FiniteGeometry":
        """The same geometry with pi replaced by ``rep``, on the same space."""
        return self._keeping_digests(replace(self, rep=rep))

    def _keeping_digests(self, out: "FiniteGeometry") -> "FiniteGeometry":
        # neither D nor pi is part of ``digests``
        object.__setattr__(out, "_digests", self._digests)
        return out

    def conjugated(self, rep: Representation) -> Representation:
        """The representation ``b -> J rep(b) J^-1``: J conjugates ``rep``'s stack.

        The coordinates are real, so J commutes with combining images; at
        rows moved by ``Algebra.star_matrix`` its images are the opposite
        action ``J rep(b*) J^-1``.  ``U conj(S) U*`` is built from the entries
        of S and U where that is exact (a monomial U, as a Clifford or
        transposition J has, on placed images; ``matlin.built``), else by
        ``AntilinearOperator.conjugate``.
        """
        if self.real_structure is None:
            raise ValueError("geometry has no real structure")
        j = self.real_structure
        u = j.unitary
        steps = [(u, 1), (dagger(u), 2)]
        stack = built(lambda: j.conjugate(rep.stack), rep.operand, steps, True)
        return Representation(rep.algebra, stack)


def measure_ko_signs(g: FiniteGeometry, tol: Tolerance = DEFAULT_TOL) -> SignTriple:
    """Measure (eps, eps', eps'') from the operators.

    Each sign is decided by comparing residuals for both candidates;
    degenerate inputs (e.g. D = 0) raise instead of guessing.  Without a
    grading, eps'' is reported as +1 by convention and noted by callers.
    The triple is measured once per geometry and ``tol`` and kept on ``g``;
    a sign that raises is measured, and raises, on every call.
    """
    if tol in g._signs:
        return g._signs[tol]
    j = g.real_structure
    if j is None:
        raise ValueError("geometry has no real structure")
    u = j.unitary
    eps, ev_eps = match_sign(j.square(), np.eye(j.dim), tol, what="J^2")
    eps_prime, ev_prime = match_sign(
        u @ np.conj(g.dirac), g.dirac @ u, tol, what="J vs D"
    )
    evidence = (ev_eps, ev_prime)
    eps_dbl = 1
    if g.grading is not None:
        eps_dbl, ev_dbl = match_sign(
            u @ np.conj(g.grading), g.grading @ u, tol, what="J vs grading"
        )
        evidence += (ev_dbl,)
    signs = g._signs[tol] = SignTriple(eps, eps_prime, eps_dbl, evidence)
    return signs


def _untwisted_stacks(g: FiniteGeometry) -> tuple:
    """pi(a) and J pi(b*) J^-1 over pi's ``pair_rows``, as ``matlin.Operand``s.

    With the identity twist they are also pi o rho and the twisted opposite
    action, which are therefore not built.
    """
    alg, pi = g.algebra, g.rep
    unmoved = range(alg.ncomponents)
    cs = pi.pair_rows(unmoved)[0] @ alg.star_matrix
    return pi.pair_images(unmoved), g.conjugated(pi).image_operand(cs)


def order_zero_residual(g: FiniteGeometry) -> float:
    """max ||[pi(a), J pi(b*) J^{-1}]|| over generator pairs."""
    return pair_residual(*_untwisted_stacks(g))


def order_one_residual(g: FiniteGeometry) -> float:
    """max ||[[D, pi(a)], J pi(b*) J^{-1}]|| over generator pairs.

    The primary form of ``first_order_residuals`` with the identity twist,
    and that form alone.
    """
    from .twist import order_one_operand  # twist imports us

    pi_a, opp_b = _untwisted_stacks(g)
    return pair_residual(order_one_operand(g.dirac, pi_a, pi_a), opp_b)


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
