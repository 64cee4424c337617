"""Twisted one-forms and twisted fluctuations of the Dirac operator.

A twisted one-form is a finite sum ``sum_j pi(a_j) [D, b_j]_rho``.  The
fluctuated operator is ``D_A = D + A + eps' J A J^{-1}`` with eps' taken
from the measured sign triple of the geometry; the fluctuation is accepted
only when D_A is self-adjoint (A itself need not be).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    fro,
    pair_residual,
    residual_against_span,
    sign_fits,
    tightest,
)
from .report import Report
from .twist import TwistedGeometry, verify_twisted
from .triple import measure_ko_signs


@dataclass(frozen=True)
class TwistedOneForm:
    """Formal sum of terms a_j [D, b_j]_rho given by element pairs."""

    terms: tuple[tuple[tuple, tuple], ...]

    @classmethod
    def of(cls, *pairs) -> "TwistedOneForm":
        return cls(tuple((tuple(a), tuple(b)) for a, b in pairs))

    def __add__(self, other: "TwistedOneForm") -> "TwistedOneForm":
        return TwistedOneForm(self.terms + other.terms)

    def __len__(self) -> int:
        return len(self.terms)


def eval_one_form(f: TwistedOneForm, tg: TwistedGeometry) -> np.ndarray:
    """Evaluate sum_j pi(a_j) (D pi(b_j) - pi(rho(b_j)) D), all terms in one batch."""
    g, d = tg.geometry, tg.geometry.dirac
    if not f.terms:
        return np.zeros_like(d)
    ca, cb = (g.algebra.coord_rows(side) for side in zip(*f.terms))
    pi_b, pi_rho_b = g.rep.images(cb), tg.twisted_rep.images(cb)
    return (g.rep.images(ca) @ (d @ pi_b - pi_rho_b @ d)).sum(axis=0)


def one_form_opposite_checks(
    f: TwistedOneForm, tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """One-forms twist-commute with the opposite algebra and vice versa.

    For A in the one-form bimodule: ``[A, J b* J^{-1}]_rho^o = 0`` and
    ``[J A J^{-1}, a]_rho = 0`` over all generators.
    """
    rep = Report("one-form opposite-algebra conditions")
    g = tg.geometry
    if g.real_structure is None:
        raise ValueError("geometry has no real structure")
    a_mat = eval_one_form(f, tg)
    ja_mat = g.real_structure.conjugate(a_mat)
    pi_a, pi_rho_a, opp_b, rho_opp_b = tg.stacks()
    scale = max(1.0, fro(a_mat)) * g.rep.generator_scale
    worst_right = pair_residual([a_mat], opp_b, rho_opp_b)
    worst_left = pair_residual([ja_mat], pi_a, pi_rho_a)
    rep.check("[A, J b* J^-1]_rho-opposite vanishes", worst_right, tol, scale)
    rep.check("[J A J^-1, a]_rho vanishes", worst_left, tol, scale)
    return rep


def adjoint_one_form(f: TwistedOneForm, tg: TwistedGeometry) -> TwistedOneForm:
    """One-form whose evaluation is the adjoint of the evaluation of ``f``.

    Uses the Leibniz rule and regularity of the (involutive) twist:
    ``(a [D, b]_rho)^* = -[D, rho(b*) a*]_rho + b* [D, a*]_rho``.
    """
    alg = tg.algebra
    rho = tg.rho
    terms = []
    minus_one = alg.neg(alg.unit())
    for a, b in f.terms:
        a_star = alg.star(a)
        b_star = alg.star(b)
        rho_b_star = rho.apply(b_star)
        terms.append((minus_one, alg.mul(rho_b_star, a_star)))
        terms.append((b_star, a_star))
    return TwistedOneForm(tuple(terms))


def symmetrized(f: TwistedOneForm, tg: TwistedGeometry) -> TwistedOneForm:
    """f + its adjoint: guarantees an accepted (self-adjoint) fluctuation."""
    return f + adjoint_one_form(f, tg)


def fluctuation_operator(
    tg: TwistedGeometry, a_mat: np.ndarray, eps_prime: int
) -> np.ndarray:
    """The candidate addition A + eps' J A J^{-1}."""
    j = tg.geometry.real_structure
    if j is None:
        raise ValueError("geometry has no real structure")
    return a_mat + eps_prime * j.conjugate(a_mat)


def _fluctuated_dirac(
    tg: TwistedGeometry, a_mat: np.ndarray, tol: Tolerance, eps_prime: int
) -> tuple[np.ndarray, float, float]:
    """``(D_A, defect, bound)``: the defect ``||D_A - D_A*|| / 2`` is accepted up to bound."""
    d_new = tg.geometry.dirac + fluctuation_operator(tg, as_matrix(a_mat), eps_prime)
    defect = fro(d_new - dagger(d_new)) / 2.0
    return d_new, defect, tol.bound(max(1.0, fro(d_new)))


def fluctuate_with_operator(
    tg: TwistedGeometry, a_mat: np.ndarray, tol: Tolerance, eps_prime: int
) -> TwistedGeometry:
    """Fluctuate by an already-evaluated one-form matrix, with the sign ``eps_prime``.

    Raises ValueError when the resulting operator is not self-adjoint; the
    defect (norm of the anti-Hermitian part) is included in the message.
    """
    d_new, defect, bound = _fluctuated_dirac(tg, a_mat, tol, eps_prime)
    if not defect <= bound:
        raise ValueError(
            f"fluctuated operator is not self-adjoint: defect {defect:.3e}"
        )
    return tg.with_dirac(d_new)


def fluctuate(
    tg: TwistedGeometry, f: TwistedOneForm, tol: Tolerance = DEFAULT_TOL
) -> TwistedGeometry:
    """Fluctuate by a twisted one-form: D -> D + A + eps' J A J^{-1}."""
    eps_prime = measure_ko_signs(tg.geometry, tol).eps_prime
    return fluctuate_with_operator(tg, eval_one_form(f, tg), tol, eps_prime)


def verify_fluctuated(
    tg: TwistedGeometry, f: TwistedOneForm, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Fluctuate and re-run the twisted-triple axioms on the result.

    Also confirms the structural facts that do not depend on the axioms:
    sign preservation, grading anticommutation with the added term, and
    J D_A = eps' D_A J with the signs of the base geometry.
    """
    rep = Report("fluctuated geometry")
    g = tg.geometry
    signs_before = measure_ko_signs(g, tol)
    d_new, defect, bound = _fluctuated_dirac(
        tg, eval_one_form(f, tg), tol, signs_before.eps_prime
    )
    if not rep.add("fluctuation accepted (self-adjoint)", defect, bound).passed:
        return rep
    fluct = tg.with_dirac(d_new)
    added = d_new - g.dirac
    scale = max(1.0, fro(d_new))

    u = g.real_structure.unitary
    r_jd = fro(u @ np.conj(d_new) - signs_before.eps_prime * d_new @ u)
    jd = rep.check("J D_A = eps' D_A J with base eps'", r_jd, tol, scale)

    if g.grading is not None:
        r_gr = fro(g.grading @ added + added @ g.grading)
        rep.check("added term anticommutes with grading", r_gr, tol, scale)

    # J and the grading are the base's, so eps and eps'' keep their base
    # fits and eps' is the one sign that can move: the record is decided on
    # those two fits and J D_A = eps' D_A J, and its note shows the signs
    # that verify_twisted measures on the fluctuated geometry
    twisted = verify_twisted(fluct, tol)
    fits = sign_fits(signs_before.as_tuple(), signs_before.evidence)
    after = tuple(twisted.info["signs"]) if "signs" in twisted.info else "undecided"
    rep.add(
        "sign triple preserved",
        *tightest([fits[0], *fits[2:], (jd.residual, jd.tol)]),
        note=f"{signs_before.as_tuple()} -> {after}",
    )

    rep.merge(twisted, prefix="fluctuated: ")
    return rep


def one_form_basis(tg: TwistedGeometry) -> np.ndarray:
    """Evaluations pi(g_i) [D, g_j]_rho over the generator grid, stacked.

    The generators real-span the algebra and one-form evaluation is
    real-bilinear in (a, b), so the real span of this grid is the whole
    evaluated one-form bimodule.  A real span needs the ``i E`` rows, so
    the grid reads pi and pi o rho at all of ``generator_rows``, not the
    pair stacks; the images are formed for this call and not kept.
    """
    g, d = tg.geometry, tg.geometry.dirac
    rows = g.algebra.generator_rows
    pi_a, pi_rho_a = g.rep.images(rows), tg.twisted_rep.images(rows)
    grid = pi_a[:, None] @ (d @ pi_a - pi_rho_a @ d)[None]
    return grid.reshape((-1,) + d.shape)


def compose_fluctuations(
    tg: TwistedGeometry,
    f: TwistedOneForm,
    f2: TwistedOneForm,
    tol: Tolerance = DEFAULT_TOL,
) -> Report:
    """Fluctuating a fluctuation is one fluctuation of the original.

    With D1 = fluctuation of D by f, and f2 a one-form over D1, the total
    equals the fluctuation of D by A(f) + A2(f2 over D1), and A2 lies in
    the one-form bimodule of the original D.
    """
    rep = Report("fluctuation composition")
    eps_prime = measure_ko_signs(tg.geometry, tol).eps_prime
    a1 = eval_one_form(f, tg)
    tg1 = fluctuate_with_operator(tg, a1, tol, eps_prime)
    a2 = eval_one_form(f2, tg1)
    tg2 = fluctuate_with_operator(tg1, a2, tol, eps_prime)

    total = a1 + a2
    d_direct = tg.geometry.dirac + fluctuation_operator(tg, total, eps_prime)
    scale = max(1.0, fro(tg2.geometry.dirac))
    rep.check(
        "D'' = D + (A + A') + eps' J (A + A') J^-1",
        fro(tg2.geometry.dirac - d_direct),
        tol,
        scale,
    )
    r_span = residual_against_span(a2, one_form_basis(tg))
    rep.check(
        "second one-form lies in the original bimodule", r_span, tol, max(1.0, fro(a2))
    )
    rep.info["a2_span_residual"] = r_span
    return rep
