"""Twisted one-forms and twisted fluctuations of the Dirac operator.

A twisted one-form is a finite sum ``sum_j pi(a_j) [D, b_j]_rho``.  The
fluctuated operator is ``D_A = D + A + eps' J A J^{-1}`` with eps' taken
from the measured sign triple of the geometry; the fluctuation is accepted
only when D_A is self-adjoint (A itself need not be).

A twisted geometry keeps its last fluctuation: A, D_A, the self-adjointness
defect and its bound, and the fluctuated geometry when it is accepted,
keyed by the coordinate rows of the one-form, eps' and the tolerance.
``verify_fluctuated``, ``fluctuate`` and ``compose_fluctuations`` read it,
so a chain that verifies a step, takes it and composes two of them
evaluates each one-form once on each geometry.  The composition's span
record reads the one-form grid (``one_form_basis``) as an ``Operand`` built
from nonzero entries where that gives the dense grid's bits, and solves on
the support read from those entries (``matlin.residual_against_span``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .matlin import (
    DEFAULT_TOL,
    Operand,
    PairCoords,
    Tolerance,
    dagger,
    fro,
    pair_products,
    pair_residual,
    residual_against_span,
    sign_fits,
    tightest,
)
from .report import Report
from .twist import (
    TwistedGeometry,
    measured_signs,
    order_one,
    order_one_operand,
    verify_twisted,
)
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
    return (g.rep.images(ca) @ order_one(d, pi_b, pi_rho_b)).sum(axis=0)


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


class _Fluctuation(NamedTuple):
    """A fluctuation of a twisted geometry by a one-form, with the sign eps'."""

    a: np.ndarray  # the evaluated one-form A
    dirac: np.ndarray  # D_A = D + A + eps' J A J^-1
    defect: float  # ||D_A - D_A*|| / 2
    scale: float  # the scale the defect is judged at
    geometry: Optional[TwistedGeometry]  # D replaced by D_A, when accepted

    def accepted(self) -> TwistedGeometry:
        """The fluctuated geometry; ValueError, with the defect, when D_A is
        not self-adjoint."""
        if self.geometry is None:
            raise ValueError(
                f"fluctuated operator is not self-adjoint: defect {self.defect:.3e}"
            )
        return self.geometry


def _fluctuation(
    tg: TwistedGeometry, f: TwistedOneForm, tol: Tolerance, eps_prime: int
) -> _Fluctuation:
    """The fluctuation of ``tg`` by ``f`` with ``eps_prime``, kept in ``tg``'s slot.

    The slot holds one fluctuation, keyed by the value of ``f`` (its
    coordinate rows), ``eps_prime`` and ``tol``; another key replaces it.
    """
    rows = tuple(tg.algebra.coord_rows(side) for side in zip(*f.terms))
    key = (tuple((c.shape, c.tobytes()) for c in rows), eps_prime, tol)
    slot = tg._fluctuation
    if key not in slot:
        a_mat = eval_one_form(f, tg)
        d_new = tg.geometry.dirac + fluctuation_operator(tg, a_mat, eps_prime)
        defect = fro(d_new - dagger(d_new)) / 2.0
        scale = max(1.0, fro(d_new))
        # a bound that overflowed accepts nothing, as in ``Report.check``
        accepted = tg.with_dirac(d_new) if defect <= tol.bound(scale) < np.inf else None
        slot.clear()
        slot[key] = _Fluctuation(a_mat, d_new, defect, scale, accepted)
    return slot[key]


def fluctuate(
    tg: TwistedGeometry, f: TwistedOneForm, tol: Tolerance = DEFAULT_TOL
) -> TwistedGeometry:
    """Fluctuate by a twisted one-form: D -> D + A + eps' J A J^{-1}.

    Raises ValueError when the resulting operator is not self-adjoint; the
    defect (norm of the anti-Hermitian part) is included in the message.
    """
    eps_prime = measure_ko_signs(tg.geometry, tol).eps_prime
    return _fluctuation(tg, f, tol, eps_prime).accepted()


def verify_fluctuated(
    tg: TwistedGeometry, f: TwistedOneForm, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Fluctuate and re-run the twisted-triple axioms on the result.

    Also confirms the structural facts that do not depend on the axioms:
    sign preservation, grading anticommutation with the added term, and
    J D_A = eps' D_A J with the signs of the base geometry.  Without a
    decided eps' on the base there is no D_A: the report fails a "sign
    triple determinate" record, as ``verify_twisted`` does.
    """
    rep = Report("fluctuated geometry")
    g = tg.geometry
    signs_before = measured_signs(rep, "sign triple determinate", g, tol)
    if signs_before is None:
        return rep
    step = _fluctuation(tg, f, tol, signs_before.eps_prime)
    accepted = rep.check("fluctuation accepted (self-adjoint)", step.defect, tol, step.scale)
    if not accepted.passed:
        return rep
    fluct, d_new = step.geometry, step.dirac
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


def one_form_basis(tg: TwistedGeometry) -> Operand:
    """The stack of matrices whose real span is the evaluated one-form bimodule.

    The generators real-span the algebra and one-form evaluation is
    real-bilinear in (a, b), so the real span of the grid pi(g_i) [D, g_j]_rho
    over all generators is the whole bimodule.  The grid is read at the pair
    rows, from the kept ``stacks()``.  On a component whose ``i E`` rows
    ``Representation.pair_rows`` drops, pi and pi o rho carry one sign s,
    so pi(iE) = s i pi(E) and [D, iE]_rho = s i [D, E]_rho: an evaluation
    at a dropped row is a real multiple of a kept one or of ``i`` times a
    kept one.  So the basis is the pair-row grid and ``i`` times its
    evaluations whose a or b lies in such a component, appended in pair order.

    The commutators are ``twist.order_one_operand``'s stack, and the grid
    is built from the nonzero entries (``matlin.pair_products``) where that
    gives the dense product's bits, its ``i`` multiples as the same entries
    times ``1j``; otherwise it is the dense product.
    """
    d, pi, perm = tg.geometry.dirac, tg.geometry.rep, tg.rho.perm
    # the component of each pair row, and whether it lost its i E rows
    rows, _ = pi.pair_rows(perm)
    first = (rows != 0).argmax(axis=1)
    component = np.searchsorted(tg.algebra.basis_offsets(), first, side="right") - 1
    lone = np.array(pi.drops(perm))[component]
    multiplied = lone[:, None] | lone[None, :]
    # an inf meets zeros (inf * 0), in J's conjugation of the stacks too, and
    # reads NaN, which fails the span record
    with np.errstate(invalid="ignore"):
        pi_a, pi_rho_a = tg.stacks()[:2]
        n, k = d.shape[0], pi_a.shape[0]
        comm = order_one_operand(d, pi_a, pi_rho_a)
        grid = pair_products(pi_a, comm)
        if grid is None:  # pi(a) [D, b]_rho for every pair, as one product per a
            wide = comm.array.transpose(1, 0, 2).reshape(n, k * n)
            products = (pi_a.array @ wide).reshape(k, n, k, n).transpose(0, 2, 1, 3)
            out = np.empty((k * k + int(multiplied.sum()), n, n), np.complex128)
            out[: k * k].reshape(k, k, n, n)[...] = products
            np.multiply(products[multiplied], 1j, out=out[k * k :])
            return Operand(out)
    # the entries of a multiplied pair, moved to that pair's i multiple
    e, multiplied = grid.entries, multiplied.reshape(-1)
    pair = e.index[0]
    moved = multiplied[pair]
    shift = (k * k + np.cumsum(multiplied) - 1 - np.arange(k * k)) * (n * n)
    key = np.concatenate([e.key, e.key[moved] + shift[pair[moved]]])
    value = np.concatenate([e.value, e.value[moved] * 1j])
    return Operand(PairCoords((k * k + int(multiplied.sum()), n, n), key, value))


def compose_fluctuations(
    tg: TwistedGeometry,
    f: TwistedOneForm,
    f2: TwistedOneForm,
    tol: Tolerance = DEFAULT_TOL,
) -> Report:
    """Fluctuating a fluctuation is one fluctuation of the original.

    With D1 = fluctuation of D by f, and f2 a one-form over D1, the total
    equals the fluctuation of D by A(f) + A2(f2 over D1), and A2 lies in
    the one-form bimodule of the original D.  Without a decided eps' the
    report fails a "sign triple determinate" record instead.
    """
    rep = Report("fluctuation composition")
    signs = measured_signs(rep, "sign triple determinate", tg.geometry, tol)
    if signs is None:
        return rep
    eps_prime = signs.eps_prime
    first = _fluctuation(tg, f, tol, eps_prime)
    second = _fluctuation(first.accepted(), f2, tol, eps_prime)
    tg2, a2 = second.accepted(), second.a

    total = first.a + a2
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
