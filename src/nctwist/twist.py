"""Algebra automorphisms and the twisted commutator conditions.

The twisted commutator of an operator with a represented element is
``[D, a]_rho = D pi(a) - pi(rho(a)) D``: it reads a twisted geometry through
two representations, pi and pi o rho, and the second is built once per
twisted geometry as a transform of pi's stack.  An automorphism here is
structural: a permutation of the algebra blocks, optionally composed with
inner unitaries; a nonzero per-block scalar factor is allowed so that maps
that fail regularity can be expressed and reported rather than rejected at
construction.

The opposite twist acts through the real structure:
``rho^o(J b* J^{-1}) = J pi(rho(b*)) J^{-1}``.  Both it and the opposite
action are images of J pi J^{-1}, whose stack J conjugates once, at
coordinate rows moved by real matrices: the star, then R, rho on
coordinates.  Regularity reads rho^{-1} on coordinates as the inverse of R.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import Algebra, Representation
from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    dagger,
    fro,
    generator_scale,
    pair_max,
    pair_residual,
    worst,
)
from .report import Report
from .triple import FiniteGeometry, SignTriple, measure_ko_signs


@dataclass(frozen=True)
class Automorphism:
    """Block permutation + optional inner unitaries and scalar factors.

    ``perm[i]`` is the index of the source block feeding block i of the
    image: ``rho(a)_i = scale_i * u_i a_{perm[i]} u_i^dagger``.  An
    optional unitary ``u_rho`` records an implementation on the Hilbert
    space, when one exists.
    """

    perm: tuple[int, ...]
    inner: Optional[tuple[Optional[np.ndarray], ...]] = None
    scale: Optional[tuple[complex, ...]] = None
    u_rho: Optional[np.ndarray] = None

    def __post_init__(self):
        n = len(self.perm)
        if sorted(self.perm) != list(range(n)):
            raise ValueError("perm is not a permutation")
        if self.inner is not None and len(self.inner) != n:
            raise ValueError("inner length must match perm")
        if self.scale is not None and len(self.scale) != n:
            raise ValueError("scale length must match perm")
        for i, s in enumerate(() if self.scale is None else self.scale):
            if s == 0:
                raise ValueError(f"scale of block {i} is zero, which is not invertible")
        if self.u_rho is not None:
            object.__setattr__(self, "u_rho", as_matrix(self.u_rho))

    @classmethod
    def identity(cls, ncomponents: int) -> "Automorphism":
        return cls(tuple(range(ncomponents)))

    @classmethod
    def flip(cls, ncomponents: int, u_rho: np.ndarray | None = None) -> "Automorphism":
        """Exchange the two halves of a doubled algebra."""
        if ncomponents % 2:
            raise ValueError("flip needs an even number of blocks")
        half = ncomponents // 2
        perm = tuple(range(half, ncomponents)) + tuple(range(half))
        return cls(perm, u_rho=u_rho)

    def validate_for(self, algebra: Algebra) -> None:
        sig = algebra.signature()
        if len(self.perm) != len(sig):
            raise ValueError("permutation does not match algebra block count")
        for i, j in enumerate(self.perm):
            if sig[i] != sig[j]:
                raise ValueError(
                    f"permutation maps block {j} {sig[j]} onto block {i} {sig[i]}"
                )
        if self.inner is not None:
            for i, u in enumerate(self.inner):
                if u is None:
                    continue
                comp = algebra.components[i]
                if comp.kind == "C":
                    raise ValueError("inner unitaries are trivial on scalar blocks")
                u = as_matrix(u)
                if u.shape != (comp.dim, comp.dim):
                    raise ValueError(f"inner unitary {i} has wrong shape")

    def apply(self, elem: tuple) -> tuple:
        vals = []
        for i, j in enumerate(self.perm):
            v = elem[j]
            if self.inner is not None and self.inner[i] is not None:
                u = as_matrix(self.inner[i])
                v = u @ v @ dagger(u)
            if self.scale is not None:
                v = self.scale[i] * v
            vals.append(v)
        return tuple(vals)

    def is_involutive_perm(self) -> bool:
        return all(self.perm[self.perm[i]] == i for i in range(len(self.perm)))


def _validate(rho: Automorphism, g: FiniteGeometry) -> None:
    """rho acts on the algebra of ``g`` and its u_rho, if any, on C^n."""
    rho.validate_for(g.algebra)
    n, u = g.hilbert_dim, rho.u_rho
    if u is not None and u.shape != (n, n):
        raise ValueError(f"u_rho has shape {u.shape}, expected ({n}, {n})")


@dataclass(frozen=True)
class TwistedGeometry:
    """A finite geometry together with an automorphism of its algebra.

    ``twisted_rep`` is pi o rho, built once from pi's stack S as R S, R the
    real matrix of rho on coordinates: pi(rho(x)) = (coords(x) R) S.

    ``_built`` holds what reads no D, all of it built on first read but R:
    - ``"r"``: R, kept from ``__post_init__``;
    - ``"conjugated"``: ``conjugated_rep``, the J-conjugate of pi's stack;
    - ``"stacks"``: the generator images of ``stacks()``, kept read-only;
    - ``"reports"``: per ``Tolerance``, the reports of
      ``Representation.check`` and ``check_regular``;
    - ``"pairs"``: the order-zero and grading-commutes-with-algebra
      residuals over the stacks.
    ``with_dirac`` shares ``twisted_rep`` and ``_built`` with the geometry it
    returns, so a chain of fluctuations decides these verdicts once.
    Nothing that reads D is kept: self-adjointness of D, the grading's
    anticommutation with D, the signs and order one are measured on every
    call.  ``dataclasses.replace`` runs ``__post_init__`` and starts a new
    holder, so a geometry with another pi, rho, grading or J runs its own
    checks.
    """

    geometry: FiniteGeometry
    rho: Automorphism
    twisted_rep: Representation = field(init=False, repr=False, compare=False)
    _built: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate(self.rho, self.geometry)
        pi = self.geometry.rep
        r = pi.algebra.linear_map(self.rho.apply)
        twisted = Representation(pi.algebra, pi.images(r))
        object.__setattr__(self, "twisted_rep", twisted)
        object.__setattr__(self, "_built", {"r": r})

    @property
    def algebra(self) -> Algebra:
        return self.geometry.algebra

    @classmethod
    def untwisted(cls, g: FiniteGeometry) -> "TwistedGeometry":
        """``g`` with the identity twist."""
        return cls(g, Automorphism.identity(g.algebra.ncomponents))

    def with_dirac(self, d: np.ndarray) -> "TwistedGeometry":
        """The same twisted geometry with D replaced by ``d``.

        It shares ``twisted_rep`` and ``_built`` with ``self``: the generator
        stacks and the ``verify_twisted`` verdicts that read no D.  Nothing
        that reads D is shared.
        """
        out = copy.copy(self)
        object.__setattr__(out, "geometry", self.geometry.with_dirac(d))
        return out

    @property
    def conjugated_rep(self) -> Representation:
        """``FiniteGeometry.conjugated`` of pi, built on first read."""
        built = self._built
        if "conjugated" not in built:
            built["conjugated"] = self.geometry.conjugated(self.geometry.rep)
        return built["conjugated"]

    def stacks(self, rows: np.ndarray | None = None) -> tuple:
        """pi(a), pi(rho(a)), J pi(b*) J^-1 and J pi(rho(b*)) J^-1 over ``rows``.

        Each is ``(len(rows), n, n)``, the last two None without a J.  They
        are the images of pi and pi o rho at the coordinate ``rows``, and of
        ``conjugated_rep`` at ``rows @ star_matrix`` and ``rows @ star_matrix
        @ R``.  The default, ``Algebra.generator_rows``, is built once and
        read-only; other ``rows`` are built per call.
        """
        if rows is None:
            if "stacks" not in self._built:
                built = self.stacks(self.algebra.generator_rows)
                for s in built:
                    if s is not None:
                        s.flags.writeable = False
                self._built["stacks"] = built
            return self._built["stacks"]
        pi_a, pi_rho_a = self.geometry.rep.images(rows), self.twisted_rep.images(rows)
        if self.geometry.real_structure is None:
            return pi_a, pi_rho_a, None, None
        cs = rows @ self.algebra.star_matrix
        opp = self.conjugated_rep
        return pi_a, pi_rho_a, opp.images(cs), opp.images(cs @ self._built["r"])

    def signs(self, tol: Tolerance = DEFAULT_TOL) -> SignTriple:
        return measure_ko_signs(self.geometry, tol)


def check_regular(
    rho: Automorphism, g: FiniteGeometry, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Check rho(a*) = (rho^{-1}(a))* and multiplicativity on generators.

    Both are evaluated through the representation so that the residuals are
    operator norms comparable with everything else in a run.
    """
    rep = Report("automorphism regularity")
    alg = g.algebra
    _validate(rho, g)
    pi = g.rep
    cg = alg.generator_rows
    mats = pi.images(cg)
    scale = generator_scale(mats)
    n = pi.dim
    # coordinate rows move through rho, rho^-1 and the star as real matrices
    r = alg.linear_map(rho.apply)
    star = alg.star_matrix
    cr = cg @ r

    def gap(diff):
        """max_{i,j} ||pi(a_ij) - pi(b_ij)||, read as pi(diff[i, j]), diff = a - b."""
        return pair_max(coords=diff, stack=pi.stack)

    # a single-generator record is one row of the pair grid: (1, G, B)
    r_reg = gap(
        (cg @ star @ r - cg @ np.linalg.inv(r) @ star)[None]
    )
    rep.check("regular: rho(a*) = (rho^-1(a))*", r_reg, tol, scale)

    # rho(a b) against rho(a) rho(b) on every pair, cross-block ones included
    diff = alg.mul_coords(cg[:, None], cg[None]) @ r
    diff -= alg.mul_coords(cr[:, None], cr[None])
    rep.check("multiplicative on generator pairs", gap(diff), tol, scale**2)

    if rho.is_involutive_perm() and rho.inner is None and rho.scale is None:
        rep.check("involutive", gap((cr @ r - cg)[None]), tol, scale)

    if rho.u_rho is not None:
        u = rho.u_rho
        rep.check(
            "implementing unitary is unitary",
            fro(u @ dagger(u) - np.eye(u.shape[0])),
            tol,
            1.0,
        )
        r_impl = pair_max(
            np.eye(n, dtype=np.complex128)[None],
            u @ mats @ dagger(u),
            coords=cr[None],
            stack=pi.stack,
        )
        rep.check("pi(rho(a)) = U pi(a) U*", r_impl, tol, scale)
    return rep


def first_order_residuals(
    d: np.ndarray,
    pi_a: np.ndarray,
    pi_rho_a: np.ndarray,
    opp_b: np.ndarray,
    rho_opp_b: np.ndarray,
) -> tuple[float, float]:
    """Primary and symmetric twisted order-one residuals over stacked pairs.

    Primary form:   max ||[[D, a]_rho, J b* J^{-1}]_rho^o||
    Symmetric form: max ||[[D, J b* J^{-1}]_rho^o, a]_rho||
    With ``pi_rho_a = pi_a`` and ``rho_opp_b = opp_b`` both are untwisted.
    """
    primary = pair_residual(d @ pi_a - pi_rho_a @ d, opp_b, rho_opp_b)
    symmetric = pair_residual(d @ opp_b - rho_opp_b @ d, pi_a, pi_rho_a)
    return primary, symmetric


def verify_twisted_first_order(
    tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Twisted order-one condition, in both equivalent arrangements.

    Primary form:   [[D, a]_rho, J b* J^{-1}]_rho^o = 0
    Symmetric form: [[D, J b* J^{-1}]_rho^o, a]_rho = 0
    evaluated over all generator pairs (a, b).
    """
    rep = Report("twisted order-one condition")
    d = tg.geometry.dirac
    pi_a, pi_rho_a, opp_b, rho_opp_b = tg.stacks()
    primary, symmetric = first_order_residuals(d, pi_a, pi_rho_a, opp_b, rho_opp_b)
    scale = generator_scale(pi_a) ** 2 * max(1.0, fro(d))
    rep.check("primary form on generator pairs", primary, tol, scale)
    rep.check("symmetric form on generator pairs", symmetric, tol, scale)
    rep.info["primary_residual"] = primary
    rep.info["symmetric_residual"] = symmetric
    return rep


def zero_order_conflict_check(
    tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Quantify why twisted and untwisted order-zero cannot coexist.

    Demanding both conditions for all pairs forces pi(rho(b)) = pi(b) for
    every b; the obstruction norm ||pi(b - rho(b))|| per generator measures
    how far the twist is from the identity.  The report records the two
    order-zero residuals and the largest obstruction.
    """
    rep = Report("order-zero conflict")
    pi_a, pi_rho_a, opp_b, rho_opp_b = tg.stacks()
    scale = generator_scale(pi_a) ** 2

    worst_plain = pair_residual(pi_a, opp_b)
    worst_twisted = pair_residual(pi_a, opp_b, rho_opp_b)
    obstruction = pair_residual([np.eye(tg.geometry.hilbert_dim)], pi_a, pi_rho_a)
    rep.record("untwisted order zero residual", worst_plain, "recorded")
    rep.record("twisted order zero residual", worst_twisted, "recorded")
    both_hold = tol.accepts(worst_plain, scale) and tol.accepts(worst_twisted, scale)
    trivial = tol.accepts(obstruction, scale)
    rep.add(
        "coexistence forces trivial twist",
        (not both_hold) or trivial,
        obstruction,
        tol.bound(scale),
        note=f"obstruction ||pi(b - rho(b))|| = {obstruction:.3e}",
    )
    rep.info["obstruction"] = obstruction
    rep.info["untwisted_residual"] = worst_plain
    rep.info["twisted_residual"] = worst_twisted
    return rep


def coexistence_first_order_check(
    tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Evaluate twisted and untwisted order-one conditions side by side.

    Unlike order zero, the two order-one conditions can hold together; this
    reports both residuals over the full generator set and, separately,
    over the subalgebra fixed by the twist (where the two conditions
    coincide).
    """
    rep = Report("order-one coexistence")
    d = tg.geometry.dirac
    pi_a, pi_rho_a, opp_b, rho_opp_b = tg.stacks()
    plain = d @ pi_a - pi_a @ d
    twisted = d @ pi_a - pi_rho_a @ d
    # a generator its twist cannot be told apart from (NaN included) is fixed
    fixed = [
        not fro(ma - mra) > tol.bound(max(1.0, fro(ma)))
        for ma, mra in zip(pi_a, pi_rho_a)
    ]
    worst_plain = pair_residual(plain, opp_b)
    worst_twisted = pair_residual(twisted, opp_b, rho_opp_b)
    worst_fixed = worst(
        [
            pair_residual(plain[fixed], opp_b),
            pair_residual(twisted[fixed], opp_b, rho_opp_b),
        ]
    )
    rep.record("untwisted order one residual", worst_plain, "recorded")
    rep.record("twisted order one residual", worst_twisted, "recorded")
    scale = generator_scale(pi_a) ** 2 * max(1.0, fro(d))
    rep.check("both conditions on twist-fixed elements", worst_fixed, tol, scale)
    rep.info["untwisted_residual"] = worst_plain
    rep.info["twisted_residual"] = worst_twisted
    rep.info["fixed_subalgebra_residual"] = worst_fixed
    return rep


def _d_free_verdicts(tg: TwistedGeometry, tol: Tolerance) -> tuple:
    """``(pi report, rho report, grading residual, order-zero residual)``.

    None of the four reads D, so each is kept on ``tg._built``, which
    ``with_dirac`` shares: the two reports under ``"reports"``, keyed by the
    tolerance, and the two pair residuals under ``"pairs"`` (None without a
    grading or a J, respectively).
    """
    g, built = tg.geometry, tg._built
    reports = built.setdefault("reports", {})
    if tol not in reports:
        reports[tol] = (g.rep.check(tol), check_regular(tg.rho, g, tol))
    if "pairs" not in built:
        pi_a, _, opp_b, _ = tg.stacks()
        built["pairs"] = (
            None if g.grading is None else pair_residual([g.grading], pi_a),
            None if g.real_structure is None else pair_residual(pi_a, opp_b),
        )
    return reports[tol] + built["pairs"]


def verify_twisted(tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Aggregate run for a twisted geometry; rho = id gives the untwisted one.

    Representation axioms, regularity of the twist, self-adjointness of D,
    the grading and the real structure, measured signs, order zero, and
    the twisted order-one condition in both forms.

    The representation and regularity reports and the two pair residuals
    that read no D (grading commutes with the algebra, order zero) are
    decided once per shared build (see ``TwistedGeometry``); every other
    record is measured on each call.
    """
    g = tg.geometry
    eye = np.eye(g.hilbert_dim)
    rep = Report("twisted real spectral triple")
    rep_pi, rep_rho, r_grading, r_zero = _d_free_verdicts(tg, tol)
    rep.merge(rep_pi, prefix="rep: ")
    rep.merge(rep_rho, prefix="rho: ")
    d = g.dirac
    scale_d = max(1.0, fro(d))
    rep.check("Dirac operator self-adjoint", fro(d - dagger(d)), tol, scale_d)
    scale_alg = generator_scale(tg.stacks()[0])
    if g.grading is not None:
        gam = g.grading
        rep.check("grading self-adjoint", fro(gam - dagger(gam)), tol, 1.0)
        rep.check("grading squares to identity", fro(gam @ gam - eye), tol, 1.0)
        rep.check("grading commutes with algebra", r_grading, tol, scale_alg)
        rep.check("grading anticommutes with D", fro(gam @ d + d @ gam), tol, scale_d)
    if g.real_structure is not None:
        u = g.real_structure.unitary
        rep.check("real structure antiunitary", fro(u @ dagger(u) - eye), tol, 1.0)
        try:
            signs = measure_ko_signs(g, tol)
            rep.add(
                "sign triple determinate",
                True,
                0.0,
                0.0,
                note=f"(eps, eps', eps'') = {signs.as_tuple()}",
            )
            rep.info["signs"] = list(signs.as_tuple())
        except ValueError as exc:
            rep.add("sign triple determinate", False, float("nan"), 0.0, note=str(exc))
        # order zero stays untwisted: imposing the twisted variant as well
        # would force a trivial twist (see zero_order_conflict_check)
        rep.check(
            "order zero: algebra commutes with opposite", r_zero, tol, scale_alg**2
        )
        rep.merge(verify_twisted_first_order(tg, tol), prefix="order one: ")
    return rep
