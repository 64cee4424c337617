"""Algebra automorphisms and the twisted commutator conditions.

The twisted commutator of an operator with a represented element is
``[D, a]_rho = D pi(a) - pi(rho(a)) D``.  An automorphism here is
structural: a permutation of the algebra blocks, optionally composed with
inner unitaries; a per-block scalar factor is allowed so that maps that
fail regularity can be expressed and reported rather than rejected at
construction.

The opposite twist acts through the real structure:
``rho^o(J b* J^{-1}) = J rho(b*) J^{-1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra
from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    commutator,
    dagger,
    fro,
    worst,
)
from .report import Report
from .triple import FiniteGeometry, SignTriple, measure_ko_signs, opposite_action


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

    def inverse(self) -> "Automorphism":
        n = len(self.perm)
        inv_perm = [0] * n
        for i, j in enumerate(self.perm):
            inv_perm[j] = i
        inner = None
        if self.inner is not None:
            inner = [None] * n
            for i, j in enumerate(self.perm):
                u = self.inner[i]
                inner[j] = None if u is None else dagger(as_matrix(u))
        scale = None
        if self.scale is not None:
            scale = [1.0 + 0j] * n
            for i, j in enumerate(self.perm):
                s = self.scale[i]
                if s == 0:
                    raise ValueError("zero scale factor is not invertible")
                scale[j] = 1.0 / s
        return Automorphism(
            tuple(inv_perm),
            None if inner is None else tuple(inner),
            None if scale is None else tuple(scale),
            None if self.u_rho is None else dagger(self.u_rho),
        )

    def is_involutive_perm(self) -> bool:
        return all(self.perm[self.perm[i]] == i for i in range(len(self.perm)))


@dataclass(frozen=True)
class TwistedGeometry:
    """A finite geometry together with an automorphism of its algebra."""

    geometry: FiniteGeometry
    rho: Automorphism

    def __post_init__(self):
        self.rho.validate_for(self.geometry.algebra)

    @property
    def algebra(self) -> Algebra:
        return self.geometry.algebra

    def pi(self, elem: tuple) -> np.ndarray:
        return self.geometry.pi(elem)

    def pi_rho(self, elem: tuple) -> np.ndarray:
        return self.geometry.pi(self.rho.apply(elem))

    def twisted_commutator(self, elem: tuple) -> np.ndarray:
        d = self.geometry.dirac
        return d @ self.pi(elem) - self.pi_rho(elem) @ d

    def opposite(self, elem: tuple) -> np.ndarray:
        return opposite_action(self.geometry, elem)

    def rho_opposite(self, elem: tuple) -> np.ndarray:
        """J pi(rho(b*)) J^{-1}: the twist acting on the opposite copy."""
        g = self.geometry
        if g.real_structure is None:
            raise ValueError("geometry has no real structure")
        return g.real_structure.conjugate(self.pi_rho(self.algebra.star(elem)))

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
    rho.validate_for(alg)
    rho_inv = rho.inverse()
    gens = alg.generators()
    scale = max([1.0] + [fro(g.pi(e)) for e in gens])

    r_reg = worst(
        fro(g.pi(rho.apply(alg.star(a))) - g.pi(alg.star(rho_inv.apply(a))))
        for a in gens
    )
    rep.check("regular: rho(a*) = (rho^-1(a))*", r_reg, tol, scale)

    r_mult = worst(
        fro(
            g.pi(rho.apply(alg.mul(a, b)))
            - g.pi(alg.mul(rho.apply(a), rho.apply(b)))
        )
        for a in gens
        for b in gens
    )
    rep.check("multiplicative on generator pairs", r_mult, tol, scale**2)

    if rho.is_involutive_perm() and rho.inner is None and rho.scale is None:
        r_inv = worst(
            fro(g.pi(rho.apply(rho.apply(a))) - g.pi(a)) for a in gens
        )
        rep.check("involutive", r_inv, tol, scale)

    if rho.u_rho is not None:
        u = rho.u_rho
        rep.check(
            "implementing unitary is unitary",
            fro(u @ dagger(u) - np.eye(u.shape[0])),
            tol,
            1.0,
        )
        r_impl = worst(
            fro(g.pi(rho.apply(a)) - u @ g.pi(a) @ dagger(u)) for a in gens
        )
        rep.check("pi(rho(a)) = U pi(a) U*", r_impl, tol, scale)
    return rep


def verify_twisted_first_order(
    tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Twisted order-one condition, in both equivalent arrangements.

    Primary form:   [[D, a]_rho, J b* J^{-1}]_rho^o = 0
    Symmetric form: [[D, J b* J^{-1}]_rho^o, a]_rho = 0
    evaluated over all generator pairs (a, b).
    """
    rep = Report("twisted order-one condition")
    g = tg.geometry
    if g.real_structure is None:
        raise ValueError("geometry has no real structure")
    alg = tg.algebra
    gens = alg.generators()
    d = g.dirac

    pi_a = [tg.pi(a) for a in gens]
    pi_rho_a = [tg.pi_rho(a) for a in gens]
    opp_b = [tg.opposite(b) for b in gens]
    rho_opp_b = [tg.rho_opposite(b) for b in gens]
    scale = max([1.0] + [fro(m) for m in pi_a]) ** 2 * max(1.0, fro(d))

    t1 = [d @ ma - mra @ d for ma, mra in zip(pi_a, pi_rho_a)]
    t2 = [d @ ob - rob @ d for ob, rob in zip(opp_b, rho_opp_b)]
    worst_primary = worst(
        fro(t @ ob - rob @ t) for t in t1 for ob, rob in zip(opp_b, rho_opp_b)
    )
    worst_symmetric = worst(
        fro(t @ ma - mra @ t) for t in t2 for ma, mra in zip(pi_a, pi_rho_a)
    )
    rep.check("primary form on generator pairs", worst_primary, tol, scale)
    rep.check("symmetric form on generator pairs", worst_symmetric, tol, scale)
    rep.info["primary_residual"] = worst_primary
    rep.info["symmetric_residual"] = worst_symmetric
    return rep


def twisted_order_zero_residual(
    tg: TwistedGeometry,
) -> float:
    """max ||pi(a) b^o - rho^o(b^o) pi(a)|| over generator pairs."""
    gens = tg.algebra.generators()
    pi_a = [tg.pi(a) for a in gens]
    opp_b = [tg.opposite(b) for b in gens]
    rho_opp_b = [tg.rho_opposite(b) for b in gens]
    worst = 0.0
    for ma in pi_a:
        for ob, rob in zip(opp_b, rho_opp_b):
            worst = max(worst, fro(ma @ ob - rob @ ma))
    return worst


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
    gens = tg.algebra.generators()
    pi_a = [tg.pi(a) for a in gens]
    opp_b = [tg.opposite(b) for b in gens]
    rho_opp_b = [tg.rho_opposite(b) for b in gens]
    scale = max([1.0] + [fro(m) for m in pi_a]) ** 2

    worst_plain = max(
        fro(commutator(ma, ob)) for ma in pi_a for ob in opp_b
    )
    worst_twisted = 0.0
    for ma in pi_a:
        for ob, rob in zip(opp_b, rho_opp_b):
            worst_twisted = max(worst_twisted, fro(ma @ ob - rob @ ma))
    obstruction = max(
        fro(tg.pi(b) - tg.pi_rho(b)) for b in gens
    )
    rep.add(
        "untwisted order zero residual",
        True,
        worst_plain,
        float("inf"),
        note="recorded",
    )
    rep.add(
        "twisted order zero residual",
        True,
        worst_twisted,
        float("inf"),
        note="recorded",
    )
    both_hold = tol.accepts(worst_plain, scale) and tol.accepts(worst_twisted, scale)
    trivial = tol.accepts(obstruction, scale)
    rep.add(
        "coexistence forces trivial twist",
        (not both_hold) or trivial,
        obstruction,
        tol.rel * scale + tol.abs,
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
    g = tg.geometry
    gens = tg.algebra.generators()
    d = g.dirac
    pi_a = [tg.pi(a) for a in gens]
    pi_rho_a = [tg.pi_rho(a) for a in gens]
    opp_b = [tg.opposite(b) for b in gens]
    rho_opp_b = [tg.rho_opposite(b) for b in gens]

    worst_plain = 0.0
    worst_twisted = 0.0
    worst_fixed = 0.0
    for a, ma, mra in zip(gens, pi_a, pi_rho_a):
        plain_bracket = commutator(d, ma)
        twist_bracket = d @ ma - mra @ d
        fixed = fro(ma - mra) <= tol.rel * max(1.0, fro(ma)) + tol.abs
        for ob, rob in zip(opp_b, rho_opp_b):
            r_plain = fro(commutator(plain_bracket, ob))
            r_twist = fro(twist_bracket @ ob - rob @ twist_bracket)
            worst_plain = max(worst_plain, r_plain)
            worst_twisted = max(worst_twisted, r_twist)
            if fixed:
                worst_fixed = max(worst_fixed, max(r_plain, r_twist))
    rep.add("untwisted order one residual", True, worst_plain, float("inf"), "recorded")
    rep.add("twisted order one residual", True, worst_twisted, float("inf"), "recorded")
    scale = max([1.0] + [fro(m) for m in pi_a]) ** 2 * max(1.0, fro(d))
    rep.check("both conditions on twist-fixed elements", worst_fixed, tol, scale)
    rep.info["untwisted_residual"] = worst_plain
    rep.info["twisted_residual"] = worst_twisted
    rep.info["fixed_subalgebra_residual"] = worst_fixed
    return rep


def verify_twisted(tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Aggregate run for a twisted geometry.

    Representation axioms, regularity of the twist, self-adjointness of D,
    grading compatibility, measured signs, order zero, and the twisted
    order-one condition in both forms.
    """
    g = tg.geometry
    rep = Report("twisted real spectral triple")
    rep.merge(g.rep.check(tol), prefix="rep: ")
    rep.merge(check_regular(tg.rho, g, tol), prefix="rho: ")
    rep.check(
        "Dirac operator self-adjoint",
        fro(g.dirac - dagger(g.dirac)),
        tol,
        max(1.0, fro(g.dirac)),
    )
    gens = tg.algebra.generators()
    pi_gens = [tg.pi(a) for a in gens]
    scale_alg = max([1.0] + [fro(m) for m in pi_gens])
    if g.grading is not None:
        r = worst(fro(commutator(g.grading, m)) for m in pi_gens)
        rep.check("grading commutes with algebra", r, tol, scale_alg)
        rep.check(
            "grading anticommutes with D",
            fro(g.grading @ g.dirac + g.dirac @ g.grading),
            tol,
            max(1.0, fro(g.dirac)),
        )
    if g.real_structure is not None:
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
        opp_b = [tg.opposite(b) for b in gens]
        r0 = worst(fro(commutator(ma, ob)) for ma in pi_gens for ob in opp_b)
        rep.check("order zero: algebra commutes with opposite", r0, tol, scale_alg**2)
        rep.merge(verify_twisted_first_order(tg, tol), prefix="order one: ")
    return rep
