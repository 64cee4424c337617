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
from typing import Hashable, NamedTuple, Optional

import numpy as np

from .algebra import Algebra, Representation
from .matlin import (
    DEFAULT_TOL,
    Operand,
    PairCoords,
    Tolerance,
    as_matrix,
    built,
    dagger,
    difference,
    digest,
    entry_built,
    fro,
    kept,
    pair_max,
    pair_residual,
    sign_fits,
    tightest,
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
    space, when one exists.  ``_u_rho_key`` keeps ``u_rho_key``.
    """

    perm: tuple[int, ...]
    inner: Optional[tuple[Optional[np.ndarray], ...]] = None
    scale: Optional[tuple[complex, ...]] = None
    u_rho: Optional[np.ndarray] = None
    _u_rho_key: Optional[Hashable] = field(default=None, init=False, repr=False, compare=False)

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
    def flip(
        cls, ncomponents: int, u_rho: np.ndarray | None = None, u_rho_key: Hashable = None
    ) -> "Automorphism":
        """Exchange the two halves of a doubled algebra.

        ``u_rho_key``, when given, names ``u_rho`` by the value of the
        inputs it is a pure function of (see ``u_rho_key``).
        """
        if ncomponents % 2:
            raise ValueError("flip needs an even number of blocks")
        half = ncomponents // 2
        perm = tuple(range(half, ncomponents)) + tuple(range(half))
        out = cls(perm, u_rho=u_rho)
        object.__setattr__(out, "_u_rho_key", None if u_rho is None else u_rho_key)
        return out

    @property
    def u_rho_key(self) -> Hashable:
        """``u_rho`` by value, for the tables kept by value: its
        ``matlin.digest``, found once (None without a ``u_rho``).

        ``flip`` may be given a key instead that names ``u_rho`` by the
        value of the inputs it is a pure function of (``twist_by_grading``
        passes the key of ``mintwist._UNITARIES``), so that it is not
        hashed.  Either way equal keys mean equal unitaries.
        ``dataclasses.replace`` starts it afresh.
        """
        if self._u_rho_key is None and self.u_rho is not None:
            object.__setattr__(self, "_u_rho_key", digest(self.u_rho))
        return self._u_rho_key

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
                # a non-finite inner is left to the reports, where it fails
                if np.isfinite(u).all() and np.linalg.matrix_rank(u) < comp.dim:
                    raise ValueError(f"inner unitary {i} is not invertible")

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


class _CoordinateTables(NamedTuple):
    """rho on coordinates, and the coordinate sides of the regularity records.

    ``r`` is R, ``coords(rho(x)) = coords(x) @ R``, and ``inverse`` is
    rho^-1 on coordinates.  ``moved`` holds the pair rows moved by R, and
    ``regular``, ``multiplicative`` and ``involutive`` the differences the
    regularity records read through pi, each a ``PairCoords`` over the pair
    rows; ``involutive`` is None unless rho is an involutive permutation
    that moves values without changing them.  Every array is read-only.
    """

    r: np.ndarray
    inverse: np.ndarray
    moved: PairCoords
    regular: PairCoords
    multiplicative: PairCoords
    involutive: Optional[PairCoords]


# rho's coordinate tables by value, least recently read first
_TABLES: dict = {}
_KEPT_TABLES = 32
# a larger value is built on every call instead: a dense inner unitary on
# M_10 makes a multiplicative difference of 1.8 M entries (28 MiB)
_KEPT_BYTES = 2**20


def _values(parts) -> Optional[bytes]:
    """``inner`` or ``scale`` by value: the digest of each part's complex128 values."""
    if parts is None:
        return None
    return digest(*(None if p is None else np.asarray(p, np.complex128) for p in parts))


def _coordinate_tables(
    alg: Algebra, rho: Automorphism, drop: tuple[bool, ...]
) -> _CoordinateTables:
    """rho's ``_CoordinateTables`` over ``alg.pair_rows(drop)``, shared by value.

    They are pure functions of the algebra, of rho's action on coordinates
    (``perm``, ``inner`` and ``scale``, not ``u_rho``) and of ``drop``, so a
    call with an equal key reads the tables an earlier one built, as equal
    algebras share theirs (``algebra._first_equal``).  The last 32 keys
    read are kept; a value of more than ``_KEPT_BYTES``, counting the
    per-axis indices of its differences, is not.
    """
    key = (alg, rho.perm, _values(rho.inner), _values(rho.scale), drop)
    tables = _TABLES.pop(key, None)
    if tables is None:
        cg, table = alg.pair_rows(drop)
        # coordinate rows move through rho, rho^-1 and the star as real matrices
        star = alg.star_matrix
        r = alg.linear_map(rho.apply)
        inverse = np.linalg.inv(r)
        cr = cg @ r
        plain = all(u is None for u in rho.inner or ())
        plain = plain and all(c == 1 for c in rho.scale or ())
        tables = _CoordinateTables(
            r,
            inverse,
            PairCoords.of(cr[None]),
            # a single-generator record is one row of the pair grid: (1, G, B)
            PairCoords.of((cg @ star @ r - cg @ inverse @ star)[None]),
            # rho(a b) against rho(a) rho(b) on every pair, cross-block ones included
            table @ r - alg.products(cr, cr),
            PairCoords.of((cr @ r - cg)[None])
            if rho.is_involutive_perm() and plain
            else None,
        )
        arrays = [r, inverse]
        arrays += [a for c in tables[2:] if c is not None for a in (c.key, c.value, *c.index)]
        for a in arrays:
            a.flags.writeable = False
        if sum(a.nbytes for a in arrays) > _KEPT_BYTES:
            return tables
    return kept(_TABLES, key, tables, _KEPT_TABLES)


@dataclass(frozen=True)
class TwistedGeometry:
    """A finite geometry together with an automorphism of its algebra.

    ``twisted_rep`` is pi o rho, built once from pi's stack S as R S, R the
    real matrix of rho on coordinates: pi(rho(x)) = (coords(x) R) S.

    ``_built`` holds what reads no D, all of it built on first read but R:
    - ``"r"``: R, read in ``__post_init__`` from the shared
      ``_coordinate_tables``;
    - ``"conjugated"``: ``conjugated_rep``, the J-conjugate of pi's stack;
    - ``"stacks"``: the generator stacks of ``stacks()``, kept as operands;
    - ``"key"``: the value of what the D-free verdicts read (``_d_free_key``).
    ``with_dirac`` shares ``twisted_rep`` and ``_built`` with the geometry it
    returns, so a chain of fluctuations builds the stacks once.  The
    verdicts that read no D are shared by value instead, across every
    geometry: ``_d_free_verdicts`` keeps them in ``_VERDICTS`` under
    ``"key"`` and the tolerance, so an independently built geometry with an
    equal pi, rho, grading and J reads them without deciding them again.
    Nothing that reads D is shared: self-adjointness of D, the grading's
    anticommutation with D and order one are measured on every call, and
    the signs once per ``FiniteGeometry``.  ``dataclasses.replace`` runs
    ``__post_init__`` and starts a new holder, which builds its own stacks.

    ``_fluctuation`` is the one slot in which ``fluct.py`` keeps the last
    fluctuation of this geometry, keyed by the value of the one-form, eps'
    and the tolerance; ``__post_init__`` and ``with_dirac`` start it empty.
    """

    geometry: FiniteGeometry
    rho: Automorphism
    twisted_rep: Representation = field(init=False, repr=False, compare=False)
    _built: dict = field(init=False, repr=False, compare=False)
    _fluctuation: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _validate(self.rho, self.geometry)
        pi = self.geometry.rep
        r = _coordinate_tables(pi.algebra, self.rho, pi.drops(self.rho.perm)).r
        # rho maps component k onto the component i with perm[i] = k
        signs = [pi.signs[i] for i in np.argsort(self.rho.perm)]
        twisted = Representation(pi.algebra, pi.image_operand(r), signs=signs)
        object.__setattr__(self, "twisted_rep", twisted)
        object.__setattr__(self, "_built", {"r": r})
        object.__setattr__(self, "_fluctuation", {})

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
        stacks and the key under which the ``verify_twisted`` verdicts that
        read no D are kept (``_d_free_key``).  Nothing that reads D is
        shared: the new geometry's signs and fluctuation slot start empty.
        """
        out = copy.copy(self)
        object.__setattr__(out, "geometry", self.geometry.with_dirac(d))
        object.__setattr__(out, "_fluctuation", {})
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

        Each is an ``Operand`` of ``(len(rows), n, n)``, the last two None
        without a J.  They are the images of pi and pi o rho at the
        coordinate ``rows``, and of ``conjugated_rep`` at ``rows @
        star_matrix`` and ``rows @ star_matrix @ R``.  The default, pi's
        ``pair_rows`` under rho, is built once: the first two are the
        ``pair_images`` of pi and pi o rho, and the four are kept, so each
        is scanned once however many checks read it.  Other ``rows`` are
        built per call.
        """
        if rows is None:
            built = self._built
            if "stacks" not in built:
                pi, twisted, perm = self.geometry.rep, self.twisted_rep, self.rho.perm
                opposite = self._opposite(pi.pair_rows(perm)[0])
                own = (pi.pair_images(perm), twisted.pair_images(perm))
                built["stacks"] = own + opposite
            return built["stacks"]
        own = self.geometry.rep.image_operand(rows), self.twisted_rep.image_operand(rows)
        return own + self._opposite(rows)

    def _opposite(self, rows: np.ndarray) -> tuple:
        """The last two ``stacks`` over ``rows``."""
        if self.geometry.real_structure is None:
            return None, None
        cs = rows @ self.algebra.star_matrix
        opp = self.conjugated_rep
        return opp.image_operand(cs), opp.image_operand(cs @ self._built["r"])


def check_regular(
    rho: Automorphism, g: FiniteGeometry, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Check rho(a*) = (rho^{-1}(a))* and multiplicativity on generators.

    Both are evaluated through the representation so that the residuals are
    operator norms comparable with everything else in a run, over pi's
    ``pair_rows`` under rho.  The coordinate sides depend on the algebra and
    rho alone, and are read from the shared ``_coordinate_tables``.
    """
    rep = Report("automorphism regularity")
    _validate(rho, g)
    pi = g.rep
    tables = _coordinate_tables(g.algebra, rho, pi.drops(rho.perm))
    scale = pi.generator_scale
    n = pi.dim

    def gap(diff):
        """max_{i,j} ||pi(a_ij) - pi(b_ij)||, read as pi(diff[i, j]), diff = a - b."""
        return pair_max(coords=diff, stack=pi.operand)

    rep.check("regular: rho(a*) = (rho^-1(a))*", gap(tables.regular), tol, scale)
    r_mult = gap(tables.multiplicative)
    rep.check("multiplicative on generator pairs", r_mult, tol, scale**2)
    if tables.involutive is not None:
        rep.check("involutive", gap(tables.involutive), tol, scale)

    if rho.u_rho is not None:
        u = rho.u_rho
        rep.check(
            "implementing unitary is unitary",
            fro(u @ dagger(u) - np.eye(u.shape[0])),
            tol,
            1.0,
        )
        mats = pi.pair_images(rho.perm)
        moved = built(
            lambda: u @ mats.array @ dagger(u), mats, [(u, 1), (dagger(u), 2)], False
        )
        r_impl = pair_max(
            np.eye(n, dtype=np.complex128)[None],
            moved,
            coords=tables.moved,
            stack=pi.operand,
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
    The stacks are ``Operand``s or arrays.
    """
    pi_a, pi_rho_a = Operand.of(pi_a), Operand.of(pi_rho_a)
    opp_b, rho_opp_b = Operand.of(opp_b), Operand.of(rho_opp_b)
    primary = pair_residual(order_one_operand(d, pi_a, pi_rho_a), opp_b, rho_opp_b)
    symmetric = pair_residual(order_one_operand(d, opp_b, rho_opp_b), pi_a, pi_rho_a)
    return primary, symmetric


def order_one(d: np.ndarray, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """The stack ``D xs[k] - zs[k] D`` of dense stacks: the one dense formula."""
    return d @ xs - zs @ d


def order_one_operand(d: np.ndarray, xs: Operand, zs: Operand) -> Operand:
    """The stack ``D xs[k] - zs[k] D``: ``D S`` and ``S' D``, each built from
    the entries where that is cheaper and exact (``matlin.entry_built``), then
    subtracted with the bits of the dense subtraction; where either side is
    not, the dense formula ``order_one``."""
    left = entry_built(xs, [(d, 1)], False)
    right = None if left is None else entry_built(zs, [(d, 2)], False)
    if right is None:
        return Operand(order_one(d, xs.array, zs.array))
    return difference(left, right)


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
    scale = tg.geometry.rep.generator_scale**2 * max(1.0, fro(d))
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
    order-zero residuals, and checks the largest obstruction against ``tol``
    when both conditions hold; otherwise the premise fails and the
    obstruction is only recorded.
    """
    rep = Report("order-zero conflict")
    pi_a, pi_rho_a, opp_b, rho_opp_b = tg.stacks()
    scale = tg.geometry.rep.generator_scale**2

    worst_plain = pair_residual(pi_a, opp_b)
    worst_twisted = pair_residual(pi_a, opp_b, rho_opp_b)
    obstruction = pair_residual([np.eye(tg.geometry.hilbert_dim)], pi_a, pi_rho_a)
    rep.record("untwisted order zero residual", worst_plain, "recorded")
    rep.record("twisted order zero residual", worst_twisted, "recorded")
    name = "coexistence forces trivial twist"
    note = f"obstruction ||pi(b - rho(b))|| = {obstruction:.3e}"
    if tol.accepts(worst_plain, scale) and tol.accepts(worst_twisted, scale):
        rep.check(name, obstruction, tol, scale, note)
    else:
        rep.record(name, obstruction, note + "; premise fails")
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
    plain = order_one(d, pi_a.array, pi_a.array)
    twisted = order_one(d, pi_a.array, pi_rho_a.array)
    # a generator its twist cannot be told apart from (NaN included) is fixed
    fixed = [
        not fro(ma - mra) > tol.bound(max(1.0, fro(ma)))
        for ma, mra in zip(pi_a.array, pi_rho_a.array)
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
    scale = tg.geometry.rep.generator_scale**2 * max(1.0, fro(d))
    rep.check("both conditions on twist-fixed elements", worst_fixed, tol, scale)
    rep.info["untwisted_residual"] = worst_plain
    rep.info["twisted_residual"] = worst_twisted
    rep.info["fixed_subalgebra_residual"] = worst_fixed
    return rep


# the verdicts of ``_d_free_verdicts`` by value, least recently read first,
# at most ``matlin.KEPT_VALUES`` of them
_VERDICTS: dict = {}


def _d_free_key(tg: TwistedGeometry, tol: Tolerance) -> tuple:
    """Every input of the D-free verdicts, by value, and ``tol``.

    The algebra; pi's operand (``Representation.digest``) and signs; rho's
    ``perm``, ``inner``, ``scale`` and ``u_rho`` (``u_rho_key``); the
    grading and J's unitary (``FiniteGeometry.digests``).  Arrays enter as
    their blake2b digests (``matlin.digest``), each found once per object
    that holds it.  All but ``tol`` is kept on ``tg._built``, which
    ``with_dirac`` shares, since D is not part of it.
    """
    built = tg._built
    if "key" not in built:
        g, rho, pi = tg.geometry, tg.rho, tg.geometry.rep
        rho_parts = rho.perm, _values(rho.inner), _values(rho.scale), rho.u_rho_key
        built["key"] = (pi.algebra, pi.digest, pi.signs) + rho_parts + g.digests
    return built["key"], tol


def _d_free_verdicts(tg: TwistedGeometry, tol: Tolerance) -> tuple:
    """``(pi report, rho report, grading residual, order-zero residual)``.

    None of the four reads D: they are the reports of ``Representation.check``
    and ``check_regular`` and the grading-commutes-with-algebra and order-zero
    residuals over the stacks (None without a grading or a J, respectively).
    They are decided once per value of their inputs and kept in
    ``_VERDICTS``, keyed by ``_d_free_key``.  A kept report is shared:
    callers merge it and do not change it.
    """
    key = _d_free_key(tg, tol)
    if key in _VERDICTS:
        return kept(_VERDICTS, key, _VERDICTS.pop(key))
    g = tg.geometry
    reports = g.rep.check(tol), check_regular(tg.rho, g, tol)
    pi_a, _, opp_b, _ = tg.stacks()
    pairs = (
        None if g.grading is None else pair_residual([g.grading], pi_a),
        None if g.real_structure is None else pair_residual(pi_a, opp_b),
    )
    return kept(_VERDICTS, key, reports + pairs)


def measured_signs(
    rep: Report, name: str, g: FiniteGeometry, tol: Tolerance
) -> Optional[SignTriple]:
    """``measure_ko_signs(g, tol)``, or None when a sign is undecided.

    An undecided sign fails a record ``name`` on ``rep``, decided on its
    ``match_sign`` evidence: when both signs fit, a floor record of the
    larger residual; when neither fits, the smaller one (a NaN stays NaN).
    """
    try:
        return measure_ko_signs(g, tol)
    except ValueError as exc:
        if not hasattr(exc, "evidence"):  # no J: not a sign to decide
            raise
        rep.info.pop("signs", None)  # drop the signs of a merged report
        *fits, bound = exc.evidence
        if np.max(fits) <= bound:
            rep.exceeds(name, np.max(fits), bound, str(exc))
        else:
            rep.add(name, np.min(fits), bound, str(exc))
        return None


def record_signs(
    rep: Report, name: str, g: FiniteGeometry, tol: Tolerance, expected: tuple | None
) -> None:
    """Record on ``rep`` the sign triple of ``g``, judged at ``expected`` (None: as measured).

    A flipped sign fails on its residual; the note and ``rep.info["signs"]``
    hold the measured signs.  An undecided one fails as ``measured_signs``
    decides it.
    """
    signs = measured_signs(rep, name, g, tol)
    if signs is None:
        return
    measured = signs.as_tuple()
    fit = tightest(sign_fits(expected or measured, signs.evidence))
    rep.add(name, *fit, note=f"(eps, eps', eps'') = {measured}")
    rep.info["signs"] = list(measured)


def verify_twisted(tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Aggregate run for a twisted geometry; rho = id gives the untwisted one.

    Representation axioms, regularity of the twist, self-adjointness of D,
    the grading and the real structure, measured signs, order zero, and
    the twisted order-one condition in both forms.

    The representation and regularity reports and the two pair residuals
    that read no D (grading commutes with the algebra, order zero) are
    decided once per value of pi, rho, the grading, J and ``tol``
    (``_d_free_verdicts``); every other record is measured on each call.
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
    scale_alg = g.rep.generator_scale
    if g.grading is not None:
        gam = g.grading
        rep.check("grading self-adjoint", fro(gam - dagger(gam)), tol, 1.0)
        rep.check("grading squares to identity", fro(gam @ gam - eye), tol, 1.0)
        rep.check("grading commutes with algebra", r_grading, tol, scale_alg)
        rep.check("grading anticommutes with D", fro(gam @ d + d @ gam), tol, scale_d)
    if g.real_structure is not None:
        u = g.real_structure.unitary
        rep.check("real structure antiunitary", fro(u @ dagger(u) - eye), tol, 1.0)
        record_signs(rep, "sign triple determinate", g, tol, None)
        # order zero stays untwisted: imposing the twisted variant as well
        # would force a trivial twist (see zero_order_conflict_check)
        rep.check(
            "order zero: algebra commutes with opposite", r_zero, tol, scale_alg**2
        )
        rep.merge(verify_twisted_first_order(tg, tol), prefix="order one: ")
    return rep
