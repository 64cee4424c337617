"""Verdicts and unitaries kept by value for the whole process.

``twist._VERDICTS`` keeps the verdicts of a twisted geometry that read no D,
keyed by the value of every input they read (``twist._d_free_key``) and the
tolerance; ``mintwist._UNITARIES`` keeps the implementing unitary of
``twist_by_grading``, keyed by the algebra, pi, the grading and the
tolerance.  A geometry that differs from a verified one in any key part gets
its own verdict; an equal one, built independently, reads the kept one and
gets the same bytes.
"""

from dataclasses import replace

import numpy as np
import pytest

from nctwist import algebra, mintwist, triple, twist
from nctwist.algebra import Algebra, Placement, Representation, projected_double
from nctwist.matlin import DEFAULT_TOL, KEPT_VALUES, AntilinearOperator, Tolerance, digest
from nctwist.mintwist import twist_by_grading
from nctwist.samples import flip_toy, random_matrix_geometry, random_unitary, toy_triple
from nctwist.triple import FiniteGeometry
from nctwist.twist import Automorphism, TwistedGeometry, verify_twisted

LOOSE_TOL = Tolerance(rel=1e-3, abs=1e-6)


def graded():
    """M_2 + C on C^9, with J and a grading."""
    return random_matrix_geometry(np.random.default_rng(0), 3)


def with_rho(tg, **parts):
    """``tg`` under its flip with ``parts`` of ``Automorphism`` set."""
    return TwistedGeometry(tg.geometry, Automorphism(tg.rho.perm, **parts))


def with_rep(tg, stack):
    """``tg`` with pi's stack replaced by ``stack``, held densely, and pi's signs."""
    pi = tg.geometry.rep
    rep = Representation(pi.algebra, stack, signs=pi.signs)
    return TwistedGeometry(replace(tg.geometry, rep=rep), tg.rho)


def with_geometry(tg, **parts):
    """``tg`` with ``parts`` of its ``FiniteGeometry`` replaced."""
    return TwistedGeometry(replace(tg.geometry, **parts), tg.rho)


def one_entry_off(stack):
    out = np.array(stack)
    out[0, 0, 1] += 0.5
    return out


def lying_sign(signs):
    """C on C^1 with pi(i) = pi(1) = 1: not a homomorphism on the ``i`` row,
    which ``signs`` (1,) drops from the pair checks and (None,) keeps."""
    rep = Representation(Algebra.of("C"), np.ones((2, 1, 1)), signs=signs)
    return TwistedGeometry.untwisted(FiniteGeometry(rep, np.zeros((1, 1))))


def two_readings(alg):
    """One stack: pi of C + H on C^3, read under ``alg``."""
    ch = Algebra.of("C", "H")
    places = [Placement(0, 0, "scalar"), Placement(1, 1, "fund")]
    stack = Representation.from_placements(ch, 3, places).stack
    return TwistedGeometry.untwisted(FiniteGeometry(Representation(alg, stack), np.zeros((3, 3))))


def twins():
    """``(part, base, base tol, twin, twin tol, records the twin fails)``: the
    twin differs from the base in the one key part named, and its verdict
    fails the records named, or none where that part cannot break one."""
    g0 = graded()
    tg = twist_by_grading(g0)
    g = tg.geometry
    eye = (np.eye(2), None, np.eye(2), None)
    bent = (np.diag([2.0, 1.0]), None, np.eye(2), None)
    toy = flip_toy()
    # rho's u_rho, hashed: ``twist_by_grading`` names its own by its inputs
    u = toy.rho.u_rho
    v = random_unitary(np.random.default_rng(1), g.hilbert_dim)
    dense = with_rep(tg, g.rep.stack)
    # pi doubled along a grading that does not commute with it, and a pi one
    # entry off doubled: the digest of a doubled pi is derived from pi's and
    # the grading's, and the geometry keeps its own grading
    skew = projected_double(g0.rep, v @ g.grading @ v.conj().T)
    off = Representation(g0.algebra, one_entry_off(g0.rep.stack), signs=g0.rep.signs)
    near = with_rep(tg, g.rep.stack * (1 + 1e-7))
    return [
        ("algebra", two_readings(Algebra.of("C", "H")), DEFAULT_TOL,
         two_readings(Algebra.of("H", "C")), DEFAULT_TOL,
         {"rep: multiplicative on generator pairs"}),
        ("pi entry", dense, DEFAULT_TOL, with_rep(tg, one_entry_off(g.rep.stack)), DEFAULT_TOL,
         {"rep: multiplicative on generator pairs"}),
        ("pi doubled along another grading", tg, DEFAULT_TOL, with_geometry(tg, rep=skew), DEFAULT_TOL,
         {"rep: multiplicative on generator pairs"}),
        ("pi doubled from another pi", tg, DEFAULT_TOL,
         with_geometry(tg, rep=projected_double(off, g.grading)), DEFAULT_TOL,
         {"rep: multiplicative on generator pairs"}),
        ("pi signs", lying_sign((1,)), DEFAULT_TOL, lying_sign((None,)), DEFAULT_TOL,
         {"rep: multiplicative on generator pairs", "rep: star preserved on generators"}),
        ("rho perm", with_rho(toy, u_rho=u), DEFAULT_TOL,
         TwistedGeometry(toy.geometry, Automorphism((0, 1), u_rho=u)), DEFAULT_TOL,
         {"rho: pi(rho(a)) = U pi(a) U*"}),
        ("rho inner", with_rho(tg, inner=eye), DEFAULT_TOL, with_rho(tg, inner=bent), DEFAULT_TOL,
         {"rho: regular: rho(a*) = (rho^-1(a))*"}),
        ("rho scale", with_rho(tg, scale=(1, 1, 1, 1)), DEFAULT_TOL,
         with_rho(tg, scale=(2, 1, 1, 1)), DEFAULT_TOL,
         {"rho: multiplicative on generator pairs"}),
        ("u_rho", with_rho(toy, u_rho=u), DEFAULT_TOL, with_rho(toy, u_rho=2 * u), DEFAULT_TOL,
         {"rho: implementing unitary is unitary"}),
        ("grading", tg, DEFAULT_TOL, with_geometry(tg, grading=v @ g.grading @ v.conj().T),
         DEFAULT_TOL, {"grading commutes with algebra"}),
        ("J", tg, DEFAULT_TOL,
         with_geometry(tg, real_structure=AntilinearOperator(v @ g.real_structure.unitary)),
         DEFAULT_TOL, {"order zero: algebra commutes with opposite"}),
        ("tolerance", near, LOOSE_TOL, near, DEFAULT_TOL,
         {"rep: unit maps to identity", "rep: multiplicative on generator pairs"}),
    ]


@pytest.mark.parametrize("case", range(12))
def test_a_twin_that_differs_in_one_key_part_gets_its_own_verdict(monkeypatch, case):
    part, base, base_tol, twin, twin_tol, breaks = twins()[case]
    monkeypatch.setattr(twist, "_VERDICTS", {})
    assert verify_twisted(base, base_tol).ok, part
    report = verify_twisted(twin, twin_tol)
    failed = {r.name: r for r in report.records if not r.passed}
    assert breaks <= set(failed), (part, sorted(failed))
    for name in breaks:
        assert failed[name].residual > failed[name].tol, (part, name)
    # the twin's verdict is the one it gets from an empty table
    monkeypatch.setattr(twist, "_VERDICTS", {})
    assert verify_twisted(twin, twin_tol).to_json() == report.to_json(), part


def unitary_twins():
    """``(part, base, twin, twin tol)``: the toy triple, whose eigenspace
    restrictions are equivalent, and a twin differing in one key part of its
    implementing unitary, which then differs or does not exist."""
    t = toy_triple()
    mixed = [Placement(0, 0, "scalar"), Placement(0, 1, "conj-scalar")]
    return [
        ("pi", t, replace(t, rep=Representation.from_placements(t.algebra, 2, mixed)),
         DEFAULT_TOL),
        ("grading", t, replace(t, grading=-t.grading), DEFAULT_TOL),
        ("tolerance", t, t, Tolerance(rel=0.0, abs=1e3)),
    ]


@pytest.mark.parametrize("case", range(3))
def test_a_twin_that_differs_in_one_key_part_gets_its_own_unitary(monkeypatch, case):
    part, base, twin, tol = unitary_twins()[case]
    monkeypatch.setattr(mintwist, "_UNITARIES", {})
    u = twist_by_grading(base).rho.u_rho
    got = twist_by_grading(twin, tol).rho.u_rho
    want = mintwist._implementing_unitary(twin, tol)
    assert u is not None, part
    if want is None:
        assert got is None, part
    else:
        assert not np.array_equal(want, u), part
        assert np.array_equal(got, want), part


def counted(monkeypatch) -> list:
    """Record the name of every ``Representation.check``, ``check_regular``
    and ``_implementing_unitary`` evaluation."""
    calls = []
    for owner, name in (
        (Representation, "check"),
        (twist, "check_regular"),
        (mintwist, "_implementing_unitary"),
    ):
        real = getattr(owner, name)
        monkeypatch.setattr(
            owner, name, lambda *a, real=real, name=name, **k: calls.append(name) or real(*a, **k)
        )
    return calls


@pytest.mark.parametrize("frame", [False, True])
def test_an_equal_geometry_reads_the_kept_verdicts_and_gives_the_same_bytes(
    monkeypatch, cold_verdicts, frame
):
    def draw():
        return random_matrix_geometry(np.random.default_rng(3), 3, frame=frame)

    calls = counted(monkeypatch)
    cold = verify_twisted(twist_by_grading(draw())).to_json()
    assert sorted(set(calls)) == ["_implementing_unitary", "check", "check_regular"]
    calls.clear()
    tg = twist_by_grading(draw())
    assert verify_twisted(tg).to_json() == cold
    assert calls == []


def kept_arrays(value) -> list:
    """Every array in ``value``, through tuples, lists, dicts and dataclasses
    (a report, its records and its info)."""
    if isinstance(value, np.ndarray):
        return [value]
    if hasattr(value, "__dataclass_fields__"):
        value = vars(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in kept_arrays(v)]
    return []


def test_the_tables_hold_no_more_than_their_bounds(cold_verdicts):
    # a random frame makes every geometry new, so each verification misses
    rng = np.random.default_rng(8)
    for _ in range(KEPT_VALUES + 32):
        assert verify_twisted(twist_by_grading(random_matrix_geometry(rng, 2, frame=True))).ok
    assert len(twist._VERDICTS) == KEPT_VALUES
    assert len(mintwist._UNITARIES) == KEPT_VALUES
    for table in (twist._VERDICTS, mintwist._UNITARIES):
        arrays = kept_arrays(list(table.items()))
        assert not any(a.flags.writeable for a in arrays)
    assert any(u is not None for u in mintwist._UNITARIES.values())


def test_a_twist_by_grading_hashes_each_array_once(monkeypatch, cold_verdicts):
    # the grading's and J's bytes once each, and u_rho's never: the doubled
    # pi and the unitary are named by digests already found, and the
    # verdict key reads those
    hashed = []
    for module in (algebra, triple, twist):
        real = module.digest
        monkeypatch.setattr(module, "digest", lambda *p, real=real: hashed.append(p) or real(*p))
    g = toy_triple()
    tg = twist_by_grading(g)
    assert verify_twisted(tg).ok and tg.rho.u_rho is not None
    arrays = [a for p in hashed for a in p if isinstance(a, np.ndarray)]
    for part in (g.grading, g.real_structure.unitary, tg.rho.u_rho):
        assert sum(a is part for a in arrays) == (part is not tg.rho.u_rho)
    # a geometry along ``with_dirac`` hashes nothing again
    hashed.clear()
    verify_twisted(tg.with_dirac(2 * tg.geometry.dirac))
    assert hashed == []


def test_derived_digests_are_those_of_the_inputs():
    g = toy_triple()
    tg = twist_by_grading(g)
    pi2 = tg.geometry.rep
    assert pi2.digest == projected_double(g.rep, g.grading).digest
    assert pi2.digest != Representation(pi2.algebra, pi2.operand).digest
    assert tg.geometry.digests == g.digests == (digest(g.grading), digest(g.real_structure.unitary))
    # the unitary is named by the key of its inputs, not hashed
    u = tg.rho.u_rho
    assert tg.rho.u_rho_key == (g.algebra, g.rep.digest, digest(g.grading), DEFAULT_TOL)
    # ``replace`` starts the key of another u_rho afresh
    assert replace(tg.rho, u_rho=2 * u).u_rho_key == digest(2 * u)
    assert Automorphism(tg.rho.perm, u_rho=u).u_rho_key == digest(u)
