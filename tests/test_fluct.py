"""Twisted one-forms and inner fluctuations of the Dirac operator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctwist import twist
from nctwist.algebra import Algebra, Representation
from nctwist.fluct import (
    TwistedOneForm,
    adjoint_one_form,
    compose_fluctuations,
    eval_one_form,
    fluctuate,
    fluctuation_operator,
    one_form_basis,
    one_form_opposite_checks,
    symmetrized,
    verify_fluctuated,
)
from nctwist.matlin import (
    DEFAULT_TOL,
    AntilinearOperator,
    Tolerance,
    dagger,
    fro,
    residual_against_span,
)
from nctwist.mintwist import twist_by_grading
from nctwist.samples import (
    flip_toy,
    left_regular_geometry,
    random_graded_geometry,
    random_one_form,
)
from nctwist.triple import FiniteGeometry, SignTriple, measure_ko_signs
from nctwist.twist import TwistedGeometry, verify_twisted

RNG_SEED = 77


@pytest.fixture
def tg():
    # left-regular C (+) C on M_2, doubled along its grading: the twisted
    # one-form bimodule here is nonzero, unlike the scalar toy
    alg = Algebra.of("C", "C")
    m_small = np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.0]])
    return twist_by_grading(left_regular_geometry(alg, [1, -1], m_small))


def test_scalar_toy_has_only_zero_one_forms():
    # with pi0 scalar on each grading eigenspace, D odd gives
    # [D, (a, a')]_flip = [D, pi0(a)] P+ + [D, pi0(a')] P- = 0 identically
    toy = flip_toy()
    rng = np.random.default_rng(RNG_SEED)
    f = random_one_form(rng, toy)
    assert fro(eval_one_form(f, toy)) == 0.0


def test_one_form_construction(tg):
    alg = tg.algebra
    a, b = alg.unit(), alg.unit()
    f = TwistedOneForm.of((a, b))
    assert len(f) == 1
    g = f + TwistedOneForm.of((b, a))
    assert len(g) == 2
    assert len(TwistedOneForm.of()) == 0


def test_eval_one_form_matches_direct_formula(tg):
    rng = np.random.default_rng(RNG_SEED)
    alg = tg.algebra
    a, b = alg.random_element(rng), alg.random_element(rng)
    f = TwistedOneForm.of((a, b))
    pi, d = tg.geometry.rep, tg.geometry.dirac
    expected = pi(a) @ (d @ pi(b) - pi(tg.rho.apply(b)) @ d)
    assert fro(eval_one_form(f, tg) - expected) < 1e-14
    assert fro(expected) > 0.1  # nondegenerate sample


def test_eval_is_additive_in_terms(tg):
    rng = np.random.default_rng(RNG_SEED + 1)
    alg = tg.algebra
    pairs = [(alg.random_element(rng), alg.random_element(rng)) for _ in range(3)]
    total = TwistedOneForm.of(*pairs)
    parts = sum(eval_one_form(TwistedOneForm.of(p), tg) for p in pairs)
    assert fro(eval_one_form(total, tg) - parts) < 1e-12


def test_leibniz_rule(tg):
    rng = np.random.default_rng(RNG_SEED + 2)
    alg = tg.algebra
    a, b = alg.random_element(rng), alg.random_element(rng)
    # [D, ab]_rho = [D, a]_rho pi(b) + pi(rho(a)) [D, b]_rho
    pi, pi_rho, d = tg.geometry.rep, tg.twisted_rep, tg.geometry.dirac

    def comm(x):
        return d @ pi(x) - pi_rho(x) @ d

    lhs = comm(alg.mul(a, b))
    rhs = comm(a) @ pi(b) + pi_rho(a) @ comm(b)
    assert fro(lhs) > 0.1  # nondegenerate sample
    assert fro(lhs - rhs) < 1e-12


def test_adjoint_one_form_evaluates_to_adjoint(tg):
    rng = np.random.default_rng(RNG_SEED + 3)
    alg = tg.algebra
    f = TwistedOneForm.of(
        (alg.random_element(rng), alg.random_element(rng)),
        (alg.random_element(rng), alg.random_element(rng)),
    )
    a_mat = eval_one_form(f, tg)
    a_adj = eval_one_form(adjoint_one_form(f, tg), tg)
    assert fro(a_adj - dagger(a_mat)) < 1e-12


def test_symmetrized_form_is_selfadjoint(tg):
    rng = np.random.default_rng(RNG_SEED + 4)
    alg = tg.algebra
    f = TwistedOneForm.of((alg.random_element(rng), alg.random_element(rng)))
    s = eval_one_form(symmetrized(f, tg), tg)
    assert fro(s - dagger(s)) < 1e-12
    assert fro(s) > 1e-3


def test_fluctuation_operator_formula(tg):
    rng = np.random.default_rng(RNG_SEED + 5)
    f = random_one_form(rng, tg)
    a_mat = eval_one_form(f, tg)
    eps_prime = measure_ko_signs(tg.geometry).eps_prime
    add = fluctuation_operator(tg, a_mat, eps_prime)
    j = tg.geometry.real_structure
    assert fro(add - (a_mat + eps_prime * j.conjugate(a_mat))) == 0.0


def test_fluctuate_moves_dirac_and_keeps_axioms(tg):
    rng = np.random.default_rng(RNG_SEED + 6)
    f = random_one_form(rng, tg)
    fluct = fluctuate(tg, f)
    assert fro(fluct.geometry.dirac - tg.geometry.dirac) > 1e-6
    report = verify_fluctuated(tg, f)
    assert report.ok, report.format_text()


def test_fluctuate_rejects_non_selfadjoint_form(tg):
    rng = np.random.default_rng(RNG_SEED + 7)
    # find an unsymmetrised draw whose candidate is visibly non-self-adjoint
    for _ in range(10):
        f = random_one_form(rng, tg, symmetric=False)
        a_mat = eval_one_form(f, tg)
        eps_prime = measure_ko_signs(tg.geometry).eps_prime
        candidate = fluctuation_operator(tg, a_mat, eps_prime)
        if fro(candidate - dagger(candidate)) > 1e-6:
            break
    else:
        pytest.fail("no non-self-adjoint draw found")
    with pytest.raises(ValueError):
        fluctuate(tg, f)


def test_verify_fluctuated_reports_rejection_not_crash(tg):
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(10):
        f = random_one_form(rng, tg, symmetric=False)
        a_mat = eval_one_form(f, tg)
        candidate = fluctuation_operator(
            tg, a_mat, measure_ko_signs(tg.geometry).eps_prime
        )
        if fro(candidate - dagger(candidate)) > 1e-6:
            break
    report = verify_fluctuated(tg, f)
    assert not report.ok
    assert not report.records[0].passed


def accepted_record(tg, f):
    """The acceptance record of ``verify_fluctuated`` and the defect and bound it is due."""
    report = verify_fluctuated(tg, f)
    rec = report.records[0]
    assert rec.name == "fluctuation accepted (self-adjoint)"
    d_a = tg.geometry.dirac + fluctuation_operator(
        tg, eval_one_form(f, tg), measure_ko_signs(tg.geometry).eps_prime
    )
    return rec, fro(d_a - dagger(d_a)) / 2.0, DEFAULT_TOL.bound(max(1.0, fro(d_a)))


def test_accepted_fluctuation_prints_its_defect_against_the_bound(tg):
    rng = np.random.default_rng(RNG_SEED + 8)
    rec, defect, bound = accepted_record(tg, random_one_form(rng, tg))
    assert rec.passed
    assert rec.residual == defect and rec.tol == bound
    assert 0.0 < rec.tol and rec.residual <= rec.tol


def test_rejected_fluctuation_prints_its_defect_against_the_bound(tg):
    rng = np.random.default_rng(RNG_SEED + 8)
    rec, defect, bound = accepted_record(tg, random_one_form(rng, tg, symmetric=False))
    assert not rec.passed
    assert rec.residual == defect and rec.tol == bound
    assert np.isfinite(rec.residual) and rec.residual > rec.tol


def test_empty_form_is_a_no_op(tg):
    fluct = fluctuate(tg, TwistedOneForm.of())
    assert fro(fluct.geometry.dirac - tg.geometry.dirac) == 0.0


def test_one_form_opposite_conditions(tg):
    rng = np.random.default_rng(RNG_SEED + 9)
    f = random_one_form(rng, tg)
    report = one_form_opposite_checks(f, tg)
    assert report.ok, report.format_text()


def test_span_membership(tg):
    rng = np.random.default_rng(RNG_SEED + 10)
    basis = one_form_basis(tg)
    assert max(fro(b) for b in basis) > 0.1
    f = random_one_form(rng, tg)
    assert residual_against_span(eval_one_form(f, tg), basis) < 1e-8
    # the identity commutes with everything; it is not an evaluated one-form
    target = np.eye(tg.geometry.hilbert_dim, dtype=np.complex128)
    assert residual_against_span(target, basis) > 1e-3


def test_compose_fluctuations(tg):
    rng = np.random.default_rng(RNG_SEED + 11)
    f1 = random_one_form(rng, tg)
    f2 = random_one_form(rng, tg)
    report = compose_fluctuations(tg, f1, f2)
    assert report.ok, report.format_text()
    assert report.info["a2_span_residual"] < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fluctuated_random_geometries(seed):
    rng = np.random.default_rng(seed)
    tg = twist_by_grading(random_graded_geometry(rng))
    f = random_one_form(rng, tg)
    report = verify_fluctuated(tg, f)
    assert report.ok, report.format_text()


LOOSE_TOL = Tolerance(rel=1e-3, abs=1e-6)


def test_a_chain_of_fluctuations_builds_one_geometry_and_one_set_of_stacks(
    monkeypatch,
):
    built, made, checked, regular = [], [], [], []
    conjugated, post_init = FiniteGeometry.conjugated, TwistedGeometry.__post_init__
    rep_check, check_regular = Representation.check, twist.check_regular

    def counted_conjugated(g, rep):
        built.append(rep)
        return conjugated(g, rep)

    def counted_init(tg):
        made.append(tg)
        post_init(tg)

    def counted_check(rep, tol=DEFAULT_TOL):
        checked.append(tol)
        return rep_check(rep, tol)

    def counted_regular(rho, g, tol=DEFAULT_TOL):
        regular.append(tol)
        return check_regular(rho, g, tol)

    monkeypatch.setattr(FiniteGeometry, "conjugated", counted_conjugated)
    monkeypatch.setattr(TwistedGeometry, "__post_init__", counted_init)
    monkeypatch.setattr(Representation, "check", counted_check)
    monkeypatch.setattr(twist, "check_regular", counted_regular)
    rng = np.random.default_rng(RNG_SEED + 12)
    tg = tg0 = twist_by_grading(random_graded_geometry(rng))
    forms = []
    for _ in range(4):
        forms.append(random_one_form(rng, tg))
        report = verify_fluctuated(tg, forms[-1])
        assert report.ok, report.format_text()
        tg = fluctuate(tg, forms[-1])
    report = compose_fluctuations(tg0, forms[0], forms[1])
    assert report.ok, report.format_text()
    assert [t is tg0 for t in made] == [True]
    assert [rep is tg0.geometry.rep for rep in built] == [True]
    assert tg.stacks() is tg0.stacks()
    # four verify_twisted calls, one per step, decide the D-free reports once
    assert checked == regular == [DEFAULT_TOL]

    # a second tolerance is decided once more, on any geometry of the chain
    assert verify_twisted(tg, LOOSE_TOL).ok
    assert verify_twisted(tg0, LOOSE_TOL).ok
    assert checked == regular == [DEFAULT_TOL, LOOSE_TOL]

    # another J or grading is a new holder and runs its own checks
    g = tg.geometry
    j = AntilinearOperator(1j * g.real_structure.unitary)
    for other in (
        replace(tg, geometry=replace(g, real_structure=j)),
        replace(tg, geometry=replace(g, grading=-g.grading)),
    ):
        before = len(checked)
        for _ in range(2):
            report = verify_twisted(other)
            assert report.ok, report.format_text()
        assert checked[before:] == regular[before:] == [DEFAULT_TOL]
        assert other.stacks() is not tg.stacks()


def test_verify_fluctuated_measures_the_base_signs_once(tg, monkeypatch):
    measured = []

    def counted(g, tol):
        measured.append(g)
        return measure_ko_signs(g, tol)

    monkeypatch.setattr("nctwist.fluct.measure_ko_signs", counted)
    monkeypatch.setattr("nctwist.twist.measure_ko_signs", counted)
    f = random_one_form(np.random.default_rng(RNG_SEED + 13), tg)
    assert verify_fluctuated(tg, f).ok
    # the base geometry, then the fluctuated one, once, in verify_twisted
    assert [g.dirac is tg.geometry.dirac for g in measured] == [True, False]


@pytest.mark.parametrize("undecided", [True, False])
def test_the_preserved_record_reads_the_signs_verify_twisted_measured(
    tg, monkeypatch, undecided
):
    def moved(g, tol):
        signs = measure_ko_signs(g, tol)
        if g.dirac is tg.geometry.dirac:
            return signs
        if undecided:
            raise ValueError("J vs D: no sign fits")
        return SignTriple(signs.eps, -signs.eps_prime, signs.eps_dblprime)

    monkeypatch.setattr("nctwist.fluct.measure_ko_signs", moved)
    monkeypatch.setattr("nctwist.twist.measure_ko_signs", moved)
    f = random_one_form(np.random.default_rng(RNG_SEED + 13), tg)
    report = verify_fluctuated(tg, f)
    records = {r.name: r for r in report.records}
    preserved = records["sign triple preserved"]
    assert not preserved.passed
    if undecided:
        assert np.isnan(preserved.residual)
        assert preserved.note == "J vs D: no sign fits"
        assert records["fluctuated: sign triple determinate"].note == preserved.note
    else:
        before = measure_ko_signs(tg.geometry).as_tuple()
        assert preserved.residual == 1.0
        assert preserved.note == f"{before} -> {tuple(report.info['signs'])}"
        assert report.info["signs"][1] == -before[1]


# -- a verdict on a shared build equals the verdict on a fresh one ------------


def scaled_twist(tg: TwistedGeometry) -> TwistedGeometry:
    """``tg`` with rho scaled by 2 on its first block: regularity fails."""
    scale = (2.0,) + (1.0,) * (len(tg.rho.perm) - 1)
    return TwistedGeometry(tg.geometry, replace(tg.rho, scale=scale))


def poisoned(tg: TwistedGeometry) -> TwistedGeometry:
    """``tg`` with a NaN in pi of its last generator, and only there."""
    base = tg.geometry.rep
    k = np.flatnonzero(base.algebra.coords(base.algebra.generators()[-1]))[0]
    stack = base.stack.copy()
    stack[k, 0, 0] = np.nan
    rep = Representation(base.algebra, stack)
    return TwistedGeometry(replace(tg.geometry, rep=rep), tg.rho)


def chain_diracs(tg: TwistedGeometry, rng, steps: int = 4) -> list:
    """The Dirac operators of a chain fluctuated by symmetrized random one-forms."""
    diracs = [tg.geometry.dirac]
    for _ in range(steps):
        tg = fluctuate(tg, random_one_form(rng, tg))
        diracs.append(tg.geometry.dirac)
    return diracs


# the four Clifford entries of the catalogue: m = 1 on k = 2 and 3, m = 2, m = 3
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(5)
@example(4)
@example(0)
@example(7)
def test_a_shared_verdict_equals_a_fresh_one(seed):
    rng = np.random.default_rng(seed)
    tg0 = twist_by_grading(random_graded_geometry(rng))
    diracs = chain_diracs(tg0, rng)
    nan_fails = {
        "rep: multiplicative on generator pairs",
        "grading commutes with algebra",
        "order zero: algebra commutes with opposite",
    }
    for base, fails, nan in (
        (tg0, set(), False),
        (scaled_twist(tg0), {"rho: multiplicative on generator pairs"}, False),
        (poisoned(tg0), nan_fails, True),
    ):
        step = base
        for d in diracs:
            step = step.with_dirac(d)
            for tol in (DEFAULT_TOL, LOOSE_TOL):
                fresh = TwistedGeometry(step.geometry, step.rho)
                shared = verify_twisted(step, tol)
                assert shared.to_json() == verify_twisted(fresh, tol).to_json()
                assert shared.ok == (not fails)
                failed = {r.name: r.residual for r in shared.failures()}
                assert all(np.isnan(failed[name]) == nan for name in fails)
        assert step._built is base._built
