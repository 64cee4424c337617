"""Finite geometry of one fermion generation, untwisted and twisted."""

import json
from dataclasses import replace

import numpy as np
import pytest
from coordinates import basis_tuples
from hypothesis import given, settings
from hypothesis import strategies as st

from nctwist import sm
from nctwist.algebra import QUATERNION_UNITS, Representation, quaternion
from nctwist.cli import main
from nctwist.matlin import (
    AntilinearOperator,
    Tolerance,
    anticommutator,
    dagger,
    fro,
    generator_scale,
    kron,
    pair_residual,
)
from nctwist.fluct import verify_fluctuated
from nctwist.mintwist import gamma_tilde_diagnostics, twist_by_grading
from nctwist.report import Report
from nctwist.sm import (
    DEFAULT_MAJORANA,
    DEFAULT_YUKAWAS,
    build_dirac,
    display_twist_rep,
    finite_grading,
    finite_real_structure,
    generalized_minimal_twist_check,
    label_swap_check,
    lean_generators,
    sm_algebra,
    sm_finite_geometry,
    sm_first_order_residuals,
    sm_gamma_tilde_element,
    sm_gamma_tilde_expected,
    sm_order_zero_residual,
    sm_rep,
    sm_twist,
    twisted_sm_algebra,
    twisted_sm_geometry,
    twisted_sm_rep,
    verify_sm_twisted,
)
from nctwist.triple import FiniteGeometry, measure_ko_signs, order_one_residual, order_zero_residual, verify_spectral_triple
from nctwist.samples import flip_toy, random_matrix_geometry, random_one_form
from nctwist.twist import TwistedGeometry, first_order_residuals, verify_twisted

# frozen measurements for the default Yukawa/Majorana values
FLIP_FIRST_ORDER = 3.668569203381614
DISPLAY_ANTIPARTICLE_GAP = 6.640970845830116
GAMMA_TILDE_ANTICOMM = 19.603428271605967


@pytest.fixture(scope="module")
def fin():
    return sm_finite_geometry()


@pytest.fixture(scope="module")
def tsm():
    return twisted_sm_geometry()


def test_algebra_signature():
    alg = sm_algebra()
    assert alg.signature() == (("C", None), ("H", None), ("M", 3))
    assert twisted_sm_algebra().ncomponents == 10


def test_yukawa_block_layout():
    y = np.diag(
        [
            DEFAULT_YUKAWAS["nu"],
            DEFAULT_YUKAWAS["up"],
            DEFAULT_YUKAWAS["up"],
            DEFAULT_YUKAWAS["up"],
            DEFAULT_YUKAWAS["e"],
            DEFAULT_YUKAWAS["down"],
            DEFAULT_YUKAWAS["down"],
            DEFAULT_YUKAWAS["down"],
        ]
    )
    from nctwist.sm import yukawa_block

    assert fro(yukawa_block() - y) == 0.0


class TestRepF:
    def test_star_homomorphism(self):
        report = sm_rep().check()
        assert report.ok, report.format_text()
        assert report.max_residual <= 1e-12

    def test_quaternion_acts_on_doublets(self):
        q = quaternion(0.3 + 0.1j, -0.7 + 0.2j)
        e = sm_algebra().element([0.0, q, np.zeros((3, 3))])
        m = sm_rep()(e)
        # weak doublets: (nu, e) and (u, d) for each of the four colors
        assert np.allclose(m[:8, :8], kron(q, np.eye(4)))
        assert fro(m[8:, 8:]) == 0.0

    def test_scalar_acts_conjugated_on_right_block(self):
        c = 0.4 - 0.9j
        e = sm_algebra().element([c, np.zeros((2, 2)), np.zeros((3, 3))])
        m = sm_rep()(e)
        assert np.allclose(m[8:12, 8:12], c * np.eye(4))
        assert np.allclose(m[12:16, 12:16], np.conj(c) * np.eye(4))

    def test_color_acts_on_antiparticles(self):
        w = np.arange(9).reshape(3, 3).astype(np.complex128)
        e = sm_algebra().element([0.0, np.zeros((2, 2)), w])
        m = sm_rep()(e)
        assert fro(m[:16, :16]) == 0.0
        # lepton slots stay zero, color triplets carry w
        assert np.allclose(m[17:20, 17:20], w)
        assert m[16, 16] == 0.0


class TestFiniteGeometry:
    def test_dirac_selfadjoint_and_odd(self, fin):
        d = fin.dirac
        assert fro(d - dagger(d)) <= 1e-12
        assert fro(anticommutator(finite_grading(), d)) <= 1e-12

    def test_real_structure_swaps_sectors(self):
        u = finite_real_structure().unitary
        # exchanging particles and antiparticles squares to one
        assert fro(u @ u - np.eye(32)) == 0.0

    def test_axioms_and_signs(self, fin):
        report = verify_spectral_triple(fin)
        assert report.ok, report.format_text()
        assert report.info["signs"] == [1, 1, -1]
        assert order_zero_residual(fin) <= 1e-12
        assert order_one_residual(fin) <= 1e-12

    def test_majorana_term_is_first_order_compatible(self):
        # the Majorana coupling links the two lepton-singlet slots; both
        # see identical scalar action, so order one survives it
        g = sm_finite_geometry(majorana=2.5 + 0.5j)
        assert order_one_residual(g) <= 1e-12

    def test_majorana_entry_placement(self):
        g = sm_finite_geometry(majorana=2.0 + 1.0j)
        base = sm_finite_geometry(majorana=0.0)
        diff = g.dirac - base.dirac
        assert diff[8, 24] == 2.0 + 1.0j
        assert diff[24, 8] == 2.0 - 1.0j
        assert np.count_nonzero(diff) == 2


class TestTwist:
    def test_perm_swaps_chiral_labels(self):
        rho = sm_twist()
        assert rho.perm == (1, 0, 3, 2, 4, 6, 5, 8, 7, 9)
        assert rho.is_involutive_perm()
        rho.validate_for(twisted_sm_algebra())

    def test_signs(self, tsm):
        assert measure_ko_signs(tsm.geometry).as_tuple() == (-1, 1, -1)

    def test_order_zero(self, tsm):
        assert sm_order_zero_residual(tsm) <= 1e-12


def test_lean_generators_drop_imaginary_color_units():
    alg = twisted_sm_algebra()
    lean = lean_generators(alg)
    assert len(alg.generators()) == 60
    assert len(lean) == 42
    # kept color slots are real matrix units; scalar and quaternion slots
    # keep their full generating sets (2 + 2 + 4 + 4 per copy, plus 9)
    for g in lean:
        values = alg.blocks(g)
        assert np.isreal(values[4]).all()
        assert np.isreal(values[9]).all()
    # the kept rows are generator rows, in their order
    kept = [k for k, g in enumerate(alg.generator_rows) if any((g == lean).all(axis=1))]
    assert np.array_equal(alg.generator_rows[kept], lean)


def test_the_lean_generators_have_the_scale_of_all_generators():
    # the dropped rows are i-multiples of kept ones, whose images have the
    # same norms, so the checks read the cached scale of all generators
    rep = twisted_sm_rep()
    lean = rep.images(lean_generators(rep.algebra))
    assert generator_scale(lean) == rep.generator_scale


def test_lean_generators_measure_the_same_first_order():
    # dropping i-multiples must not change the measured residuals: the
    # reference walks every generator row with the same kernels
    tsm = twisted_sm_geometry()
    pi_a, pi_rho_a, opp_b, rho_opp_b = tsm.stacks()
    assert len(pi_a.array) == 60
    r_full = pair_residual(pi_a, opp_b)
    assert abs(r_full - sm_order_zero_residual(tsm)) <= 1e-12
    full = first_order_residuals(tsm.geometry.dirac, pi_a, pi_rho_a, opp_b, rho_opp_b)
    lean = sm_first_order_residuals(tsm, "flip")
    assert full == pytest.approx((lean["primary"], lean["symmetric"]), rel=1e-12)


class TestFirstOrderConventions:
    def test_structural_flip_fails(self, tsm):
        res = sm_first_order_residuals(tsm, "flip")
        assert res["primary"] == pytest.approx(FLIP_FIRST_ORDER, rel=1e-12)
        assert res["symmetric"] == pytest.approx(FLIP_FIRST_ORDER, rel=1e-12)

    def test_display_convention_passes(self, tsm):
        res = sm_first_order_residuals(tsm, "display")
        assert res["primary"] <= 1e-12
        assert res["symmetric"] <= 1e-12

    def test_flip_failure_scales_with_majorana(self):
        # halving the Majorana coupling moves the obstruction; the failure
        # is tied to couplings, not to a fixed numerical artefact
        small = twisted_sm_geometry(majorana=0.1 * DEFAULT_MAJORANA)
        res = sm_first_order_residuals(small, "flip")
        assert 0.0 < res["primary"] < FLIP_FIRST_ORDER


class TestSimpleTensors:
    def test_recovery_at_equal_labels_is_bitwise(self, tsm):
        report = generalized_minimal_twist_check(tsm)
        assert report.ok, report.format_text()
        assert report.info["recovery_residual"] == 0.0

    def test_twisted_rep_reads_right_and_left_labels(self, tsm):
        q_r = quaternion(0.2 + 0.1j, 0.5 - 0.3j)
        q_l = quaternion(-0.4 + 0.6j, 0.1 + 0.1j)
        m = np.diag([1.0, 2.0, 3.0]).astype(np.complex128)
        a = (0.7 + 0.2j, -0.3 + 0.9j, q_r, q_l, m)
        out = tsm.geometry.rep(a + a)
        assert out.shape == (128, 128)
        # + sector, weak block: right quaternion
        assert np.allclose(out[:8, :8], kron(q_r, np.eye(4)))
        # - sector starts at 64: left quaternion
        assert np.allclose(out[64:72, 64:72], kron(q_l, np.eye(4)))
        # antiparticle scalar slot reads c_r in both sectors
        assert out[16, 16] == a[0]
        assert out[80, 80] == a[0]

    def test_rho_sm_is_an_involution(self):
        a = (1.0 + 2j, 3.0 - 1j, QUATERNION_UNITS["j"], QUATERNION_UNITS["k"], np.eye(3))
        swap = sm_twist().apply
        b = swap(swap(a + a))
        assert all(np.array_equal(np.atleast_1d(x), np.atleast_1d(y)) for x, y in zip(a + a, b))
        assert swap(a + a)[0] == a[1]
        assert swap(a + a)[4] is a[4]

    def test_swap_discrepancy_lives_on_antiparticle_scalars(self, tsm):
        report = label_swap_check(tsm)
        assert report.ok, report.format_text()
        assert report.info["display_antiparticle_residual"] == pytest.approx(
            DISPLAY_ANTIPARTICLE_GAP, rel=1e-12
        )

    def test_displayed_swap_of_equal_labels_is_identity_action(self):
        q = quaternion(0.3, 0.4)
        x = (0.5 + 0.1j, 0.5 + 0.1j, q, q, np.eye(3), 0.5 + 0.1j, 0.5 + 0.1j, q, q, np.eye(3))
        rep = twisted_sm_rep()
        assert fro(display_twist_rep()(x) - rep(x)) == 0.0


class TestGammaTilde:
    def test_element_represents_expected_projector_formula(self, tsm):
        gt = tsm.geometry.rep(sm_gamma_tilde_element())
        assert fro(gt - sm_gamma_tilde_expected()) == 0.0

    def test_involution_commutes_but_is_no_grading(self, tsm):
        d = gamma_tilde_diagnostics(tsm, sm_gamma_tilde_element())
        assert d.involution[0] <= d.involution[1]
        assert d.commutes_with_rep <= 1e-12
        assert d.anticommutator_with_dirac == pytest.approx(
            GAMMA_TILDE_ANTICOMM, rel=1e-12
        )
        assert d.input_grading[0] > d.input_grading[1]


def test_verify_sm_twisted_full_run(tsm, capsys):
    report = verify_sm_twisted(tsm)
    assert report.ok, "\n".join(r.format_line() for r in report.failures())
    assert report.info["signs"] == [-1, 1, -1]
    assert report.info["order_one_flip"]["primary"] == pytest.approx(
        FLIP_FIRST_ORDER, rel=1e-12
    )
    assert report.info["order_one_display"]["primary"] <= 1e-12
    assert report.info["recovery_residual"] == 0.0
    assert report.info["gamma_tilde_anticommutator"] > 1.0
    assert report.info["convention_antiparticle_residual"] > 0.1
    assert report.info["convention_particle_residual"] <= 1e-12
    # the CLI's partial checks print the records of the full run
    full = {c["name"]: c for c in report.to_dict()["checks"]}
    for check in ("zero-order", "first-order"):
        main(["sm", "--check", check, "--report", "json"])
        printed = json.loads(capsys.readouterr().out)["checks"]
        assert printed and printed == [full[c["name"]] for c in printed]


def test_doubling_involution_record_reads_its_residual(tsm, monkeypatch):
    # 2x the involution is self-adjoint but squares to 4, not to 1
    element = sm_gamma_tilde_element()
    monkeypatch.setattr(sm, "sm_gamma_tilde_element", lambda: tuple(2 * v for v in element))
    # the order-one and finite-triple runs do not read the element
    monkeypatch.setattr(sm, "sm_first_order_report", lambda tg, tol: Report("skipped"))
    monkeypatch.setattr(sm, "verify_spectral_triple", lambda g, tol: Report("skipped"))
    report = verify_sm_twisted(tsm)
    (rec,) = [
        r for r in report.records if r.name == "doubling involution is a self-adjoint involution"
    ]
    assert not rec.passed
    assert rec.residual == pytest.approx(3 * np.sqrt(128))  # ||4 I - I|| on C^128
    assert 0.0 < rec.tol < np.inf


@pytest.mark.parametrize("convention", ["flip", "display"])
def test_each_convention_builds_one_pair_of_stacks(tsm, monkeypatch, convention):
    seen = []
    build = FiniteGeometry.conjugated

    def counted(g, rep):
        seen.append(rep)
        return build(g, rep)

    monkeypatch.setattr(FiniteGeometry, "conjugated", counted)
    fresh = replace(tsm)  # a new build holder: pi is not conjugated yet
    for _ in range(2):
        sm_first_order_residuals(fresh, convention)
    # pi is conjugated once per build; the display's own stack once per call
    pi, *shown = seen
    assert pi is fresh.geometry.rep
    assert len(shown) == (2 if convention == "display" else 0)
    for rep in shown:
        assert np.array_equal(rep.stack, display_twist_rep().stack)


def test_order_zero_reads_pi_and_the_opposite_action_alone(tsm, monkeypatch):
    fresh = replace(tsm)  # a new build holder: nothing is cached yet
    read = []
    images = Representation.images

    def counted(rep, rows):
        read.append(rep)
        return images(rep, rows)

    monkeypatch.setattr(Representation, "images", counted)
    assert sm_order_zero_residual(fresh) <= 1e-12
    # no pi o rho and no twisted opposite images
    assert all(rep is not fresh.twisted_rep for rep in read)
    assert [rep is fresh.geometry.rep for rep in read] == [True, False]
    assert read[1] is fresh.conjugated_rep


def test_verify_sm_twisted_reads_the_geometry_it_is_given(tsm, monkeypatch):
    # no check of the run builds a default twisted model of its own
    built = []
    monkeypatch.setattr(sm, "twisted_sm_geometry", lambda *a: built.append(a))
    assert verify_sm_twisted(tsm).ok
    assert built == []


def test_verify_sm_twisted_conjugates_two_stacks(monkeypatch):
    seen, dense = [], []
    conjugated, conjugate = FiniteGeometry.conjugated, AntilinearOperator.conjugate

    def counted(g, rep):
        seen.append(rep)
        return conjugated(g, rep)

    monkeypatch.setattr(FiniteGeometry, "conjugated", counted)
    monkeypatch.setattr(AntilinearOperator, "conjugate", lambda j, t: dense.append(t))
    tg = twisted_sm_geometry()
    assert verify_sm_twisted(tg).ok
    # the finite triple's stack for its own verdict, then pi's and the display's
    finite, pi, shown = seen
    assert np.array_equal(finite.stack, sm_finite_geometry().rep.stack)
    assert pi is tg.geometry.rep
    assert np.array_equal(shown.stack, display_twist_rep().stack)
    # J is monomial and the stacks are entry lists: none is conjugated densely
    assert not any(rep.operand.dense for rep in seen) and dense == []


SIGN_RECORDS = (
    "sign triple determinate",
    "sign triple of the twisted model",
    "sign triple preserved",
)


def sign_records(report: Report) -> list:
    return [r for r in report.records if r.name.endswith(SIGN_RECORDS)]


@pytest.fixture(scope="module")
def flipped_sm_report(tsm):
    # D -> iD flips eps'
    return verify_sm_twisted(tsm.with_dirac(1j * tsm.geometry.dirac))


def test_a_flipped_sign_of_the_twisted_model_fails_on_its_residual(flipped_sm_report):
    # the record is judged at the expected (-1, 1, -1)
    records = flipped_sm_report.records
    (rec,) = [r for r in records if r.name == "sign triple of the twisted model"]
    assert rec.note == "(eps, eps', eps'') = (-1, -1, -1)"
    assert not rec.passed
    assert rec.residual > rec.tol > 0.0
    assert rec.residual > 1.0


def test_an_undecided_sign_of_the_twisted_model_is_a_failed_record(tsm):
    # one NaN in D fits neither sign of J D = eps' D J: a report, not an error
    d = tsm.geometry.dirac.copy()
    d[0, 64] = np.nan
    report = verify_sm_twisted(tsm.with_dirac(d))
    (rec,) = [r for r in report.records if r.name == "sign triple of the twisted model"]
    assert not rec.passed and not rec.floor and np.isnan(rec.residual)
    assert rec.note.startswith("no sign fits J vs D")
    assert 0.0 < rec.tol < np.inf
    # the finite triple's signs, merged before, are not the model's
    assert "signs" not in report.info


def test_a_model_without_j_is_an_error_not_a_sign_record(tsm):
    # without J there is no sign to decide: measure_ko_signs' error stands
    bare = TwistedGeometry(replace(tsm.geometry, real_structure=None), tsm.rho)
    with pytest.raises(ValueError, match="geometry has no real structure"):
        verify_sm_twisted(bare)


def sign_record_reports(case: str, tsm, flipped_sm_report) -> list[Report]:
    if case == "sm":
        return [verify_sm_twisted(tsm), flipped_sm_report]
    rng = np.random.default_rng(11)
    if case == "flip_toy":
        tg = flip_toy()
    else:
        tg = twist_by_grading(random_matrix_geometry(rng, 3, frame=True))
    return [verify_twisted(tg), verify_fluctuated(tg, random_one_form(rng, tg))]


@pytest.mark.parametrize("case", ["flip_toy", "framed", "sm"])
def test_each_sign_record_is_decided_on_the_residual_it_prints(
    case, tsm, flipped_sm_report
):
    seen = set()
    for report in sign_record_reports(case, tsm, flipped_sm_report):
        for rec in sign_records(report):
            seen.add(rec.name.rsplit(": ", 1)[-1])
            assert rec.passed == (rec.residual <= rec.tol), rec.format_line()
            # a bound a sign was decided on, not a placeholder
            assert 0.0 < rec.tol < np.inf, rec.format_line()
    # the standard-model run fluctuates nothing; the others have no model record
    assert seen == {SIGN_RECORDS[0], SIGN_RECORDS[1] if case == "sm" else SIGN_RECORDS[2]}


def test_custom_yukawas_still_verify():
    yuk = {"nu": 0.5, "up": 1.0 + 0.1j, "e": -0.2j, "down": 0.75}
    fin = sm_finite_geometry(yukawas=yuk)
    assert verify_spectral_triple(fin).ok
    tsm = twisted_sm_geometry(yukawas=yuk)
    res = sm_first_order_residuals(tsm, "display")
    assert res["primary"] <= 1e-12


def test_verify_sm_twisted_gates_on_the_finite_triple_it_was_given(monkeypatch):
    yuk = {"nu": 0.5, "up": 1.0 + 0.1j, "e": -0.2j, "down": 0.75}
    majorana = 0.4 + 0.9j
    seen = []

    class Seen(Exception):
        pass

    def capture(g, tol):
        seen.append(g)
        raise Seen  # the finite gate runs first; the rest is not needed

    monkeypatch.setattr(sm, "verify_spectral_triple", capture)
    with pytest.raises(Seen):
        verify_sm_twisted(twisted_sm_geometry(yuk, majorana))
    (g,) = seen
    assert np.array_equal(g.dirac, build_dirac(yuk, majorana))


def test_a_non_self_adjoint_dirac_fails_the_twisted_model_record():
    tg = twisted_sm_geometry()
    rec = {r.name: r for r in verify_sm_twisted(tg).records}["Dirac operator self-adjoint"]
    assert rec.passed and rec.residual == 0.0
    # an entry outside the leading 32 x 32 block, which the finite gate reads
    d = tg.geometry.dirac.copy()
    d[40, 100] += 1e-3
    rec = {r.name: r for r in verify_sm_twisted(tg.with_dirac(d)).records}[
        "Dirac operator self-adjoint"
    ]
    assert not rec.passed
    assert rec.residual == pytest.approx(np.sqrt(2) * 1e-3, rel=1e-9)


# -- the stack-built twisted representations against their closures -------
#
# The twisted model and its display swap were once functions of the element,
# evaluated once per basis direction.  Those closures are kept here as the
# reference: each chirality sector is the finite action with its
# antiparticle scalar read from a label of its own.

FIN = sm_rep()
ANTI32 = np.zeros((32, 32))
ANTI32[16:, 16:] = 1.0
P_PLUS = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
P_MINUS = np.diag([0.0, 0.0, 1.0, 1.0]).astype(np.complex128)


def sector_action(c, q, c_anti, m):
    return FIN((c, q, m)) * (1.0 - ANTI32) + FIN((c_anti, q, m)) * ANTI32


def sectors(y_plus, y_minus):
    return kron(P_PLUS, y_plus) + kron(P_MINUS, y_minus)


def twisted_closure(x):
    return sectors(sector_action(x[0], x[2], x[0], x[4]), sector_action(x[6], x[8], x[5], x[9]))


def display_closure(x):
    return sectors(sector_action(x[1], x[3], x[0], x[4]), sector_action(x[5], x[7], x[5], x[9]))


def simple_tensor(f_point, a):
    """f x A with A = (c_r, c_l, q_r, q_l, m), f = (f+, f-)."""
    f_plus, f_minus = (complex(f) for f in f_point)
    c_r, c_l, q_r, q_l, m = a
    return sectors(f_plus * sector_action(c_r, q_r, c_r, m), f_minus * sector_action(c_l, q_l, c_r, m))


def swapped_labels(a):
    c_r, c_l, q_r, q_l, m = a
    return (c_l, c_r, q_l, q_r, m)


def displayed_simple_swap(f_point, a):
    f_plus, f_minus = (complex(f) for f in f_point)
    c_r, c_l, q_r, q_l, m = a
    return sectors(f_plus * sector_action(c_l, q_l, c_r, m), f_minus * sector_action(c_r, q_r, c_r, m))


def assert_matches_closure(rep, closure):
    """Exactly on every basis element, within 1e-13 on random elements."""
    alg = rep.algebra
    for k, e in enumerate(basis_tuples(alg)):
        assert np.array_equal(rep.stack[k], closure(e)), k
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = alg.random_element(rng)
        want = closure(x)
        assert fro(rep(x) - want) <= 1e-13 * max(1.0, fro(want))


@pytest.mark.parametrize(
    "build, closure",
    [(twisted_sm_rep, twisted_closure), (display_twist_rep, display_closure)],
    ids=["twisted", "display"],
)
def test_sector_stacks_equal_their_closures(build, closure):
    assert_matches_closure(build(), closure)


@pytest.fixture(scope="module")
def shown():
    return display_twist_rep()


complexes = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)


@settings(max_examples=20, deadline=None)
@given(f=st.tuples(complexes, complexes), seed=st.integers(0, 2**32 - 1))
def test_simple_tensors_are_read_through_the_geometry(tsm, shown, f, seed):
    rng = np.random.default_rng(seed)
    (c_r, q_r, m), (c_l, q_l, _) = sm_algebra().random_element(rng), sm_algebra().random_element(rng)
    a = (c_r, c_l, q_r, q_l, m)
    rows = np.repeat(np.asarray(f, np.complex128), 64)[:, None]
    assert np.array_equal(rows * tsm.geometry.rep(a + a), simple_tensor(f, a))
    assert np.array_equal(rows * tsm.twisted_rep(a + a), simple_tensor(f, swapped_labels(a)))
    assert np.array_equal(rows * shown(a + a), displayed_simple_swap(f, a))
