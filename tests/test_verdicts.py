"""Every record any verifier emits is decided by the one rule of ``Report``.

A record is of one of three kinds: a check, which passes when its residual
is finite and at most its tol; a floor record, which passes when its
residual is finite and above its floor; or a measured-only record, a check
with tol inf.  The census below reads the reports of all eight CLI
subcommands and of the in-process verifiers, passing and failing, and each
floor record has a mutation that makes it fail on a residual at or below
the floor it prints.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nctwist import cli, sm
from nctwist.algebra import Algebra
from nctwist.fluct import compose_fluctuations, symmetrized, verify_fluctuated
from nctwist.matlin import DEFAULT_TOL, Tolerance, fro
from nctwist.mintwist import free_dirac_pointwise, twist_by_grading
from nctwist.samples import flip_toy, left_regular_geometry, random_one_form, toy_triple
from nctwist.serialize import (
    dump_json,
    geometry_to_json,
    matrix_to_json,
    one_form_to_json,
    twisted_marker_to_json,
)
from nctwist.sm import (
    sm_gamma_tilde_expected,
    twisted_sm_geometry,
    verify_sm_twisted,
)
from nctwist.twist import (
    Automorphism,
    TwistedGeometry,
    coexistence_first_order_check,
    verify_twisted,
    zero_order_conflict_check,
)

FLOOR_RECORDS = {
    "labels: swap moves the left scalar onto the antiparticle sector",
    "conventions differ on the antiparticle scalar",
    "doubling involution does not anticommute with D",
}


def kind(rec) -> str:
    """The kind of ``rec``, after asserting that its verdict is the rule's."""
    finite = math.isfinite(rec.residual)
    if rec.floor:
        assert rec.passed == (finite and rec.residual > rec.tol), rec.format_line()
        return "floor"
    assert rec.passed == (finite and rec.residual <= rec.tol), rec.format_line()
    return "measured" if rec.tol == math.inf else "check"


@pytest.fixture(scope="module")
def tsm():
    return twisted_sm_geometry()


def block_geometry():
    alg = Algebra.of("C", "C")
    m_small = np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.0]])
    return left_regular_geometry(alg, [1, -1], m_small)


def cli_reports(tmp_path) -> dict:
    """The report of each request, over all eight subcommands."""
    files = {}

    def write(name, obj):
        files[name] = str(tmp_path / f"{name}.json")
        dump_json(obj, files[name])

    block = block_geometry()
    write("toy", geometry_to_json(toy_triple()))
    write("zero", geometry_to_json(replace(toy_triple(), dirac=np.zeros((2, 2)))))
    write("block", geometry_to_json(block))
    write("marker", twisted_marker_to_json(block))
    write("rho", {"permutation": [1, 0]})
    tg = twist_by_grading(block)
    form = symmetrized(random_one_form(np.random.default_rng(3), tg), tg)
    write("form", one_form_to_json(tg.algebra, list(form.terms)))
    plain = random_one_form(np.random.default_rng(4), TwistedGeometry(block, Automorphism((1, 0))))
    write("plain_form", one_form_to_json(block.algebra, list(plain.terms)))
    accepted = np.array([[1 + 2j, -1 + 0.5j], [0.5 - 1j, -0.5 + 3j], [0.25j, 1j], [2, -2 + 1j]])
    write("accepted", matrix_to_json(accepted))
    requests = [
        ["gamma", "--m", "2"],
        ["verify", files["toy"]],
        ["verify", files["zero"]],
        ["verify", files["block"], "--rho", files["rho"]],
        ["verify", files["marker"]],
        ["twist-by-grading", files["toy"]],
        ["twist-by-grading", files["block"]],
        ["fluctuate", files["marker"], "--form", files["form"]],
        ["fluctuate", files["block"], "--rho", files["rho"], "--form", files["plain_form"]],
        ["uniqueness", "--m", "2"],
        ["free-dirac", "--m", "1", "--seed", "3"],
        ["free-dirac", "--m", "2", "--seed", "3"],
        ["free-dirac", "--m", "2", "--samples", files["accepted"]],
        ["gamma-tilde", files["marker"]],
        ["sm", "--check", "all"],
        ["sm", "--check", "zero-order"],
        ["sm", "--check", "first-order"],
        ["sm", "--check", "recovery"],
        ["sm", "--yukawa", "0,0,0,0", "--majorana", "0"],
    ]
    reports = {}
    for argv in requests:
        args = cli.build_parser().parse_args(argv)
        reports[" ".join(argv)] = args.func(args, DEFAULT_TOL)
    return reports


def test_every_record_is_decided_by_the_one_rule(tmp_path, tsm):
    requests = cli_reports(tmp_path)
    assert {argv.split()[0] for argv in requests} == {
        "gamma", "verify", "twist-by-grading", "fluctuate", "uniqueness",
        "free-dirac", "gamma-tilde", "sm",
    }
    # the standard-model requests at the default couplings pass, and the
    # full run checks the twisted model's D as verify_twisted does
    assert all(rep.ok for argv, rep in requests.items() if argv.startswith("sm --check"))
    names = [r.name for r in requests["sm --check all"].records]
    assert "Dirac operator self-adjoint" in names
    reports = list(requests.values())
    rng = np.random.default_rng(11)
    for tg in (flip_toy(), twist_by_grading(block_geometry())):
        f, f2 = (symmetrized(random_one_form(rng, tg), tg) for _ in range(2))
        reports += [
            verify_twisted(tg),
            verify_fluctuated(tg, f),
            compose_fluctuations(tg, f, f2),
            zero_order_conflict_check(tg),
            coexistence_first_order_check(tg),
        ]
    reports.append(verify_sm_twisted(tsm.with_dirac(1j * tsm.geometry.dirac)))
    kinds = {}
    for report in reports:
        for rec in report.records:
            kinds.setdefault(kind(rec), set()).add(rec.name)
    # D = 0 fits both signs of J D = eps' D J, so each sign record is a floor
    undecided = {
        "sign triple determinate",
        "finite untwisted: sign triple determinate",
        "sign triple of the twisted model",
    }
    assert FLOOR_RECORDS | undecided == kinds["floor"]
    assert not FLOOR_RECORDS & kinds["check"]
    # some reports fail, so the census sees both verdicts of the rule
    assert not all(report.ok for report in reports)


@pytest.fixture(scope="module")
def mutated_sm(tsm):
    """verify_sm_twisted under each floor record's mutation."""
    with pytest.MonkeyPatch.context() as mp:
        # the displayed swap replaced by pi o rho: nothing left to tell apart
        mp.setattr(sm, "display_twist_rep", lambda: tsm.twisted_rep)
        display = verify_sm_twisted(tsm)
    # the part of D that the doubling involution anticommutes with
    gt, d = sm_gamma_tilde_expected(), tsm.geometry.dirac
    graded = verify_sm_twisted(tsm.with_dirac((d - gt @ d @ gt) / 2))
    return {"none": verify_sm_twisted(tsm), "display": display, "graded": graded}


@pytest.mark.parametrize(
    "mutation, name",
    [
        ("display", "labels: swap moves the left scalar onto the antiparticle sector"),
        ("display", "conventions differ on the antiparticle scalar"),
        ("graded", "doubling involution does not anticommute with D"),
    ],
)
def test_each_floor_record_fails_at_or_below_its_floor(mutated_sm, mutation, name):
    (rec,) = [r for r in mutated_sm[mutation].records if r.name == name]
    assert rec.floor and not rec.passed, rec.format_line()
    assert rec.residual <= rec.tol
    assert 0.0 < rec.tol < np.inf
    (unmutated,) = [r for r in mutated_sm["none"].records if r.name == name]
    assert unmutated.passed and unmutated.residual > 1.0


@pytest.mark.parametrize("dirac", ["zero", "unfit", "nan"])
def test_an_undecided_sign_is_decided_on_its_evidence(dirac):
    # J = conj: D = 0 fits both signs of J D = eps' D J; an off-diagonal
    # entry 1 + 2i fits neither, with residuals 2 sqrt(2) |Im| and
    # 2 sqrt(2) |Re| for +1 and -1; a NaN fits neither
    entry = {"zero": 0.0, "unfit": 1 + 2j, "nan": np.nan}[dirac]
    d = np.array([[0, entry], [np.conj(entry), 0]], dtype=np.complex128)
    g = replace(toy_triple(), dirac=d)
    report = verify_twisted(TwistedGeometry.untwisted(g))
    (rec,) = [r for r in report.records if r.name == "sign triple determinate"]
    assert not rec.passed and "signs" not in report.info
    # at the scale max(1, ||J D||, ||D J||), where a NaN norm is passed over
    assert rec.tol == DEFAULT_TOL.bound(np.sqrt(10) if dirac == "unfit" else 1.0)
    if dirac == "zero":
        assert rec.floor and rec.residual == 0.0
        assert rec.note == "ambiguous sign for J vs D: both signs fit"
    else:
        assert not rec.floor and rec.note.startswith("no sign fits J vs D")
    if dirac == "unfit":
        assert rec.residual == pytest.approx(2 * np.sqrt(2), rel=1e-15)
    if dirac == "nan":
        assert np.isnan(rec.residual)


# -- the fixed tolerances read the run's tol ------------------------------

TOLS = [Tolerance(rel=1e-9, abs=1e-11), Tolerance(rel=1e-6, abs=1e-8)]


def assert_bound_of_one_scale(records, tols):
    """Each record's tol is ``tol.bound(scale)`` of its own tol, at one scale >= 1.

    A bound fixed apart from ``tol`` reads as two different scales.
    """
    scales = [(rec.tol - tol.abs) / tol.rel for rec, tol in zip(records, tols)]
    assert scales[0] >= 1.0
    assert scales[1] == pytest.approx(scales[0], rel=1e-6)


def test_the_span_record_reads_the_run_tolerance():
    tg = twist_by_grading(block_geometry())
    rng = np.random.default_rng(5)
    f, f2 = (symmetrized(random_one_form(rng, tg), tg) for _ in range(2))
    name = "second one-form lies in the original bimodule"
    records = [
        rec
        for tol in TOLS
        for rec in compose_fluctuations(tg, f, f2, tol).records
        if rec.name == name
    ]
    assert all(rec.passed for rec in records)
    assert_bound_of_one_scale(records, TOLS)


def test_the_accepted_term_and_the_gate_read_the_run_tolerance():
    # Re g = -Re f in every direction: accepted under either tolerance
    exact = np.array([[1 + 2j, -1 + 0.5j], [0.5 - 1j, -0.5 + 3j], [0.25j, 1j], [2, -2 + 1j]])
    name = "accepted term = -2i sum Re(f_mu) gamma^mu grading"
    reports = [free_dirac_pointwise(2, exact, tol) for tol in TOLS]
    assert all(report.info["accepted"] and report.ok for report in reports)
    records = [r for report in reports for r in report.records if r.name == name]
    assert_bound_of_one_scale(records, TOLS)
    # max |Re f + Re g| = 1e-7 lies between the two gates
    near = exact.copy()
    near[0, 1] += 1e-7
    accepted = [free_dirac_pointwise(2, near, tol).info["accepted"] for tol in TOLS]
    assert accepted == [False, True]
