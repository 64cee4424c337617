"""Acceptance runs: the eight primary criteria, one pass/fail line each.

Every test times its own body against the stated budget and prints a single
summary line, so `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import time

import numpy as np

from nctwist.clifford import charge_conjugation, gamma, grading_product
from nctwist.fluct import compose_fluctuations, one_form_opposite_checks, verify_fluctuated
from nctwist.matlin import Tolerance, dagger, fro
from nctwist.mintwist import free_dirac_pointwise, twist_by_grading
from nctwist.samples import random_graded_geometry, random_one_form
from nctwist.sm import (
    generalized_minimal_twist_check,
    sm_finite_geometry,
    sm_rep,
    twisted_sm_geometry,
    verify_sm_twisted,
)
from nctwist.triple import measure_ko_signs, order_one_residual, order_zero_residual
from nctwist.twist import TwistedGeometry, Automorphism, verify_twisted, zero_order_conflict_check

from kronecker import intertwiner_space


def emit(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num}: {status}  {detail}  [{elapsed:.2f}s / {budget:.0f}s]")


def record_residual(report, name: str) -> float:
    for rec in report.records:
        if rec.name == name:
            return rec.residual
    raise AssertionError(f"no record named {name!r}")


def test_criterion_1_clifford_relations():
    t0 = time.perf_counter()
    worst = 0.0
    for m in range(1, 5):
        data = gamma(m)
        eye = np.eye(data.dim)
        for i, gi in enumerate(data.gammas):
            worst = max(worst, fro(gi - dagger(gi)))
            for j, gj in enumerate(data.gammas):
                target = 2.0 * eye if i == j else 0.0
                worst = max(worst, fro(gi @ gj + gj @ gi - target))
            worst = max(worst, fro(data.grading @ gi + gi @ data.grading))
        worst = max(worst, fro(data.grading - grading_product(data)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    emit(1, ok, f"clifford m=1..4, worst residual {worst:.2e}", elapsed, 1.0)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_intertwiner_dimension():
    t0 = time.perf_counter()
    dims_ok = True
    worst_off = 0.0
    for m in (1, 2, 3):
        data = gamma(m)
        pairs = intertwiner_space(list(data.gammas), list(data.gammas))
        dims_ok = dims_ok and len(pairs) == 2
        half = data.dim // 2
        for a_mat, b_mat in pairs:
            for x in (a_mat, b_mat):
                la = np.trace(x[:half, :half]) / half
                lb = np.trace(x[half:, half:]) / half
                model = np.zeros_like(x)
                model[:half, :half] = la * np.eye(half)
                model[half:, half:] = lb * np.eye(half)
                worst_off = max(worst_off, fro(x - model) / fro(x))
    elapsed = time.perf_counter() - t0
    ok = dims_ok and worst_off <= 1e-10
    emit(
        2,
        ok,
        f"solution dim 2 at dims 2,4,8; off-block mass {worst_off:.2e}",
        elapsed,
        5.0,
    )
    assert dims_ok
    assert worst_off <= 1e-10
    assert elapsed < 5.0


def test_criterion_3_twist_by_grading_fifty_seeds():
    t0 = time.perf_counter()
    tol = Tolerance(rel=0.0, abs=1e-10)
    worst = 0.0
    all_ok = True
    signs_preserved = True
    dims = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        base = random_graded_geometry(rng)
        dims.append(base.hilbert_dim)
        tg = twist_by_grading(base)
        report = verify_twisted(tg, tol)
        all_ok = all_ok and report.ok
        worst = max(worst, report.max_residual)
        signs_preserved = signs_preserved and (
            measure_ko_signs(base).as_tuple() == measure_ko_signs(tg.geometry).as_tuple()
        )
    elapsed = time.perf_counter() - t0
    ok = all_ok and signs_preserved and worst <= 1e-10
    emit(
        3,
        ok,
        f"50 seeds, dims {min(dims)}..{max(dims)}, worst residual {worst:.2e}",
        elapsed,
        30.0,
    )
    assert min(dims) >= 4 and max(dims) <= 32
    assert all_ok
    assert signs_preserved
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_4_fluctuation_suite():
    t0 = time.perf_counter()
    all_ok = True
    signs_kept = True
    worst_lemma = 0.0
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        base = random_graded_geometry(rng)
        tg = twist_by_grading(base)
        form = random_one_form(rng, tg)
        report = verify_fluctuated(tg, form)
        all_ok = all_ok and report.ok
        signs_kept = signs_kept and any(
            rec.name == "sign triple preserved" and rec.passed
            for rec in report.records
        )
        lemma = one_form_opposite_checks(form, tg)
        worst_lemma = max(worst_lemma, max(r.residual for r in lemma.records))

    worst_comp = 0.0
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        tg = twist_by_grading(random_graded_geometry(rng))
        f1 = random_one_form(rng, tg)
        f2 = random_one_form(rng, tg)
        comp = compose_fluctuations(tg, f1, f2)
        all_ok = all_ok and comp.ok
        worst_comp = max(
            worst_comp,
            record_residual(comp, "D'' = D + (A + A') + eps' J (A + A') J^-1"),
        )
    elapsed = time.perf_counter() - t0
    ok = all_ok and signs_kept and worst_lemma <= 1e-11 and worst_comp <= 1e-10
    emit(
        4,
        ok,
        f"50 fluctuations + 20 compositions, lemma {worst_lemma:.2e}, "
        f"composition {worst_comp:.2e}",
        elapsed,
        60.0,
    )
    assert all_ok
    assert signs_kept
    assert worst_lemma <= 1e-11
    assert worst_comp <= 1e-10
    assert elapsed < 60.0


def test_criterion_5_zero_order_conflict():
    t0 = time.perf_counter()
    worst_identity = 0.0
    min_obstruction = float("inf")
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        tg = twist_by_grading(random_graded_geometry(rng))
        min_obstruction = min(
            min_obstruction, zero_order_conflict_check(tg).info["obstruction"]
        )
        ident = TwistedGeometry(
            tg.geometry, Automorphism.identity(tg.algebra.ncomponents)
        )
        worst_identity = max(
            worst_identity, zero_order_conflict_check(ident).info["obstruction"]
        )
    elapsed = time.perf_counter() - t0
    ok = min_obstruction > 0.1 and worst_identity == 0.0
    emit(
        5,
        ok,
        f"flip obstruction >= {min_obstruction:.3f}, identity {worst_identity:.1e}",
        elapsed,
        1.0,
    )
    assert min_obstruction > 0.1
    assert worst_identity == 0.0
    assert elapsed < 1.0


def test_criterion_6_free_dirac():
    t0 = time.perf_counter()
    worst_m1 = 0.0
    rng = np.random.default_rng(7)
    for _ in range(100):
        samples = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        report = free_dirac_pointwise(1, samples)
        assert report.ok, report.format_text()
        worst_m1 = max(
            worst_m1,
            record_residual(report, "self-adjoint part of the candidate is zero"),
        )

    # m=2: acceptance happens exactly when the real parts cancel
    iff_ok = True
    worst_term = 0.0
    worst_identity = 0.0
    for k in range(20):
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if k % 2 == 0:
            g = -np.conj(f)  # gate passes
        else:
            g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        samples = np.stack([f, g], axis=1)
        report = free_dirac_pointwise(2, samples)
        assert report.ok, report.format_text()
        gate = float(np.max(np.abs(np.real(f) + np.real(g))))
        iff_ok = iff_ok and (report.info["accepted"] == (gate <= 1e-10))
        if report.info["accepted"]:
            worst_term = max(
                worst_term,
                record_residual(
                    report, "accepted term = -2i sum Re(f_mu) gamma^mu grading"
                ),
            )
        worst_identity = max(
            worst_identity,
            record_residual(report, "identity twist admits only the zero term"),
        )
    elapsed = time.perf_counter() - t0
    ok = worst_m1 <= 1e-12 and iff_ok and worst_term <= 1e-10 and worst_identity <= 1e-12
    emit(
        6,
        ok,
        f"m=1 term {worst_m1:.2e}; m=2 gate iff holds, term {worst_term:.2e}",
        elapsed,
        5.0,
    )
    assert worst_m1 <= 1e-12
    assert iff_ok
    assert worst_term <= 1e-10
    assert worst_identity <= 1e-12
    assert elapsed < 5.0


def test_criterion_7_standard_model_suite():
    t0 = time.perf_counter()
    rep_report = sm_rep().check()
    r_mult = record_residual(rep_report, "multiplicative on generator pairs")

    fin = sm_finite_geometry()
    r0 = order_zero_residual(fin)
    r1 = order_one_residual(fin)

    tsm = twisted_sm_geometry()
    recovery = generalized_minimal_twist_check(tsm)
    r_recov = recovery.info["recovery_residual"]

    twisted_report = verify_sm_twisted(tsm)
    has_residuals = all(
        key in twisted_report.info
        for key in ("order_one_flip", "order_one_display", "signs")
    )
    elapsed = time.perf_counter() - t0
    ok = (
        rep_report.ok
        and r_mult <= 1e-12
        and r0 <= 1e-12
        and r1 <= 1e-12
        and recovery.ok
        and r_recov == 0.0
        and twisted_report.ok
        and has_residuals
    )
    emit(
        7,
        ok,
        f"rep mult {r_mult:.2e}, orders ({r0:.2e}, {r1:.2e}), recovery {r_recov:.1e}, "
        f"twisted report {'ok' if twisted_report.ok else 'FAILED'}",
        elapsed,
        30.0,
    )
    assert rep_report.ok
    assert r_mult <= 1e-12
    assert r0 <= 1e-12
    assert r1 <= 1e-12
    assert recovery.ok and r_recov == 0.0
    assert twisted_report.ok, "\n".join(
        r.format_line() for r in twisted_report.failures()
    )
    assert has_residuals
    assert elapsed < 30.0


def test_criterion_8_charge_conjugation_signs():
    t0 = time.perf_counter()
    cc1 = charge_conjugation(1)
    cc2 = charge_conjugation(2)
    pair1 = (cc1.eps, cc1.eps_dblprime)
    pair2 = (cc2.eps, cc2.eps_dblprime)
    elapsed = time.perf_counter() - t0
    ok = pair1 == (-1, -1) and pair2 == (-1, 1)
    emit(8, ok, f"m=1 {pair1}, m=2 {pair2}", elapsed, 1.0)
    assert pair1 == (-1, -1)
    assert pair2 == (-1, 1)
    assert elapsed < 1.0
