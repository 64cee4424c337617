"""Time the acceptance-criterion shapes next to the ROADMAP baseline.

    python3 perfbench/crosscheck.py

Runs the loops of acceptance criteria 3, 4 and 7 in this process and
``nctwist sm --check all`` as a subprocess, each once, and prints the wall
time beside the baseline recorded in ROADMAP.md (2-core box, Python 3.11.7,
numpy 2.4.6).  The loops mirror tests/test_acceptance.py; the benchmark's
workloads use the same calls on differently mixed inputs, see README.md.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from nctwist.fluct import compose_fluctuations, verify_fluctuated  # noqa: E402
from nctwist.matlin import Tolerance  # noqa: E402
from nctwist.mintwist import twist_by_grading  # noqa: E402
from nctwist.samples import random_graded_geometry, random_one_form  # noqa: E402
from nctwist.sm import (  # noqa: E402
    generalized_minimal_twist_check,
    sm_finite_geometry,
    sm_rep,
    twisted_sm_geometry,
    verify_sm_twisted,
)
from nctwist.triple import order_one_residual, order_zero_residual  # noqa: E402
from nctwist.twist import verify_twisted  # noqa: E402

BASELINE_S = {"criterion 3": 10.2, "criterion 4": 13.7, "criterion 7": 8.1, "sm --check all": 11.2}


def criterion_3() -> tuple[bool, float]:
    tol = Tolerance(rel=0.0, abs=1e-10)
    ok, worst = True, 0.0
    for seed in range(50):
        report = verify_twisted(twist_by_grading(random_graded_geometry(np.random.default_rng(seed))), tol)
        ok &= report.ok
        worst = max(worst, report.max_residual)
    return ok, worst


def criterion_4() -> tuple[bool, float]:
    ok, worst = True, 0.0
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        tg = twist_by_grading(random_graded_geometry(rng))
        report = verify_fluctuated(tg, random_one_form(rng, tg))
        ok &= report.ok
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        tg = twist_by_grading(random_graded_geometry(rng))
        comp = compose_fluctuations(tg, random_one_form(rng, tg), random_one_form(rng, tg))
        ok &= comp.ok
        worst = max(worst, comp.max_residual)
    return ok, worst


def criterion_7() -> tuple[bool, float]:
    rep_report = sm_rep().check()
    fin = sm_finite_geometry()
    r0, r1 = order_zero_residual(fin), order_one_residual(fin)
    tsm = twisted_sm_geometry()
    recovery = generalized_minimal_twist_check(tsm)
    twisted = verify_sm_twisted(tsm)
    return rep_report.ok and recovery.ok and twisted.ok, max(r0, r1)


def sm_cli() -> tuple[bool, float | None]:
    proc = subprocess.run(
        [sys.executable, "-m", "nctwist.cli", "sm", "--check", "all"],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
    )
    return proc.returncode == 0, None


def main() -> None:
    print(f"{'case':<16} {'measured':>9} {'baseline':>9} {'gap':>7}  verdict  residual")
    for name, fn in (
        ("criterion 3", criterion_3),
        ("criterion 4", criterion_4),
        ("criterion 7", criterion_7),
        ("sm --check all", sm_cli),
    ):
        t0 = time.perf_counter()
        ok, residual = fn()
        elapsed = time.perf_counter() - t0
        base = BASELINE_S[name]
        print(
            f"{name:<16} {elapsed:8.2f}s {base:8.1f}s {100 * (elapsed / base - 1):+6.0f}%"
            f"  {'PASS' if ok else 'FAIL':<7}  {'-' if residual is None else f'{residual:.2e}'}"
        )


if __name__ == "__main__":
    main()
