"""Report plumbing: records, gating, merging, serialization."""

import json
from dataclasses import replace

import numpy as np
import pytest

from nctwist import cli
from nctwist.matlin import Tolerance, fro
from nctwist.mintwist import twist_by_grading
from nctwist.report import CheckRecord, Report
from nctwist.samples import random_matrix_geometry
from nctwist.serialize import dump_json, geometry_to_json
from nctwist.triple import verify_spectral_triple
from nctwist.twist import verify_twisted


def test_check_gates_on_tolerance():
    rep = Report("demo")
    tol = Tolerance(rel=1e-10, abs=1e-12)
    rep.check("tight", 1e-13, tol, 1.0)
    rep.check("loose", 1e-3, tol, 1.0)
    assert rep.records[0].passed
    assert not rep.records[1].passed
    assert not rep.ok
    assert [r.name for r in rep.failures()] == ["loose"]
    assert rep.max_residual == pytest.approx(1e-3)


def test_add_records_verbatim():
    rep = Report("demo")
    rep.add("informational", 3.5, float("inf"), note="recorded")
    assert rep.ok
    rec = rep.records[0]
    assert rec.residual == 3.5
    assert rec.note == "recorded"


def test_the_verdict_at_the_bound():
    # add passes at residual == tol; exceeds fails at residual == floor
    rep = Report("demo")
    at, above = rep.add("at", 1.0, 1.0), rep.add("above", np.nextafter(1.0, 2.0), 1.0)
    assert at.passed and not above.passed
    low, high = rep.exceeds("at", 1.0, 1.0), rep.exceeds("above", np.nextafter(1.0, 2.0), 1.0)
    assert not low.passed and high.passed
    assert (low.residual, low.tol, low.floor) == (1.0, 1.0, True)
    assert rep.check("scaled", 3e-10, Tolerance(rel=1e-10, abs=0.0), 3.0).passed


@pytest.mark.parametrize("residual", [np.nan, np.inf, -np.inf])
def test_a_non_finite_residual_fails_every_kind(residual):
    rep = Report("demo")
    records = [
        rep.add("add", residual, 1.0),
        rep.add("add at an infinite bound", residual, np.inf),
        rep.exceeds("exceeds", residual, 1.0),
        rep.exceeds("exceeds below -inf", residual, -np.inf),
        rep.check("check", residual, Tolerance(), 1.0),
        rep.record("record", residual),
    ]
    assert not any(r.passed for r in records)
    assert not rep.ok


def test_a_floor_record_says_so_in_text_and_json():
    rep = Report("demo")
    rep.exceeds("moves", 2.5, 1e-10, note="lower bound")
    rep.add("holds", 0.0, 1e-10)
    floor, plain = rep.to_dict()["checks"]
    assert floor == {
        "name": "moves", "passed": True, "residual": 2.5, "tol": 1e-10,
        "note": "lower bound", "floor": True,
    }
    assert "floor" not in plain
    text = rep.format_text().splitlines()
    assert text[1] == "  PASS  moves  residual=2.500e+00 (floor 1.0e-10)  [lower bound]"
    assert text[2] == "  PASS  holds  residual=0.000e+00 (tol 1.0e-10)"


def test_merge_prefixes_names():
    inner = Report("inner")
    inner.check("sub check", 0.0, Tolerance(), 1.0)
    inner.exceeds("lower bound", 0.0, 1e-10)
    inner.info["key"] = 7
    outer = Report("outer")
    outer.merge(inner, prefix="inner: ")
    assert outer.records[0].name == "inner: sub check"
    assert outer.info["key"] == 7
    # a floor record keeps its kind and verdict
    floor = outer.records[1]
    assert floor.name == "inner: lower bound" and floor.floor and not floor.passed


def test_a_merged_record_keeps_every_field_but_its_name():
    inner = Report("inner")
    inner.add("passed", 0.5, 1.0, note="a note")
    inner.add("failed", 2.0, 1.0)
    inner.exceeds("floor", 0.0, 1e-10, note="a floor")
    outer = Report("outer")
    outer.merge(inner, prefix="inner: ")
    fields = ("passed", "residual", "tol", "note", "floor")
    assert len(outer.records) == len(inner.records)
    for rec, orig in zip(outer.records, inner.records):
        assert type(rec) is CheckRecord and rec is not orig
        assert rec.name == "inner: " + orig.name
        assert [getattr(rec, f) for f in fields] == [getattr(orig, f) for f in fields]
    assert [r.floor for r in outer.records] == [False, False, True]
    assert [r.passed for r in outer.records] == [True, False, False]
    assert [r.name for r in inner.records] == ["passed", "failed", "floor"]


def test_merge_propagates_failure():
    inner = Report("inner")
    inner.check("bad", 1.0, Tolerance(), 1.0)
    outer = Report("outer")
    outer.check("good", 0.0, Tolerance(), 1.0)
    outer.merge(inner)
    assert not outer.ok


def test_to_dict_and_json_roundtrip():
    rep = Report("demo")
    rep.check("one", 1e-14, Tolerance(), 1.0)
    rep.info["seed"] = 0
    d = rep.to_dict()
    assert d["title"] == "demo"
    assert d["ok"] is True
    assert d["checks"][0]["name"] == "one"
    parsed = json.loads(rep.to_json())
    assert parsed == json.loads(rep.to_json())  # deterministic
    assert parsed["info"]["seed"] == 0


def test_json_handles_numpy_scalars():
    rep = Report("demo")
    rep.add("numpy residual", float(np.float64(0.5)), float("inf"))
    rep.info["value"] = np.float64(1.25)
    rep.info["flag"] = np.bool_(True)
    parsed = json.loads(rep.to_json())
    assert parsed["info"]["value"] == 1.25
    assert parsed["info"]["flag"] is True


def test_format_text_one_line_per_record():
    rep = Report("demo")
    rep.check("alpha", 0.0, Tolerance(), 1.0)
    rep.add("beta", 2.0, 1.0, note="too big")
    text = rep.format_text()
    lines = text.splitlines()
    assert lines[0].startswith("demo")
    assert any("alpha" in ln and "PASS" in ln for ln in lines)
    assert any("beta" in ln and "FAIL" in ln for ln in lines)
    assert lines[-1].strip().startswith("=> FAILED")


def test_check_record_line_contains_residual():
    rec = CheckRecord(name="x", passed=True, residual=1.5e-12, tol=1e-10, note="")
    line = rec.format_line()
    assert "x" in line
    assert "1.5" in line


# -- a bound that overflowed accepts nothing --------------------------------


def overflowing_geometry():
    """A finite D near 1e153, so that its Frobenius norm (the scale of the
    order-one bound) overflows, plus a Hermitian term that breaks order one;
    each pair residual stays finite."""
    rng = np.random.default_rng(3)
    g = random_matrix_geometry(rng, 3, frame=False)
    n = g.hilbert_dim
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return replace(g, dirac=9e152 * (g.dirac + h + h.conj().T))


def test_a_check_whose_bound_overflowed_fails(tmp_path, capsys):
    rep = Report("demo")
    assert not rep.check("overflowed", 0.0, Tolerance(), np.inf).passed
    assert rep.record("measured only", 3.5).passed  # tol inf by design
    g = overflowing_geometry()
    with np.errstate(over="ignore"):
        assert np.isinf(fro(g.dirac))
        reports = [verify_spectral_triple(g), verify_twisted(twist_by_grading(g))]
    for report in reports:
        order_one = [r for r in report.records if "form on generator pairs" in r.name]
        assert len(order_one) == 2
        for r in order_one:
            assert np.isfinite(r.residual) and r.tol == np.inf and not r.passed, r
    # ``nctwist verify`` prints the same records
    path = tmp_path / "overflow.json"
    dump_json(geometry_to_json(g), str(path))
    with np.errstate(over="ignore"):
        assert cli.main(["verify", str(path), "--report", "json"]) == 1
    printed = json.loads(capsys.readouterr().out)["checks"]
    order_one = [c for c in printed if "form on generator pairs" in c["name"]]
    assert len(order_one) == 2 and not any(c["passed"] for c in order_one)
