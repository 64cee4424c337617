"""Command line interface: exit codes, report formats, artifact files."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nctwist
from nctwist import cli, mintwist
from nctwist.algebra import Algebra, Placement, Representation
from nctwist.cli import main
from nctwist.clifford import MAX_M, gamma
from nctwist.fluct import TwistedOneForm, symmetrized
from nctwist.matlin import DEFAULT_TOL, AntilinearOperator, kron
from nctwist.samples import left_regular_geometry, toy_triple
from nctwist.serialize import (
    dump_json,
    geometry_to_json,
    load_json,
    matrix_to_json,
    one_form_to_json,
    twisted_marker_to_json,
)
from nctwist.triple import FiniteGeometry
from nctwist.twist import Automorphism, TwistedGeometry

# the directory holding the imported package, for CLI subprocesses
PACKAGE_ROOT = os.path.dirname(os.path.dirname(nctwist.__file__))


@pytest.fixture
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    dump_json(geometry_to_json(toy_triple()), str(path))
    return str(path)


@pytest.fixture
def block_file(tmp_path):
    alg = Algebra.of("C", "C")
    m_small = np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.0]])
    g = left_regular_geometry(alg, [1, -1], m_small)
    path = tmp_path / "block.json"
    dump_json(geometry_to_json(g), str(path))
    return str(path)


@pytest.fixture
def marker_file(tmp_path, toy_file):
    path = tmp_path / "toy_twisted.json"
    dump_json(twisted_marker_to_json(toy_triple()), str(path))
    return str(path)


@pytest.fixture
def bad_geometry_file(tmp_path):
    # non-self-adjoint Dirac: verification must fail with exit code 1.
    # no grading or real structure, so the only failing check is the one
    # the --tol tests below want to re-gate
    alg = Algebra.of("C")
    rep = Representation.from_placements(
        alg, 2, [Placement(component=0, start=0, mode="scalar", mult=2)]
    )
    bad = FiniteGeometry(rep=rep, dirac=np.array([[0.0, 1.0], [0.0, 0.0]]))
    path = tmp_path / "bad.json"
    dump_json(geometry_to_json(bad), str(path))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--report", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestGamma:
    def test_text_report_and_exit_zero(self, capsys):
        assert main(["gamma", "--m", "2"]) == 0
        out = capsys.readouterr().out
        assert "gamma^1" in out
        assert "wall time" in out

    def test_json_report_no_wall_time(self, capsys):
        code, payload = run_json(capsys, ["gamma", "--m", "3"])
        assert code == 0
        assert payload["ok"] is True
        assert "wall" not in json.dumps(payload)
        assert payload["info"]["command"].startswith("nctwist gamma")

    def test_json_byte_identical_across_runs(self, capsys):
        main(["gamma", "--m", "2", "--report", "json"])
        first = capsys.readouterr().out
        main(["gamma", "--m", "2", "--report", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_artifact_out(self, capsys, tmp_path):
        target = tmp_path / "g2.json"
        assert main(["gamma", "--m", "2", "--out", str(target)]) == 0
        data = json.loads(target.read_text())
        assert data["m"] == 2
        assert len(data["gammas"]) == 4
        assert data["grading"]["rows"] == 4

    @pytest.mark.parametrize("argv", [["gamma", "--m", "2"], ["uniqueness", "--m", "2"]])
    @pytest.mark.parametrize("kind", ["directory", "under a file"])
    def test_unwritable_out_is_input_error(self, capsys, tmp_path, argv, kind):
        # gamma writes its artifact there, uniqueness its report
        if kind == "directory":
            target = tmp_path
        else:
            (tmp_path / "plain").write_text("")
            target = tmp_path / "plain" / "out.json"
        assert main(argv + ["--report", "json", "--out", str(target)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and str(target) in err[0]

    def test_bad_m_is_input_error(self, capsys):
        assert main(["gamma", "--m", "9"]) == 2
        assert "error" in capsys.readouterr().err

    def test_signs_are_recorded_up_to_max_m(self, capsys):
        code, payload = run_json(capsys, ["gamma", "--m", "6"])
        assert code == 0
        (rec,) = [c for c in payload["checks"] if c["name"] == "charge conjugation signs"]
        assert rec["passed"] and "eps=-1, eps''=1" in rec["note"]

    def test_above_max_m_is_input_error(self, capsys):
        assert main(["gamma", "--m", "7"]) == 2
        assert capsys.readouterr().err.startswith("error: m must be in 1..6")

    @pytest.mark.parametrize("m", range(1, MAX_M + 1))
    def test_sign_record_is_decided_on_its_residual(self, m):
        report = cli._gamma_report(m, DEFAULT_TOL)
        (rec,) = [r for r in report.records if r.name == "charge conjugation signs"]
        assert rec.passed and rec.residual <= 1e-12 < rec.tol

    def test_negated_eps_dblprime_fails_the_sign_record(self, monkeypatch):
        solve = cli.charge_conjugation

        def negated(m, tol):
            cc = solve(m, tol)
            return replace(cc, eps_dblprime=-cc.eps_dblprime)

        monkeypatch.setattr(cli, "charge_conjugation", negated)
        report = cli._gamma_report(2, DEFAULT_TOL)
        (rec,) = [r for r in report.records if r.name == "charge conjugation signs"]
        assert not rec.passed and rec.residual > rec.tol > 0.0

    def test_nan_in_a_later_gamma_fails(self, monkeypatch):
        data = gamma(2)
        gams = [g.copy() for g in data.gammas]
        gams[1][0, 1] = np.nan
        monkeypatch.setattr(cli, "gamma", lambda m: replace(data, gammas=tuple(gams)))
        report = cli._gamma_report(2, DEFAULT_TOL)
        (rec,) = [r for r in report.records if r.name == "each gamma self-adjoint"]
        assert not rec.passed
        assert np.isnan(rec.residual)


class TestVerify:
    def test_pass_exit_zero(self, capsys, toy_file):
        code, payload = run_json(capsys, ["verify", toy_file])
        assert code == 0
        assert payload["ok"] is True

    def test_fail_exit_one(self, capsys, bad_geometry_file):
        code, payload = run_json(capsys, ["verify", bad_geometry_file])
        assert code == 1
        assert payload["ok"] is False

    def test_missing_file_exit_two(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2
        err = capsys.readouterr().err
        assert "file not found" in err

    def test_malformed_json_exit_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify", str(path)]) == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_nonfinite_number_exit_two(self, tmp_path, token):
        obj = geometry_to_json(toy_triple())
        obj["D"]["data"][1][0] = "TOKEN"
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(obj).replace('"TOKEN"', token))
        proc = subprocess.run(
            [sys.executable, "-m", "nctwist.cli", "verify", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
        )
        assert proc.returncode == 2, proc.stdout
        assert "non-finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda obj: [obj], "top-level JSON value"),
            (lambda obj: obj["D"].update(data=[["0", "1"]] * 4), "matrix entry"),
            (lambda obj: obj["D"].update(rows=None), "matrix rows"),
            (lambda obj: obj.update(algebra=5), "algebra"),
            (lambda obj: obj.update(algebra=["C"]), "algebra component"),
            (lambda obj: obj.update(algebra=[]), "algebra"),
            (lambda obj: obj.update(hilbert_dim=0), "hilbert_dim"),
        ],
        ids=["top-level-array", "string-entries", "null-rows", "number-algebra",
             "string-component", "empty-algebra", "zero-dim"],
    )
    def test_wrong_json_type_exit_two(self, tmp_path, edit, field):
        obj = geometry_to_json(toy_triple())
        obj = edit(obj) or obj
        path = tmp_path / "wrong_type.json"
        path.write_text(json.dumps(obj))
        proc = subprocess.run(
            [sys.executable, "-m", "nctwist.cli", "verify", str(path)],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
        )
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith(f"error: {field} ")
        assert "Traceback" not in proc.stderr

    def test_nan_residual_report_reads_back(self, capsys, tmp_path, toy_file, monkeypatch):
        # a file cannot carry a NaN, so the reader puts one in D: it fits no
        # sign of J D = eps' D J, and "sign triple determinate" is NaN
        read = cli.geometry_from_json

        def nan_dirac(obj):
            g = read(obj)
            d = g.dirac.copy()
            d[0, 1] = np.nan
            return replace(g, dirac=d)

        monkeypatch.setattr(cli, "geometry_from_json", nan_dirac)
        out = tmp_path / "report.json"
        runs = []
        for _ in range(2):
            assert main(["verify", toy_file, "--out", str(out)]) == 1
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]
        saved = load_json(str(out))
        (rec,) = [c for c in saved["checks"] if c["name"] == "sign triple determinate"]
        assert rec["residual"] is None and not rec["passed"]
        assert "residual is nan" in rec["note"]
        assert 0.0 < rec["tol"] < np.inf and "floor" not in rec

    def test_an_ambiguous_sign_reads_back_as_a_failed_floor(self, capsys, tmp_path):
        # D = 0 fits both signs of J D = eps' D J: the larger residual, 0.0,
        # is at or below the bound, so the sign is not determinate
        path = tmp_path / "d0.json"
        zero_dirac = replace(toy_triple(), dirac=np.zeros((2, 2)))
        dump_json(geometry_to_json(zero_dirac), str(path))
        code, payload = run_json(capsys, ["verify", str(path)])
        assert code == 1
        (rec,) = [c for c in payload["checks"] if c["name"] == "sign triple determinate"]
        assert rec["floor"] is True and not rec["passed"]
        assert rec["residual"] == 0.0 and rec["tol"] > 0.0
        assert rec["note"] == "ambiguous sign for J vs D: both signs fit"

    def test_twisted_marker_runs_twisted_checks(self, capsys, marker_file):
        code, payload = run_json(capsys, ["verify", marker_file])
        assert code == 0
        names = [c["name"] for c in payload["checks"]]
        assert any("order one" in n for n in names)

    def test_marker_with_rho_is_an_error(self, capsys, marker_file, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text('{"permutation":[1,0]}')
        assert main(["verify", marker_file, "--rho", str(rho)]) == 2

    def test_twisted_flag_without_rho_is_an_error(self, capsys, toy_file):
        assert main(["verify", toy_file, "--twisted"]) == 2

    def test_explicit_rho_on_plain_geometry(self, capsys, toy_file, tmp_path):
        rho = tmp_path / "rho_id.json"
        rho.write_text('{"permutation":[0]}')
        code, payload = run_json(capsys, ["verify", toy_file, "--rho", str(rho)])
        assert code == 0

    def test_report_out_writes_file(self, capsys, toy_file, tmp_path):
        target = tmp_path / "report.json"
        assert main(["verify", toy_file, "--out", str(target)]) == 0
        saved = json.loads(target.read_text())
        assert saved["ok"] is True

    @staticmethod
    def write_geometry(tmp_path, algebra, placements):
        """A 2-dimensional geometry file with D = 0 and the given placements."""
        obj = {
            "algebra": algebra,
            "hilbert_dim": 2,
            "D": matrix_to_json(np.zeros((2, 2))),
            "representation": placements,
        }
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(obj))
        return str(path)

    @pytest.mark.parametrize("mode", ["fund", "conj-fund"])
    def test_fundamental_placement_of_c_is_an_input_error(self, capsys, tmp_path, mode):
        placement = {"component": 1, "start": 0, "mode": mode, "mult": 1}
        path = self.write_geometry(tmp_path, [{"type": "C"}] * 2, [placement])
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert f"component 1 (C) in mode '{mode}'" in err

    def test_pair_coordinates_over_the_bound_are_an_input_error(self, capsys, tmp_path):
        # an unplaced M_40 has G = B = 3200: G^2 B = 3.3e10 pair coordinates to walk
        path = self.write_geometry(tmp_path, [{"type": "M", "n": 40}], [])
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert "G = 3200 generators" in err
        assert f"bound of {2**25}" in err

    def test_unplaced_m10_is_verified(self, capsys, tmp_path):
        path = self.write_geometry(tmp_path, [{"type": "M", "n": 10}], [])
        code, payload = run_json(capsys, ["verify", path])
        # pi = 0 is multiplicative and *-preserving, but misses the unit
        assert code == 1
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        assert failed == ["rep: unit maps to identity"]


@pytest.mark.parametrize("command", ["verify", "fluctuate"])
def test_u_rho_of_the_wrong_shape_is_an_input_error(tmp_path, block_file, command):
    # block_file acts on C^4; a 3 x 3 implementing unitary cannot act there
    rho = tmp_path / "rho.json"
    dump_json({"permutation": [0, 1], "u_rho": matrix_to_json(np.eye(3))}, str(rho))
    form = tmp_path / "form.json"
    form.write_text('{"terms":[]}')
    argv = [command, block_file, "--rho", str(rho)]
    if command == "fluctuate":
        argv += ["--form", str(form)]
    proc = subprocess.run(
        [sys.executable, "-m", "nctwist.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
    )
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr.startswith("error: u_rho ")
    assert "(3, 3)" in proc.stderr and "(4, 4)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_zero_scale_is_an_input_error(tmp_path, block_file):
    rho = tmp_path / "rho.json"
    dump_json({"permutation": [0, 1], "scale": [[1.0, 0.0], [0.0, 0.0]]}, str(rho))
    proc = subprocess.run(
        [sys.executable, "-m", "nctwist.cli", "verify", block_file, "--rho", str(rho)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=PACKAGE_ROOT),
    )
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == "error: scale of block 1 is zero, which is not invertible\n"


def test_a_singular_inner_unitary_is_an_input_error(capsys, tmp_path):
    # M_2 on C^2; a zero inner "unitary" would make rho^-1 a singular solve
    alg = Algebra.of(("M", 2))
    rep = Representation.from_placements(alg, 2, [Placement(0, 0, "fund", 1)])
    geometry, rho = tmp_path / "m2.json", tmp_path / "rho.json"
    dump_json(geometry_to_json(FiniteGeometry(rep=rep, dirac=np.zeros((2, 2)))), str(geometry))
    dump_json({"permutation": [0], "inner": [matrix_to_json(np.zeros((2, 2)))]}, str(rho))
    assert main(["verify", str(geometry), "--rho", str(rho)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: inner unitary 0 is not invertible\n"


# -- malformed input, generated ---------------------------------------------
#
# Valid geometry, automorphism and one-form files for C + M_2 on M_3 (an
# inner twist of the matrix block, implemented on the Hilbert space), each
# then broken in one place.  Whatever breaks, ``fluctuate`` reads all three
# files and must exit 2 with one ``error:`` line.

# keys the readers let a file leave out, and those whose value may be null
OPTIONAL_KEYS = {"gamma", "J", "mult", "convention", "inner", "scale", "u_rho"}
NULLABLE_KEYS = {"inner", "scale", "u_rho"}
JSON_SAMPLES = {"null": None, "boolean": True, "number": 3, "string": "x", "array": [], "object": {}}
NONFINITE = "__NONFINITE__"


def valid_inputs() -> dict:
    alg = Algebra.of("C", ("M", 2))
    m_small = np.array([[0, 1 + 0.5j, 0.25], [1 - 0.5j, 0, 0], [0.25, 0, 0]])
    g = left_regular_geometry(alg, [1, -1], m_small)
    u = np.array([[0.6, 0.8], [0.8, -0.6]])  # an involution, so rho is regular
    rho = Automorphism(
        (0, 1),
        inner=(None, u),
        scale=(1.0, 1.0),
        u_rho=kron(np.diag([1.0, 0.0, 0.0]) + np.pad(u, ((1, 0), (1, 0))), np.eye(3)),
    )
    tg = TwistedGeometry(g, rho)
    rng = np.random.default_rng(3)
    form = symmetrized(TwistedOneForm.of((alg.random_element(rng), alg.random_element(rng))), tg)
    return {
        "geometry": geometry_to_json(g),
        "rho": {
            "permutation": [0, 1],
            "inner": [None, matrix_to_json(u)],
            "scale": [[1.0, 0.0], [1.0, 0.0]],
            "u_rho": matrix_to_json(rho.u_rho),
        },
        "form": one_form_to_json(alg, list(form.terms)),
    }


VALID = valid_inputs()


def json_nodes(value, path=()):
    """``(path, value)`` of every node of a decoded JSON value, the root first."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from json_nodes(child, path + (key,))


def json_kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def edited(obj, path, change):
    """A copy of ``obj`` with ``change(parent, key)`` applied at ``path``."""
    out = json.loads(json.dumps(obj))
    if not path:
        holder = [out]
        change(holder, 0)
        return holder[0]
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    change(parent, path[-1])
    return out


@st.composite
def malformed(draw):
    """(file name, its broken text, what was broken) for one of the three files."""
    name = draw(st.sampled_from(sorted(VALID)))
    obj = VALID[name]
    nodes = list(json_nodes(obj))
    how = draw(st.sampled_from(["drop", "retype", "reshape", "nonfinite"]))
    if how == "drop":
        path = draw(st.sampled_from([
            p for p, _ in nodes
            if p and isinstance(p[-1], str) and p[-1] not in OPTIONAL_KEYS
        ]))
        obj = edited(obj, path, lambda parent, key: parent.pop(key))
    elif how == "retype":
        path, value = draw(st.sampled_from(nodes))
        nullable = path and (path[-1] in NULLABLE_KEYS or (len(path) > 1 and path[-2] == "inner"))
        kinds = [k for k in JSON_SAMPLES if k != json_kind(value) and not (nullable and k == "null")]
        new = JSON_SAMPLES[draw(st.sampled_from(kinds))]
        obj = edited(obj, path, lambda parent, key: parent.__setitem__(key, new))
    elif how == "reshape":
        path, value = draw(st.sampled_from([
            (p, v) for p, v in nodes if isinstance(v, dict) and "data" in v
        ]))
        shape = draw(
            st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(
                lambda rc: rc != (value["rows"], value["cols"])
            )
        )
        data = (value["data"] * 16)[: shape[0] * shape[1]]
        new = {"rows": shape[0], "cols": shape[1], "data": data}
        obj = edited(obj, path, lambda parent, key: parent.__setitem__(key, new))
    else:
        path = draw(st.sampled_from([p for p, v in nodes if json_kind(v) == "number"]))
        obj = edited(obj, path, lambda parent, key: parent.__setitem__(key, NONFINITE))
    token = draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999"]))
    return name, json.dumps(obj).replace(f'"{NONFINITE}"', token), f"{how} at {name}{list(path)}"


def fluctuate_files(tmp_path, broken=None):
    """Write the three valid files, one replaced by ``(name, text)``; return the argv."""
    paths = {}
    for name, obj in VALID.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(obj))
    if broken is not None:
        paths[broken[0]].write_text(broken[1])
    return ["fluctuate", str(paths["geometry"]), "--rho", str(paths["rho"]),
            "--form", str(paths["form"]), "--report", "json"]


def test_the_valid_files_are_read(capsys, tmp_path):
    # every record is measured; only the twisted order one fails, since D
    # is untwisted first order
    assert main(fluctuate_files(tmp_path)) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = {c["name"] for c in checks if not c["passed"]}
    assert failed == {
        "fluctuated: order one: primary form on generator pairs",
        "fluctuated: order one: symmetric form on generator pairs",
    }


@settings(max_examples=100, deadline=None)
@given(broken=malformed())
def test_a_malformed_file_is_an_input_error(tmp_path_factory, broken):
    name, text, what = broken
    argv = fluctuate_files(tmp_path_factory.mktemp("malformed"), (name, text))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2, what
    assert out.getvalue() == "", what
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (what, lines)
    # a message that is only a key (a KeyError's) would not say what lacks it
    assert not re.fullmatch(r"error: '[^']*'", lines[0]), (what, lines)


class TestTolerances:
    def test_tol_flag_loosens_gate(self, capsys, bad_geometry_file):
        # the broken Dirac has residual ~1; an absurdly loose gate passes
        assert main(["verify", bad_geometry_file, "--tol", "10.0"]) == 0

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"], ids=["inf", "nan", "negative"])
    def test_unusable_tolerance_is_an_input_error(self, capsys, bad_geometry_file, value):
        # inf would pass the broken Dirac; nan and -1 would fail every record
        assert main(["verify", bad_geometry_file, "--tol", value]) == 2
        assert capsys.readouterr().err.startswith("error: tolerance rel ")


class TestTwistByGrading:
    def test_writes_marker_artifact(self, capsys, block_file, tmp_path):
        target = tmp_path / "twisted.json"
        code, payload = run_json(
            capsys, ["twist-by-grading", block_file, "--out", str(target)]
        )
        assert code == 0
        saved = json.loads(target.read_text())
        assert saved["kind"] == "twist-by-grading"
        assert payload["info"]["u_rho_attached"] in (True, False)

    def test_marker_feeds_back_into_verify(self, capsys, block_file, tmp_path):
        target = tmp_path / "twisted.json"
        main(["twist-by-grading", block_file, "--out", str(target)])
        capsys.readouterr()
        assert main(["verify", str(target)]) == 0

    def test_ungraded_input_is_an_error(self, capsys, tmp_path):
        alg = Algebra.of("C")
        rep = Representation.from_placements(
            alg, 2, [Placement(component=0, start=0, mode="scalar", mult=2)]
        )
        g = FiniteGeometry(
            rep=rep,
            dirac=np.zeros((2, 2)),
            real_structure=AntilinearOperator(np.eye(2)),
        )
        path = tmp_path / "ungraded.json"
        dump_json(geometry_to_json(g), str(path))
        assert main(["twist-by-grading", str(path)]) == 2


class TestFluctuate:
    def test_marker_fluctuation(self, capsys, tmp_path, block_file):
        alg = Algebra.of("C", "C")
        m_small = np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.0]])
        base = left_regular_geometry(alg, [1, -1], m_small)
        marker = tmp_path / "m.json"
        dump_json(twisted_marker_to_json(base), str(marker))

        from nctwist.fluct import symmetrized, TwistedOneForm
        from nctwist.mintwist import twist_by_grading

        tg = twist_by_grading(base)
        dbl = tg.algebra
        rng = np.random.default_rng(0)
        raw = TwistedOneForm.of((dbl.random_element(rng), dbl.random_element(rng)))
        form = symmetrized(raw, tg)
        form_path = tmp_path / "form.json"
        dump_json(one_form_to_json(dbl, list(form.terms)), str(form_path))

        code, payload = run_json(
            capsys, ["fluctuate", str(marker), "--form", str(form_path)]
        )
        assert code == 0
        assert payload["ok"] is True

    def test_marker_with_rho_is_an_error(self, capsys, marker_file, tmp_path):
        # as for verify: a marker carries its own twist, which --rho may not replace
        rho, form = tmp_path / "rho.json", tmp_path / "form.json"
        rho.write_text('{"permutation":[1,0]}')
        form.write_text('{"terms":[]}')
        argv = ["fluctuate", marker_file, "--form", str(form), "--rho", str(rho)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: twisted geometry files carry their own twist; drop --rho\n"

    def test_requires_rho_or_marker(self, capsys, toy_file, tmp_path):
        form = tmp_path / "form.json"
        form.write_text('{"terms":[]}')
        assert main(["fluctuate", toy_file, "--form", str(form)]) == 2


class TestEngines:
    def test_uniqueness(self, capsys):
        code, payload = run_json(capsys, ["uniqueness", "--m", "2"])
        assert code == 0
        assert payload["info"]["dimension"] == 2

    def test_uniqueness_runs_up_to_max_m(self, capsys):
        code, payload = run_json(capsys, ["uniqueness", "--m", "6"])
        assert code == 0
        assert payload["info"]["dimension"] == 2

    def test_uniqueness_above_max_m_is_input_error(self, capsys):
        assert main(["uniqueness", "--m", "7"]) == 2
        assert capsys.readouterr().err.startswith("error: m must be in 1..6")

    def test_free_dirac_seeded(self, capsys):
        code, payload = run_json(capsys, ["free-dirac", "--m", "1", "--seed", "3"])
        assert code == 0
        assert payload["info"]["branch"] == "{2,6}"
        assert payload["info"]["accepted"] is False
        names = [c["name"] for c in payload["checks"]]
        assert "J pi(a) J^-1 = pi(flip(a*))" in names

    def test_free_dirac_runs_up_to_max_m(self, capsys):
        code, payload = run_json(capsys, ["free-dirac", "--m", "6"])
        assert code == 0
        assert payload["info"]["branch"] == "{0,4}"

    def test_free_dirac_above_max_m_is_input_error(self, capsys):
        assert main(["free-dirac", "--m", "7"]) == 2
        assert capsys.readouterr().err.startswith("error: m must be in 1..6")

    @pytest.mark.parametrize(
        "argv", [["uniqueness", "--m", "2"], ["gamma", "--m", "1"], ["sm"]]
    )
    def test_seed_belongs_to_free_dirac_only(self, capsys, argv):
        assert main(argv + ["--seed", "5"]) == 2

    def test_free_dirac_explicit_samples(self, capsys, tmp_path):
        f = np.array([0.5 + 0.25j, -1.0 + 0.5j, 0.0 + 1.0j, 2.0 + 0.0j])
        samples = np.stack([f, -np.conj(f)], axis=1)
        path = tmp_path / "samples.json"
        dump_json(matrix_to_json(samples), str(path))
        code, payload = run_json(
            capsys, ["free-dirac", "--m", "2", "--samples", str(path)]
        )
        assert code == 0
        assert payload["info"]["accepted"] is True

    def test_free_dirac_bad_shape(self, capsys, tmp_path):
        path = tmp_path / "samples.json"
        dump_json(matrix_to_json(np.zeros((3, 3))), str(path))
        assert main(["free-dirac", "--m", "2", "--samples", str(path)]) == 2

    def test_gamma_tilde(self, capsys, marker_file):
        code = main(["gamma-tilde", marker_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "involution" in out

    def test_gamma_tilde_records_carry_their_residual_and_bound(self, capsys, marker_file):
        code, payload = run_json(capsys, ["gamma-tilde", marker_file])
        assert code == 0
        checks = {c["name"]: c for c in payload["checks"]}
        for name in ("self-adjoint involution", "equals the grading of the input geometry"):
            rec = checks[name]
            assert rec["passed"] and rec["residual"] <= rec["tol"], name
            assert 0.0 < rec["tol"] < np.inf, name

    @pytest.mark.parametrize("shift", [0.0, 0.75e-10])
    def test_gamma_tilde_grading_verdict_matches_its_tol(self, capsys, tmp_path, shift):
        # D = sigma_1 + shift I: the anticommutator {gamma, D} = 2 shift gamma
        # has norm 2 sqrt(2) shift, above the bound tol.rel ||D|| + tol.abs
        g = toy_triple()
        g = g.with_dirac(g.dirac + shift * np.eye(2))
        path = tmp_path / "shifted.json"
        dump_json(twisted_marker_to_json(g), str(path))
        code, payload = run_json(capsys, ["gamma-tilde", str(path)])
        (rec,) = [
            c for c in payload["checks"] if c["name"] == "anticommutes with D (is a grading)"
        ]
        assert rec["passed"] == (rec["residual"] <= rec["tol"])
        if shift:
            assert code == 1 and not rec["passed"]
            assert rec["residual"] == pytest.approx(2 * np.sqrt(2) * shift)
        else:
            assert code == 0 and rec["passed"] and rec["residual"] == 0.0


class TestSM:
    def test_recovery_check(self, capsys):
        code, payload = run_json(capsys, ["sm", "--check", "recovery"])
        assert code == 0
        assert payload["ok"] is True

    def test_zero_order_check(self, capsys):
        assert main(["sm", "--check", "zero-order"]) == 0

    def test_custom_couplings(self, capsys):
        code = main(
            [
                "sm",
                "--check",
                "recovery",
                "--yukawa",
                "0.5,0.4+0.1j,0.7,0.9",
                "--majorana",
                "1.0-0.2j",
            ]
        )
        assert code == 0

    def test_signed_values_parse_with_or_without_equals(self, capsys, monkeypatch):
        seen = []
        build = cli.twisted_sm_geometry

        def capture(yukawas, majorana):
            seen.append((yukawas, majorana))
            return build(yukawas, majorana)

        monkeypatch.setattr(cli, "twisted_sm_geometry", capture)
        values = {"--yukawa": "-0.5,1,1,1", "--majorana": "-1.0-0.2j"}
        spaced = [tok for flag, v in values.items() for tok in (flag, v)]
        glued = [f"{flag}={v}" for flag, v in values.items()]
        checks = []
        for flags in (spaced, glued):
            code, payload = run_json(capsys, ["sm", "--check", "zero-order", *flags])
            assert code == 0
            checks.append(payload["checks"])
        assert checks[0] == checks[1]
        assert seen[0] == seen[1]
        assert seen[0][0]["nu"] == -0.5 and seen[0][1] == -1.0 - 0.2j

    def test_zero_couplings_are_a_failed_report(self, capsys):
        # D = 0 is valid input that fits both signs of J D = eps' D J: a
        # report whose sign records fail as floor records (exit 1), not an
        # input error (exit 2)
        zero = ["sm", "--yukawa", "0,0,0,0", "--majorana", "0"]
        name = "sign triple of the twisted model"
        assert main(zero) == 1
        assert f"FAIL  {name}  residual=0.000e+00 (floor" in capsys.readouterr().out
        code, payload = run_json(capsys, zero)
        assert code == 1 and payload["ok"] is False
        (rec,) = [c for c in payload["checks"] if c["name"] == name]
        assert rec["floor"] is True and not rec["passed"]
        assert rec["residual"] <= rec["tol"]
        assert rec["note"] == "ambiguous sign for J vs D: both signs fit"

    def test_malformed_yukawa_is_input_error(self, capsys):
        assert main(["sm", "--check", "recovery", "--yukawa", "1.0,2.0"]) == 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("flag", ["--yukawa", "--majorana"])
    def test_non_finite_coupling_is_input_error(self, capsys, flag, value):
        arg = f"{value},1,1,1" if flag == "--yukawa" else value
        assert main(["sm", "--check", "zero-order", f"{flag}={arg}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and "Traceback" not in err


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2
