"""Round trips for the JSON formats; writers must be byte-deterministic."""

import json

import numpy as np
import pytest

from nctwist.algebra import Algebra, Placement, Representation, quaternion
from nctwist.matlin import AntilinearOperator, fro
from nctwist.samples import flip_toy, toy_triple
from nctwist.serialize import (
    algebra_from_json,
    algebra_to_json,
    antilinear_from_json,
    antilinear_to_json,
    automorphism_from_json,
    dump_json,
    element_from_json,
    element_to_json,
    geometry_from_json,
    geometry_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    one_form_from_json,
    one_form_to_json,
    placements_from_json,
    placements_to_json,
    twisted_from_json,
    twisted_marker_to_json,
)
from nctwist.sm import sm_finite_geometry
from nctwist.twist import Automorphism

RNG_SEED = 42


def test_matrix_roundtrip_exact():
    rng = np.random.default_rng(RNG_SEED)
    m = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    obj = matrix_to_json(m)
    assert obj["rows"] == 3 and obj["cols"] == 5
    assert len(obj["data"]) == 15
    back = matrix_from_json(obj)
    # float64 -> [re, im] pairs -> float64 is lossless
    assert np.array_equal(back, m)


def test_matrix_rejects_malformed():
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2})
    with pytest.raises(ValueError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})


def test_antilinear_roundtrip_and_convention():
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    obj = antilinear_to_json(AntilinearOperator(u))
    assert obj["convention"] == "u-conj"
    back = antilinear_from_json(obj)
    assert np.array_equal(back.unitary, u)
    with pytest.raises(ValueError):
        antilinear_from_json({"unitary": matrix_to_json(u), "convention": "conj-u"})


def test_algebra_roundtrip():
    alg = Algebra.of("C", "H", ("M", 3))
    items = algebra_to_json(alg)
    assert items == [{"type": "C"}, {"type": "H"}, {"type": "M", "n": 3}]
    back = algebra_from_json(items)
    assert back.signature() == alg.signature()


def test_algebra_rejects_unknown_type():
    with pytest.raises(ValueError):
        algebra_from_json([{"type": "O"}])


def test_element_roundtrip_all_kinds():
    alg = Algebra.of("C", "H", ("M", 2))
    elem = alg.element(
        [1.5 - 0.5j, quaternion(0.1 + 0.2j, -0.3j), np.array([[1, 2j], [0, -1]])]
    )
    items = element_to_json(alg, elem)
    assert items[0] == [1.5, -0.5]  # C slots are [re, im]
    back = element_from_json(alg, items)
    assert np.linalg.norm(alg.coords(elem) - alg.coords(back)) == 0.0


def test_element_count_validated():
    alg = Algebra.of("C", "C")
    with pytest.raises(ValueError):
        element_from_json(alg, [[1.0, 0.0]])


def test_placements_roundtrip():
    ps = (
        Placement(component=0, start=0, mode="scalar", mult=2),
        Placement(component=1, start=2, mode="conj-fund", mult=1),
    )
    back = placements_from_json(placements_to_json(ps))
    assert tuple(back) == ps


def test_geometry_roundtrip_preserves_action():
    g = sm_finite_geometry()
    obj = geometry_to_json(g)
    assert obj["hilbert_dim"] == 32
    assert {"algebra", "representation", "D"} <= set(obj)
    back = geometry_from_json(obj)
    rng = np.random.default_rng(RNG_SEED)
    x = back.algebra.random_element(rng)
    assert fro(back.rep(x) - g.rep(x)) == 0.0
    assert np.array_equal(back.dirac, g.dirac)
    assert np.array_equal(back.grading, g.grading)
    assert np.array_equal(back.real_structure.unitary, g.real_structure.unitary)


def test_geometry_without_optionals():
    alg = Algebra.of("C")
    rep = Representation.from_placements(
        alg, 2, [Placement(component=0, start=0, mode="scalar", mult=2)]
    )
    from nctwist.triple import FiniteGeometry

    g = FiniteGeometry(rep=rep, dirac=np.zeros((2, 2)))
    obj = geometry_to_json(g)
    assert "gamma" not in obj and "J" not in obj
    back = geometry_from_json(obj)
    assert back.grading is None and back.real_structure is None


def test_geometry_shape_is_checked_before_the_stack_is_allocated(monkeypatch):
    def allocate(*args, **kwargs):
        raise AssertionError("placement stack allocated before the shape check")

    # at hilbert_dim 10^6 the placement stack would take 29 TiB
    obj = geometry_to_json(toy_triple())
    obj["hilbert_dim"] = 10**6
    monkeypatch.setattr(Representation, "from_placements", allocate)
    with pytest.raises(ValueError, match="^hilbert_dim 1000000 .* D of shape 2x2$"):
        geometry_from_json(obj)


def test_function_representation_not_serializable():
    tg = flip_toy()
    with pytest.raises(ValueError, match="placement"):
        geometry_to_json(tg.geometry)


def test_automorphism_roundtrip_with_extras():
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    obj = {
        "permutation": [1, 0, 2],
        "inner": [None, None, matrix_to_json(u)],
        "scale": [[1.0, 0.0]] * 3,
        "u_rho": matrix_to_json(np.eye(4)),
    }
    back = automorphism_from_json(obj)
    assert back.perm == (1, 0, 2)
    assert back.inner[0] is None
    assert np.array_equal(back.inner[2], u)
    assert back.scale == (1.0, 1.0, 1.0)
    assert np.array_equal(back.u_rho, np.eye(4))


def test_automorphism_minimal_form():
    back = automorphism_from_json({"permutation": [0, 1, 2]})
    assert back == Automorphism.identity(3)


def test_one_form_roundtrip():
    alg = Algebra.of("C", "C")
    a = (1.0 + 2.0j, 0.0 + 0j)
    b = (0.0 + 0j, -1.0 + 0.5j)
    obj = one_form_to_json(alg, [(a, b)])
    assert "terms" in obj and len(obj["terms"]) == 1
    back = one_form_from_json(alg, obj)
    (a2, b2), = back
    assert np.linalg.norm(alg.coords(a) - alg.coords(a2)) == 0.0
    assert np.linalg.norm(alg.coords(b) - alg.coords(b2)) == 0.0


def test_twisted_marker_roundtrip_rebuilds_twist():
    base = toy_triple()
    obj = twisted_marker_to_json(base)
    assert obj["kind"] == "twist-by-grading"
    tg = twisted_from_json(obj)
    assert tg.algebra.ncomponents == 2
    assert tg.rho.perm == (1, 0)
    want = flip_toy()
    z = (0.3 + 0.1j, -2.0 + 0j)
    assert fro(tg.geometry.rep(z) - want.geometry.rep(z)) == 0.0


def test_twisted_from_json_rejects_unknown_kind():
    with pytest.raises(ValueError):
        twisted_from_json({"kind": "twist-by-phase", "base": {}})


def test_dump_json_deterministic(tmp_path):
    g = sm_finite_geometry()
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    dump_json(geometry_to_json(g), str(p1))
    dump_json(geometry_to_json(g), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")
    loaded = load_json(str(p1))
    assert loaded == json.loads(b1.decode())
