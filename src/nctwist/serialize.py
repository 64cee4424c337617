"""JSON codecs for matrices, algebras, geometries, twists, and one-forms.

All matrices travel as {"rows": n, "cols": m, "data": [[re, im], ...]} in
row-major order.  Antilinear operators carry their unitary part plus the
fixed convention tag "u-conj" (apply the unitary, then conjugate entries).
Geometries serialize their placement tables.  A representation built as a
transform of a parent stack (the projector doubling, a unitary frame, a
Clifford factor, the standard-model chirality sectors) has no file form,
except that a geometry twisted by its grading round-trips through a marker
object holding the untwisted base, since the doubled representation is
reconstructed from it.

Writers emit deterministic JSON (sorted keys, no whitespace) so identical
inputs give byte-identical files.  Readers check the JSON type of every
field they use and raise ValueError naming the field when it is wrong or
missing.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import Algebra, Placement, Representation
from .matlin import AntilinearOperator, as_matrix
from .mintwist import twist_by_grading
from .triple import FiniteGeometry
from .twist import Automorphism, TwistedGeometry

MATRIX_KEYS = {"rows", "cols", "data"}

# the pair checks walk the G^2 generator pairs over B coordinates each and
# keep no (G, G, B) array, so this caps their work: `nctwist verify` on an
# unplaced M_10 (G^2 B = 8.0e6) peaks at 36 MB RSS and on an M_12 (2.4e7) at
# 40 MB, where a dense product table took 225 and 606 MB
_PAIR_COORDS_BOUND = 2**25

_KIND_NAMES = {
    dict: "an object",
    list: "an array",
    str: "a string",
    int: "an integer",
    float: "a number",
}


def _typed(value, kind: type, what: str):
    """``value`` if JSON decoded it as a ``kind``, else a ValueError.

    Integers count as numbers; booleans count as neither.
    """
    kinds = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, kinds):
        shown = json.dumps(value)
        if len(shown) > 40:
            shown = shown[:37] + "..."
        raise ValueError(f"{what} must be {_KIND_NAMES[kind]}, got {shown}")
    return value


def _field(obj: dict, key: str, what: str):
    """``obj[key]``, or a ValueError naming the missing field."""
    if key not in obj:
        raise ValueError(f"{what} has no field {key!r}")
    return obj[key]


def _complex(value, what: str) -> complex:
    """A complex number from its [re, im] pair."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"{what} must be an [re, im] pair")
    re, im = (_typed(v, float, what) for v in value)
    return complex(re, im)


def matrix_to_json(m: np.ndarray) -> dict:
    m = as_matrix(m, allow_nonsquare=True)
    data = [[float(v.real), float(v.imag)] for v in m.reshape(-1)]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict) or not MATRIX_KEYS <= set(obj):
        raise ValueError("matrix object needs rows, cols, data")
    rows = _typed(obj["rows"], int, "matrix rows")
    cols = _typed(obj["cols"], int, "matrix cols")
    data = _typed(obj["data"], list, "matrix data")
    if len(data) != rows * cols:
        raise ValueError(f"matrix data length {len(data)} != {rows}*{cols}")
    flat = np.array([_complex(v, "matrix entry") for v in data], dtype=np.complex128)
    return flat.reshape(rows, cols)


def antilinear_to_json(j: AntilinearOperator) -> dict:
    return {"unitary": matrix_to_json(j.unitary), "convention": "u-conj"}


def antilinear_from_json(obj: dict) -> AntilinearOperator:
    if _typed(obj, dict, "antilinear operator").get("convention", "u-conj") != "u-conj":
        raise ValueError(f"unknown antilinear convention {obj.get('convention')!r}")
    unitary = _field(obj, "unitary", "antilinear operator")
    return AntilinearOperator(matrix_from_json(unitary))


def algebra_to_json(alg: Algebra) -> list:
    out = []
    for comp in alg.components:
        if comp.kind == "M":
            out.append({"type": "M", "n": comp.n})
        else:
            out.append({"type": comp.kind})
    return out


def algebra_from_json(items: list) -> Algebra:
    specs = []
    for it in _typed(items, list, "algebra"):
        kind = _typed(it, dict, "algebra component").get("type")
        if kind in ("C", "H"):
            specs.append(kind)
        elif kind == "M":
            specs.append(("M", _typed(it.get("n"), int, "algebra component n")))
        else:
            raise ValueError(f"unknown algebra component type {kind!r}")
    if not specs:
        raise ValueError("algebra must list at least one component")
    return Algebra.of(*specs)


def element_to_json(alg: Algebra, elem: tuple) -> list:
    out = []
    for comp, v in zip(alg.components, elem):
        if comp.kind == "C":
            v = complex(v)
            out.append([float(v.real), float(v.imag)])
        else:
            out.append(matrix_to_json(as_matrix(v)))
    return out


def element_from_json(alg: Algebra, items: list) -> tuple:
    if len(_typed(items, list, "element")) != alg.ncomponents:
        raise ValueError(
            f"element has {len(items)} components, algebra needs {alg.ncomponents}"
        )
    vals = []
    for comp, it in zip(alg.components, items):
        if comp.kind == "C":
            vals.append(_complex(it, "scalar element value"))
        else:
            vals.append(matrix_from_json(it))
    return alg.element(vals)


def placements_to_json(placements: tuple) -> list:
    return [
        {"component": p.component, "start": p.start, "mode": p.mode, "mult": p.mult}
        for p in placements
    ]


def placements_from_json(items: list) -> list[Placement]:
    out = []
    for it in _typed(items, list, "representation"):
        it = _typed(it, dict, "placement")
        component, start, mode = (
            _typed(_field(it, key, "placement"), kind, f"placement {key}")
            for key, kind in (("component", int), ("start", int), ("mode", str))
        )
        mult = _typed(it.get("mult", 1), int, "placement mult")
        out.append(Placement(component, start, mode, mult))
    return out


def geometry_to_json(g: FiniteGeometry) -> dict:
    if g.rep.placements is None:
        raise ValueError("representation has no placement table; cannot serialize")
    out = {
        "hilbert_dim": g.rep.dim,
        "algebra": algebra_to_json(g.rep.algebra),
        "representation": placements_to_json(g.rep.placements),
        "D": matrix_to_json(g.dirac),
    }
    if g.grading is not None:
        out["gamma"] = matrix_to_json(g.grading)
    if g.real_structure is not None:
        out["J"] = antilinear_to_json(g.real_structure)
    return out


def geometry_from_json(obj: dict) -> FiniteGeometry:
    alg = algebra_from_json(_field(_typed(obj, dict, "geometry"), "algebra", "geometry"))
    # H has 4 generators, C and M_n one per basis element
    basis = int(alg.basis_offsets()[-1])
    count = sum(4 if c.kind == "H" else 2 * c.dim**2 for c in alg.components)
    if count**2 * basis > _PAIR_COORDS_BOUND:
        raise ValueError(
            f"algebra has G = {count} generators and B = {basis} basis elements: "
            f"the pair checks would walk G^2 = {count**2} generator pairs over B "
            f"coordinates each, G^2 B = {count**2 * basis}, above the bound of "
            f"{_PAIR_COORDS_BOUND}"
        )
    dim = _typed(_field(obj, "hilbert_dim", "geometry"), int, "hilbert_dim")
    if dim < 1:
        raise ValueError(f"hilbert_dim must be positive, got {dim}")
    dirac = matrix_from_json(_field(obj, "D", "geometry"))
    grading = matrix_from_json(obj["gamma"]) if "gamma" in obj else None
    real = antilinear_from_json(obj["J"]) if "J" in obj else None
    # the representation stack is allocated at hilbert_dim, so check it first
    if dirac.shape != (dim, dim):
        raise ValueError(
            f"hilbert_dim {dim} does not match D of shape "
            f"{dirac.shape[0]}x{dirac.shape[1]}"
        )
    rep = Representation.from_placements(
        alg, dim, placements_from_json(_field(obj, "representation", "geometry"))
    )
    return FiniteGeometry(rep=rep, dirac=dirac, grading=grading, real_structure=real)


def automorphism_from_json(obj: dict) -> Automorphism:
    obj = _typed(obj, dict, "automorphism")
    perm = _typed(_field(obj, "permutation", "automorphism"), list, "permutation")
    perm = tuple(_typed(i, int, "permutation entry") for i in perm)
    inner = None
    if obj.get("inner") is not None:
        inner = tuple(
            None if it is None else matrix_from_json(it)
            for it in _typed(obj["inner"], list, "inner")
        )
    scale = None
    if obj.get("scale") is not None:
        scale = tuple(
            _complex(v, "scale entry") for v in _typed(obj["scale"], list, "scale")
        )
    u_rho = matrix_from_json(obj["u_rho"]) if obj.get("u_rho") is not None else None
    return Automorphism(perm=perm, inner=inner, scale=scale, u_rho=u_rho)


def one_form_to_json(alg: Algebra, terms: list[tuple]) -> dict:
    return {
        "terms": [
            {"a": element_to_json(alg, a), "b": element_to_json(alg, b)}
            for a, b in terms
        ]
    }


def one_form_from_json(alg: Algebra, obj: dict) -> list[tuple]:
    out = []
    terms = _field(_typed(obj, dict, "one-form"), "terms", "one-form")
    for t in _typed(terms, list, "terms"):
        t = _typed(t, dict, "one-form term")
        a, b = (_field(t, key, "one-form term") for key in ("a", "b"))
        out.append((element_from_json(alg, a), element_from_json(alg, b)))
    return out


def twisted_marker_to_json(base: FiniteGeometry) -> dict:
    """File form of a twist-by-grading: the untwisted base plus a marker.

    The doubled representation is a projector construction with no
    placement table, so the base geometry is stored and the twist is
    rebuilt on load.
    """
    return {"kind": "twist-by-grading", "base": geometry_to_json(base)}


def twisted_from_json(obj: dict) -> TwistedGeometry:
    kind = obj.get("kind")
    if kind == "twist-by-grading":
        base = _field(obj, "base", "twisted geometry")
        return twist_by_grading(geometry_from_json(base))
    raise ValueError(f"unknown twisted geometry kind {kind!r}")


def dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in JSON input")
    return value


def load_json(path: str) -> dict:
    """Read a JSON object; NaN, Infinity and overflowing numbers are rejected."""
    with open(path) as fh:
        obj = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    return _typed(obj, dict, "top-level JSON value")
