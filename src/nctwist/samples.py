"""Seeded generators of geometries used by tests and demos.

The main family places a direct sum of blocks inside M_k(C) acting by left
multiplication on the Hilbert space M_k(C) itself; the real structure is
the conjugate transpose of the matrix argument and D acts by left plus
right multiplication with one Hermitian matrix.  The grading is conjugation
by a blockwise sign matrix, so these geometries satisfy every twisted
condition after doubling, for any admissible choice of the Dirac data.  A
Clifford factor can be tensored on to move the sign triple across KO
branches, and a random unitary frame hides the preferred basis.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Placement, Representation
from .clifford import charge_conjugation, gamma
from .fluct import TwistedOneForm, symmetrized
from .matlin import AntilinearOperator, as_matrix, dagger, fro, identity_kron, kron
from .mintwist import twist_by_grading
from .triple import FiniteGeometry
from .twist import TwistedGeometry


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from a QR factorisation with fixed phases."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + dagger(z)) / 2.0


def transposition_matrix(k: int) -> np.ndarray:
    """Permutation sending the row-major matrix vector to its transpose."""
    p = np.zeros((k * k, k * k), dtype=np.complex128)
    for r in range(k):
        for s in range(k):
            p[r * k + s, s * k + r] = 1.0
    return p


def _component_sizes(alg: Algebra) -> list[int]:
    return [c.dim for c in alg.components]


def left_regular_geometry(
    alg: Algebra,
    signs: list[int],
    m_small: np.ndarray,
    frame: np.ndarray | None = None,
) -> FiniteGeometry:
    """Blocks of ``alg`` inside M_k acting on M_k by left multiplication.

    ``signs`` assigns +-1 to each block and must take both values; the
    grading conjugates by the resulting diagonal sign matrix on both sides.
    ``m_small`` is a k x k Hermitian matrix anticommuting with the sign
    matrix; D is left plus right multiplication by it.  With ``frame`` all
    operators are moved to a rotated basis, exercising code paths that
    cannot rely on block-diagonal structure.
    """
    sizes = _component_sizes(alg)
    k = sum(sizes)
    if len(signs) != len(sizes):
        raise ValueError("one sign per component required")
    if not {1, -1} <= set(signs) or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be +-1 with both values present")
    gam_small = np.concatenate(
        [np.full(n, float(s)) for n, s in zip(sizes, signs)]
    )
    m_small = as_matrix(m_small)
    if m_small.shape != (k, k):
        raise ValueError(f"m_small must be {k} x {k}")
    if fro(m_small - dagger(m_small)) > 1e-12 * max(1.0, fro(m_small)):
        raise ValueError("m_small must be Hermitian")
    odd = gam_small[:, None] * m_small * gam_small[None, :]
    if fro(odd + m_small) > 1e-10 * max(1.0, fro(m_small)):
        raise ValueError("m_small must anticommute with the sign matrix")

    placements = []
    offset = 0
    for i, comp in enumerate(alg.components):
        mode = "scalar" if comp.kind == "C" else "fund"
        placements.append(
            Placement(component=i, start=offset * k, mode=mode, mult=k)
        )
        offset += comp.dim
    rep = Representation.from_placements(alg, k * k, placements)

    eye = np.eye(k)
    dirac = kron(m_small, eye) + kron(eye, np.conj(m_small))
    grading = kron(np.diag(gam_small), np.diag(gam_small))
    u_real = transposition_matrix(k)

    if frame is not None:
        w = as_matrix(frame)
        if w.shape != (k * k, k * k):
            raise ValueError("frame must act on the full space")
        rep = Representation(alg, w @ rep.stack @ dagger(w), signs=rep.signs)
        dirac = w @ dirac @ dagger(w)
        grading = w @ grading @ dagger(w)
        u_real = w @ u_real @ w.T

    return FiniteGeometry(
        rep=rep,
        dirac=dirac,
        grading=grading,
        real_structure=AntilinearOperator(u_real),
    )


def clifford_tensor(m: int, fin: FiniteGeometry) -> FiniteGeometry:
    """Tensor a 2^m-dimensional Clifford factor onto a finite geometry.

    D becomes grading_m kron D_fin, the grading and real structure are the
    factorwise products.  The sign triple picks up the Clifford signs:
    eps multiplies, eps' and eps'' are those of the Clifford factor times
    the finite eps'' and eps' bookkeeping worked out in the tests.
    """
    if fin.grading is None or fin.real_structure is None:
        raise ValueError("finite factor needs grading and real structure")
    data = gamma(m)
    cc = charge_conjugation(m)
    # image b becomes I_m kron S[b]
    stack = identity_kron(data.dim, fin.rep.operand)
    return FiniteGeometry(
        rep=Representation(fin.rep.algebra, stack, signs=fin.rep.signs),
        dirac=kron(data.grading, fin.dirac),
        grading=kron(data.grading, fin.grading),
        real_structure=AntilinearOperator(
            kron(cc.j.unitary, fin.real_structure.unitary)
        ),
    )


def _random_partition(rng: np.random.Generator, k: int) -> Algebra:
    """At least two components with dims summing to k."""
    specs = []
    remaining = k
    while remaining > 0:
        choices = ["C"]
        # keep room for a second component
        limit = remaining if specs else remaining - 1
        if limit >= 2:
            choices.append("H")
            choices += [("M", n) for n in range(2, min(3, limit) + 1)]
        pick = choices[int(rng.integers(len(choices)))]
        specs.append(pick)
        remaining -= 1 if pick == "C" else (2 if pick == "H" else pick[1])
    return Algebra.of(*specs)


def _random_signs(rng: np.random.Generator, ncomp: int) -> list[int]:
    while True:
        signs = [1 if rng.random() < 0.5 else -1 for _ in range(ncomp)]
        if 1 in signs and -1 in signs:
            return signs


def _odd_part(m: np.ndarray, gam_small: np.ndarray) -> np.ndarray:
    return (m - gam_small[:, None] * m * gam_small[None, :]) / 2.0


def random_matrix_geometry(
    rng: np.random.Generator,
    k: int,
    frame: bool = False,
) -> FiniteGeometry:
    """Random left-multiplication geometry on M_k with a mixed grading."""
    if k < 2:
        raise ValueError("need k >= 2 for a mixed grading")
    alg = _random_partition(rng, k)
    signs = _random_signs(rng, alg.ncomponents)
    sizes = _component_sizes(alg)
    gam_small = np.concatenate(
        [np.full(n, float(s)) for n, s in zip(sizes, signs)]
    )
    while True:
        m_small = _odd_part(random_hermitian(rng, k), gam_small)
        if fro(m_small) > 0.5:
            break
    w = random_unitary(rng, k * k) if frame else None
    return left_regular_geometry(alg, signs, m_small, frame=w)


# dimension of each catalogue entry: (kind, params) -> hilbert dim
_CATALOGUE = [
    ("plain", {"k": 2}),  # dim 4
    ("plain", {"k": 2, "frame": True}),  # dim 4
    ("plain", {"k": 3}),  # dim 9
    ("plain", {"k": 3, "frame": True}),  # dim 9
    ("plain", {"k": 4}),  # dim 16
    ("plain", {"k": 5}),  # dim 25
    ("tensor", {"m": 1, "k": 2}),  # dim 8
    ("tensor", {"m": 1, "k": 3}),  # dim 18
    ("tensor", {"m": 2, "k": 2}),  # dim 16
    ("tensor", {"m": 3, "k": 2}),  # dim 32
]


def random_graded_geometry(rng: np.random.Generator) -> FiniteGeometry:
    """Draw one geometry from the catalogue; Hilbert dimensions run 4..32."""
    kind, params = _CATALOGUE[int(rng.integers(len(_CATALOGUE)))]
    if kind == "plain":
        return random_matrix_geometry(
            rng, params["k"], frame=params.get("frame", False)
        )
    fin = random_matrix_geometry(rng, params["k"])
    return clifford_tensor(params["m"], fin)


def random_one_form(
    rng: np.random.Generator, tg: TwistedGeometry, symmetric: bool = True
) -> TwistedOneForm:
    """Random two-term twisted one-form, symmetrised by default so it fluctuates."""
    alg = tg.algebra
    pairs = [(alg.random_element(rng), alg.random_element(rng)) for _ in range(2)]
    form = TwistedOneForm.of(*pairs)
    return symmetrized(form, tg) if symmetric else form


def toy_triple() -> FiniteGeometry:
    """Scalars acting on C^2 with D = sigma1, grading sigma3, J = conj."""
    alg = Algebra.of("C")
    rep = Representation.from_placements(
        alg, 2, [Placement(component=0, start=0, mode="scalar", mult=2)]
    )
    sigma1 = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sigma3 = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return FiniteGeometry(
        rep=rep,
        dirac=sigma1,
        grading=sigma3,
        real_structure=AntilinearOperator(np.eye(2)),
    )


def flip_toy() -> TwistedGeometry:
    """The toy triple doubled along its grading: pi(z, w) = diag(z, w)."""
    return twist_by_grading(toy_triple())
