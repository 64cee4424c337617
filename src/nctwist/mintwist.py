"""Minimal twists: doubling an algebra along a grading, and what forces it.

A graded geometry whose algebra does not fill the commutant can be twisted
"for free": the doubled algebra acts through the grading projectors and the
flip of the two copies twists the commutators.  This module builds that
twist, analyses the distinguished involution coming from the doubling,
contains the intertwiner computation showing that for irreducible gamma
families the doubling is the only choice, and carries the pointwise
analysis of twisted fluctuations of a free Dirac operator, including how
charge conjugation moves the doubled scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, join_double, projected_double
from .clifford import ChargeConjugation, charge_conjugation, gamma
from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    anticommutator,
    as_matrix,
    dagger,
    fro,
    generator_scale,
    intertwiner_space,
    intertwiners,
    pair_residual,
    polar_unitary,
    worst,
)
from .report import Report
from .triple import FiniteGeometry
from .twist import Automorphism, TwistedGeometry


def _eigenbasis(grading: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the +1 and -1 eigenspaces."""
    vals, vecs = np.linalg.eigh(as_matrix(grading))
    if not all(abs(abs(v) - 1.0) <= 1e-8 for v in vals):
        raise ValueError("grading eigenvalues are not +-1")
    return vecs[:, vals > 0], vecs[:, vals < 0]


def _implementing_unitary(g: FiniteGeometry, tol: Tolerance) -> np.ndarray | None:
    """Unitary exchanging the eigenspace components, when one exists.

    Requires equal eigenspace dimensions and unitarily equivalent
    restrictions of the representation; returns None otherwise.  For
    *-representations the polar unitary of any invertible intertwiner
    intertwines again, so candidates are drawn from the intertwiner basis
    and a few fixed generic combinations of it.
    """
    q_plus, q_minus = _eigenbasis(g.grading, tol)
    if q_plus.shape[1] != q_minus.shape[1]:
        return None
    pi_a = TwistedGeometry.untwisted(g).stacks()[0]
    restr_plus = dagger(q_plus) @ pi_a @ q_plus
    restr_minus = dagger(q_minus) @ pi_a @ q_minus
    space = intertwiners(restr_plus, restr_minus, tol)
    if not space:
        return None
    scale = generator_scale(restr_plus)
    rng = np.random.default_rng(0)
    candidates = list(space)
    for _ in range(4):
        coeff = rng.standard_normal(len(space)) + 1j * rng.standard_normal(len(space))
        candidates.append(sum(c * x for c, x in zip(coeff, space)))
    for cand in candidates:
        sv = np.linalg.svd(cand, compute_uv=False)
        if sv[0] <= tol.abs or sv[-1] <= 1e-8 * sv[0]:
            continue
        v = polar_unitary(cand)
        if not tol.accepts(pair_residual([v], restr_minus, restr_plus), scale):
            continue
        return q_plus @ v @ dagger(q_minus) + q_minus @ dagger(v) @ dagger(q_plus)
    return None


def twist_by_grading(
    g: FiniteGeometry, tol: Tolerance = DEFAULT_TOL
) -> TwistedGeometry:
    """Double the algebra along the grading and twist by the flip.

    The pair (a, a') acts as P+ pi(a) + P- pi(a'); the flip (a, a') ->
    (a', a) twists commutators with D.  D, grading and real structure are
    those of the input.  An implementing unitary is attached to the flip
    only when the two eigenspace restrictions of the representation are
    unitarily equivalent.
    """
    if g.grading is None:
        raise ValueError("twist by grading needs a graded geometry")
    gam = g.grading
    n = g.hilbert_dim
    if not (
        fro(gam - dagger(gam)) <= tol.rel * n + tol.abs
        and fro(gam @ gam - np.eye(n)) <= tol.rel * n + tol.abs
    ):
        raise ValueError("grading is not a self-adjoint involution")
    rep2 = projected_double(g.rep, gam)
    u_rho = _implementing_unitary(g, tol)
    rho = Automorphism.flip(rep2.algebra.ncomponents, u_rho=u_rho)
    doubled_geom = FiniteGeometry(
        rep=rep2,
        dirac=g.dirac,
        grading=g.grading,
        real_structure=g.real_structure,
    )
    return TwistedGeometry(doubled_geom, rho)


def double_unit_element(alg: Algebra) -> tuple:
    """(1, -1) in a doubled algebra: units in the first half, negated second."""
    if alg.ncomponents % 2:
        raise ValueError("algebra is not a doubling")
    half = alg.ncomponents // 2
    first = Algebra(alg.components[:half])
    second = Algebra(alg.components[half:])
    if first.signature() != second.signature():
        raise ValueError("algebra halves do not match")
    return join_double(first.unit(), second.neg(second.unit()))


@dataclass(frozen=True)
class GammaTildeReport:
    """Diagnostics of the involution carried by the doubling."""

    gamma_tilde: np.ndarray
    is_selfadjoint_involution: bool
    commutes_with_rep: float
    anticommutator_with_dirac: float
    is_grading: bool
    equals_input_grading: bool


def gamma_tilde_diagnostics(
    tg: TwistedGeometry,
    element: tuple | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> GammaTildeReport:
    """Represent the (1, -1) element of the doubling and test its behaviour.

    For a twist by grading this reproduces the grading exactly.  For other
    twisted geometries the caller may pass the distinguished element; the
    report states whether it is a self-adjoint involution, commutes with
    the represented algebra, and anticommutes with D (i.e. is a grading).
    """
    if element is None:
        element = double_unit_element(tg.algebra)
    gt = tg.pi(element)
    n = tg.geometry.hilbert_dim
    sa = fro(gt - dagger(gt)) <= tol.rel * max(1.0, fro(gt)) + tol.abs
    inv = fro(gt @ gt - np.eye(n)) <= tol.rel * n + tol.abs
    r_comm = pair_residual([gt], tg.stacks()[0])
    r_anti = fro(anticommutator(gt, tg.geometry.dirac))
    commutes = r_comm <= tol.rel * max(1.0, fro(gt)) ** 2 + tol.abs
    is_grading = (
        sa
        and inv
        and commutes
        and r_anti <= tol.rel * max(1.0, fro(tg.geometry.dirac)) + tol.abs
    )
    equals_input = (
        tg.geometry.grading is not None
        and fro(gt - tg.geometry.grading) <= tol.rel * n + tol.abs
    )
    return GammaTildeReport(
        gamma_tilde=gt,
        is_selfadjoint_involution=bool(sa and inv),
        commutes_with_rep=float(r_comm),
        anticommutator_with_dirac=float(r_anti),
        is_grading=bool(is_grading),
        equals_input_grading=bool(equals_input),
    )


def uniqueness_engine(m: int, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Solve the two-sided intertwiner problem for the gamma family.

    Pairs (A, B) with gamma^mu A = B gamma^mu for all 2m generators form a
    two-dimensional space; in the chiral basis every solution is
    A = diag(l1 I, l2 I), B = diag(l2 I, l1 I).  This pins the twisting
    data down to two scalars exchanged by the flip.
    """
    rep = Report(f"twist uniqueness for the gamma family, m={m}")
    data = gamma(m)
    gams = list(data.gammas)
    pairs = intertwiner_space(gams, gams, tol)
    rep.add(
        "solution space dimension is exactly 2",
        len(pairs) == 2,
        float(abs(len(pairs) - 2)),
        0.0,
        note=f"dim = {len(pairs)}",
    )
    half = data.dim // 2
    blocks, swaps, lambdas = [], [], []
    for a_mat, b_mat in pairs:
        la = np.trace(a_mat[:half, :half]) / half
        lb = np.trace(a_mat[half:, half:]) / half
        model_a = np.zeros_like(a_mat)
        model_a[:half, :half] = la * np.eye(half)
        model_a[half:, half:] = lb * np.eye(half)
        model_b = np.zeros_like(b_mat)
        model_b[:half, :half] = lb * np.eye(half)
        model_b[half:, half:] = la * np.eye(half)
        norm = max(fro(a_mat), 1e-30)
        blocks.append(fro(a_mat - model_a) / norm)
        swaps.append(fro(b_mat - model_b) / norm)
        lambdas.append((la, lb))
    worst_block, worst_swap = worst(blocks), worst(swaps)
    rep.check(
        "solutions are scalar on chiral blocks",
        worst_block,
        tol,
        1.0,
        note="off-block mass relative to solution norm",
    )
    rep.check(
        "partner solution swaps the two scalars",
        worst_swap,
        tol,
        1.0,
    )
    rep.add(
        "twisting data = two exchanged scalars",
        len(pairs) == 2 and tol.accepts(worst_block, 1.0),
        0.0,
        0.0,
        note="doubled scalars with the flip automorphism",
    )
    rep.info["dimension"] = len(pairs)
    rep.info["lambdas"] = [[complex(a), complex(b)] for a, b in lambdas]
    return rep


# ---------------------------------------------------------------------------
# free Dirac operator at a point


# the gate on max |Re f + Re g|; fixed, independent of the run's tolerance
COEFF_TOL = 1e-10


def _coefficient_blocks(m: int, f: complex, g_val: complex) -> np.ndarray:
    half = 2 ** (m - 1)
    out = np.zeros((2 * half, 2 * half), dtype=np.complex128)
    out[:half, :half] = f * np.eye(half)
    out[half:, half:] = g_val * np.eye(half)
    return out


def free_dirac_pointwise(
    m: int, samples: np.ndarray, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Pointwise analysis of twisted fluctuations of a free Dirac operator.

    ``samples`` has shape (2m, 2): one pair (f_mu, g_mu) of sampled
    coefficients per generator, encoding the one-form
    ``A = -i sum_mu gamma^mu Y_mu`` with ``Y_mu = diag(f_mu I, g_mu I)``.
    The candidate addition to D is ``T = A + J A J^{-1}``.

    With the flip twist, A* = i sum gamma^mu flip(conj Y_mu), so the
    conjugated one-form is -rho(A*) on the branch where J commutes with
    the grading and -A* on the branch where it anticommutes.  Both follow
    from how J moves the doubled scalars pi(z, w) = diag(z I, w I): to
    pi(z*, w*) on the first branch and to pi(w*, z*) on the second.  The
    report measures that lemma at (z, w) = samples[0], the branch formula,
    the self-adjointness gate on T, and the structure of what survives the
    gate.
    """
    if not 1 <= m <= 3:
        raise ValueError("pointwise free Dirac analysis supports m in 1..3")
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (2 * m, 2):
        raise ValueError(f"expected samples of shape ({2 * m}, 2)")
    rep = Report(f"free Dirac twisted fluctuation at a point, m={m}")
    data = gamma(m)
    cc: ChargeConjugation = charge_conjugation(m, tol)
    rep.add(
        "conjugation branch",
        True,
        0.0,
        0.0,
        note=f"(eps, eps'') = ({cc.eps}, {cc.eps_dblprime}), branch {cc.branch()}",
    )
    ys = [
        _coefficient_blocks(m, samples[mu, 0], samples[mu, 1]) for mu in range(2 * m)
    ]
    # the lemma at a = (z, w) = samples[0], whose image pi(a) is ys[0]
    z_bar, w_bar = np.conj(samples[0])
    jpj = cc.j.conjugate(ys[0])
    r_plain = fro(jpj - _coefficient_blocks(m, z_bar, w_bar))
    r_flip = fro(jpj - _coefficient_blocks(m, w_bar, z_bar))
    pi_scale = max(1.0, fro(ys[0]))
    if cc.eps_dblprime == 1:
        rep.check("J pi(a) J^-1 = pi(a*)", r_plain, tol, pi_scale)
        rep.add("flipped form differs", True, r_flip, float("inf"), "recorded")
    else:
        rep.check("J pi(a) J^-1 = pi(flip(a*))", r_flip, tol, pi_scale)
        rep.add("plain form differs", True, r_plain, float("inf"), "recorded")

    a_mat = sum(-1j * g @ y for g, y in zip(data.gammas, ys))
    a_dag = dagger(a_mat)
    # rho undoes the flip that taking the adjoint applies to the blocks
    rho_a_dag = sum(1j * g @ np.conj(y) for g, y in zip(data.gammas, ys))
    jaj = cc.j.conjugate(a_mat)
    scale = max(1.0, fro(a_mat))

    if cc.eps_dblprime == 1:
        r_branch = fro(jaj + rho_a_dag)
        r_other = fro(jaj + a_dag)
        note = "J A J^-1 = -rho(A*)"
    else:
        r_branch = fro(jaj + a_dag)
        r_other = fro(jaj + rho_a_dag)
        note = "J A J^-1 = -A*"
    rep.check(
        "conjugated one-form formula for this branch", r_branch, tol, scale, note=note
    )
    rep.add(
        "other branch formula differs",
        True,
        r_other,
        float("inf"),
        note="recorded for contrast",
    )

    term = a_mat + jaj
    defect = fro(term - dagger(term)) / 2.0
    re_sum = samples[:, 0].real + samples[:, 1].real
    coeff_defect = float(np.max(np.abs(re_sum)))
    rep.info["defect"] = defect
    rep.info["coeff_defect"] = coeff_defect
    rep.info["branch"] = cc.branch()

    if cc.eps_dblprime == -1:
        # T = A - A* identically: anti-Hermitian, so the self-adjoint part
        # vanishes for every sample and the gate admits only T = 0
        rep.check(
            "candidate term is anti-Hermitian",
            fro(term + dagger(term)),
            tol,
            scale,
        )
        rep.check(
            "self-adjoint part of the candidate is zero",
            fro(term + dagger(term)) / 2.0,
            tol,
            scale,
        )
        rep.add(
            "no nonzero self-adjoint fluctuation on this branch",
            True,
            fro(term),
            float("inf"),
            note=f"gate keeps T only if T = 0; ||T|| = {fro(term):.3e}",
        )
        rep.info["accepted"] = False
        return rep

    # branch {0,4}: T = A - rho(A*) = -2i sum gamma^mu Re(Y_mu), and the
    # anti-Hermitian defect is exactly sqrt(2^m) ||Re f + Re g||_2
    predicted_defect = float(np.sqrt(2.0**m) * np.linalg.norm(re_sum))
    rep.check(
        "gate defect = sqrt(2^m) ||Re f + Re g||",
        abs(defect - predicted_defect),
        tol,
        scale,
        note="acceptance is equivalent to Re g = -Re f",
    )
    accepted = coeff_defect <= COEFF_TOL
    rep.add(
        "self-adjointness gate",
        True,
        defect,
        float("inf"),
        note=f"accepted={accepted} (max |Re f + Re g| = {coeff_defect:.3e})",
    )
    if accepted:
        expected = sum(
            -2j * float(samples[mu, 0].real) * data.gammas[mu] @ data.grading
            for mu in range(2 * m)
        )
        rep.check(
            "accepted term = -2i sum Re(f_mu) gamma^mu grading",
            fro(term - expected),
            Tolerance(rel=1e-10, abs=1e-10),
            scale,
        )
        rep.check(
            "accepted term is self-adjoint",
            fro(term - dagger(term)),
            tol,
            scale,
        )
    else:
        rep.add(
            "sample rejected by the gate",
            True,
            defect,
            float("inf"),
            note="no self-adjoint fluctuation for these coefficients",
        )
    # identity-twist degeneration: equal blocks g = f reduce the gate to
    # Re f = 0, and such coefficients produce the zero term identically
    f_fixed = 1j * samples[:, 0].imag
    ys_id = [_coefficient_blocks(m, f, f) for f in f_fixed]
    a_id = sum(-1j * g @ y for g, y in zip(data.gammas, ys_id))
    term_id = a_id + cc.j.conjugate(a_id)
    rep.check(
        "identity twist admits only the zero term",
        fro(term_id),
        tol,
        scale,
        note="equal blocks passing the gate give T = 0",
    )
    rep.info["accepted"] = accepted
    return rep
