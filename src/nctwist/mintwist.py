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
from .clifford import (
    ChargeConjugation,
    _character_sum,
    _subset_halves,
    charge_conjugation,
    gamma,
)
from .matlin import (
    DEFAULT_TOL,
    Tolerance,
    anticommutator,
    as_matrix,
    dagger,
    fro,
    generator_scale,
    kept,
    pair_residual,
    sign_fits,
    tightest,
    worst,
)
from .report import Report
from .triple import FiniteGeometry
from .twist import Automorphism, TwistedGeometry


def _eigenbasis(grading: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (columns) of the +1 and -1 eigenspaces.

    Every eigenvalue must lie within ``tol.bound(1.0)`` of +1 or -1.
    """
    vals, vecs = np.linalg.eigh(as_matrix(grading))
    if not all(abs(abs(v) - 1.0) <= tol.bound(1.0) for v in vals):
        raise ValueError("grading eigenvalues are not +-1")
    return vecs[:, vals > 0], vecs[:, vals < 0]


def _matrix_units(alg: Algebra, imgs: np.ndarray) -> list[np.ndarray]:
    """The images of the matrix units of the complexified algebra's simple components.

    ``imgs`` are the images of ``alg.generators()``.  Each entry of the
    result is a ``(d, d, n, n)`` stack whose ``[r, s]`` is the image of the
    unit ``e_rs`` of one component.  C and M_n complexify to two copies,
    split off as ``(g -+ i g')/2`` with ``g, g'`` the images of ``E_rs`` and
    ``i E_rs`` (of 1 and i for C); H complexifies to the single M_2(C),
    whose units combine the images of 1, i, j and k.  A conjugate placement
    of H is equivalent to the fundamental one, so H is not split.
    """
    out, start = [], 0
    for comp in alg.components:
        g = imgs[start : start + len(comp.generators())]
        start += len(g)
        if comp.kind == "H":
            one, qi, qj, qk = g
            units = [[one - 1j * qi, qj - 1j * qk], [-qj - 1j * qk, one + 1j * qi]]
            out.append(np.array(units) / 2)
            continue
        d = comp.dim
        for sign in (1, -1):
            units = (g[0::2] - sign * 1j * g[1::2]) / 2
            out.append(units.reshape(d, d, *g.shape[1:]))
    return out


def _implementing_unitary(g: FiniteGeometry, tol: Tolerance) -> np.ndarray | None:
    """Unitary exchanging the eigenspace components, when one exists.

    Requires equal eigenspace dimensions and unitarily equivalent
    restrictions pi+- of the representation; returns None otherwise, and
    for a NaN or an inf in a restriction.  ``_matrix_units`` splits the
    complexification, so this reads all of ``generator_images``.  The
    solutions X of pi+(a) X = X pi-(a) are the image of the
    conditional expectation ``E(Y) = sum_c sum_rs pi+(e_rs) Y pi-(e_sr) / d_c
    + (1 - pi+(1)) Y (1 - pi-(1))`` over the matrix units of the components
    (the last term is the unit of a non-unital representation).  For one
    seeded random Y, E(Y) is invertible exactly when some solution is, and
    then its polar unitary is a solution again.
    """
    q_plus, q_minus = _eigenbasis(g.grading, tol)
    if q_plus.shape[1] != q_minus.shape[1]:
        return None
    alg = g.algebra
    pi_a = g.rep.generator_images.array
    with np.errstate(invalid="ignore"):  # an inf image meets zeros (inf * 0)
        restr_plus = dagger(q_plus) @ pi_a @ q_plus
        restr_minus = dagger(q_minus) @ pi_a @ q_minus
    # decided before LAPACK sees a NaN or an inf, which fails the reports
    if not (np.isfinite(restr_plus).all() and np.isfinite(restr_minus).all()):
        return None
    units = list(zip(_matrix_units(alg, restr_plus), _matrix_units(alg, restr_minus)))
    h = q_plus.shape[1]
    rng = np.random.default_rng(0)
    y = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    rest_plus = np.eye(h) - sum(np.trace(e_p) for e_p, _ in units)
    rest_minus = np.eye(h) - sum(np.trace(e_m) for _, e_m in units)
    e_y = rest_plus @ y @ rest_minus + sum(
        (e_p @ y @ e_m.swapaxes(0, 1)).sum(axis=(0, 1)) / len(e_p)
        for e_p, e_m in units
    )
    u, sv, vh = np.linalg.svd(e_y)
    if sv[0] <= tol.abs or sv[-1] <= 1e-8 * sv[0]:
        return None
    v = u @ vh
    if not tol.accepts(
        pair_residual([v], restr_minus, restr_plus), generator_scale(restr_plus)
    ):
        return None
    return q_plus @ v @ dagger(q_minus) + q_minus @ dagger(v) @ dagger(q_plus)


# ``_implementing_unitary`` by value, least recently read first, at most
# ``matlin.KEPT_VALUES`` of them
_UNITARIES: dict = {}


def twist_by_grading(
    g: FiniteGeometry, tol: Tolerance = DEFAULT_TOL
) -> TwistedGeometry:
    """Double the algebra along the grading and twist by the flip.

    The pair (a, a') acts as P+ pi(a) + P- pi(a'); the flip (a, a') ->
    (a', a) twists commutators with D.  D, grading and real structure are
    those of the input.  An implementing unitary is attached to the flip
    only when the two eigenspace restrictions of the representation are
    unitarily equivalent; it is found once per value of the algebra, pi,
    the grading and ``tol`` (``_UNITARIES``) and shared, read-only.
    """
    if g.grading is None:
        raise ValueError("twist by grading needs a graded geometry")
    gam = g.grading
    n = g.hilbert_dim
    if not (
        tol.accepts(fro(gam - dagger(gam)), n)
        and tol.accepts(fro(gam @ gam - np.eye(n)), n)
    ):
        raise ValueError("grading is not a self-adjoint involution")
    grading_digest = g.digests[0]
    rep2 = projected_double(g.rep, gam, grading_digest)
    # the unitary reads the algebra, pi's operand, the grading and tol only,
    # so their key names it too; it is shared, so read-only
    key = (g.algebra, g.rep.digest, grading_digest, tol)
    if key in _UNITARIES:
        u_rho = _UNITARIES.pop(key)
    else:
        u_rho = _implementing_unitary(g, tol)
        if u_rho is not None:
            u_rho.flags.writeable = False
    kept(_UNITARIES, key, u_rho)
    rho = Automorphism.flip(rep2.algebra.ncomponents, u_rho, key)
    doubled_geom = g.with_rep(rep2)
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
    """Diagnostics of the involution carried by the doubling.

    ``involution`` and ``input_grading`` are ``(residual, bound)`` pairs:
    the failing one of ||g - g*|| and ||g^2 - 1|| or else the one nearer
    its bound, and ||g - grading|| ((nan, 0.0) without an input grading).
    """

    gamma_tilde: np.ndarray
    involution: tuple[float, float]
    commutes_with_rep: float
    anticommutator_with_dirac: float
    input_grading: tuple[float, float]


def gamma_tilde_diagnostics(
    tg: TwistedGeometry,
    element: tuple | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> GammaTildeReport:
    """Represent the (1, -1) element of the doubling and measure its behaviour.

    For a twist by grading this reproduces the grading exactly.  For other
    twisted geometries the caller may pass the distinguished element; the
    diagnostics measure whether it is a self-adjoint involution, commutes
    with the represented algebra, and anticommutes with D (i.e. is a
    grading).
    """
    if element is None:
        element = double_unit_element(tg.algebra)
    g = tg.geometry
    gt, n = g.rep(element), g.hilbert_dim
    halves = [
        (fro(gt - dagger(gt)), tol.bound(max(1.0, fro(gt)))),
        (fro(gt @ gt - np.eye(n)), tol.bound(n)),
    ]
    input_grading = (float("nan"), 0.0)
    if g.grading is not None:
        input_grading = (fro(gt - g.grading), tol.bound(n))
    return GammaTildeReport(
        gamma_tilde=gt,
        involution=tightest(halves),
        commutes_with_rep=pair_residual([gt], g.rep.generator_images),
        anticommutator_with_dirac=fro(anticommutator(gt, g.dirac)),
        input_grading=input_grading,
    )


def _gamma_intertwiners(
    gams: list[np.ndarray], tol: Tolerance
) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """Character sum and a basis of the pairs (A, B) with gamma^mu A = B gamma^mu.

    The pairs are ``B = gamma^1 A gamma^1`` with A in the commutant of the
    even products g, which up to phase are the 2^(2m-1) products of the
    subsets of the ``gamma^1 gamma^mu``, mu >= 2.  The commutant is the
    image of the Reynolds average ``A -> mean_g g A g*`` (g is unitary),
    and its dimension is the character sum ``mean_g |tr g|^2``.  Every g is a
    product ``l r`` of a subset product of the first half of the
    ``gamma^1 gamma^mu`` and one of the second half, so both means run over
    two stacks of about 2^m matrices instead of one of 2^(2m-1).  The basis
    spans the average of three seeded draws.
    """
    n = len(gams[0])
    left, right = _subset_halves([gams[0] @ g for g in gams[1:]], n)
    chars = _character_sum(left, right)
    rng = np.random.default_rng(0)
    avg = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    for side in (right, left):
        avg = (side @ avg[:, None] @ dagger(side)).mean(axis=1)
    _, sv, vh = np.linalg.svd(avg.reshape(len(avg), -1), full_matrices=False)
    basis = vh[sv > tol.rel * sv[0]].reshape(-1, n, n)
    return chars, [(a, gams[0] @ a @ gams[0]) for a in basis]


def uniqueness_engine(m: int, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Solve the two-sided intertwiner problem for the gamma family.

    Pairs (A, B) with gamma^mu A = B gamma^mu for all 2m generators form a
    two-dimensional space; in the chiral basis every solution is
    A = diag(l1 I, l2 I), B = diag(l2 I, l1 I).  This pins the twisting
    data down to two scalars exchanged by the flip.  The dimension is
    decided on the character sum of the even gamma products, and the
    solutions come from their Reynolds average (``_gamma_intertwiners``).
    """
    rep = Report(f"twist uniqueness for the gamma family, m={m}")
    data = gamma(m)
    chars, pairs = _gamma_intertwiners(list(data.gammas), tol)
    rep.check(
        "solution space dimension is exactly 2",
        abs(chars - 2),
        tol,
        2.0,
        note=f"character sum {chars:.12f}; the averaged draws span {len(pairs)}",
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
    rep.info["dimension"] = len(pairs)
    rep.info["lambdas"] = [[complex(a), complex(b)] for a, b in lambdas]
    return rep


# ---------------------------------------------------------------------------
# free Dirac operator at a point


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
    data = gamma(m)
    samples = np.asarray(samples, dtype=np.complex128)
    if samples.shape != (2 * m, 2):
        raise ValueError(f"expected samples of shape ({2 * m}, 2)")
    rep = Report(f"free Dirac twisted fluctuation at a point, m={m}")
    cc: ChargeConjugation = charge_conjugation(m, tol)
    rep.add(
        "conjugation branch",
        *tightest(sign_fits((cc.eps, cc.eps_dblprime), cc.evidence)),
        note=f"(eps, eps'') = ({cc.eps}, {cc.eps_dblprime}), branch {cc.branch()}",
    )
    ys = [
        _coefficient_blocks(m, samples[mu, 0], samples[mu, 1]) for mu in range(2 * m)
    ]
    # each list holds the {0,4} branch's entry, then the {2,6} branch's; this
    # branch's is checked and the other's recorded for contrast
    this, other = (0, 1) if cc.eps_dblprime == 1 else (1, 0)
    # the lemma at a = (z, w) = samples[0], whose image pi(a) is ys[0]
    z_bar, w_bar = np.conj(samples[0])
    jpj = cc.j.conjugate(ys[0])
    forms = [
        ("pi(a*)", "plain", (z_bar, w_bar)),
        ("pi(flip(a*))", "flipped", (w_bar, z_bar)),
    ]
    r_forms = [fro(jpj - _coefficient_blocks(m, *blocks)) for _, _, blocks in forms]
    pi_scale = max(1.0, fro(ys[0]))
    rep.check(f"J pi(a) J^-1 = {forms[this][0]}", r_forms[this], tol, pi_scale)
    rep.record(f"{forms[other][1]} form differs", r_forms[other], "recorded")

    a_mat = sum(-1j * g @ y for g, y in zip(data.gammas, ys))
    # rho undoes the flip that taking the adjoint applies to the blocks
    rho_a_dag = sum(1j * g @ np.conj(y) for g, y in zip(data.gammas, ys))
    jaj = cc.j.conjugate(a_mat)
    scale = max(1.0, fro(a_mat))
    notes = ["J A J^-1 = -rho(A*)", "J A J^-1 = -A*"]
    r_branches = [fro(jaj + rho_a_dag), fro(jaj + dagger(a_mat))]
    rep.check(
        "conjugated one-form formula for this branch",
        r_branches[this],
        tol,
        scale,
        note=notes[this],
    )
    rep.record(
        "other branch formula differs", r_branches[other], "recorded for contrast"
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
        rep.record(
            "no nonzero self-adjoint fluctuation on this branch",
            fro(term),
            f"gate keeps T only if T = 0; ||T|| = {fro(term):.3e}",
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
    accepted = tol.accepts(coeff_defect)
    rep.record(
        "self-adjointness gate",
        defect,
        f"accepted={accepted} (max |Re f + Re g| = {coeff_defect:.3e})",
    )
    if accepted:
        expected = sum(
            -2j * float(samples[mu, 0].real) * data.gammas[mu] @ data.grading
            for mu in range(2 * m)
        )
        rep.check(
            "accepted term = -2i sum Re(f_mu) gamma^mu grading",
            fro(term - expected),
            tol,
            scale,
        )
        rep.check(
            "accepted term is self-adjoint",
            fro(term - dagger(term)),
            tol,
            scale,
        )
    else:
        rep.record(
            "sample rejected by the gate",
            defect,
            "no self-adjoint fluctuation for these coefficients",
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
