"""Standard model finite geometry and its chirally twisted point model.

The finite space is C^32 with one fermion generation: left doublets,
right singlets, and their antiparticles, each an 8-dim block indexed by
weak isospin times (lepton, three colors).  The algebra C + H + M_3(C)
acts in the usual way, D carries Yukawa couplings plus one Majorana mass
for the right-handed neutrino, the real structure exchanges particles and
antiparticles, and the grading is chirality.

The twisted model tensors a 4-dim chirality factor on and doubles the
scalar and quaternion sectors: independent right/left coefficients act
through the chirality projectors while the color sector stays undoubled.
Its representation is a stack transform of the finite one: each chirality
sector reads a particle scalar, a quaternion, an antiparticle scalar and
a color matrix from chosen components of the doubled algebra.  The twist
exchanges the right and left labels.  Two conventions for the twisted
commutator are measured side by side; they differ only in the second
representation pi' of ``D pi(a) - pi'(a) D``.  The structural one twists
abstract elements before representing, so pi' is pi o rho; the display
one swaps the labels of the represented matrix, leaving the antiparticle
scalar untouched, so pi' is built like pi with the sectors reading swapped
components.  They differ exactly in which scalar the antiparticle sector
sees, and the reports quantify both.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, Placement, QUATERNION_UNITS, Representation
from .clifford import charge_conjugation, gamma
from .matlin import (
    DEFAULT_TOL,
    AntilinearOperator,
    Tolerance,
    dagger,
    fro,
    generator_scale,
    kron,
    pair_residual,
    worst,
)
from .mintwist import gamma_tilde_diagnostics
from .report import Report
from .triple import FiniteGeometry, measure_ko_signs, verify_spectral_triple
from .twist import Automorphism, TwistedGeometry, check_regular, first_order_residuals

DEFAULT_YUKAWAS = {
    "nu": 1.1 + 0.3j,
    "up": 0.7 - 0.2j,
    "e": 0.45 + 0.11j,
    "down": 0.9 + 0.05j,
}
DEFAULT_MAJORANA = 1.3 - 0.4j

# row layout of C^32: four 8-blocks L, R, La, Ra; inside each block the
# index is w*4 + c with w the weak index and c = 0 lepton, 1..3 colors
_L, _R, _LA, _RA = 0, 8, 16, 24


def sm_algebra() -> Algebra:
    """C + H + M_3(C), components ordered (scalar, quaternion, color)."""
    return Algebra.of("C", "H", ("M", 3))


def yukawa_block(yukawas: dict | None = None) -> np.ndarray:
    """8x8 diagonal of one-generation Yukawa couplings.

    Color universality (one coupling repeated over the three colors) is
    what makes the first-order condition work; it is baked in here.
    """
    y = dict(DEFAULT_YUKAWAS if yukawas is None else yukawas)
    return np.diag(
        [y["nu"], y["up"], y["up"], y["up"], y["e"], y["down"], y["down"], y["down"]]
    ).astype(np.complex128)


def sm_rep() -> Representation:
    """The standard action of C + H + M_3 on C^32.

    Quaternions act on the weak index of L, the scalar acts on R as
    (c, conj c) across the weak index, and antiparticles carry the scalar
    on lepton slots and the color matrix on color slots.
    """
    placements = [
        Placement(component=1, start=_L, mode="fund", mult=4),
        Placement(component=0, start=_R, mode="scalar", mult=4),
        Placement(component=0, start=_R + 4, mode="conj-scalar", mult=4),
    ]
    for base in (_LA, _RA):
        for w in (0, 4):
            placements.append(
                Placement(component=0, start=base + w, mode="scalar", mult=1)
            )
            placements.append(
                Placement(component=2, start=base + w + 1, mode="fund", mult=1)
            )
    return Representation.from_placements(sm_algebra(), 32, placements)


_SM_REP = sm_rep()  # shared, so its basis images are built once


def build_dirac(
    yukawas: dict | None = None, majorana: complex = DEFAULT_MAJORANA
) -> np.ndarray:
    """Yukawa couplings between chiralities plus one Majorana entry.

    The Majorana coupling sits on the right-handed neutrino slot, the one
    place where it commutes with the whole algebra action.
    """
    yuk = yukawa_block(yukawas)
    d = np.zeros((32, 32), dtype=np.complex128)
    d[_L : _L + 8, _R : _R + 8] = yuk
    d[_R : _R + 8, _L : _L + 8] = dagger(yuk)
    d[_LA : _LA + 8, _RA : _RA + 8] = np.conj(yuk)
    d[_RA : _RA + 8, _LA : _LA + 8] = yuk.T
    d[_R, _RA] = majorana
    d[_RA, _R] = np.conj(majorana)
    return d


def finite_real_structure() -> AntilinearOperator:
    """Exchange particles and antiparticles, then conjugate."""
    u = np.zeros((32, 32), dtype=np.complex128)
    for i in range(16):
        u[i, 16 + i] = 1.0
        u[16 + i, i] = 1.0
    return AntilinearOperator(u)


def finite_grading() -> np.ndarray:
    """Chirality: + on L and Ra, - on R and La."""
    return np.diag(
        np.concatenate([np.ones(8), -np.ones(8), -np.ones(8), np.ones(8)])
    ).astype(np.complex128)


def sm_finite_geometry(
    yukawas: dict | None = None, majorana: complex = DEFAULT_MAJORANA
) -> FiniteGeometry:
    return FiniteGeometry(
        rep=_SM_REP,
        dirac=build_dirac(yukawas, majorana),
        grading=finite_grading(),
        real_structure=finite_real_structure(),
    )


# ---------------------------------------------------------------------------
# twisted point model on C^4 tensor C^32


def twisted_sm_algebra() -> Algebra:
    """Two copies of (C_r, C_l, H_r, H_l, M_3); one per chirality projector."""
    spec = ("C", "C", "H", "H", ("M", 3))
    return Algebra.of(*(spec + spec))


def sm_twist() -> Automorphism:
    """Exchange right and left labels in both copies; color is fixed."""
    return Automorphism(perm=(1, 0, 3, 2, 4, 6, 5, 8, 7, 9))


_P_PLUS = np.diag([1.0, 1.0, 0.0, 0.0]).astype(np.complex128)
_P_MINUS = np.diag([0.0, 0.0, 1.0, 1.0]).astype(np.complex128)

# entry mask of the antiparticle rows and columns inside each spinor block
_ANTI32 = np.zeros((32, 32))
_ANTI32[16:, 16:] = 1.0
_ANTI_MASK = np.kron(np.ones((4, 4)), _ANTI32)

# the four slots a chirality sector reads, in order: the particle scalar,
# the quaternion, the antiparticle scalar and the color matrix; each is a
# component of C + H + M_3 and the entries of its image that it fills
_SLOTS = ((0, 1.0 - _ANTI32), (1, 1.0), (0, _ANTI32), (2, 1.0))


def _sector_rep(plus: tuple, minus: tuple) -> Representation:
    """The doubled algebra acting on C^4 kron C^32 through the projectors.

    ``plus`` and ``minus`` name, for each slot of ``_SLOTS``, the component
    of the doubled algebra the sector reads there.  The stack is the finite
    one transformed: a component's images sum ``kron(P, S * mask)`` over
    the sectors and slots it feeds, S the finite images of its kind.
    """
    alg = twisted_sm_algebra()
    bounds = _SM_REP.algebra.basis_offsets()
    offsets = alg.basis_offsets()
    stack = np.zeros((offsets[-1], 128, 128), np.complex128)
    for proj, reads in ((_P_PLUS, plus), (_P_MINUS, minus)):
        for comp, (kind, mask) in zip(reads, _SLOTS):
            images = _SM_REP.stack[bounds[kind] : bounds[kind + 1]] * mask
            stack[offsets[comp] : offsets[comp + 1]] += kron(proj, images)
    return Representation(alg, stack)


def twisted_sm_rep() -> Representation:
    """The doubled algebra acting through the chirality projectors.

    The + projector sector reads the right labels of the first copy; the
    - sector reads the left labels of the second copy, except that the
    antiparticle scalar stays the right one.  Several slots are never
    read, so the representation is not faithful.
    """
    return _sector_rep(plus=(0, 2, 0, 4), minus=(6, 8, 5, 9))


def display_twist_rep() -> Representation:
    """The label swap applied to the represented matrix directly.

    Right and left labels are exchanged where they are displayed, but the
    antiparticle scalar keeps its right label.  This is not pi o rho for
    the structural twist: the two differ precisely on the antiparticle
    scalar slots, where representing the swapped labels moves c_l.
    """
    return _sector_rep(plus=(1, 3, 0, 4), minus=(5, 7, 5, 9))


def label_swap_check(tol: Tolerance = DEFAULT_TOL) -> Report:
    """Behaviour of the label swap on simple tensors f x A.

    A = (c_r, c_l, q_r, q_l, m) acts as the element A + A of the doubled
    algebra, whose copies are equal, and f through its chirality values:
    f x A is ``F * pi(A + A)``, its swap ``F * (pi o rho)(A + A)`` and the
    displayed swap ``F * display(A + A)``.  Checks the unit and recovery
    identities bitwise, that the swap is an involution, that right/left
    label differences live purely in the particle sector, and measures
    where representing the swapped labels departs from the displayed swap
    (the antiparticle scalar).
    """
    rep = Report("label swap on simple tensors")
    tg = twisted_sm_geometry()  # pi and the twist do not read the couplings
    pi, pi_rho, shown = tg.geometry.rep, tg.twisted_rep, display_twist_rep()
    alg = sm_algebra()
    rng = np.random.default_rng(7)

    def simple(f_point: tuple, image: np.ndarray) -> np.ndarray:
        # F: f+ on the rows of the + sector (0-63), f- on the - sector
        return np.repeat(np.asarray(f_point, np.complex128), 64)[:, None] * image

    r_unit = fro(pi(tg.algebra.unit()) - np.eye(128))
    rep.add("unit tensor acts as the identity", r_unit == 0.0, r_unit, 0.0)

    eye4 = np.eye(4)
    elements = alg.generators() + [alg.random_element(rng) for _ in range(4)]
    r_equal = worst(
        fro(
            simple((f, f), pi((c, c, q, q, m) * 2))
            - f * kron(eye4, _SM_REP((c, q, m)))
        )
        for c, q, m in elements
        for f in (1.0 + 0.0j, 0.6 - 0.35j)
    )
    rep.add(
        "equal labels and equal function reduce to the untwisted action",
        r_equal == 0.0,
        r_equal,
        0.0,
        note="bitwise identity, no tolerance",
    )

    c1, q1, m1 = alg.random_element(rng)
    c2, q2, m2 = alg.random_element(rng)
    a = (c1, c2, q1, q2, m1) * 2
    back = tg.rho.apply(tg.rho.apply(a))
    r_inv = sum(
        float(np.linalg.norm(np.atleast_1d(np.asarray(v - w))))
        for v, w in zip(back, a)
    )
    rep.add("label swap is an involution", r_inv == 0.0, r_inv, 0.0)

    f_pair = (0.8 + 0.3j, -0.2 + 1.1j)
    same_labels = (c1, c1, q1, q1, m1) * 2
    d_lab = simple(f_pair, pi(a)) - simple(f_pair, pi(same_labels))
    r_anti = fro(d_lab * _ANTI_MASK)
    rep.check(
        "label differences are confined to the particle sector", r_anti, tol, 1.0
    )

    d_conv = simple(f_pair, pi_rho(a)) - simple(f_pair, shown(a))
    r_part = fro(d_conv * (1.0 - _ANTI_MASK))
    r_rest = fro(d_conv * _ANTI_MASK)
    rep.check("swap matches the display on the particle sector", r_part, tol, 1.0)
    rep.add(
        "swap moves the left scalar onto the antiparticle sector",
        r_rest > tol.abs,
        r_rest,
        float("inf"),
        note="the displayed swap keeps c_r there; measured difference",
    )
    rep.info["display_antiparticle_residual"] = r_rest
    return rep


def twisted_sm_geometry(
    yukawas: dict | None = None, majorana: complex = DEFAULT_MAJORANA
) -> TwistedGeometry:
    """Chirality factor tensored on, doubled algebra, label-swap twist."""
    data = gamma(2)
    cc = charge_conjugation(2)
    fin = sm_finite_geometry(yukawas, majorana)
    geom = FiniteGeometry(
        rep=twisted_sm_rep(),
        dirac=kron(data.grading, fin.dirac),
        grading=kron(data.grading, fin.grading),
        real_structure=AntilinearOperator(
            kron(cc.j.unitary, fin.real_structure.unitary)
        ),
    )
    return TwistedGeometry(geom, sm_twist())


def lean_generators(alg: Algebra) -> np.ndarray:
    """``Algebra.generator_rows`` with the i-multiples of matrix units dropped.

    Every measured condition is complex-linear in the color slots (the
    color matrix is never conjugated by the representation, the twist, or
    the opposite action), so the matrix units alone span what matters and
    the loops shrink by the dropped elements.
    """
    # the coordinates that are imaginary parts of matrix-block entries
    imag = [np.tile([False, c.kind == "M"], c.dim**2) for c in alg.components]
    rows = alg.generator_rows
    return rows[~rows[:, np.concatenate(imag)].any(axis=1)]


def sm_gamma_tilde_element() -> tuple:
    """(1, -1) of the right/left doubling, color completed with the unit.

    Right slots keep +1, left slots get -1, and the undoubled color slot
    is filled with the identity; the same pattern in both copies.
    """
    one = 1.0 + 0.0j
    q_one = QUATERNION_UNITS["1"].copy()
    eye3 = np.eye(3, dtype=np.complex128)
    half = (one, -one, q_one, -q_one, eye3)
    return half + half


def sm_gamma_tilde_expected() -> np.ndarray:
    """gamma_4 on the particle half plus the identity on antiparticles."""
    p_part = np.zeros((32, 32), dtype=np.complex128)
    p_part[:16, :16] = np.eye(16)
    p_anti = np.eye(32, dtype=np.complex128) - p_part
    return kron(gamma(2).grading, p_part) + kron(np.eye(4), p_anti)


def generalized_minimal_twist_check(
    tg: TwistedGeometry | None = None, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Equal right/left slots recover the untwisted action exactly.

    Embedding (c, q, m) with both labels equal in both copies must give
    the identity chirality factor times the standard action, with zero
    floating-point residual: the projectors are exact 0/1 diagonals.
    """
    rep = Report("untwisted action recovered at equal labels")
    if tg is None:
        tg = twisted_sm_geometry()
    base, pi = _SM_REP, tg.geometry.rep
    rng = np.random.default_rng(11)
    elements = base.algebra.generators() + [
        base.algebra.random_element(rng) for _ in range(5)
    ]
    r_rec = worst(
        fro(pi((c, c, q, q, m, c, c, q, q, m)) - kron(np.eye(4), base((c, q, m))))
        for c, q, m in elements
    )
    rep.add(
        "pi(equal labels) = I_4 kron pi_sm, exactly",
        r_rec == 0.0,
        r_rec,
        0.0,
        note="bitwise identity, no tolerance",
    )
    rep.info["recovery_residual"] = r_rec
    rep.info["tol_note"] = f"checked against exact zero (request tol rel {tol.rel})"
    return rep


def sm_order_zero_residual(
    tg: TwistedGeometry, gens: np.ndarray | None = None
) -> float:
    """Worst commutator of the algebra with its opposite over the rows ``gens``."""
    if gens is None:
        gens = lean_generators(tg.algebra)
    pi_a, _, opp_b, _ = tg.stacks(gens)
    return pair_residual(pi_a, opp_b)


def sm_first_order_residuals(
    tg: TwistedGeometry,
    convention: str,
    gens: np.ndarray | None = None,
) -> dict:
    """Twisted order-one residuals over pairs of the rows ``gens``, both arrangements.

    The "flip" convention twists the abstract elements, so it reads pi o
    rho; "display" swaps the labels of the represented matrices instead,
    so it reads ``display_twist_rep`` in place of pi o rho, and the
    display's J-conjugate at the starred rows in place of the opposite twist.
    """
    if convention not in ("flip", "display"):
        raise ValueError(f"unknown convention {convention!r}")
    if gens is None:
        gens = lean_generators(tg.algebra)
    g = tg.geometry
    if convention == "flip":
        pi_a, pi_rho_a, opp_b, rho_opp_b = tg.stacks(gens)
    else:
        shown, cs = display_twist_rep(), gens @ tg.algebra.star_matrix
        pi_a, pi_rho_a = g.rep.images(gens), shown.images(gens)
        opp_b = tg.conjugated_rep.images(cs)
        rho_opp_b = g.conjugated(shown).images(cs)
    primary, symmetric = first_order_residuals(g.dirac, pi_a, pi_rho_a, opp_b, rho_opp_b)
    return {"primary": primary, "symmetric": symmetric}


def _lean_scale(tg: TwistedGeometry) -> float:
    """Squared generator scale of pi over the lean generators."""
    pi_a = tg.geometry.rep.images(lean_generators(tg.algebra))
    return generator_scale(pi_a) ** 2


def sm_order_zero_report(tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL) -> Report:
    """The order-zero record of the twisted point model."""
    rep = Report("twisted standard model: order zero")
    rep.check(
        "order zero: algebra commutes with opposite",
        sm_order_zero_residual(tg),
        tol,
        _lean_scale(tg),
    )
    return rep


def sm_first_order_report(tg: TwistedGeometry, tol: Tolerance = DEFAULT_TOL) -> Report:
    """Order-one records of both conventions; only "display" is gated."""
    rep = Report("twisted standard model: order one")
    d_scale = _lean_scale(tg) * max(1.0, fro(tg.geometry.dirac))
    for convention in ("flip", "display"):
        res = sm_first_order_residuals(tg, convention)
        for form in ("primary", "symmetric"):
            r = res[form]
            if convention == "display":
                rep.check(
                    f"order one (display convention, {form} form)", r, tol, d_scale
                )
            else:
                rep.record(
                    f"order one (flip convention, {form} form)",
                    r,
                    "measured only; the label swap misses the antiparticle scalar",
                )
        rep.info[f"order_one_{convention}"] = res
    return rep


def verify_sm_twisted(
    tg: TwistedGeometry | None = None, tol: Tolerance = DEFAULT_TOL
) -> Report:
    """Full measurement run on the twisted point model.

    Gates on the untwisted finite triple at the couplings of ``tg``, checks
    the twisted data (representation, twist regularity, signs, order zero),
    measures the twisted order-one residuals under both conventions, and
    reports the behaviour of the doubling involution and the convention
    discrepancy.
    """
    rep = Report("twisted standard model point geometry")
    if tg is None:
        tg = twisted_sm_geometry()

    # D = grading_4 kron D_F and grading_4 starts with +1, so D_F is the
    # leading block of D: the finite triple at the couplings of tg
    fin = sm_finite_geometry().with_dirac(tg.geometry.dirac[:32, :32])
    rep.merge(verify_spectral_triple(fin, tol), prefix="finite untwisted: ")

    rep.merge(tg.geometry.rep.check(tol), prefix="twisted rep: ")
    rep.merge(check_regular(tg.rho, tg.geometry, tol), prefix="twist: ")

    signs = measure_ko_signs(tg.geometry, tol)
    rep.add(
        "sign triple of the twisted model",
        signs.as_tuple() == (-1, 1, -1),
        0.0,
        0.0,
        note=f"(eps, eps', eps'') = {signs.as_tuple()}",
    )
    rep.info["signs"] = list(signs.as_tuple())

    rep.merge(sm_order_zero_report(tg, tol))
    rep.merge(generalized_minimal_twist_check(tg, tol), prefix="recovery: ")
    rep.merge(sm_first_order_report(tg, tol))

    # the doubling involution, color slot completed with the unit
    diag = gamma_tilde_diagnostics(tg, sm_gamma_tilde_element(), tol)
    rep.add(
        "doubling involution is a self-adjoint involution",
        diag.is_selfadjoint_involution,
        *diag.involution,
    )
    rep.check(
        "doubling involution commutes with the algebra",
        diag.commutes_with_rep,
        tol,
        _lean_scale(tg),
    )
    r_formula = fro(diag.gamma_tilde - sm_gamma_tilde_expected())
    rep.add(
        "doubling involution matches chirality on particles only",
        r_formula == 0.0,
        r_formula,
        0.0,
        note="gamma_4 kron P_particle + I kron P_antiparticle, exactly",
    )
    rep.add(
        "doubling involution does not anticommute with D",
        not diag.is_grading and diag.anticommutator_with_dirac > 1.0,
        diag.anticommutator_with_dirac,
        float("inf"),
        note="residual about twice the Yukawa scale",
    )
    rep.info["gamma_tilde_anticommutator"] = diag.anticommutator_with_dirac

    rep.merge(label_swap_check(tol), prefix="labels: ")
    witness = tg.algebra.basis_element(1, 1.0 + 0.0j)  # left scalar, first copy
    diff = tg.twisted_rep(witness) - display_twist_rep()(witness)
    r_anti_sector = fro(diff * _ANTI_MASK)
    r_part_sector = fro(diff * (1.0 - _ANTI_MASK))
    rep.check("conventions agree on the particle sector", r_part_sector, tol, 1.0)
    rep.add(
        "conventions differ on the antiparticle scalar",
        r_anti_sector > 0.5,
        r_anti_sector,
        float("inf"),
        note="witness: left scalar unit in the first copy",
    )
    rep.info["convention_particle_residual"] = r_part_sector
    rep.info["convention_antiparticle_residual"] = r_anti_sector
    return rep
