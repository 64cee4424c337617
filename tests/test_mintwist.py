"""Twisting by the grading: construction, uniqueness, pointwise models."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nctwist import cli, mintwist
from nctwist.algebra import Algebra, Placement, Representation
from nctwist.clifford import MAX_M, charge_conjugation, gamma
from nctwist.matlin import DEFAULT_TOL, Tolerance, dagger, fro
from nctwist.mintwist import (
    double_unit_element,
    free_dirac_pointwise,
    gamma_tilde_diagnostics,
    twist_by_grading,
    uniqueness_engine,
)
from nctwist.samples import flip_toy, left_regular_geometry, random_unitary, toy_triple
from nctwist.serialize import dump_json, twisted_marker_to_json
from nctwist.triple import FiniteGeometry
from nctwist.twist import TwistedGeometry, check_regular, verify_twisted

from kronecker import intertwiner_space, intertwiners


def block_geometry():
    alg = Algebra.of("C", "C")
    m_small = np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.0]])
    return left_regular_geometry(alg, [1, -1], m_small)


class TestTwistByGrading:
    def test_doubles_algebra_and_attaches_flip(self):
        tg = twist_by_grading(toy_triple())
        assert tg.algebra.ncomponents == 2
        assert tg.rho.perm == (1, 0)
        # same operators, new representation
        assert fro(tg.geometry.dirac - toy_triple().dirac) == 0.0

    def test_requires_grading(self):
        g = toy_triple()
        bare = FiniteGeometry(rep=g.rep, dirac=g.dirac, real_structure=g.real_structure)
        with pytest.raises(ValueError):
            twist_by_grading(bare)

    def test_rejects_broken_grading(self):
        g = toy_triple()
        bad = FiniteGeometry(
            rep=g.rep,
            dirac=g.dirac,
            grading=np.diag([1.0, 0.5]),
            real_structure=g.real_structure,
        )
        with pytest.raises(ValueError):
            twist_by_grading(bad)

    def test_attaches_implementing_unitary_when_equivalent(self):
        # scalar restrictions to the two eigenlines are equivalent
        tg = twist_by_grading(toy_triple())
        u = tg.rho.u_rho
        assert u is not None
        # u must exchange the projectors: u P+ u^dagger = P-
        p_plus = np.diag([1.0, 0.0])
        p_minus = np.diag([0.0, 1.0])
        assert fro(u @ p_plus @ dagger(u) - p_minus) < 1e-10

    def test_result_passes_twisted_axioms(self):
        report = verify_twisted(twist_by_grading(block_geometry()))
        assert report.ok, report.format_text()


# the placement modes of each kind, with the modes of the blocks equivalent
# to it: H is equivalent to its conjugate, C and M_n are not
EQUIVALENT_MODES = {
    "C": {"scalar": ("scalar",), "conj-scalar": ("conj-scalar",)},
    "H": {"fund": ("fund", "conj-fund"), "conj-fund": ("fund", "conj-fund")},
    "M": {"fund": ("fund",), "conj-fund": ("conj-fund",)},
}


@st.composite
def graded_placements(draw):
    """Blocks of C, H, M_2 and M_3 on the two grading eigenspaces.

    A side is a list of (component, mode, mult) blocks and a trailing gap
    on which the algebra acts by zero.  Half of the draws make the second
    side an equivalent reshuffle of the first.
    """
    kinds = st.sampled_from(["C", "H", ("M", 2), ("M", 3)])
    specs = draw(st.lists(kinds, min_size=1, max_size=3))
    kinds = [spec[0] for spec in specs]

    def block(c):
        modes = list(EQUIVALENT_MODES[kinds[c]])
        return (c, draw(st.sampled_from(modes)), draw(st.integers(1, 2)))

    components = st.lists(st.integers(0, len(specs) - 1), min_size=1, max_size=3)
    plus = [block(c) for c in draw(components)]
    if draw(st.booleans()):
        minus = [
            (c, draw(st.sampled_from(EQUIVALENT_MODES[kinds[c]][mode])), mult)
            for c, mode, mult in draw(st.permutations(plus))
        ]
    else:
        minus = [block(c) for c in draw(components)]
    gaps = draw(st.tuples(st.integers(0, 1), st.integers(0, 1)))
    frame, seed = draw(st.booleans()), draw(st.integers(0, 2**32 - 1))
    return specs, plus, minus, gaps, frame, seed


def placed_geometry(specs, plus, minus, gaps, frame, seed):
    alg = Algebra.of(*specs)
    placements, start, signs = [], 0, []
    for side, gap, sign in ((plus, gaps[0], 1.0), (minus, gaps[1], -1.0)):
        first = start
        for c, mode, mult in side:
            p = Placement(component=c, start=start, mode=mode, mult=mult)
            placements.append(p)
            start += p.block_size(alg.components[c])
        start += gap
        signs += [sign] * (start - first)
    rep = Representation.from_placements(alg, start, placements)
    stack, gam = rep.stack, np.diag(signs).astype(np.complex128)
    if frame:
        w = random_unitary(np.random.default_rng(seed), start)
        stack, gam = w @ stack @ dagger(w), w @ gam @ dagger(w)
    return FiniteGeometry(
        rep=Representation(alg, stack), dirac=np.zeros_like(gam), grading=gam
    )


def kronecker_unitary_exists(g):
    """Reference decision: a generic element of the Kronecker solution is invertible."""
    q_plus, q_minus = mintwist._eigenbasis(g.grading, DEFAULT_TOL)
    if q_plus.shape[1] != q_minus.shape[1]:
        return False
    pi_a = g.rep.images(g.algebra.coord_rows(g.algebra.generators()))
    restr_plus = dagger(q_plus) @ pi_a @ q_plus
    space = intertwiners(restr_plus, dagger(q_minus) @ pi_a @ q_minus)
    if not space:
        return False
    coeff = np.random.default_rng(1).standard_normal((len(space), 2)) @ [1, 1j]
    sv = np.linalg.svd(sum(c * x for c, x in zip(coeff, space)), compute_uv=False)
    return bool(sv[-1] > 1e-8 * sv[0])


@settings(max_examples=60, deadline=None)
@given(graded_placements())
# H fund + H fund + C against H fund + H conj-fund + C: a unitary exists,
# because the conjugate placement of H is equivalent to the fundamental one
@example(
    (
        ["H", "C"],
        [(0, "fund", 1), (0, "fund", 1), (1, "scalar", 1)],
        [(0, "fund", 1), (0, "conj-fund", 1), (1, "scalar", 1)],
        (0, 0),
        False,
        0,
    )
)
# C and M_2 next to their conjugates, in a frame: a unitary exists
@example(
    (
        ["C"],
        [(0, "scalar", 1), (0, "conj-scalar", 2)],
        [(0, "conj-scalar", 2), (0, "scalar", 1)],
        (0, 0),
        True,
        3,
    )
)
@example(
    (
        [("M", 2)],
        [(0, "fund", 1), (0, "conj-fund", 1)],
        [(0, "conj-fund", 1), (0, "fund", 1)],
        (0, 0),
        True,
        5,
    )
)
def test_averaged_unitary_decides_as_the_kronecker_solve(case):
    g = placed_geometry(*case)
    tg = twist_by_grading(g)
    assert (tg.rho.u_rho is not None) == kronecker_unitary_exists(g)
    assert check_regular(tg.rho, tg.geometry).ok


def test_double_unit_element():
    tg = flip_toy()
    e = double_unit_element(tg.algebra)
    assert e == (1.0 + 0j, -1.0 + 0j)
    with pytest.raises(ValueError):
        double_unit_element(Algebra.of("C", "C", "C"))
    with pytest.raises(ValueError):
        double_unit_element(Algebra.of("C", ("M", 2)))


def test_gamma_tilde_reproduces_grading_for_grading_twist():
    tg = flip_toy()
    d = gamma_tilde_diagnostics(tg)
    assert d.is_selfadjoint_involution
    assert d.commutes_with_rep <= 1e-12
    assert d.anticommutator_with_dirac <= 1e-12
    assert d.is_grading
    assert d.equals_input_grading
    assert fro(d.gamma_tilde - tg.geometry.grading) == 0.0


def test_gamma_tilde_on_block_geometry():
    tg = twist_by_grading(block_geometry())
    d = gamma_tilde_diagnostics(tg)
    assert d.is_grading and d.equals_input_grading


def test_grading_compat_two_sided_criterion(tmp_path, capsys, monkeypatch):
    # the gamma-tilde report measures both sides of the criterion on the
    # grading of its input: commuting with the doubled algebra, and with
    # the first copy plus the projector pair
    path = tmp_path / "toy_twisted.json"
    dump_json(twisted_marker_to_json(toy_triple()), str(path))
    sides = (
        "grading commutes with the doubled algebra",
        "grading commutes with the first copy and the projectors",
    )

    def records():
        cli.main(["gamma-tilde", str(path), "--report", "json"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        return {c["name"]: c for c in checks}

    got = records()
    assert all(got[name]["passed"] and got[name]["residual"] <= 1e-12 for name in sides)
    assert got["the two sides agree"]["passed"]
    # an off-diagonal grading fails both sides coherently
    tg = flip_toy()
    off = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    bent = TwistedGeometry(replace(tg.geometry, grading=off), tg.rho)
    monkeypatch.setattr(cli, "twisted_from_json", lambda obj: bent)
    got = records()
    assert not any(got[name]["passed"] or got[name]["residual"] < 0.1 for name in sides)
    assert got["the two sides agree"]["passed"]  # agreement, not smallness


class TestUniqueness:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_solution_space_is_two_scalars(self, m):
        report = uniqueness_engine(m)
        assert report.ok, report.format_text()
        assert report.info["dimension"] == 2

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_records_and_span_match_the_kronecker_solve(self, m):
        report = uniqueness_engine(m)
        assert [(r.name, r.passed) for r in report.records] == [
            ("solution space dimension is exactly 2", True),
            ("solutions are scalar on chiral blocks", True),
            ("partner solution swaps the two scalars", True),
        ]
        gams = list(gamma(m).gammas)
        solved = intertwiner_space(gams, gams)
        reference = np.array([np.concatenate([a.ravel(), b.ravel()]) for a, b in solved])
        assert report.info["dimension"] == len(reference) == 2
        _, pairs = mintwist._gamma_intertwiners(gams, DEFAULT_TOL)
        for a, b in pairs:
            v = np.concatenate([a.ravel(), b.ravel()])
            assert fro(v - reference.T @ (reference.conj() @ v)) < 1e-12

    @pytest.mark.parametrize("m", range(1, MAX_M + 1))
    def test_averaged_pairs_intertwine(self, m):
        gams = list(gamma(m).gammas)
        chars, pairs = mintwist._gamma_intertwiners(gams, DEFAULT_TOL)
        assert abs(chars - 2) < 1e-12 and len(pairs) == 2
        assert max(fro(g @ a - b @ g) for a, b in pairs for g in gams) < 1e-13

    def test_lambdas_swap_between_solutions(self):
        report = uniqueness_engine(2)
        (l1a, l1b), (l2a, l2b) = [tuple(v) for v in report.info["lambdas"]]
        # each solution is determined by two scalars; the partner matrix
        # swaps them, so the pair (la, lb) cannot be proportional across
        # the two independent solutions
        det = l1a * l2b - l1b * l2a
        assert abs(det) > 1e-6

    def test_nan_in_a_later_solution_fails(self, monkeypatch):
        solve = mintwist._gamma_intertwiners

        def poisoned(*args, **kwargs):
            chars, pairs = solve(*args, **kwargs)
            pairs = [(a.copy(), b) for a, b in pairs]
            pairs[1][0][0, -1] = np.nan  # off the chiral blocks
            return chars, pairs

        monkeypatch.setattr(mintwist, "_gamma_intertwiners", poisoned)
        report = uniqueness_engine(2)
        name = "solutions are scalar on chiral blocks"
        (rec,) = [r for r in report.records if r.name == name]
        assert not rec.passed
        assert np.isnan(rec.residual)


def test_commutant_scalars_forces_trivial_twist():
    alg = Algebra.of(("M", 2))
    from nctwist.algebra import Placement, Representation

    rep = Representation.from_placements(
        alg, 2, [Placement(component=0, start=0, mode="fund", mult=1)]
    )
    g = FiniteGeometry(rep=rep, dirac=np.zeros((2, 2)))
    # a scalar commutant leaves no room for a second factor to twist
    gens = [g.rep(a) for a in g.algebra.generators()]
    assert len(intertwiners(gens, gens)) == 1


def test_commutant_of_toy_leaves_room():
    g = toy_triple()
    gens = [g.rep(a) for a in g.algebra.generators()]
    assert len(intertwiners(gens, gens)) == 4


class TestFreeDiracPointwise:
    def test_m1_never_accepts_nonzero_selfadjoint_term(self):
        # {2,6} conjugation branch: the candidate is anti-Hermitian, so the
        # only self-adjoint fluctuation is zero
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        report = free_dirac_pointwise(1, samples)
        assert report.ok, report.format_text()
        assert report.info["branch"] == "{2,6}"
        assert report.info["accepted"] is False

    def test_m2_gate_accepts_iff_real_parts_cancel(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # g chosen so Re f + Re g = 0: the gate accepts
        g_ok = -np.conj(f)
        samples = np.stack([f, g_ok], axis=1)
        report = free_dirac_pointwise(2, samples)
        assert report.ok, report.format_text()
        assert report.info["branch"] == "{0,4}"
        assert report.info["accepted"] is True
        assert report.info["coeff_defect"] <= 1e-12

    def test_m2_rejects_when_gate_fails(self):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        report = free_dirac_pointwise(2, samples)
        assert report.ok, report.format_text()
        assert report.info["accepted"] is False
        assert report.info["coeff_defect"] > 1e-3

    def test_sample_shape_validated(self):
        with pytest.raises(ValueError):
            free_dirac_pointwise(2, np.zeros((3, 2)))
        with pytest.raises(ValueError, match="m must be in 1..6"):
            free_dirac_pointwise(7, np.zeros((14, 2)))


@pytest.mark.parametrize("negate", [False, True])
def test_conjugation_branch_is_decided_on_its_residual(monkeypatch, negate):
    solve = mintwist.charge_conjugation

    def solved(m, tol):
        cc = solve(m, tol)
        return replace(cc, eps_dblprime=-cc.eps_dblprime) if negate else cc

    monkeypatch.setattr(mintwist, "charge_conjugation", solved)
    samples = np.random.default_rng(4).standard_normal((4, 2)).astype(np.complex128)
    report = free_dirac_pointwise(2, samples)
    (rec,) = [r for r in report.records if r.name == "conjugation branch"]
    assert rec.passed != negate and rec.tol > 0.0
    assert rec.residual > rec.tol if negate else rec.residual <= 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_conjugation_lemma(m):
    # J pi(a) J^-1 is pi(a*) on {0,4} and pi(flip(a*)) on {2,6}, at a = samples[0]
    rng = np.random.default_rng(m)
    samples = rng.standard_normal((2 * m, 2)) + 1j * rng.standard_normal((2 * m, 2))
    samples[0] = (0.8 + 0.2j, -0.3 + 1.1j)
    report = free_dirac_pointwise(m, samples)
    assert report.ok, report.format_text()
    expected = "{0,4}" if m == 2 else "{2,6}"
    assert report.info["branch"] == expected
    lemma, contrast = (
        ("J pi(a) J^-1 = pi(a*)", "flipped form differs")
        if m == 2
        else ("J pi(a) J^-1 = pi(flip(a*))", "plain form differs")
    )
    got = {r.name: r for r in report.records}
    assert got[lemma].passed and got[lemma].residual <= 1e-12
    assert got[contrast].residual > 0.1 and got[contrast].tol == float("inf")


# -- the grading eigenvalues are judged by the caller's tolerance ----------

# a grading off +-1 by 3e-7: inside rel 1e-6, outside the default 1e-10
NEAR_GRADING = np.diag([1.0 + 3e-7, -1.0]).astype(np.complex128)


def test_grading_eigenvalues_are_judged_by_the_tolerance():
    g = replace(toy_triple(), grading=NEAR_GRADING)
    tol = Tolerance(rel=1e-6)
    q_plus, q_minus = mintwist._eigenbasis(g.grading, tol)
    assert q_plus.shape == q_minus.shape == (2, 1)
    assert verify_twisted(twist_by_grading(g, tol), tol).ok


def test_grading_eigenvalues_off_by_more_than_the_default_tolerance_raise():
    g = replace(toy_triple(), grading=NEAR_GRADING)
    with pytest.raises(ValueError, match="grading eigenvalues are not"):
        mintwist._eigenbasis(g.grading, DEFAULT_TOL)
    with pytest.raises(ValueError):
        twist_by_grading(g)
