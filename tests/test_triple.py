"""Finite real spectral triples: axioms, measured signs, residuals."""

import numpy as np
import pytest

from nctwist.algebra import Algebra, Placement, Representation
from nctwist.matlin import AntilinearOperator, fro
from nctwist.samples import left_regular_geometry, random_hermitian, toy_triple
from nctwist.triple import (
    FiniteGeometry,
    SignTriple,
    measure_ko_signs,
    order_one_residual,
    order_zero_residual,
    verify_spectral_triple,
)
from nctwist.twist import TwistedGeometry


def two_block_geometry(seed=0, frame=False):
    # C (+) C on the left-regular space of M_2, signs (+, -)
    rng = np.random.default_rng(seed)
    alg = Algebra.of("C", "C")
    m_small = np.array([[0.0, 1.0 + 0.5j], [1.0 - 0.5j, 0.0]])
    w = None
    if frame:
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, _ = np.linalg.qr(x)
    return left_regular_geometry(alg, [1, -1], m_small, frame=w)


def test_sign_triple_branch():
    assert SignTriple(1, 1, 1).branch() == "{0,4}"
    assert SignTriple(1, 1, -1).branch() == "{2,6}"
    assert SignTriple(-1, 1, -1).as_tuple() == (-1, 1, -1)


def test_geometry_dimension_validation():
    alg = Algebra.of("C")
    rep = Representation.from_placements(
        alg, 2, [Placement(component=0, start=0, mode="scalar", mult=2)]
    )
    with pytest.raises(ValueError):
        FiniteGeometry(rep=rep, dirac=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        FiniteGeometry(rep=rep, dirac=np.zeros((2, 2)), grading=np.eye(3))
    with pytest.raises(ValueError):
        FiniteGeometry(
            rep=rep,
            dirac=np.zeros((2, 2)),
            real_structure=AntilinearOperator(np.eye(3)),
        )


def test_toy_triple_passes_everything():
    g = toy_triple()
    report = verify_spectral_triple(g)
    assert report.ok
    assert report.info["signs"] == [1, 1, 1]
    assert order_zero_residual(g) == 0.0
    assert order_one_residual(g) == 0.0


def test_opposite_action_is_right_multiplication():
    # on the left-regular space, J b* J^-1 acts as right multiplication
    g = two_block_geometry()
    b = (2.0 + 1.0j, 0.5 - 0.25j)
    tg = TwistedGeometry.untwisted(g)
    (pi_b,), _, (opp,), _ = tg.stacks(g.algebra.coord_rows([b]))
    assert fro(pi_b - g.rep(b)) == 0.0
    # right multiplication commutes with every left one
    for pi_a in tg.stacks()[0]:
        assert fro(pi_a @ opp - opp @ pi_a) < 1e-12
    # and is genuinely different from the left action here
    assert fro(opp - pi_b) > 0.1


@pytest.mark.parametrize("residual", [order_zero_residual, order_one_residual])
def test_the_untwisted_order_conditions_read_pi_once(monkeypatch, residual):
    images, conjugate = Representation.images, AntilinearOperator.conjugate
    evaluated, conjugated = [], []

    def counted_images(rep, c):
        evaluated.append((rep, c))
        return images(rep, c)

    def counted_conjugate(j, t):
        conjugated.append(t)
        return conjugate(j, t)

    monkeypatch.setattr(Representation, "images", counted_images)
    monkeypatch.setattr(AntilinearOperator, "conjugate", counted_conjugate)
    g = two_block_geometry(frame=True)
    assert residual(g) < 1e-12
    # pi on the generator rows once, and J conjugates pi's (B, n, n) stack,
    # not a batch of images
    rows = g.algebra.generator_rows
    assert [c is rows for rep, c in evaluated if rep is g.rep] == [True]
    (t,) = conjugated
    assert t is g.rep.stack


def test_measured_signs_toy_and_blocks():
    assert measure_ko_signs(toy_triple()).as_tuple() == (1, 1, 1)
    assert measure_ko_signs(two_block_geometry()).as_tuple() == (1, 1, 1)


def test_measure_signs_requires_real_structure():
    g = toy_triple()
    bare = FiniteGeometry(rep=g.rep, dirac=g.dirac, grading=g.grading)
    with pytest.raises(ValueError):
        measure_ko_signs(bare)


def test_measure_signs_degenerate_dirac_raises():
    g = toy_triple()
    with pytest.raises(ValueError):
        measure_ko_signs(g.with_dirac(np.zeros((2, 2))))


@pytest.mark.parametrize("frame", [False, True])
def test_left_regular_geometry_verifies(frame):
    report = verify_spectral_triple(two_block_geometry(frame=frame))
    assert report.ok, report.format_text()


def test_verify_flags_non_selfadjoint_dirac():
    g = toy_triple()
    bad = g.with_dirac(np.array([[0.0, 1.0], [0.0, 0.0]]))
    report = verify_spectral_triple(bad)
    assert not report.ok
    assert any(
        "self-adjoint" in r.name and not r.passed for r in report.records
    )


def test_verify_flags_broken_first_order():
    # a generic Hermitian D on the left-regular space is not of the
    # left-plus-right form, so [D, a] no longer commutes with the opposite
    rng = np.random.default_rng(5)
    g = two_block_geometry()
    report = verify_spectral_triple(g.with_dirac(random_hermitian(rng, 4)))
    assert any(
        r.name.startswith("order one") and not r.passed for r in report.records
    )


def test_with_dirac_keeps_everything_else():
    g = toy_triple()
    d2 = np.array([[0.0, 2.0], [2.0, 0.0]])
    g2 = g.with_dirac(d2)
    assert fro(g2.dirac - d2) == 0.0
    assert g2.rep is g.rep
    assert g2.grading is g.grading
