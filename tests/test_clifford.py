"""Gamma matrices in even dimensions and their charge conjugations."""

from functools import reduce

import numpy as np
import pytest

from nctwist import clifford
from nctwist.clifford import (
    MAX_M,
    CliffordData,
    charge_conjugation,
    gamma,
    grading_product,
)
from nctwist.matlin import DEFAULT_TOL, anticommutator, dagger, fro, sign_fits

from kronecker import intertwiners

TOL = 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_clifford_relations(m):
    data = gamma(m)
    assert isinstance(data, CliffordData)
    assert len(data.gammas) == 2 * m
    assert data.dim == 2**m
    for i, gi in enumerate(data.gammas):
        assert fro(gi - dagger(gi)) <= TOL
        for j, gj in enumerate(data.gammas):
            target = 2.0 * np.eye(data.dim) if i == j else np.zeros((data.dim,) * 2)
            assert fro(anticommutator(gi, gj) - target) <= TOL


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_grading_is_the_gamma_product(m):
    data = gamma(m)
    g = data.grading
    assert fro(g - grading_product(data)) <= TOL
    assert fro(g @ g - np.eye(data.dim)) <= TOL
    assert fro(g - dagger(g)) <= TOL
    for gi in data.gammas:
        assert fro(anticommutator(g, gi)) <= TOL
    # chiral basis: grading is diagonal +-1 with equal multiplicities
    diag = np.real(np.diag(g))
    assert np.count_nonzero(diag > 0.5) == data.dim // 2


def test_gamma_rejects_bad_m():
    with pytest.raises(ValueError):
        gamma(0)
    with pytest.raises(ValueError):
        gamma(7)


class TestChargeConjugation:
    # measured sign table (eps, eps''): the mod-8 ladder of KO dimension 2m
    SIGNS = {1: (-1, -1), 2: (-1, 1), 3: (1, -1), 4: (1, 1), 5: (-1, -1), 6: (-1, 1)}

    @pytest.mark.parametrize("m", range(1, MAX_M + 1))
    def test_measured_signs(self, m):
        cc = charge_conjugation(m)
        assert (cc.eps, cc.eps_dblprime) == self.SIGNS[m]
        assert cc.character_sum == 1.0

    @pytest.mark.parametrize("m", range(1, MAX_M + 1))
    def test_defining_relations(self, m):
        data = gamma(m)
        cc = charge_conjugation(m)
        j = cc.j
        u = j.unitary
        # a product of gammas: every relation holds exactly
        assert fro(u @ dagger(u) - np.eye(data.dim)) == 0.0
        assert max(fro(u @ np.conj(g) + g @ u) for g in data.gammas) == 0.0
        # J^2 = eps
        assert fro(j.square() - cc.eps * np.eye(data.dim)) <= 1e-10
        # J gamma^mu J^{-1} = -gamma^mu
        for gi in data.gammas:
            assert fro(j.conjugate(gi) + gi) <= 1e-10
        # J grading J^{-1} = eps'' grading
        assert fro(j.conjugate(data.grading) - cc.eps_dblprime * data.grading) <= 1e-10

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_kronecker_reference_spans_u(self, m):
        gams = list(gamma(m).gammas)
        (x,) = intertwiners(gams, [-np.conj(g) for g in gams])
        u = charge_conjugation(m).j.unitary
        # x is a unit vector of the solution space: u is its multiple
        coeff = np.vdot(x, u)
        assert abs(abs(coeff) - np.sqrt(len(u))) < 1e-12
        assert fro(u - coeff * x) < 1e-12

    def test_branch_labels(self):
        assert charge_conjugation(1).branch() == "{2,6}"
        assert charge_conjugation(2).branch() == "{0,4}"
        assert charge_conjugation(3).branch() == "{2,6}"

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="m must be in 1..6"):
            charge_conjugation(MAX_M + 1)

    @pytest.mark.parametrize("m", range(1, MAX_M + 1))
    def test_product_of_the_other_set_is_rejected(self, monkeypatch, m):
        def other_set(gammas):
            real = [g for g in gammas if not g.imag.any()]
            imaginary = [g for g in gammas if g.imag.any()]
            factors = imaginary if len(real) % 2 == 0 else real
            return reduce(np.matmul, factors, np.eye(len(gammas[0]), dtype=complex))

        monkeypatch.setattr(clifford, "_conjugation_unitary", other_set)
        with pytest.raises(ValueError, match="fails anticommutation"):
            charge_conjugation(m)

    @pytest.mark.parametrize("m", range(1, MAX_M + 1))
    def test_character_sum_over_even_products_is_rejected(self, monkeypatch, m):
        halves = clifford._subset_halves

        def even_only(hs, n):
            return halves([hs[0] @ h for h in hs[1:]], n)

        monkeypatch.setattr(clifford, "_subset_halves", even_only)
        with pytest.raises(ValueError, match="character sum 2.0"):
            charge_conjugation(m)

    @pytest.mark.parametrize("m", range(1, MAX_M + 1))
    def test_carried_evidence_is_the_residual_of_each_sign(self, m):
        # the residual-and-bound formula a sign used to be recomputed with
        cc, tol = charge_conjugation(m), DEFAULT_TOL
        u, grading = cc.j.unitary, gamma(m).grading
        signs = [
            (cc.j.square(), np.eye(len(u)), cc.eps),
            (u @ np.conj(grading), grading @ u, cc.eps_dblprime),
        ]
        reference = [
            (fro(x - s * y), tol.bound(max(fro(x), fro(y), 1.0))) for x, y, s in signs
        ]
        assert sign_fits((cc.eps, cc.eps_dblprime), cc.evidence) == reference
