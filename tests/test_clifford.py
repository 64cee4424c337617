"""Gamma matrices in even dimensions and their charge conjugations."""

import numpy as np
import pytest

from nctwist.clifford import (
    CliffordData,
    charge_conjugation,
    gamma,
    grading_product,
)
from nctwist.matlin import anticommutator, dagger, fro

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
    # measured sign table (eps, eps'')
    SIGNS = {1: (-1, -1), 2: (-1, 1), 3: (1, -1)}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_measured_signs(self, m):
        cc = charge_conjugation(m)
        assert (cc.eps, cc.eps_dblprime) == self.SIGNS[m]
        assert cc.solution_dim == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_defining_relations(self, m):
        data = gamma(m)
        cc = charge_conjugation(m)
        j = cc.j
        assert fro(j.unitary @ dagger(j.unitary) - np.eye(data.dim)) <= 1e-10
        # J^2 = eps
        assert fro(j.square() - cc.eps * np.eye(data.dim)) <= 1e-10
        # J gamma^mu J^{-1} = -gamma^mu
        for gi in data.gammas:
            assert fro(j.conjugate(gi) + gi) <= 1e-10
        # J grading J^{-1} = eps'' grading
        assert fro(j.conjugate(data.grading) - cc.eps_dblprime * data.grading) <= 1e-10

    def test_branch_labels(self):
        assert charge_conjugation(1).branch() == "{2,6}"
        assert charge_conjugation(2).branch() == "{0,4}"
        assert charge_conjugation(3).branch() == "{2,6}"

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            charge_conjugation(4)
