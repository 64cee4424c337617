"""Sample geometry constructors used across the test suite."""

import numpy as np
import pytest

from nctwist.algebra import Algebra
from nctwist.matlin import dagger, fro
from nctwist.mintwist import twist_by_grading
from nctwist.samples import (
    clifford_tensor,
    flip_toy,
    left_regular_geometry,
    random_graded_geometry,
    random_hermitian,
    random_matrix_geometry,
    random_one_form,
    random_unitary,
    toy_triple,
    transposition_matrix,
)
from nctwist.triple import measure_ko_signs, verify_spectral_triple
from nctwist.twist import verify_twisted

CATALOGUE_DIMS = {4, 9, 16, 25, 8, 18, 32}


def test_random_unitary_and_hermitian():
    rng = np.random.default_rng(0)
    u = random_unitary(rng, 5)
    assert fro(u @ dagger(u) - np.eye(5)) < 1e-12
    h = random_hermitian(rng, 5)
    assert fro(h - dagger(h)) == 0.0


def test_transposition_matrix_swaps_factors():
    k = 3
    s = transposition_matrix(k)
    assert np.array_equal(s, s.T)
    assert fro(s @ s - np.eye(k * k)) == 0.0
    rng = np.random.default_rng(1)
    a = rng.standard_normal((k, k))
    b = rng.standard_normal((k, k))
    assert fro(s @ np.kron(a, b) @ s - np.kron(b, a)) < 1e-12


class TestLeftRegular:
    ALG = Algebra.of("C", "C")
    M_SMALL = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)

    def test_valid_geometry_verifies(self):
        g = left_regular_geometry(self.ALG, [1, -1], self.M_SMALL)
        assert g.hilbert_dim == 4
        report = verify_spectral_triple(g)
        assert report.ok, report.format_text()
        assert report.info["signs"] == [1, 1, 1]

    def test_rejects_single_sign(self):
        with pytest.raises(ValueError):
            left_regular_geometry(self.ALG, [1, 1], self.M_SMALL)

    def test_rejects_wrong_sign_count(self):
        with pytest.raises(ValueError):
            left_regular_geometry(self.ALG, [1, -1, 1], self.M_SMALL)

    def test_rejects_non_hermitian_mass(self):
        with pytest.raises(ValueError):
            left_regular_geometry(
                self.ALG, [1, -1], np.array([[0.0, 1.0], [2.0, 0.0]])
            )

    def test_rejects_even_mass(self):
        # diagonal mass commutes with the sign matrix instead
        with pytest.raises(ValueError):
            left_regular_geometry(self.ALG, [1, -1], np.diag([1.0, -1.0]))

    def test_frame_conjugation_preserves_axioms(self):
        rng = np.random.default_rng(2)
        w = random_unitary(rng, 4)
        g = left_regular_geometry(self.ALG, [1, -1], self.M_SMALL, frame=w)
        assert verify_spectral_triple(g).ok


class TestCliffordTensor:
    # measured sign triples after tensoring the 2^m Clifford factor onto a
    # plain (+1, +1, +1) finite block geometry
    EXPECTED = {1: (-1, -1, -1), 2: (-1, 1, 1), 3: (1, -1, -1)}

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_signs_and_axioms(self, m):
        fin = random_matrix_geometry(np.random.default_rng(3), 3)
        assert measure_ko_signs(fin).as_tuple() == (1, 1, 1)
        g = clifford_tensor(m, fin)
        assert g.hilbert_dim == 2**m * fin.hilbert_dim
        assert measure_ko_signs(g).as_tuple() == self.EXPECTED[m]
        assert verify_spectral_triple(g).ok

    def test_requires_graded_real_input(self):
        fin = random_matrix_geometry(np.random.default_rng(3), 2)
        from nctwist.triple import FiniteGeometry

        bare = FiniteGeometry(rep=fin.rep, dirac=fin.dirac)
        with pytest.raises(ValueError):
            clifford_tensor(1, bare)


@pytest.mark.parametrize("seed", range(8))
def test_random_graded_geometry_catalogue(seed):
    g = random_graded_geometry(np.random.default_rng(seed))
    assert g.hilbert_dim in CATALOGUE_DIMS
    assert verify_spectral_triple(g).ok


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_twisted_geometry_verifies(seed):
    tg = twist_by_grading(random_graded_geometry(np.random.default_rng(seed)))
    assert verify_twisted(tg).ok


def test_random_one_form_is_reproducible():
    tg = twist_by_grading(random_graded_geometry(np.random.default_rng(5)))
    f1 = random_one_form(np.random.default_rng(9), tg)
    f2 = random_one_form(np.random.default_rng(9), tg)
    assert len(f1) == len(f2)
    alg = tg.algebra
    for (a1, b1), (a2, b2) in zip(f1.terms, f2.terms):
        assert np.linalg.norm(alg.coords(a1) - alg.coords(a2)) == 0.0
        assert np.linalg.norm(alg.coords(b1) - alg.coords(b2)) == 0.0


def test_toy_and_flip_toy_shapes():
    t = toy_triple()
    assert t.hilbert_dim == 2
    assert t.algebra.ncomponents == 1
    tg = flip_toy()
    assert tg.algebra.ncomponents == 2
    assert tg.rho.is_involutive_perm()
