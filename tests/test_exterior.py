import numpy as np
import pytest

from cartanflow import (
    ComplexError,
    GradedOperator,
    dirac_and_hodge,
    exterior_derivative,
    random_complex,
    whitney_complex,
)
from cartanflow.linalg import eigenvalues, pair_spectra

import reference_data as ref
from reference_data import incidence_sign


@pytest.fixture
def c4():
    return whitney_complex(ref.C4_EDGES)


def test_graded_operator_rejects_wrong_shape(c4):
    with pytest.raises(ComplexError):
        GradedOperator(np.zeros((c4.n, c4.n + 1), dtype=int), c4)


def test_incidence_sign_k2_edge():
    assert incidence_sign((1, 2), (1,)) == -1
    assert incidence_sign((1, 2), (2,)) == 1


def test_incidence_sign_triangle():
    assert incidence_sign((1, 2, 3), (1, 3)) == -1
    assert incidence_sign((1, 2, 3), (1, 2)) == 1
    assert incidence_sign((1, 2, 3), (2, 3)) == 1


def test_incidence_sign_non_facet():
    assert incidence_sign((1, 2), (3,)) == 0
    assert incidence_sign((1, 2, 3), (1,)) == 0
    assert incidence_sign((1,), (1, 2)) == 0


def test_k2_exterior_derivative_matches_reference():
    c = whitney_complex(ref.K2_EDGES)
    assert np.array_equal(exterior_derivative(c).matrix, ref.K2_D)


def test_c4_exterior_derivative_in_listed_basis(c4):
    d = exterior_derivative(c4)
    s = ref.c4_basis_change(c4)
    assert np.array_equal(s.T @ d.matrix @ s, ref.C4_D)


@pytest.mark.parametrize("seed", range(5))
def test_d_squared_is_zero_exactly(seed):
    c = random_complex(6, 10, seed)
    d = exterior_derivative(c).matrix
    assert not np.any(d @ d)


def test_d_is_strictly_below_block_diagonal():
    c = random_complex(7, 12, 11)
    d = exterior_derivative(c)
    deg = c.degrees()
    rows, cols = np.nonzero(d.matrix)
    assert np.all(deg[rows] == deg[cols] + 1)
    assert set(c.degree_shifts(d.matrix).tolist()) == {1}
    assert set(c.degree_shifts(d.matrix.T).tolist()) == {-1}


def test_dirac_and_hodge_structure(c4):
    dirac, hodge = dirac_and_hodge(exterior_derivative(c4))
    assert set(c4.degree_shifts(dirac.matrix).tolist()) == {-1, 1}
    assert set(c4.degree_shifts(hodge.matrix).tolist()) == {0}
    assert np.array_equal(hodge.matrix, hodge.matrix.T)
    assert np.all(np.linalg.eigvalsh(hodge.matrix.astype(float)) >= -1e-10)


def test_c4_dirac_spectrum(c4):
    dirac, _ = dirac_and_hodge(exterior_derivative(c4))
    ok, worst = pair_spectra(
        eigenvalues(dirac.matrix.astype(float)), ref.C4_DIRAC_EIGENVALUES, 1e-9
    )
    assert ok, worst


def test_k2_hodge_matrix():
    c = whitney_complex(ref.K2_EDGES)
    _, hodge = dirac_and_hodge(exterior_derivative(c))
    assert np.array_equal(hodge.matrix, [[1, -1, 0], [-1, 1, 0], [0, 0, 2]])
    assert np.array_equal(hodge.block(1, 1), [[2]])


def test_c4_vertex_block_is_cycle_laplacian(c4):
    _, hodge = dirac_and_hodge(exterior_derivative(c4))
    block = hodge.block(0, 0)
    assert np.array_equal(np.diag(block), [2, 2, 2, 2])
    assert block.sum() == 0


def test_degree_block_of_identity():
    c = random_complex(5, 8, 2)
    ident = GradedOperator(np.eye(c.n, dtype=int), c)
    for p in range(c.dimension + 1):
        assert np.array_equal(ident.block(p, p), np.eye(c.f_vector[p]))
    with pytest.raises(ComplexError):
        ident.block(c.dimension + 1, c.dimension + 1)


def test_hodge_commutes_with_d_exactly():
    c = random_complex(6, 10, 9)
    d = exterior_derivative(c)
    _, hodge = dirac_and_hodge(d)
    assert np.array_equal(hodge.matrix @ d.matrix, d.matrix @ hodge.matrix)


def test_spectrum_of_l_is_square_of_spectrum_of_d():
    c = random_complex(6, 10, 13)
    dirac, hodge = dirac_and_hodge(exterior_derivative(c))
    ev_d = eigenvalues(dirac.matrix.astype(float))
    ev_l = eigenvalues(hodge.matrix.astype(float))
    ok, worst = pair_spectra(ev_d**2, ev_l, 1e-7 * max(1.0, np.abs(ev_l).max()))
    assert ok, worst
