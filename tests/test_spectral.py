import json

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanflow import (
    Complex,
    ComplexError,
    adjoint_field,
    betti_vector,
    canonical_fields,
    cartan,
    classical_betti,
    deterministic_field,
    dirac_and_hodge,
    euler_poincare_check,
    exterior_derivative,
    mckean_singer_check,
    random_complex,
    random_edge_field,
    spectral_report,
    spectral_symmetry_check,
    whitney_complex,
    zero_field,
)
from cartanflow import linalg, spectral
from cartanflow.exterior import GradedOperator, PRESERVES
from cartanflow.fields import FIELD_KINDS

import reference_data as ref


def hodge_pair(c):
    d = exterior_derivative(c)
    return cartan(d, adjoint_field(c))


def test_betti_c4_hodge_is_circle():
    c = whitney_complex(ref.C4_EDGES)
    cx = hodge_pair(c)
    # oracle: exact rational nullspaces of the two 4x4 blocks
    for p, expected in ((0, 1), (1, 1)):
        block = sp.Matrix(cx.LX.matrix[c.block(p), c.block(p)].tolist())
        assert len(block.nullspace()) == expected
    assert betti_vector(c, cx.LX) == [1, 1]


def test_betti_k3_hodge_is_contractible():
    c = whitney_complex([(1, 2), (1, 3), (2, 3)])
    cx = hodge_pair(c)
    assert betti_vector(c, cx.LX) == [1, 0, 0]


def test_betti_zero_field_is_f_vector():
    c = random_complex(6, 10, 21)
    cx = cartan(exterior_derivative(c), zero_field(c))
    assert betti_vector(c, cx.LX) == list(c.f_vector)


def test_betti_rejects_non_preserving():
    c = whitney_complex(ref.K2_EDGES)
    d = exterior_derivative(c)
    with pytest.raises(ComplexError):
        betti_vector(c, d)


@pytest.mark.parametrize("seed", range(5))
def test_hodge_betti_matches_rank_formula(seed):
    c = random_complex(6, 10, (seed, 5))
    d = exterior_derivative(c)
    cx = cartan(d, adjoint_field(c))
    assert betti_vector(c, cx.LX) == classical_betti(c, d)


def test_euler_poincare_c4_deterministic():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    result = euler_poincare_check(c, cx.LX)
    assert result["betti"] == [1, 1]
    assert result["chi_f"] == 0 == result["chi_betti"]
    assert result["pass"]


def test_euler_poincare_k2_generic():
    c = whitney_complex(ref.K2_EDGES)
    d = exterior_derivative(c)
    from cartanflow import InteriorDerivative

    ix = InteriorDerivative.from_matrix(c, ref.k2_ix(0.7, -0.2))
    cx = cartan(d, ix)
    result = euler_poincare_check(c, cx.LX)
    assert result["betti"] == [1, 0]
    assert result["chi_f"] == 1 == result["chi_betti"]



def test_euler_poincare_counts_jordan_block_at_zero():
    # L_X has a Jordan block at 0 on 1-forms: the geometric kernel [2, 1, 0, 0]
    # sums to 1, the generalized kernel [2, 2, 0, 0] to chi_f = 0
    c = random_complex(5, 8, 19)
    ix = canonical_fields(c, "sparsified", 0.5, (19, 0))
    result = euler_poincare_check(c, cartan(exterior_derivative(c), ix).LX)
    assert result["betti"] == [2, 1, 0, 0]
    assert result["generalized_kernel"] == [2, 2, 0, 0]
    assert result["chi_f"] == 0 == result["chi_betti"]
    assert result["pass"]


def test_verify_passes_euler_poincare_on_jordan_block(capsys):
    from cartanflow.cli import main

    code = main(["verify", "--n", "5", "--m", "8", "--seed", "19", "--field", "sparsified"])
    report = json.loads(capsys.readouterr().out)
    (ep,) = [chk for chk in report["checks"] if chk["name"] == "euler_poincare"]
    assert ep == {"name": "euler_poincare", "pass": True, "residual": 0}
    assert report["data"]["betti"] == [2, 1, 0, 0]
    assert report["data"]["chi_betti"] == report["data"]["chi_f"] == 0
    assert code == 0



def test_euler_poincare_float_block_keeps_geometric_count():
    # L_X has the eigenvalue 3.5e-5 on 0- and 1-forms; its square 1.2e-9 would
    # fall under the rank tolerance of L_X^2 and pass for a Jordan block at 0
    c = random_complex(5, 8, (236, 5))
    ix = random_edge_field(c, (236, 6), support=range(10))
    result = euler_poincare_check(c, cartan(exterior_derivative(c), ix).LX)
    assert result["betti"] == result["generalized_kernel"] == [1, 0, 0]
    assert result["pass"]

def test_generalized_kernel_powers_do_not_overflow():
    # [[2^32, 2^32], [0, 0]] squared has entries 2^64, which wrap to 0 in int64
    c = Complex.from_simplices([(1,), (2,)])
    lx = GradedOperator(np.array([[2**32, 2**32], [0, 0]]), c, PRESERVES)
    result = euler_poincare_check(c, lx)
    assert result["betti"] == [1]
    assert result["generalized_kernel"] == [1]


def test_mckean_singer_c4_deterministic_blocks():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    result = mckean_singer_check(c, cx.LX)
    assert result["pass"]
    assert np.allclose(sorted(z.real for z in result["even_nonzero"]), [1, 1, 2])
    assert np.allclose(sorted(z.real for z in result["odd_nonzero"]), [1, 1, 2])


def test_mckean_singer_k2_parametric():
    c = whitney_complex(ref.K2_EDGES)
    from cartanflow import InteriorDerivative

    a, b = -0.3, 0.9
    cx = cartan(exterior_derivative(c), InteriorDerivative.from_matrix(c, ref.k2_ix(a, b)))
    result = mckean_singer_check(c, cx.LX)
    assert result["pass"]
    assert np.allclose([z.real for z in result["even_nonzero"]], [b - a])
    assert np.allclose([z.real for z in result["odd_nonzero"]], [b - a])


def test_mckean_singer_zero_field_is_empty():
    c = random_complex(5, 8, 31)
    cx = cartan(exterior_derivative(c), zero_field(c))
    result = mckean_singer_check(c, cx.LX)
    assert result["pass"]
    assert result["even_nonzero"] == [] and result["odd_nonzero"] == []


def test_spectral_symmetry_c4_dirac():
    c = whitney_complex(ref.C4_EDGES)
    dirac, _ = dirac_and_hodge(exterior_derivative(c))
    assert spectral_symmetry_check(dirac)["pass"]


def test_spectral_symmetry_c4_deterministic():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    assert spectral_symmetry_check(cx.DX)["pass"]


def test_spectral_symmetry_rejects_parity_preserving_input():
    c = whitney_complex(ref.K2_EDGES)
    op = GradedOperator(np.eye(3, dtype=int), c, PRESERVES)
    with pytest.raises(ComplexError):
        spectral_symmetry_check(op)


def pairing_miss_case():
    """23 simplices whose numerical pairing of sigma(D_X) and -sigma(D_X)
    misses 1e-7 * scale: a defective cluster at 0 scatters the eigenvalues."""
    c = random_complex(5, 8, 29)
    ix = random_edge_field(c, (29, 1), integer_coeffs=True)
    return cartan(exterior_derivative(c), ix).DX


def test_spectral_symmetry_certificate_decides_when_pairing_misses():
    dx = pairing_miss_case()
    scale = max(1.0, float(np.max(np.abs(dx.matrix))))
    result = spectral_symmetry_check(dx)
    assert result["pass"]
    assert result["max_unpaired"] > 1e-7 * scale
    assert result["max_unpaired"] == pytest.approx(3.96242419822667e-06, rel=1e-3)


def test_spectral_symmetry_case_has_parity_symmetric_charpoly():
    # exact oracle: p(x) = +-p(-x), so every odd-index coefficient vanishes
    coeffs = sp.Matrix(pairing_miss_case().matrix.tolist()).charpoly().all_coeffs()
    assert all(coeffs[k] == 0 for k in range(1, len(coeffs), 2))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(FIELD_KINDS), p=st.floats(0.0, 1.0),
       support=st.sampled_from([(1, 3, 5, 7, 9), tuple(range(10)), (1, 2)]))
def test_cartan_identities_exact_on_integer_fields(n, m, seed, kind, p, support):
    c = random_complex(n, m, seed)
    d = exterior_derivative(c)
    ix = canonical_fields(c, kind, p, seed, support, integer_coeffs=True)
    cx = cartan(d, ix)
    dm, im, dx, lx = d.matrix, ix.matrix, cx.DX.matrix, cx.LX.matrix
    assert all(np.issubdtype(a.dtype, np.integer) for a in (dm, dx, lx))
    # the degree-block decision and the factorization against dense products
    assert ix.nilpotent_verified == (not np.any(im @ im))
    assert cx.factorization_holds == (not np.any(dx @ dx - lx))
    sign = (-1) ** c.degrees()
    assert np.array_equal(sign[:, None] * dx * sign[None, :], -dx)  # P D_X P = -D_X
    assert not np.any(dm @ dm)
    assert np.array_equal(lx @ dm, dm @ lx)
    assert spectral_symmetry_check(cx.DX)["pass"]


@pytest.mark.parametrize("seed", range(10))
def test_random_odd_field_spectral_properties(seed):
    c = random_complex(7, 12, (seed, 77))
    d = exterior_derivative(c)
    ix = random_edge_field(c, (seed, 78))
    cx = cartan(d, ix)
    assert euler_poincare_check(c, cx.LX)["pass"]
    assert mckean_singer_check(c, cx.LX)["pass"]
    assert spectral_symmetry_check(cx.DX)["pass"]


def test_spectral_report_shapes_and_json():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    report = spectral_report(c, cx.DX, cx.LX)
    assert [len(b) for b in report.per_degree_spectra] == list(c.f_vector)
    assert report.passed()
    payload = report.to_json()
    assert '"betti": [1, 1]' in payload


def test_spectral_report_eigensolves_each_degree_block_once(monkeypatch):
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return linalg.eigenvalues(a)

    monkeypatch.setattr(spectral, "eigenvalues", counting)
    c = random_complex(8, 12, 1)
    cx = cartan(exterior_derivative(c), random_edge_field(c, 1))
    spectral_report(c, cx.DX, cx.LX)
    # one call per degree block of L_X, plus one for D_X
    assert len(calls) == c.dimension + 2
    assert sorted(calls) == sorted([(f, f) for f in c.f_vector] + [(c.n, c.n)])
