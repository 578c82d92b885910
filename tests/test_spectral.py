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
from cartanflow.exterior import GradedOperator
from cartanflow.spectral import algebraic_kernel_vector, degree_spectra

import reference_data as ref
from strategies import complex_with_fields

X = sp.Symbol("x")


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
    # D_X = d + i_X shifts degree by +-1, so it has no degree blocks to read either
    c = random_complex(5, 8, 3)
    cx = cartan(exterior_derivative(c), random_edge_field(c, 1))
    for by_blocks in (betti_vector, degree_spectra):
        with pytest.raises(ComplexError):
            by_blocks(c, cx.DX)


@pytest.mark.parametrize("seed", range(5))
def test_hodge_betti_matches_rank_formula(seed):
    c = random_complex(6, 10, (seed, 5))
    d = exterior_derivative(c)
    cx = cartan(d, adjoint_field(c))
    assert betti_vector(c, cx.LX) == classical_betti(c, d)


def test_classical_betti_on_1679_simplices():
    # the largest rung: sparse d blocks up to 443 columns, ranked exactly
    c = random_complex(12, 30, 1)
    assert c.f_vector == (12, 66, 209, 384, 443, 332, 166, 55, 11, 1)
    assert classical_betti(c, exterior_derivative(c)) == [1, 0, 2, 0, 0, 0, 0, 0, 0, 0]


def test_euler_poincare_c4_deterministic():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    result = euler_poincare_check(c, cx)
    assert result["betti"] == [1, 1]
    assert result["chi_f"] == 0 == result["chi_betti"]
    assert result["pass"]


def test_euler_poincare_k2_generic():
    c = whitney_complex(ref.K2_EDGES)
    d = exterior_derivative(c)
    from cartanflow import InteriorDerivative

    ix = InteriorDerivative.from_matrix(c, ref.k2_ix(0.7, -0.2))
    cx = cartan(d, ix)
    result = euler_poincare_check(c, cx)
    assert result["betti"] == [1, 0]
    assert result["chi_f"] == 1 == result["chi_betti"]



def test_euler_poincare_counts_jordan_block_at_zero():
    # L_X has a Jordan block at 0 on 1-forms: the geometric kernel [2, 1, 0, 0]
    # sums to 1, the algebraic kernel [2, 2, 0, 0] to chi_f = 0
    c = random_complex(5, 8, 19)
    ix = canonical_fields(c, "sparsified", 0.5, (19, 0))
    cx = cartan(exterior_derivative(c), ix)
    result = euler_poincare_check(c, cx)
    assert result["betti"] == [2, 1, 0, 0]
    assert algebraic_kernel_vector(c, cx.LX) == [2, 2, 0, 0]
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
    # fall under the rank tolerance of L_X^2, but neither kernel count takes it for 0
    c = random_complex(5, 8, (236, 5))
    ix = random_edge_field(c, (236, 6), support=range(10))
    cx = cartan(exterior_derivative(c), ix)
    result = euler_poincare_check(c, cx)
    assert result["betti"] == algebraic_kernel_vector(c, cx.LX) == [1, 0, 0]
    assert result["pass"]


def test_betti_of_large_integer_block_is_exact():
    # products of entries 2^32 wrap to 0 in int64; the rank is taken on Python ints
    c = Complex.from_simplices([(1,), (2,)])
    lx = GradedOperator(np.array([[2**32, 2**32], [0, 0]]), c)
    assert betti_vector(c, lx) == [1]


@pytest.mark.parametrize("n, m, seed, kind", [
    (5, 8, 19, "sparsified"), (6, 10, 3, "adjoint"), (6, 10, 3, "edge-random")])
def test_spectral_report_ranks_each_degree_block_once(monkeypatch, n, m, seed, kind):
    # exact ranks go to the geometric betti vector only, one per degree block
    calls, exact_rank = [], linalg.exact_rank

    def counting(a):
        calls.append(np.shape(a))
        return exact_rank(a)

    monkeypatch.setattr(linalg, "exact_rank", counting)
    monkeypatch.setattr(spectral, "exact_rank", counting, raising=False)
    c = random_complex(n, m, seed)
    ix = canonical_fields(c, kind, 0.5, (seed, 0), integer_coeffs=True)
    assert np.issubdtype(ix.matrix.dtype, np.integer)
    spectral_report(c, cartan(exterior_derivative(c), ix))
    assert len(calls) == c.dimension + 1


def paired_mckean_singer(c, cx, tol=1e-7):
    """The McKean-Singer certificate, plus the numerical pairing it no longer judges."""
    result = mckean_singer_check(c, cx, tol)
    assert result["pass"]
    assert result["residual"] <= tol * max(1.0, float(np.max(np.abs(cx.LX.matrix))))
    return result


def test_mckean_singer_c4_deterministic_blocks():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    result = paired_mckean_singer(c, cx)
    assert np.allclose(sorted(z.real for z in result["even_nonzero"]), [1, 1, 2])
    assert np.allclose(sorted(z.real for z in result["odd_nonzero"]), [1, 1, 2])


def test_mckean_singer_k2_parametric():
    c = whitney_complex(ref.K2_EDGES)
    from cartanflow import InteriorDerivative

    a, b = -0.3, 0.9
    cx = cartan(exterior_derivative(c), InteriorDerivative.from_matrix(c, ref.k2_ix(a, b)))
    result = paired_mckean_singer(c, cx)
    assert np.allclose([z.real for z in result["even_nonzero"]], [b - a])
    assert np.allclose([z.real for z in result["odd_nonzero"]], [b - a])


def test_mckean_singer_zero_field_is_empty():
    c = random_complex(5, 8, 31)
    cx = cartan(exterior_derivative(c), zero_field(c))
    result = paired_mckean_singer(c, cx)
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
    op = GradedOperator(np.eye(3, dtype=int), c)
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
@given(complex_with_fields(n=st.integers(1, 6), m=st.integers(1, 8)))
def test_cartan_identities_exact_on_integer_fields(drawn):
    c, ix = drawn
    d = exterior_derivative(c)
    cx = cartan(d, ix)
    dm, im, dx, lx = d.matrix, ix.matrix, cx.DX.matrix, cx.LX.matrix
    assert all(np.issubdtype(a.dtype, np.integer) for a in (dm, dx, lx))
    # the degree-block decision and the factorization against dense products
    assert ix.nilpotent_verified == (not np.any(im @ im))
    assert cx.iX.nilpotent_verified == (not np.any(dx @ dx - lx))
    sign = (-1) ** c.degrees()
    assert np.array_equal(sign[:, None] * dx * sign[None, :], -dx)  # P D_X P = -D_X
    assert not np.any(dm @ dm)
    assert np.array_equal(lx @ dm, dm @ lx)
    assert spectral_symmetry_check(cx.DX)["pass"]
    # so the report states the symmetry as a structural certificate, unmeasured
    checks, _, _ = spectral_report(c, cx)
    (sym,) = [chk for chk in checks if chk["name"] == "spectral_symmetry"]
    assert sym == {"name": "spectral_symmetry", "pass": True, "residual": 0.0}


@pytest.mark.parametrize("seed", range(10))
def test_random_odd_field_spectral_properties(seed):
    c = random_complex(7, 12, (seed, 77))
    d = exterior_derivative(c)
    ix = random_edge_field(c, (seed, 78))
    cx = cartan(d, ix)
    assert euler_poincare_check(c, cx)["pass"]
    paired_mckean_singer(c, cx)
    assert spectral_symmetry_check(cx.DX)["pass"]


def block_charpolys(c, lx):
    """The sympy char-poly of each degree block of lx."""
    return [sp.Matrix(lx[c.block(p), c.block(p)].tolist()).charpoly(X)
            for p in range(c.dimension + 1)]


def nonzero_charpoly(polys):
    """Product of char-polys with the powers of x stripped: it carries the
    nonzero spectrum exactly."""
    poly = sp.Poly(1, X)
    for q in polys:
        poly *= q
    coeffs = poly.all_coeffs()
    while coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def zero_multiplicity(poly):
    """Algebraic multiplicity of the eigenvalue 0: the power of x dividing poly."""
    coeffs = poly.all_coeffs()[::-1]
    return next(k for k, a in enumerate(coeffs) if a != 0)


@settings(max_examples=150, deadline=None)
@given(complex_with_fields())
def test_mckean_singer_certificate_agrees_with_exact_charpolys(drawn):
    c, ix = drawn
    cx = cartan(exterior_derivative(c), ix)
    lx = cx.LX.matrix
    assert np.issubdtype(lx.dtype, np.integer)
    polys = block_charpolys(c, lx)
    assert nonzero_charpoly(polys[0::2]) == nonzero_charpoly(polys[1::2])
    assert mckean_singer_check(c, cx)["pass"]
    # Euler-Poincare: the exact algebraic kernels sum to chi, as the certificate says
    chi = sum((-1) ** k * zero_multiplicity(q) for k, q in enumerate(polys))
    assert chi == c.euler_characteristic()
    assert euler_poincare_check(c, cx)["pass"]


def test_mckean_singer_certificate_decides_when_pairing_misses(capsys):
    from cartanflow.cli import main

    # sparsified d^T on 31 simplices: L_X has a defective nonzero cluster, so the
    # computed even and odd spectra pair only to 6.3e-6, far past 1e-7 * scale
    c = random_complex(5, 8, 13)
    lx = cartan(exterior_derivative(c), canonical_fields(c, "sparsified", 0.5, (13, 0))).LX
    polys = block_charpolys(c, lx.matrix)
    assert nonzero_charpoly(polys[0::2]) == nonzero_charpoly(polys[1::2])
    code = main(["verify", "--n", "5", "--m", "8", "--seed", "13", "--field", "sparsified"])
    report = json.loads(capsys.readouterr().out)
    (ms,) = [chk for chk in report["checks"] if chk["name"] == "mckean_singer"]
    assert ms["pass"]
    assert ms["residual"] == pytest.approx(6.3e-6, rel=0.05)
    assert ms["residual"] > 1e-7 * max(1.0, float(np.max(np.abs(lx.matrix))))
    assert code == 0


def test_mckean_singer_residual_is_null_when_the_counts_differ(capsys):
    from cartanflow.cli import main

    # at --tol 0 the even and odd nonzero counts differ by one, as the
    # Euler-Poincare residual shows, so no pairing exists to measure
    code = main(["verify", "--n", "5", "--m", "8", "--seed", "0", "--field", "adjoint",
                 "--tol", "0"])
    checks = {chk["name"]: chk for chk in json.loads(capsys.readouterr().out)["checks"]}
    assert checks["euler_poincare"]["residual"] == 1
    assert checks["mckean_singer"] == {"name": "mckean_singer", "pass": True, "residual": None}
    assert code == 0


@settings(max_examples=150, deadline=None)
@given(complex_with_fields())
def test_generalized_kernel_lies_between_betti_and_f_vector(drawn):
    """b_p(G) <= dim genker L_X|Lambda^p <= f_p, and the alternating sum is chi.

    The oracle is exact: L_p^k stops shrinking by k = f_p, so
    dim genker L_p = f_p - rank(L_p^f_p), ranked on Python ints.
    """
    c, ix = drawn
    d = exterior_derivative(c)
    lx = cartan(d, ix).LX
    genker = [f - linalg.exact_rank(np.linalg.matrix_power(lx.block(p, p).astype(object), f))
              for p, f in enumerate(c.f_vector)]
    assert all(b <= g <= f for b, g, f in zip(classical_betti(c, d), genker, c.f_vector))
    assert sum((-1) ** p * g for p, g in enumerate(genker)) == c.euler_characteristic()


def test_mckean_singer_fails_without_d_squared_zero():
    # an operator in the place of d with d^2 != 0 breaks the certificate of both checks
    c = whitney_complex([(1, 2), (1, 3), (2, 3)])
    d = exterior_derivative(c)
    broken = GradedOperator(np.abs(d.matrix), c)
    assert np.any(broken.matrix @ broken.matrix)
    for check in (mckean_singer_check, euler_poincare_check):
        assert not check(c, cartan(broken, zero_field(c)))["pass"]
        assert check(c, cartan(d, zero_field(c)))["pass"]


def test_spectral_report_shapes_and_json():
    c = whitney_complex(ref.C4_EDGES)
    cx = cartan(exterior_derivative(c), deterministic_field(c))
    checks, _, data = spectral_report(c, cx)
    assert [len(b) for b in data["per_degree_spectra"]] == list(c.f_vector)
    assert all(chk["pass"] for chk in checks if not chk.get("informational"))
    payload = json.dumps(data)
    assert '"betti": [1, 1]' in payload


def test_spectral_report_eigensolves_each_degree_block_once(monkeypatch):
    calls = []

    def counting(a):
        calls.append(np.shape(a))
        return linalg.eigenvalues(a)

    monkeypatch.setattr(spectral, "eigenvalues", counting)
    c = random_complex(8, 12, 1)
    cx = cartan(exterior_derivative(c), random_edge_field(c, 1))
    spectral_report(c, cx)
    # one call per degree block of L_X and none for the n x n D_X
    assert len(calls) == c.dimension + 1
    assert sorted(calls) == sorted((f, f) for f in c.f_vector)
    assert (c.n, c.n) not in calls
