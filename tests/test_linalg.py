import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanflow import cartan, exterior_derivative, linalg

from strategies import complex_with_fields


def sympy_eigenvalues(matrix):
    """Exact characteristic-polynomial roots, the small-n oracle."""
    ev = sp.Matrix(matrix.tolist()).eigenvals(multiple=True)
    return np.array(sorted((complex(sp.N(x)) for x in ev), key=lambda z: (z.real, z.imag)))


def test_eigenvalues_rotation_generator():
    ev = linalg.eigenvalues(np.array([[0, 1], [-1, 0]]))
    ok, worst = linalg.pair_spectra(ev, [-1j, 1j], 1e-12)
    assert ok, worst


def test_eigenvalues_identity():
    assert np.allclose(linalg.eigenvalues(np.eye(5)), np.ones(5))


def test_eigenvalues_against_characteristic_polynomial():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.integers(-3, 4, size=(5, 5))
        ok, worst = linalg.pair_spectra(linalg.eigenvalues(a), sympy_eigenvalues(a), 1e-9)
        assert ok, worst


# a small pool forces exact ties in both parts, signed zeros among them
_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                   st.floats(allow_nan=False, width=64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(complex, _PARTS, _PARTS), min_size=1, max_size=12))
def test_eigenvalues_sort_matches_python_sort(values):
    """The (Re, Im) order equals the stable Python sort, bit for bit."""
    raw = np.array(values, dtype=complex)
    oracle = np.array(sorted(raw, key=lambda z: (z.real, z.imag)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", lambda a: raw.copy())
        ev = linalg.eigenvalues(np.zeros((len(values), len(values))))
    assert ev.dtype == oracle.dtype
    assert ev.tobytes() == oracle.tobytes()


def test_eigenvalues_trace_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((8, 8))
    ev = linalg.eigenvalues(a)
    assert abs(ev.sum() - np.trace(a)) <= 1e-7 * max(1.0, np.linalg.norm(a))


def test_eigenvalues_rejects_nonfinite():
    with pytest.raises(linalg.LinalgError):
        linalg.eigenvalues(np.array([[np.nan, 0], [0, 1]]))


def test_kernel_dimension_trivial():
    assert linalg.kernel_dimension(np.zeros((4, 4))) == 4
    assert linalg.kernel_dimension(np.eye(4)) == 0


def test_kernel_dimension_rejects_non_square():
    with pytest.raises(linalg.LinalgError):
        linalg.kernel_dimension(np.ones((2, 3)))


def test_kernel_dimension_c4_vertex_block():
    block = np.array([[1, -1, 0, 0], [-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1]])
    # oracle: exact nullspace over the rationals
    assert len(sp.Matrix(block.tolist()).nullspace()) == 1
    assert linalg.kernel_dimension(block) == 1


def test_exact_rank_matches_sympy():
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = rng.integers(-2, 3, size=(6, 6))
        assert linalg.exact_rank(a) == sp.Matrix(a.tolist()).rank()


def test_rank_plus_kernel_is_order_in_exact_mode():
    rng = np.random.default_rng(3)
    a = rng.integers(-2, 3, size=(7, 7))
    assert linalg.rank(a) + linalg.kernel_dimension(a) == 7


def test_pseudo_inverse_invertible_case():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 5)) + 5 * np.eye(5)
    v = rng.standard_normal(5)
    assert np.allclose(linalg.apply_pseudo_inverse(a, v), np.linalg.solve(a, v))


def test_pseudo_inverse_zero_vector():
    assert np.allclose(linalg.apply_pseudo_inverse(np.ones((3, 3)), np.zeros(3)), 0)


def test_pseudo_inverse_rejects_wrong_vector_length():
    with pytest.raises(linalg.LinalgError):
        linalg.apply_pseudo_inverse(np.eye(3), np.ones(2))


def test_pseudo_inverse_k2_dirac_least_squares():
    d = np.array([[0, 0, 0], [0, 0, 0], [-1, 1, 0]])
    dirac = (d + d.T).astype(float)
    v = dirac @ np.array([1.0, 0.0, 0.0])
    x = linalg.apply_pseudo_inverse(dirac, v)
    assert np.linalg.norm(dirac @ x - v) <= 1e-9 * max(1.0, np.linalg.norm(v))
    # minimal norm: solving the normal equations with lstsq oracle
    oracle = np.linalg.pinv(dirac) @ v
    assert np.allclose(x, oracle, atol=1e-10)


def test_matrix_exponential_basics():
    assert np.allclose(linalg.matrix_exponential(np.zeros((3, 3))), np.eye(3))
    diag = np.diag([0.3, -1.2, 2.0])
    assert np.allclose(linalg.matrix_exponential(diag), np.diag(np.exp(np.diag(diag))))


def test_matrix_exponential_rotation():
    t = 0.7
    e = linalg.matrix_exponential(np.array([[0, t], [-t, 0]]))
    expected = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.allclose(e, expected, atol=1e-12)


def test_matrix_exponential_inverse_identity():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    a *= 1.5 / np.linalg.norm(a)
    prod = linalg.matrix_exponential(a) @ linalg.matrix_exponential(-a)
    bound = 1e-10 * np.exp(2 * np.linalg.norm(a))
    assert np.max(np.abs(prod - np.eye(6))) <= bound


def test_matrix_exponential_group_property():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 5))
    a *= 2.0 / np.linalg.norm(a)
    s, t = 0.4, 0.35
    lhs = linalg.matrix_exponential(a * (s + t))
    rhs = linalg.matrix_exponential(a * s) @ linalg.matrix_exponential(a * t)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_rk4_trivial_cases():
    x = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(linalg.rk4_step(lambda m: 0 * m, x, 0.1), x)
    b = np.zeros((3, 3))
    assert np.array_equal(linalg.rk4_step(lambda m: b @ m - m @ b, x, 0.1), x)


def test_rk4_leaves_complex_x_unmodified():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    before = x.copy()
    for f in (lambda m: b @ m - m @ b, lambda m: m):
        linalg.rk4_step(f, x, 0.1)
        assert np.array_equal(x, before)


def test_rk4_scalar_linear_is_degree4_taylor():
    h = 0.1
    got = linalg.rk4_step(lambda x: x, np.array(1.0), h)
    expected = 1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert got == pytest.approx(expected, abs=1e-15)
    assert got == pytest.approx(1.1051708333333332, abs=1e-12)


def test_rk4_fifth_order_local_error():
    lam = -0.8
    exact = lambda h: np.exp(lam * h)
    err = lambda h: abs(linalg.rk4_step(lambda x: lam * x, np.array(1.0), h) - exact(h))
    ratio = err(0.2) / err(0.1)
    assert 25 <= ratio <= 40  # ~2^5


def test_pair_spectra_reports_worst_distance():
    ok, worst = linalg.pair_spectra([1, 2, 3], [1, 2, 3.5], 0.1)
    assert not ok and worst == pytest.approx(0.5)
    ok, worst = linalg.pair_spectra([1j, -1j], [-1j, 1j], 1e-12)
    assert ok and worst == 0.0


def _int_matrix(rows, cols, entries):
    return np.array(entries, dtype=object).reshape(rows, cols)


@st.composite
def integer_matrices(draw):
    """Tall, wide, empty and all-zero matrices, and rank-deficient products
    of entries up to 10^9, whose products overflow int64."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    bound = draw(st.sampled_from([1, 3, 10**9]))
    entries = st.integers(-bound, bound)
    shape = draw(st.sampled_from(["plain", "product", "zero"]))
    if shape == "zero":
        return _int_matrix(rows, cols, [0] * (rows * cols))
    if shape == "product":
        inner = draw(st.integers(0, 4))
        a = _int_matrix(rows, inner, draw(st.lists(entries, min_size=rows * inner,
                                                   max_size=rows * inner)))
        b = _int_matrix(inner, cols, draw(st.lists(entries, min_size=inner * cols,
                                                   max_size=inner * cols)))
        return a @ b if inner else _int_matrix(rows, cols, [0] * (rows * cols))
    return _int_matrix(rows, cols, draw(st.lists(entries, min_size=rows * cols,
                                                 max_size=rows * cols)))


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_exact_rank_matches_sympy_property(a):
    expected = sp.Matrix(a.shape[0], a.shape[1], a.ravel().tolist()).rank()
    assert linalg.exact_rank(a) == expected
    if a.size and max(abs(x) for x in a.ravel()) < 2**62:
        assert linalg.rank(a.astype(np.int64)) == expected


@settings(max_examples=100, deadline=None)
@given(complex_with_fields())
def test_exact_rank_matches_sympy_on_operator_blocks(drawn):
    """The pivot rule acts on sparsity, so rank the sparse blocks of d and of
    an integer L_X, not only dense draws."""
    c, ix = drawn
    d = exterior_derivative(c)
    lx = cartan(d, ix).LX
    blocks = [d.block(p + 1, p) for p in range(c.dimension)]
    for a in blocks + [lx.block(p, p) for p in range(c.dimension + 1)]:
        assert linalg.exact_rank(a) == sp.Matrix(*a.shape, a.ravel().tolist()).rank()
