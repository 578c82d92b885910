import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanflow import (
    ComplexError,
    FieldError,
    GradedOperator,
    InteriorDerivative,
    adjoint_field,
    build_edge_field,
    canonical_fields,
    cartan,
    deterministic_field,
    dirac_and_hodge,
    exterior_derivative,
    generate_closure,
    lie_bracket,
    random_complex,
    random_edge_field,
    sparsified_adjoint_field,
    whitney_complex,
    zero_field,
)
from cartanflow.fields import FIELD_KINDS, ODD_DEGREES
from cartanflow.linalg import eigenvalues, pair_spectra
from cartanflow.verification import run_checks

import reference_data as ref
from strategies import complex_with_fields, integer_field, seeds


@pytest.fixture
def k2():
    return whitney_complex(ref.K2_EDGES)


@pytest.fixture
def c4():
    return whitney_complex(ref.C4_EDGES)


def test_from_matrix_rejects_a_degree_raising_matrix(c4):
    with pytest.raises(FieldError):
        InteriorDerivative.from_matrix(c4, exterior_derivative(c4).matrix)


@pytest.mark.parametrize("shape", [(8, 8), (3, 3), (7,)])
def test_from_matrix_rejects_a_wrong_shape_before_reading_its_grading(shape):
    c = random_complex(4, 4, 1)
    assert c.n == 7
    with pytest.raises(ComplexError):
        InteriorDerivative.from_matrix(c, np.ones(shape))


def test_interior_derivative_is_a_lowering_graded_operator(k2):
    ix = InteriorDerivative.from_matrix(k2, ref.k2_ix(0.5, -1.0))
    assert isinstance(ix, GradedOperator)
    assert set(k2.degree_shifts(ix.matrix).tolist()) == {-1}
    assert np.array_equal(ix.block(0, 1), ix.matrix[k2.block(0), k2.block(1)])


def test_build_edge_field_k2_single_entry(k2):
    ix = build_edge_field(k2, {(1, 2): 5}, support={1})
    expected = np.zeros((3, 3), dtype=int)
    expected[1, 2] = 5  # ({2}, {1,2})
    assert np.array_equal(ix.matrix, expected)


def test_build_edge_field_empty_support_is_zero(k2):
    ix = build_edge_field(k2, {(1, 2): 5}, support=set())
    assert not np.any(ix.matrix)


def test_random_edge_field_on_an_edgeless_complex_is_the_zero_field():
    c = random_complex(1, 1, 0)
    for integer_coeffs in (False, True):
        ix = random_edge_field(c, 0, integer_coeffs=integer_coeffs)
        zero = zero_field(c)
        assert ix.matrix.dtype == zero.matrix.dtype and np.array_equal(ix.matrix, zero.matrix)
        assert ix.nilpotent_verified


def test_build_edge_field_rejects_non_edges(k2):
    with pytest.raises(FieldError):
        build_edge_field(k2, {(1, 3): 1.0})


def test_build_edge_field_accumulate_vs_overwrite():
    c = generate_closure([(1, 2, 3)])
    coeffs = {(1, 2): 1, (1, 3): 1, (2, 3): 1}
    over = build_edge_field(c, coeffs, support={1}, overwrite_order=True)
    acc = build_edge_field(c, coeffs, support={1}, overwrite_order=False)
    # entry ({2},{1,2}) receives one write from edge {1,2} only
    assert over.matrix[c.index((2,)), c.index((1, 2))] == 1
    assert acc.matrix[c.index((2,)), c.index((1, 2))] == 1
    # both stay nilpotent on odd support
    assert over.nilpotent_verified and acc.nilpotent_verified


@pytest.mark.parametrize("seed", range(6))
def test_odd_support_forces_nilpotency(seed):
    c = random_complex(6, 10, seed)
    ix = random_edge_field(c, seed, support=(1, 3, 5))
    assert not np.any(ix.matrix @ ix.matrix)
    assert ix.nilpotent_verified


@settings(max_examples=150, deadline=None)
@given(complex_with_fields(), seeds)
def test_bracket_with_odd_supported_field_is_an_interior_derivative(drawn, seed):
    # the paper's claim: for Y on odd degrees, i_[X,Y] is again an inner derivative
    c, ix = drawn
    iy = integer_field(c, "accumulate", seed, 0.5, ODD_DEGREES)
    d = exterior_derivative(c)
    iz = cartan(d, ix).bracket(iy)
    # L_X keeps degree, so i_Z reads only the odd source degrees of i_Y
    assert not np.any(iz.matrix[:, c.degrees() % 2 == 0])
    assert iz.nilpotent_verified
    cz = cartan(d, iz)
    assert np.issubdtype(cz.DX.matrix.dtype, np.integer)
    assert np.array_equal(cz.DX.matrix @ cz.DX.matrix, cz.LX.matrix)


def bracket_defects(c, seeds, support):
    """(i_[X,Y] + i_[Y,X], cyclic Jacobi sum) for accumulate-mode integer X, Y, Z."""
    d = exterior_derivative(c)
    x, y, z = (integer_field(c, "accumulate", seed, 0.5, support) for seed in seeds)

    def br(a, b):
        return lie_bracket(a, b, d)

    return (br(x, y).matrix + br(y, x).matrix,
            sum(br(br(a, b), e).matrix for a, b, e in ((x, y, z), (y, z, x), (z, x, y))))


@settings(max_examples=100, deadline=None)
@given(complex_with_fields(count=0), st.tuples(seeds, seeds, seeds))
def test_odd_supported_brackets_are_antisymmetric_and_satisfy_jacobi(drawn, field_seeds):
    # README: i_X i_Y = i_Y i_X = 0 for X, Y both odd, and Jacobi follows from antisymmetry
    antisymmetry, jacobi = bracket_defects(drawn[0], field_seeds, ODD_DEGREES)
    assert np.issubdtype(jacobi.dtype, np.integer)
    assert not np.any(antisymmetry)
    assert not np.any(jacobi)


def test_all_degree_brackets_break_antisymmetry():
    # the draw above bites: with fields on every degree, i_X i_Y + i_Y i_X != 0
    broken = [bool(np.any(bracket_defects(random_complex(5, 8, s), (s, s + 1, s + 2),
                                          range(10))[0])) for s in range(10)]
    assert any(broken)


def test_deterministic_field_c4_entries(c4):
    ix = deterministic_field(c4)
    # vertex rows copy the first unit entry of d^T in canonical basis order
    dt = exterior_derivative(c4).matrix.T
    for k in range(4):
        cols = np.nonzero(ix.matrix[k])[0]
        assert len(cols) == 1
        first = np.nonzero(np.abs(dt[k]) == 1)[0][0]
        assert cols[0] == first and ix.matrix[k, first] == dt[k, first]
    assert not np.any(ix.matrix[4:])


def test_deterministic_field_k2(k2):
    ix = deterministic_field(k2)
    expected = np.zeros((3, 3), dtype=int)
    expected[0, 2] = -1
    expected[1, 2] = 1
    assert np.array_equal(ix.matrix, expected)


def test_deterministic_field_isolated_vertex():
    c = generate_closure([(1, 2), (3,)])
    ix = deterministic_field(c)
    assert not np.any(ix.matrix[c.index((3,))])


def test_adjoint_field_gives_hodge_laplacian(k2):
    d = exterior_derivative(k2)
    cx = cartan(d, adjoint_field(k2))
    _, hodge = dirac_and_hodge(d)
    assert np.array_equal(cx.LX.matrix, hodge.matrix)
    ev = eigenvalues(cx.LX.matrix.astype(float))
    ok, _ = pair_spectra(ev, [0, 2, 2], 1e-9)
    assert ok
    # exactly, in integers, on random complexes: `verify --field adjoint` is the Hodge case
    for n, m, seed in itertools.product((4, 6, 7), (5, 8), range(4)):
        c = random_complex(n, m, seed)
        d = exterior_derivative(c)
        lx = cartan(d, adjoint_field(c)).LX.matrix
        hodge = dirac_and_hodge(d)[1].matrix
        assert np.issubdtype(lx.dtype, np.integer) and np.issubdtype(hodge.dtype, np.integer)
        assert np.array_equal(lx, hodge), (n, m, seed)


def test_zero_field_gives_zero_lie_derivative(c4):
    d = exterior_derivative(c4)
    cx = cartan(d, zero_field(c4))
    assert not np.any(cx.LX.matrix)
    assert np.array_equal(cx.DX.matrix, d.matrix)


def test_sparsified_p1_is_adjoint(c4):
    full = sparsified_adjoint_field(c4, 1.0, 0)
    assert np.array_equal(full.matrix, adjoint_field(c4).matrix)
    assert np.array_equal(canonical_fields(c4, "sparsified", p=1.0).matrix, full.matrix)


def test_canonical_fields_rejects_unknown_kind(c4):
    with pytest.raises(FieldError):
        canonical_fields(c4, "nope")


def test_sparsified_is_seeded_subset(c4):
    dt = exterior_derivative(c4).matrix.T
    sub = sparsified_adjoint_field(c4, 0.5, 123)
    again = sparsified_adjoint_field(c4, 0.5, 123)
    assert np.array_equal(sub.matrix, again.matrix)
    mask = sub.matrix != 0
    assert np.array_equal(sub.matrix[mask], dt[mask])


def test_k2_parametric_cartan(k2):
    a, b = 0.81, -0.35
    d = exterior_derivative(k2)
    ix = InteriorDerivative.from_matrix(k2, ref.k2_ix(a, b))
    cx = cartan(d, ix)
    assert np.allclose(cx.LX.matrix, ref.k2_lx(a, b))
    assert cx.iX.nilpotent_verified


def test_path_graph_parametric_cartan():
    c = generate_closure(ref.PATH_EDGES)
    coeffs = (0.3, -0.7, 0.45, 0.9)
    d = exterior_derivative(c)
    ix = InteriorDerivative.from_matrix(c, ref.path_ix(*coeffs))
    cx = cartan(d, ix)
    assert np.allclose(cx.LX.matrix, ref.path_lx(*coeffs))
    assert cx.LX.matrix[3, 4] == pytest.approx(-coeffs[1])  # entry (4,5) = -a2


def test_cartan_rejects_mismatched_complexes(k2, c4):
    with pytest.raises(FieldError):
        cartan(exterior_derivative(k2), zero_field(c4))


def test_cartan_flags_broken_factorization():
    c = generate_closure([(1, 2, 3)])
    d = exterior_derivative(c)
    ix = adjoint_field(c)  # i_X = d^T has i_X^2 = 0, factorization holds
    assert cartan(d, ix).iX.nilpotent_verified
    # accumulated edge coefficients 1..3 on degrees 1 and 2 give i_X^2 != 0
    coeffs = {e: k for k, e in enumerate(c.edges(), start=1)}
    cx = cartan(d, build_edge_field(c, coeffs, support=(1, 2), overwrite_order=False))
    assert not cx.iX.nilpotent_verified
    assert np.any(cx.DX.matrix @ cx.DX.matrix - cx.LX.matrix)


def test_factorization_iff_nilpotent():
    c = generate_closure([(1, 2, 3)])
    d = exterior_derivative(c)
    rng = np.random.default_rng(8)
    seen = set()
    for k in range(10):
        m = np.zeros((7, 7))
        # arbitrary grading-lowering operator: vertex<-edge and edge<-triangle
        m[0:3, 3:6] = rng.standard_normal((3, 3))
        m[3:6, 6] = rng.standard_normal(3)
        if k % 2:
            m[3:6, 6] = 0  # only vertex<-edge is left, so i_X^2 = 0
        ix = InteriorDerivative.from_matrix(c, m)
        cx = cartan(d, ix)
        dx, lx = cx.DX.matrix, cx.LX.matrix
        assert cx.iX.nilpotent_verified == (not np.any(dx @ dx - lx))
        seen.add(cx.iX.nilpotent_verified)
    assert seen == {True, False}


def test_k2_lie_bracket_entries(k2):
    a, b, u, v = 0.4, -1.1, 0.25, 0.6
    d = exterior_derivative(k2)
    ix = InteriorDerivative.from_matrix(k2, ref.k2_ix(a, b))
    iy = InteriorDerivative.from_matrix(k2, ref.k2_ix(u, v))
    iz = lie_bracket(ix, iy, d)
    assert np.allclose(iz.matrix, ref.k2_iz(a, b, u, v))


def test_path_graph_bracket_entry():
    c = generate_closure(ref.PATH_EDGES)
    d = exterior_derivative(c)
    a = (0.3, -0.7, 0.45, 0.9)
    b = (0.2, 0.5, -0.6, 0.15)
    ix = InteriorDerivative.from_matrix(c, ref.path_ix(*a))
    iy = InteriorDerivative.from_matrix(c, ref.path_ix(*b))
    iz = lie_bracket(ix, iy, d)
    assert iz.matrix[1, 3] == pytest.approx(ref.path_iz_entry_vertex2(a, b))


def test_bracket_with_self_is_zero():
    c = random_complex(5, 8, 17)
    d = exterior_derivative(c)
    ix = random_edge_field(c, 3)
    iz = lie_bracket(ix, ix, d)
    assert np.allclose(iz.matrix, 0)


@pytest.mark.parametrize("seed", range(5))
def test_lie_algebra_identities_for_odd_fields(seed):
    c = random_complex(6, 10, (seed, 99))
    d = exterior_derivative(c)
    ix = random_edge_field(c, (seed, 1), integer_coeffs=True)
    iy = random_edge_field(c, (seed, 2), integer_coeffs=True)
    lx = cartan(d, ix).LX.matrix
    ly = cartan(d, iy).LX.matrix
    iz = lie_bracket(ix, iy, d)
    cz = cartan(d, iz)
    # both bracket formulas agree when i_X i_Y = i_Y i_X = 0
    alt = ix.matrix @ ly - ly @ ix.matrix
    assert np.array_equal(iz.matrix, alt)
    assert np.array_equal(cz.LX.matrix, lx @ ly - ly @ lx)
    assert not np.any(iz.matrix @ iz.matrix)
    assert np.array_equal(cz.DX.matrix @ cz.DX.matrix, cz.LX.matrix)
    assert not np.any(np.linalg.matrix_power(iz.matrix, 1 + c.dimension))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(FIELD_KINDS), integer=st.booleans(),
       support=st.sampled_from([(1, 3, 5, 7, 9), tuple(range(10)), (1, 2)]))
def test_bracket_nilpotency_certificate_matches_dense_power(n, m, seed, kind, integer, support):
    # i_Z lowers degree by one, so run_checks reports i_Z^(dim+1) = 0 unmultiplied
    c = random_complex(n, m, seed)
    ix = canonical_fields(c, kind, 0.5, seed, support, integer)
    iy = random_edge_field(c, (seed, 1), support, integer)
    power = np.linalg.matrix_power(lie_bracket(ix, iy, exterior_derivative(c)).matrix,
                                   1 + c.dimension)
    (chk,) = [chk for chk in run_checks(c, ix, iy)["checks"]
              if chk["name"] == "bracket_nilpotency"]
    assert chk == {"name": "bracket_nilpotency", "pass": True,
                   "residual": float(np.max(np.abs(power)))}


def test_lie_derivative_commutes_with_d_without_nilpotency():
    c = generate_closure([(1, 2, 3), (2, 3, 4)])
    d = exterior_derivative(c)
    # accumulated edge coefficients 1..k on degrees 1 and 2 give i_X^2 != 0;
    # L_X d = d L_X needs only d^2 = 0
    coeffs = {e: k for k, e in enumerate(c.edges(), start=1)}
    ix = build_edge_field(c, coeffs, support=(1, 2), overwrite_order=False)
    assert not ix.nilpotent_verified
    lx = cartan(d, ix).LX.matrix
    assert np.array_equal(lx @ d.matrix, d.matrix @ lx)


def _lie_algebra_defects(d, ix, iy, iw):
    """i_[X,Y] + i_[Y,X] and the Jacobiator of the bracket on interior derivatives."""
    def bracket(a, b):
        return lie_bracket(a, b, d)

    antisymmetry = bracket(ix, iy).matrix + bracket(iy, ix).matrix
    jacobi = sum(bracket(a, bracket(b, e)).matrix
                 for a, b, e in ((ix, iy, iw), (iy, iw, ix), (iw, ix, iy)))
    return antisymmetry, jacobi


@settings(max_examples=100, deadline=None)
@given(complex_with_fields(count=3))
def test_cartan_map_sends_lie_algebra_defects_to_zero(drawn):
    # L_{i_[X,Y]} = [L_X, L_Y] since d^2 = 0, so both defects lie in the kernel
    # of the Cartan map i -> d i + i d: the Lie algebra lives on the L_X
    c, ix, iy, iw = drawn
    d = exterior_derivative(c)
    for defect in _lie_algebra_defects(d, ix, iy, iw):
        assert np.issubdtype(defect.dtype, np.integer)
        assert not np.any(d.matrix @ defect + defect @ d.matrix)


def test_bracket_on_interior_derivatives_is_neither_antisymmetric_nor_jacobi():
    c = random_complex(5, 6, 0)
    d = exterior_derivative(c)
    x, y, w = (random_edge_field(c, (0, k), tuple(range(10)), integer_coeffs=True)
               for k in range(3))
    antisymmetry, _ = _lie_algebra_defects(d, adjoint_field(c), y, w)
    _, jacobi = _lie_algebra_defects(d, x, y, w)
    for defect in (antisymmetry, jacobi):
        assert np.any(defect)
        assert not np.any(d.matrix @ defect + defect @ d.matrix)
