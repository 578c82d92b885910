"""Per-simplex assembly of `d` and edge fields against the per-entry loops.

The oracles below are the original loops: `d` filled one entry at a time
through `Complex.index`, and edge fields built edge by edge with a scan of
every simplex.  The assembled matrices must equal them exactly, dtype
included, in both overwrite and accumulate mode and for int and float
coefficients, so the float summation order is part of the contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cartanflow import build_edge_field, exterior_derivative, random_complex
from cartanflow.complexes import _as_simplex
from cartanflow.fields import FieldError, InteriorDerivative

from reference_data import incidence_sign


def oracle_exterior_derivative(c):
    n = c.n
    d = np.zeros((n, n), dtype=int)
    for i, s in enumerate(c.simplices):
        if len(s) == 1:
            continue
        for pos in range(len(s)):
            facet = s[:pos] + s[pos + 1 :]
            d[i, c.index(facet)] = (-1) ** pos
    return d


def oracle_edge_field(c, coefficients, support=(1,), overwrite_order=True):
    support = frozenset(int(p) for p in support)
    n = c.n
    exact = all(isinstance(v, (int, np.integer)) for v in coefficients.values())
    ix = np.zeros((n, n), dtype=int if exact else float)
    edges = c.edges()
    edge_set = set(edges)
    keyed = {}
    for key, val in coefficients.items():
        e = _as_simplex(key)
        if e not in edge_set:
            raise FieldError(f"{e} is not an edge of the complex")
        keyed[e] = val
    for e in edges:
        if e not in keyed:
            continue
        coeff = keyed[e]
        u = e[0]
        for k, x in enumerate(c.simplices):
            if not set(e) <= set(x):
                continue
            y = tuple(v for v in x if v != u)
            m = c.index(y)
            value = (coeff if (len(x) - 1) in support else 0) * incidence_sign(x, y)
            if overwrite_order:
                ix[m, k] = value
            else:
                ix[m, k] += value
    return ix


def oracle_degree_shifts(matrix, c):
    """deg(row) - deg(col) at each nonzero entry, read from the simplices one entry at a time."""
    return [len(c.simplices[i]) - len(c.simplices[j]) for i, j in zip(*np.nonzero(matrix))]


def oracle_classify_grading(matrix, c):
    deg = c.degrees()
    rows, cols = np.nonzero(matrix)
    if len(rows) == 0:
        return "preserves-degree"
    shifts = set(int(deg[i] - deg[j]) for i, j in zip(rows, cols))
    if shifts == {0}:
        return "preserves-degree"
    if shifts == {1}:
        return "raises-degree"
    if shifts == {-1}:
        return "lowers-degree"
    return "mixed"


complexes = st.builds(
    random_complex,
    st.integers(2, 7),
    st.integers(1, 10),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=150, deadline=None)
@given(complexes)
def test_d_matches_per_entry_loop(c):
    d = exterior_derivative(c).matrix
    expected = oracle_exterior_derivative(c)
    assert d.dtype == expected.dtype
    assert np.array_equal(d, expected)


@settings(max_examples=300, deadline=None)
@given(
    complexes,
    st.integers(0, 2**32 - 1),
    st.floats(0.0, 1.0),
    st.sampled_from(["int", "float", "mixed"]),
    st.booleans(),
    st.booleans(),
)
def test_edge_field_matches_per_edge_loop(c, seed, keep, kind, overwrite_order, flip_keys):
    rng = np.random.default_rng(seed)
    coeffs = {}
    for u, v in c.edges():
        if rng.random() >= keep:
            continue
        key = (v, u) if flip_keys and rng.random() < 0.5 else (u, v)
        if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
            coeffs[key] = int(rng.integers(-3, 4))
        else:
            coeffs[key] = float(rng.standard_normal())
    support = [p for p in range(c.dimension + 2) if rng.random() < 0.6]
    ix = build_edge_field(c, coeffs, support, overwrite_order).matrix
    expected = oracle_edge_field(c, coeffs, support, overwrite_order)
    assert ix.dtype == expected.dtype
    assert np.array_equal(ix, expected)


@settings(max_examples=150, deadline=None)
@given(complexes, st.integers(0, 2**32 - 1))
def test_grading_scans_match_per_entry_sets(c, seed):
    rng = np.random.default_rng(seed)
    d = exterior_derivative(c).matrix
    candidates = [d, d.T, d @ d.T, d + d.T, np.zeros_like(d)]
    masked = [m * (rng.random(m.shape) < rng.random()) for m in candidates]
    assert c.degrees().dtype == np.dtype(int)
    assert c.degrees().tolist() == [len(s) - 1 for s in c.simplices]
    for m in candidates + masked:
        assert c.degree_shifts(m).tolist() == oracle_degree_shifts(m, c)
        try:
            InteriorDerivative.from_matrix(c, m)
            accepted = True
        except FieldError:
            accepted = False
        assert accepted == (oracle_classify_grading(m, c) == "lowers-degree" or not np.any(m))
