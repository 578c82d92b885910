"""Frozen worked-example matrices and spectra used across the test suite.

The C4 matrices are listed in their source basis order
[{1},{2},{3},{4},{1,2},{2,3},{3,4},{4,1}], which differs from the
canonical (cardinality, lex) basis by a permutation of the edges and an
orientation flip on the edge written as (4,1).  `c4_basis_change` maps
between the two.  `incidence_sign` is the per-entry sign oracle for `d`.
"""

import numpy as np

from cartanflow.complexes import _as_simplex


def incidence_sign(a, b) -> int:
    """+/-1 if b is a facet of a (sign of the missing vertex's position), else 0."""
    a = _as_simplex(a)
    b = _as_simplex(b)
    if len(a) != len(b) + 1 or not set(b) <= set(a):
        return 0
    (z,) = set(a) - set(b)
    return (-1) ** a.index(z)


# ---------------------------------------------------------------- K2
K2_EDGES = [(1, 2)]

K2_D = np.array([[0, 0, 0], [0, 0, 0], [-1, 1, 0]])


def k2_ix(a, b):
    m = np.zeros((3, 3))
    m[0, 2] = a
    m[1, 2] = b
    return m


def k2_lx(a, b):
    return np.array([[-a, a, 0], [-b, b, 0], [0, 0, b - a]])


def k2_iz(a, b, u, v):
    m = np.zeros((3, 3))
    m[0, 2] = a * v - b * u
    m[1, 2] = a * v - b * u
    return m


# ------------------------------------------------- path graph 1-2, 1-3
PATH_EDGES = [(1, 2), (1, 3)]

PATH_D = np.zeros((5, 5), dtype=int)
PATH_D[3, 0] = -1
PATH_D[3, 1] = 1
PATH_D[4, 0] = -1
PATH_D[4, 2] = 1


def path_ix(a1, a2, a3, a6):
    m = np.zeros((5, 5))
    m[0, 3] = a1
    m[0, 4] = a2
    m[1, 3] = a3
    m[2, 4] = a6
    return m


def path_lx(a1, a2, a3, a6):
    return np.array([
        [-a1 - a2, a1, a2, 0, 0],
        [-a3, a3, 0, 0, 0],
        [-a6, 0, a6, 0, 0],
        [0, 0, 0, a3 - a1, -a2],
        [0, 0, 0, -a1, a6 - a2],
    ])


def path_lx_eigenvalues(a1, a2, a3, a6):
    """{0} plus two doubled roots, from the closed-form discriminant."""
    disc = a1**2 + 2 * a1 * (a2 - a3 + a6) + (a2 + a3 - a6) ** 2
    root = np.sqrt(complex(disc))
    lam_p = (root - a1 - a2 + a3 + a6) / 2
    lam_m = (-root - a1 - a2 + a3 + a6) / 2
    return np.array([0, lam_p, lam_p, lam_m, lam_m])


def path_iz_entry_vertex2(a, b):
    """Entry (vertex 2, edge {1,2}) of the bracket: a1*b3 - a3*b1."""
    return a[0] * b[2] - a[2] * b[0]


# ---------------------------------------------------------------- C4
C4_EDGES = [(1, 2), (2, 3), (3, 4), (4, 1)]

C4_LISTED_BASIS = [(1,), (2,), (3,), (4,), (1, 2), (2, 3), (3, 4), (4, 1)]

C4_D = np.array([
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 1, 0, 0, 0, 0],
    [1, 0, 0, -1, 0, 0, 0, 0],
])

C4_IX = np.array([
    [0, 0, 0, 0, -1, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0],
    [0, 0, 0, 0, 0, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0],
])

C4_DX = C4_D + C4_IX

# Literal listings of D = d + d^T, L = D^2 and L_X = D_X^2 in the same basis.
C4_DIRAC = np.array([
    [0, 0, 0, 0, -1, 0, 0, 1],
    [0, 0, 0, 0, 1, -1, 0, 0],
    [0, 0, 0, 0, 0, 1, -1, 0],
    [0, 0, 0, 0, 0, 0, 1, -1],
    [-1, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 1, 0, 0, 0, 0],
    [1, 0, 0, -1, 0, 0, 0, 0],
])

C4_HODGE = np.array([
    [2, -1, 0, -1, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [-1, 0, -1, 2, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, -1],
    [0, 0, 0, 0, -1, 0, -1, 2],
])

C4_LX = np.array([
    [1, -1, 0, 0, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 2, 0, 0, 0],
    [0, 0, 0, 0, -1, 1, 0, 0],
    [0, 0, 0, 0, 0, -1, 1, 0],
    [0, 0, 0, 0, -1, 0, -1, 0],
])

SQRT2 = np.sqrt(2.0)

C4_DIRAC_EIGENVALUES = np.array([-2, 2, -SQRT2, -SQRT2, SQRT2, SQRT2, 0, 0])

# Roots of the exact characteristic polynomials of the matrices above.
C4_LX_EIGENVALUES = np.array([0, 0, 1, 1, 1, 1, 2, 2])
C4_DX_EIGENVALUES = np.array([0, 0, 1, 1, -1, -1, SQRT2, -SQRT2])

# Eigenvalue lists circulating alongside the matrices; inconsistent with
# the matrices themselves (e.g. the printed D_X is traceless while the
# first list sums to -2).  Kept so the discrepancy is reported, never
# asserted as truth.
C4_DX_EIGENVALUES_MISPRINT = np.array([-SQRT2, -SQRT2, -1, -1, 1, 1, 0, 0])
C4_LX_EIGENVALUES_MISPRINT = np.array([4, 4, 2, 2, 2, 2, 0, 0])


def c4_basis_change(canonical_complex):
    """Signed permutation S with M_listed = S.T @ M_canonical @ S.

    Column j of S holds the canonical coordinates of the j-th listed basis
    element; the simplex written (4,1) carries sign -1 relative to its
    sorted representative (1,4).
    """
    s = np.zeros((8, 8), dtype=int)
    for j, listed in enumerate(C4_LISTED_BASIS):
        i = canonical_complex.index(listed)
        sign = 1 if tuple(sorted(listed)) == listed else -1
        s[i, j] = sign
    return s
