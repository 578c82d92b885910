"""Dense numerical kernels: spectra, nullspaces, pseudo-inverse, expm, RK4.

Integer matrices get exact treatment where it matters (rank / kernel
dimension via fraction-free elimination on sparse rows of Python
integers); spectra are always floating point.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

DEFAULT_KERNEL_TOL = 1e-8


class LinalgError(ValueError):
    """Invalid matrix input."""


def _check_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    return a


def eigenvalues(a, hermitian: bool = False) -> np.ndarray:
    """All eigenvalues with algebraic multiplicity, sorted by (Re, Im); for a
    `hermitian` a = a*, exactly real from eigvalsh."""
    a = _check_square(a).astype(complex)
    if not np.all(np.isfinite(a)):
        raise LinalgError("matrix entries must be finite")
    ev = np.linalg.eigvalsh(a).astype(complex) if hermitian else np.linalg.eigvals(a)
    return ev[np.lexsort((ev.imag, ev.real))]


def exact_rank(a) -> int:
    """Rank over the rationals by fraction-free elimination on sparse rows.

    Each nonzero row is a {column: int} dict of Python ints.  The pivot is
    the sparsest row, at its entry p of least magnitude; every other row
    with an entry f in that column becomes p * row - f * pivot, divided by
    the gcd of its entries.  A row that vanishes drops out, as does the
    pivot, so the rank is the number of pivots.
    """
    rows = [{j: int(x) for j, x in enumerate(row) if x} for row in np.asarray(a).tolist()]
    rows = [row for row in rows if row]
    rank = 0
    while rows:
        pivot = rows.pop(min(range(len(rows)), key=lambda i: len(rows[i])))
        col = min(pivot, key=lambda j: abs(pivot[j]))
        p, rank = pivot[col], rank + 1
        for i, row in enumerate(rows):
            f = row.get(col)
            if f:
                row = {j: p * x for j, x in row.items()}
                for j, y in pivot.items():
                    row[j] = row.get(j, 0) - f * y
                g = math.gcd(*row.values())
                rows[i] = {j: x // g for j, x in row.items() if x}
        rows = [row for row in rows if row]
    return rank


def rank(a, tol: float = DEFAULT_KERNEL_TOL) -> int:
    """Numerical rank; exact rational rank for integer matrices."""
    a = np.asarray(a)
    if np.issubdtype(a.dtype, np.integer):
        return exact_rank(a)
    if a.size == 0:
        return 0
    sv = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(sv > tol * max(1.0, sv[0])))


def kernel_dimension(a, tol: float = DEFAULT_KERNEL_TOL) -> int:
    """Dimension of the right nullspace of a square matrix."""
    a = _check_square(a)
    return a.shape[0] - rank(a, tol)


def apply_pseudo_inverse(a, v) -> np.ndarray:
    """Minimal-norm least-squares solution of A x = v."""
    a = _check_square(a).astype(complex)
    v = np.asarray(v, dtype=complex)
    if v.shape != (a.shape[0],):
        raise LinalgError(f"vector length {v.shape} does not match order {a.shape[0]}")
    x, *_ = np.linalg.lstsq(a, v, rcond=None)
    return x


def matrix_exponential(a) -> np.ndarray:
    """exp(A) by Pade scaling-and-squaring."""
    a = _check_square(a)
    return scipy.linalg.expm(np.asarray(a, dtype=complex if np.iscomplexobj(a) else float))


def rk4_step(f, x, h):
    """One classical 4th-order Runge-Kutta step for x' = f(x), summed in place."""
    # numpy divides a complex array by a real scalar through its reciprocal, so
    # for complex x the products below give the bits of `/ 2` and `/ 6`
    u = h * f(x)
    v = h * f(x + u * 0.5)
    w = h * f(x + v * 0.5)
    q = h * f(x + w)
    u += 2 * v
    u += 2 * w
    u += q
    u *= 1 / 6
    return x + u


def pair_spectra(s1, s2, tol: float) -> tuple[bool, float]:
    """Compare two eigenvalue multisets by greedy nearest-neighbor pairing.

    Sorting both lists and zipping them is unstable when roundoff reorders
    near-degenerate values (e.g. a conjugate pair whose real parts agree only
    to machine precision), so each value of `s1` is matched against the
    closest still-unmatched value of `s2` instead.

    Returns (matched, max pairing distance).
    """
    s1 = np.asarray(sorted(np.asarray(s1, dtype=complex).ravel(), key=lambda z: (z.real, z.imag)))
    s2 = np.asarray(sorted(np.asarray(s2, dtype=complex).ravel(), key=lambda z: (z.real, z.imag)))
    if s1.shape != s2.shape:
        return False, float("inf")
    if s1.size == 0:
        return True, 0.0
    remaining = list(s2)
    worst = 0.0
    for z in s1:
        j = min(range(len(remaining)), key=lambda k: abs(remaining[k] - z))
        worst = max(worst, float(abs(remaining.pop(j) - z)))
    return worst <= tol, worst


def spectrum_to_csv(ev) -> str:
    lines = ["re,im"]
    for z in np.asarray(ev, dtype=complex):
        lines.append(f"{z.real:.12g},{z.imag:.12g}")
    return "\n".join(lines) + "\n"
