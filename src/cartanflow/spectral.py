"""Spectral and cohomological checks: kernels, Euler-Poincare, supersymmetry."""

from __future__ import annotations

import numpy as np

from .complexes import Complex, ComplexError
from .exterior import GradedOperator
from .fields import CartanOperators
from .linalg import DEFAULT_KERNEL_TOL, eigenvalues, kernel_dimension, pair_spectra, rank

DEFAULT_TOL = 1e-7


def _diagonal_blocks(c: Complex, a: GradedOperator) -> list[np.ndarray]:
    """The f_p x f_p diagonal blocks of an operator that preserves degree."""
    if np.any(c.degree_shifts(a.matrix)):
        raise ComplexError("operator does not preserve degree")
    return [a.block(p, p) for p in range(c.dimension + 1)]


def betti_vector(c: Complex, lx: GradedOperator, tol: float = DEFAULT_KERNEL_TOL) -> list[int]:
    """Kernel dimension of each degree block of L_X."""
    return [kernel_dimension(block, tol) for block in _diagonal_blocks(c, lx)]


def degree_spectra(c: Complex, lx: GradedOperator) -> list[np.ndarray]:
    """Eigenvalues of each degree block of L_X, one eigensolve per block."""
    return [eigenvalues(block) for block in _diagonal_blocks(c, lx)]


def _algebraic_kernel(lx: GradedOperator, spectra, tol: float) -> list[int]:
    out = []
    # spectra came from degree_spectra, which checked that lx preserves degree
    for p, ev in enumerate(spectra):
        block = lx.block(p, p)
        scale = max(1.0, float(np.max(np.abs(block))) if block.size else 0.0)
        out.append(int(np.sum(np.abs(ev) <= tol * scale)))
    return out


def algebraic_kernel_vector(c: Complex, lx: GradedOperator, tol: float = DEFAULT_TOL) -> list[int]:
    """Algebraic multiplicity of the eigenvalue 0 in each degree block."""
    return _algebraic_kernel(lx, degree_spectra(c, lx), tol)


def classical_betti(c: Complex, d: GradedOperator) -> list[int]:
    """b_k = f_k - rank d_k - rank d_{k-1} from the exterior derivative blocks."""
    ranks = [rank(d.block(p + 1, p)) for p in range(c.dimension)]
    out = []
    for k in range(c.dimension + 1):
        r_up = ranks[k] if k < c.dimension else 0
        r_down = ranks[k - 1] if k > 0 else 0
        out.append(c.f_vector[k] - r_up - r_down)
    return out


def _d_squared_residual(c: Complex, dx: GradedOperator) -> float:
    """max |d^2| over its only blocks d_{p+2,p+1} d_{p+1,p}, which D_X = d + i_X shares."""
    return max((float(np.max(np.abs(dx.block(p + 2, p + 1) @ dx.block(p + 1, p)), initial=0))
                for p in range(c.dimension - 1)), default=0.0)


def _euler_poincare(c: Complex, lx: GradedOperator, alg: list[int]) -> dict:
    return {"chi_f": c.euler_characteristic(),
            "chi_betti": sum((-1) ** p * a for p, a in enumerate(alg)),
            "betti": betti_vector(c, lx)}


def euler_poincare_check(c: Complex, cx: CartanOperators, tol: float = DEFAULT_TOL) -> dict:
    """chi(f-vector) against the alternating sum of algebraic kernels of L_X.

    The verdict is the certificate of `mckean_singer_check`: by its steps
    1-3, the generalized eigenspace of L_X for each lambda != 0 is an exact
    complex, so its alternating dimension sum is 0.  The forms split into
    these eigenspaces and the generalized kernel, so
    sum_p (-1)^p dim genker L_X|Lambda^p = sum_p (-1)^p f_p = chi whenever
    d^2 = 0 and L_X = d i_X + i_X d.  So "pass" is d^2 = 0.

    "chi_betti" sums `algebraic_kernel_vector`, counted numerically at tol,
    and |chi_f - chi_betti| is reported, not judged.  "betti" is the
    geometric kernel vector, which differs where L_X has a Jordan block at 0.
    """
    alg = algebraic_kernel_vector(c, cx.LX, tol)
    return {**_euler_poincare(c, cx.LX, alg), "pass": _d_squared_residual(c, cx.DX) == 0}


def _mckean_singer(lx: GradedOperator, spectra, tol: float, d_squared: float) -> dict:
    scale = max(1.0, float(np.max(np.abs(lx.matrix))))
    even = np.array([z for ev in spectra[0::2] for z in ev], dtype=complex)
    odd = np.array([z for ev in spectra[1::2] for z in ev], dtype=complex)
    even_nz = even[np.abs(even) > tol * scale]
    odd_nz = odd[np.abs(odd) > tol * scale]
    _, worst = pair_spectra(even_nz, odd_nz, tol * scale)
    return {
        "even_nonzero": sorted(even_nz, key=lambda z: (z.real, z.imag)),
        "odd_nonzero": sorted(odd_nz, key=lambda z: (z.real, z.imag)),
        "pass": d_squared == 0,
        "residual": worst if np.isfinite(worst) else None,
    }


def mckean_singer_check(c: Complex, cx: CartanOperators, tol: float = DEFAULT_TOL) -> dict:
    """Nonzero spectra of L_X on even and odd forms must agree as multisets.

    The verdict is a certificate: the identity holds whenever d^2 = 0 and
    L_X = d i_X + i_X d, with i_X lowering degree by one; i_X^2 = 0 is not
    needed.  `cartan` assembles L_X in that form, so "pass" is d^2 = 0,
    decided exactly on the products of the (p+2, p+1) and (p+1, p) blocks
    of D_X = d + i_X, which are blocks of d and hold integers in any dtype.
    The proof:

    1. Fix lambda != 0 and let Pi be the spectral projector of L_X onto the
       generalized eigenspace H of lambda.  Pi is a polynomial in L_X, so it
       preserves degree and commutes with d (L_X d = d i_X d = d L_X).
    2. L_X is invertible on H.  For f in H with d f = 0, g = (L_X|H)^-1 Pi i_X f
       lies in H and d g = (L_X|H)^-1 Pi (L_X f - i_X d f) = f.
    3. So (H, d) is an exact graded complex, and its Euler characteristic,
       the alternating sum of dim H_p, is 0.
    4. Hence the multiplicity of lambda on even forms equals that on odd
       forms, for every lambda != 0.

    "residual" is the greedy pairing distance between the computed even and
    odd nonzero spectra (None when their counts differ).  It is reported,
    not judged: a defective nonzero cluster of a non-normal L_X scatters
    computed eigenvalues far beyond tol while the identity holds exactly.
    """
    return _mckean_singer(cx.LX, degree_spectra(c, cx.LX), tol, _d_squared_residual(c, cx.DX))


def spectral_symmetry_check(dx: GradedOperator, tol: float = DEFAULT_TOL) -> dict:
    """sigma(D_X) must equal -sigma(D_X) as a multiset.

    The verdict is the grading certificate.  Every nonzero entry of the
    operator must connect degrees of opposite parity (otherwise ComplexError),
    which is exactly P D P = -D for P = diag((-1)^deg).  P is its own inverse,
    so D is similar to -D and the two spectra agree with multiplicities.

    "max_unpaired" is the numerical pairing distance between the computed
    spectra of D and -D.  It is reported, not judged: defective eigenvalue
    clusters at 0 scatter computed eigenvalues far beyond tol even though
    the true spectrum is exactly symmetric, so the verdict does not depend
    on tol.
    """
    if np.any(dx.complex_ref.degree_shifts(dx.matrix) % 2 == 0):
        raise ComplexError("operator has parity-preserving blocks")
    ev = eigenvalues(dx.matrix)
    _, worst = pair_spectra(ev, -ev, tol)
    return {"pass": True, "max_unpaired": worst}


def spectral_report(c: Complex, cx: CartanOperators, tol: float = DEFAULT_TOL):
    """(checks, max |d^2|, data): the spectral checks for the Cartan operators of
    one field, the certificate they read, and the `data` of the `verify` report."""
    spectra = degree_spectra(c, cx.LX)
    d2 = _d_squared_residual(c, cx.DX)
    alg = _algebraic_kernel(cx.LX, spectra, tol)
    ep = _euler_poincare(c, cx.LX, alg)
    ms = _mckean_singer(cx.LX, spectra, tol, d2)
    checks = [
        {"name": "euler_poincare", "pass": d2 == 0,
         "residual": abs(ep["chi_f"] - ep["chi_betti"])},
        {"name": "mckean_singer", "pass": ms["pass"], "residual": ms["residual"]},
        # d raises degree by one and from_matrix admitted i_X only as lowering
        # by one, so P D_X P = -D_X for P = diag((-1)^deg): a structural certificate
        {"name": "spectral_symmetry", "pass": True, "residual": 0.0},
        # L_X can be non-diagonalizable, so the two kernel counts may
        # legitimately differ; surfaced here without failing the report.
        {"name": "geometric_equals_algebraic_kernel", "pass": alg == ep["betti"],
         "residual": float(sum(abs(a - b) for a, b in zip(alg, ep["betti"]))),
         "informational": True},
    ]
    data = {**ep, "algebraic_kernel": alg,
            "per_degree_spectra": [[[z.real, z.imag] for z in ev.tolist()] for ev in spectra]}
    return checks, d2, data
