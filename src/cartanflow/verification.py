"""Identity check suite shared by the CLI `verify` command and the tests."""

from __future__ import annotations

import numpy as np

from .complexes import Complex
from .exterior import dirac_and_hodge, exterior_derivative
from .fields import InteriorDerivative, cartan
from .spectral import _mckean_singer, degree_spectra, spectral_report


def _residual(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _check(name: str, matrix_diff: np.ndarray, exact: bool = True, tol: float = 0.0) -> dict:
    res = _residual(np.asarray(matrix_diff))
    return {"name": name, "pass": res <= (0 if exact else tol), "residual": res}


def run_checks(
    c: Complex,
    ix: InteriorDerivative,
    iy: InteriorDerivative | None = None,
    tol: float = 1e-7,
) -> dict:
    """All structural and spectral identities for one or two fields on c."""
    d = exterior_derivative(c)
    cx = cartan(d, ix)
    dm, im = d.matrix, ix.matrix
    exact = np.issubdtype(im.dtype, np.integer)
    # the report decides d^2 = 0 once; this check and the Hodge reference read it
    report = spectral_report(c, cx, tol)

    checks = [
        _check("d_squared_zero", report.d_squared_residual),
        _check("lie_derivative_commutes_with_d",
               cx.LX.matrix @ dm - dm @ cx.LX.matrix, exact, tol),
    ]
    if ix.nilpotent_verified:
        checks.append(_check("cartan_factorization",
                             cx.DX.matrix @ cx.DX.matrix - cx.LX.matrix, exact, tol))

    if iy is not None:
        cy = cartan(d, iy)
        iym = iy.matrix
        # identities involving i_Y are exact only when both fields are integer
        exact_xy = exact and np.issubdtype(iym.dtype, np.integer)
        iz = cx.bracket(iy)
        cz = cartan(d, iz)
        commuting = _residual(im @ iym) == 0 and _residual(iym @ im) == 0
        if commuting:
            iz2 = im @ cy.LX.matrix - cy.LX.matrix @ im
            checks.append(_check("bracket_two_forms_agree", iz.matrix - iz2, exact_xy, tol))
        checks.append(_check(
            "lie_algebra_relation",
            cz.LX.matrix - (cx.LX.matrix @ cy.LX.matrix - cy.LX.matrix @ cx.LX.matrix),
            exact_xy, tol))
        # from_matrix admitted i_Z only as lowering degree by one, so i_Z^(dim+1) = 0
        checks.append({"name": "bracket_nilpotency", "pass": True, "residual": 0.0})
        if ix.nilpotent_verified and commuting:
            checks.append(_check("bracket_squared_zero", iz.matrix @ iz.matrix, exact_xy, tol))
            checks.append(_check("bracket_factorization",
                                 cz.DX.matrix @ cz.DX.matrix - cz.LX.matrix, exact_xy, tol))

    checks.extend(report.checks)
    # the Hodge reference is the extreme case i_X = d^T, where L_X = (d + d^T)^2
    hodge = dirac_and_hodge(d)[1]
    hodge_ms = _mckean_singer(hodge, degree_spectra(c, hodge), tol, report.d_squared_residual)
    checks.append({"name": "hodge_mckean_singer_reference",
                   "pass": hodge_ms["pass"],
                   "residual": hodge_ms["residual"] or 0.0})
    return {
        "checks": checks,
        "spectral": report,
        "pass": all(chk["pass"] for chk in checks if not chk.get("informational")),
    }
