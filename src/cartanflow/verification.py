"""Identity check suite shared by the CLI `verify` command and the tests."""

from __future__ import annotations

import numpy as np

from .complexes import Complex
from .exterior import dirac_and_hodge, exterior_derivative
from .fields import InteriorDerivative, cartan, lie_bracket
from .spectral import mckean_singer_check, spectral_report


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
    _, hodge = dirac_and_hodge(d)
    cx = cartan(d, ix)
    dm, im = d.matrix, ix.matrix
    exact = np.issubdtype(im.dtype, np.integer)

    checks = [
        _check("d_squared_zero", dm @ dm),
        _check("lie_derivative_commutes_with_d",
               cx.LX.matrix @ dm - dm @ cx.LX.matrix, exact, tol),
    ]
    ix_nilpotent = _residual(im @ im) == 0 if exact else _residual(im @ im) <= tol
    if ix_nilpotent:
        checks.append(_check("cartan_factorization",
                             cx.DX.matrix @ cx.DX.matrix - cx.LX.matrix, exact, tol))

    if iy is not None:
        cy = cartan(d, iy)
        iym = iy.matrix
        # identities involving i_Y are exact only when both fields are integer
        exact_xy = exact and np.issubdtype(iym.dtype, np.integer)
        iz = lie_bracket(ix, iy, d)
        iz2 = im @ cy.LX.matrix - cy.LX.matrix @ im
        cz = cartan(d, iz)
        commuting = _residual(im @ iym) == 0 and _residual(iym @ im) == 0
        if commuting:
            checks.append(_check("bracket_two_forms_agree", iz.matrix - iz2, exact_xy, tol))
        checks.append(_check(
            "lie_algebra_relation",
            cz.LX.matrix - (cx.LX.matrix @ cy.LX.matrix - cy.LX.matrix @ cx.LX.matrix),
            exact_xy, tol))
        power = np.linalg.matrix_power(iz.matrix, 1 + c.dimension)
        checks.append(_check("bracket_nilpotency", power, exact_xy, tol))
        if ix_nilpotent and commuting:
            checks.append(_check("bracket_squared_zero", iz.matrix @ iz.matrix, exact_xy, tol))
            checks.append(_check("bracket_factorization",
                                 cz.DX.matrix @ cz.DX.matrix - cz.LX.matrix, exact_xy, tol))

    report = spectral_report(c, cx.DX, cx.LX, tol)
    checks.extend(report.checks)
    hodge_ms = mckean_singer_check(c, hodge, tol)
    checks.append({"name": "hodge_mckean_singer_reference",
                   "pass": hodge_ms["pass"],
                   "residual": hodge_ms["residual"] or 0.0})
    return {
        "checks": checks,
        "spectral": report,
        "pass": all(chk["pass"] for chk in checks if not chk.get("informational")),
    }
