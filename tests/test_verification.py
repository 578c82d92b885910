"""`run_checks` verdicts are certificates: each is the premise its identity follows from."""

import numpy as np
import pytest
from hypothesis import given, settings

from cartanflow import exterior_derivative, random_complex, random_edge_field
from cartanflow import verification
from cartanflow.cli import main
from cartanflow.exterior import GradedOperator
from cartanflow.fields import FIELD_KINDS, canonical_fields

from strategies import complex_with_fields

D_SQUARED_PREMISE = {"d_squared_zero", "lie_derivative_commutes_with_d", "cartan_factorization",
                     "lie_algebra_relation", "bracket_factorization", "euler_poincare",
                     "mckean_singer"}


def _comm(a, b):
    return a @ b - b @ a


def identities(dm, im, iym):
    """Each run_checks identity, densely: name -> (gate, checked matrix, its reduction).

    `dm` may be any degree-raising operator: the reductions are polynomial
    identities in d, i_X and i_Y once L = d i + i d, with d^2 kept.  Only
    the reduction of i_Z^2 needs its gate, i_X^2 = i_X i_Y = i_Y i_X = 0.
    """
    lx, ly, d2 = dm @ im + im @ dm, dm @ iym + iym @ dm, dm @ dm
    iz = lx @ iym - iym @ lx
    lz, dz, dx = dm @ iz + iz @ dm, dm + iz, dm + im
    commuting = not np.any(im @ iym) and not np.any(iym @ im)
    x_nilpotent = not np.any(im @ im)
    return {
        "d_squared_zero": (True, d2, d2),
        "lie_derivative_commutes_with_d": (True, _comm(lx, dm), im @ d2 - d2 @ im),
        "cartan_factorization": (x_nilpotent, dx @ dx - lx, d2 + im @ im),
        "bracket_two_forms_agree": (commuting, iz - _comm(im, ly),
                                    _comm(dm, im @ iym + iym @ im)),
        "lie_algebra_relation": (True, lz - _comm(lx, ly),
                                 _comm(dm, lx) @ iym + iym @ _comm(dm, lx)),
        "bracket_squared_zero": (x_nilpotent and commuting, iz @ iz,
                                 -(im @ dm @ iym @ iym @ dm @ im)),
        "bracket_factorization": (x_nilpotent and commuting, dz @ dz - lz, d2 + iz @ iz),
    }


@settings(max_examples=150, deadline=None)
@given(complex_with_fields(count=2))
def test_run_checks_verdicts_equal_the_exact_zero_oracle(drawn):
    c, ix, iy = drawn
    dm, im, iym = exterior_derivative(c).matrix, ix.matrix, iy.matrix
    assert all(np.issubdtype(a.dtype, np.integer) for a in (dm, im, iym))
    # each reduction holds for d and for |d|, whose square is not 0 on a triangle
    for stand_in in (dm, np.abs(dm)):
        for name, (gate, checked, reduced) in identities(stand_in, im, iym).items():
            if gate or name != "bracket_squared_zero":
                assert np.array_equal(checked, reduced), name
    oracle = identities(dm, im, iym)
    result = verification.run_checks(c, ix, iy, tol=0.0)
    checks = {chk["name"]: chk for chk in result["checks"]}
    assert {name for name, (gate, _, _) in oracle.items() if gate} == set(checks) & set(oracle)
    for name in set(checks) & set(oracle):
        checked = oracle[name][1]
        assert checks[name]["pass"] == (not np.any(checked)), name
        assert checks[name]["residual"] == float(np.max(np.abs(checked), initial=0)), name


@pytest.mark.parametrize("kind", FIELD_KINDS)
def test_d_squared_stand_in_fails_every_certificate_that_reads_it(monkeypatch, capsys, kind):
    c = random_complex(5, 8, 3)
    args = ["verify", "--n", "5", "--m", "8", "--seed", "3", "--field", kind]
    assert main(args) == 0
    real = verification.exterior_derivative

    def broken(c):
        d = real(c)
        return GradedOperator(np.abs(d.matrix), c)

    monkeypatch.setattr(verification, "exterior_derivative", broken)
    abs_d = broken(c).matrix
    assert np.any(abs_d @ abs_d)
    ix = canonical_fields(c, kind, 0.5, (3, 0))
    result = verification.run_checks(c, ix, random_edge_field(c, (3, 1)))
    failed = {chk["name"] for chk in result["checks"]
              if not chk["pass"] and not chk.get("informational")}
    names = {chk["name"] for chk in result["checks"]}
    assert failed == D_SQUARED_PREMISE & names
    assert not result["pass"]
    assert main(args) == 1
    capsys.readouterr()
