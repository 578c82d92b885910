"""Wrong Cartan constructions, each caught by a named oracle run in-process.

Each row patches one piece of `cartanflow` with `monkeypatch` and runs the
body of an existing hypothesis test (its `inner_test`) on one fixed draw,
built after the patch.  The body must pass on the real code and fail under
the mutant, so the oracle is shown to see the fault.
"""

import dataclasses

import pytest

import cartanflow
import test_spectral
import test_verification
from cartanflow import cli, fields, random_complex, verification
from cartanflow.exterior import MIXED, PRESERVES, GradedOperator
from cartanflow.fields import CartanOperators, InteriorDerivative

from strategies import integer_field

ALL_DEGREES = tuple(range(10))


def forced_nilpotent(monkeypatch):
    real = InteriorDerivative.from_matrix
    monkeypatch.setattr(InteriorDerivative, "from_matrix", staticmethod(
        lambda c, m: dataclasses.replace(real(c, m), nilpotent_verified=True)))


def doubled_i_d(monkeypatch):
    """cartan with L_X = d i_X + 2 i_X d, patched wherever the name is bound."""
    def cartan(d, ix):
        c, dm, im = d.complex_ref, d.matrix, ix.matrix
        return CartanOperators(ix, GradedOperator(dm + im, c, MIXED),
                               GradedOperator(dm @ im + 2 * im @ dm, c, PRESERVES))

    for module in (fields, cartanflow, verification, cli, test_spectral):
        monkeypatch.setattr(module, "cartan", cartan)


def flipped_bracket(monkeypatch):
    def bracket(self, iy):
        lx = self.LX.matrix
        return InteriorDerivative.from_matrix(iy.complex_ref, iy.matrix @ lx - lx @ iy.matrix)

    monkeypatch.setattr(CartanOperators, "bracket", bracket)


def draw(count, kind="accumulate", support=ALL_DEGREES):
    """(c, i_X, ...) on random_complex(5, 8, 3): `count` integer fields of `kind`."""
    c = random_complex(5, 8, 3)
    return (c, *(integer_field(c, kind, (3, k), 0.5, support) for k in range(count)))


identities_oracle = test_spectral.test_cartan_identities_exact_on_integer_fields.hypothesis.inner_test
verdicts_oracle = (
    test_verification.test_run_checks_verdicts_equal_the_exact_zero_oracle.hypothesis.inner_test)


MUTANTS = [
    # i_X^2 != 0 on this draw, so the flag must not read true
    pytest.param(forced_nilpotent, identities_oracle, lambda: draw(1),
                 id="forced-nilpotent-identities"),
    pytest.param(forced_nilpotent, verdicts_oracle, lambda: draw(2),
                 id="forced-nilpotent-verdicts"),
    pytest.param(doubled_i_d, identities_oracle, lambda: draw(1), id="doubled-i-d-identities"),
    pytest.param(doubled_i_d, verdicts_oracle, lambda: draw(2), id="doubled-i-d-verdicts"),
    # [L_X, L_Y] != 0 on this draw, so i_[X,Y] and -i_[X,Y] differ in L
    pytest.param(flipped_bracket, verdicts_oracle, lambda: draw(2, "edge-random"),
                 id="flipped-bracket-verdicts"),
]


@pytest.mark.parametrize("mutate, oracle, drawn", MUTANTS)
def test_oracle_catches_mutant(monkeypatch, mutate, oracle, drawn):
    oracle(drawn())
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        oracle(drawn())
