"""Wrong Cartan constructions, each caught by a named oracle run in-process.

Each row patches one piece of `cartanflow` with `monkeypatch` and runs the
body of an existing test (a hypothesis test's `inner_test`) on one fixed
draw, built after the patch.  The body must pass on the real code and fail
under the mutant, so the oracle is shown to see the fault.  A body fails with
an `AssertionError`, or with pytest's `Failed` where its `pytest.raises`
sees no exception.
"""

import dataclasses

import numpy as np
import pytest

import cartanflow
import test_assembly_oracle
import test_spectral
import test_verification
from cartanflow import Complex, cli, fields, random_complex, spectral, verification
from cartanflow.exterior import GradedOperator
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
        return CartanOperators(ix, GradedOperator(dm + im, c),
                               GradedOperator(dm @ im + 2 * im @ dm, c))

    for module in (fields, cartanflow, verification, cli, test_spectral):
        monkeypatch.setattr(module, "cartan", cartan)


def flipped_bracket(monkeypatch):
    def bracket(self, iy):
        lx = self.LX.matrix
        return InteriorDerivative.from_matrix(iy.complex_ref, iy.matrix @ lx - lx @ iy.matrix)

    monkeypatch.setattr(CartanOperators, "bracket", bracket)


def unchecked_from_matrix(monkeypatch):
    """from_matrix without its shift check: every entry reads as lowering by one."""
    real = InteriorDerivative.from_matrix

    def from_matrix(c, m):
        with monkeypatch.context() as patch:
            patch.setattr(Complex, "degree_shifts", lambda self, a: np.full(np.count_nonzero(a), -1))
            return real(c, m)

    monkeypatch.setattr(InteriorDerivative, "from_matrix", staticmethod(from_matrix))


def unchecked_diagonal_blocks(monkeypatch):
    monkeypatch.setattr(spectral, "_diagonal_blocks",
                        lambda c, a: [a.block(p, p) for p in range(c.dimension + 1)])


def accumulate_as_overwrite(monkeypatch):
    real = fields.build_edge_field

    def build_edge_field(c, coefficients, support=(1,), overwrite_order=True):
        return real(c, coefficients, support, overwrite_order=True)

    for module in (fields, cartanflow, test_assembly_oracle):
        monkeypatch.setattr(module, "build_edge_field", build_edge_field)


def draw(count, kind="accumulate", support=ALL_DEGREES):
    """(c, i_X, ...) on random_complex(5, 8, 3): `count` integer fields of `kind`."""
    c = random_complex(5, 8, 3)
    return (c, *(integer_field(c, kind, (3, k), 0.5, support) for k in range(count)))


identities_oracle = test_spectral.test_cartan_identities_exact_on_integer_fields.hypothesis.inner_test
verdicts_oracle = (
    test_verification.test_run_checks_verdicts_equal_the_exact_zero_oracle.hypothesis.inner_test)
grading_oracle = test_assembly_oracle.test_grading_scans_match_per_entry_sets.hypothesis.inner_test
edge_field_oracle = test_assembly_oracle.test_edge_field_matches_per_edge_loop.hypothesis.inner_test


MUTANTS = [
    # i_X^2 != 0 on this draw, so the flag must not read true
    pytest.param(forced_nilpotent, lambda: identities_oracle(draw(1)),
                 id="forced-nilpotent-identities"),
    pytest.param(forced_nilpotent, lambda: verdicts_oracle(draw(2)),
                 id="forced-nilpotent-verdicts"),
    pytest.param(doubled_i_d, lambda: identities_oracle(draw(1)), id="doubled-i-d-identities"),
    pytest.param(doubled_i_d, lambda: verdicts_oracle(draw(2)), id="doubled-i-d-verdicts"),
    # [L_X, L_Y] != 0 on this draw, so i_[X,Y] and -i_[X,Y] differ in L
    pytest.param(flipped_bracket, lambda: verdicts_oracle(draw(2, "edge-random")),
                 id="flipped-bracket-verdicts"),
    # d itself is among the candidates, and it raises degree
    pytest.param(unchecked_from_matrix, lambda: grading_oracle(random_complex(5, 8, 3), 0),
                 id="unchecked-from-matrix-grading"),
    pytest.param(unchecked_diagonal_blocks, test_spectral.test_betti_rejects_non_preserving,
                 id="unchecked-diagonal-blocks-betti"),
    # every edge keyed with an integer, accumulate mode, support (1, 3, 4): at the
    # 3-simplex's entries several edges meet, and their sum is not the last one
    pytest.param(accumulate_as_overwrite,
                 lambda: edge_field_oracle(random_complex(5, 8, 3), 0, 1.0, "int", False, False),
                 id="accumulate-as-overwrite-edge-field"),
]


@pytest.mark.parametrize("mutate, oracle", MUTANTS)
def test_oracle_catches_mutant(monkeypatch, mutate, oracle):
    oracle()
    mutate(monkeypatch)
    with pytest.raises((AssertionError, pytest.fail.Exception)):
        oracle()
