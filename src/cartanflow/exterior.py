"""Signed exterior derivative, Dirac operator and Hodge Laplacian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Complex, ComplexError


@dataclass(frozen=True)
class GradedOperator:
    """Dense square operator over a complex's basis; `Complex.degree_shifts` reads its grading."""

    matrix: np.ndarray
    complex_ref: Complex

    def __post_init__(self):
        n = self.complex_ref.n
        if self.matrix.shape != (n, n):
            raise ComplexError(
                f"operator shape {self.matrix.shape} does not match basis size {n}"
            )

    def block(self, p: int, q: int) -> np.ndarray:
        """Sub-block mapping degree-q forms to degree-p forms."""
        c = self.complex_ref
        return self.matrix[c.block(p), c.block(q)]


def exterior_derivative(c: Complex) -> GradedOperator:
    """The signed incidence operator d; integer entries, d @ d == 0."""
    index = c._index_map()
    rows, cols, signs = [], [], []
    for i, s in enumerate(c.simplices):
        if len(s) == 1:
            continue
        for pos in range(len(s)):
            rows.append(i)
            cols.append(index[s[:pos] + s[pos + 1 :]])
            signs.append((-1) ** pos)
    d = np.zeros((c.n, c.n), dtype=int)
    d[rows, cols] = signs
    return GradedOperator(d, c)


def dirac_and_hodge(d: GradedOperator) -> tuple[GradedOperator, GradedOperator]:
    """D = d + d^T and the Hodge Laplacian L = D^2 (unit simplex weights)."""
    c = d.complex_ref
    dd = d.matrix + d.matrix.T
    return GradedOperator(dd, c), GradedOperator(dd @ dd, c)
