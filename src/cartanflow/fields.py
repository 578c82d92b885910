"""Vector fields as interior derivatives, Cartan operators and the Lie bracket."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import Complex, _as_simplex
from .exterior import (
    LOWERS,
    MIXED,
    PRESERVES,
    GradedOperator,
    classify_grading,
)

_ZERO_TOL = 1e-12


class FieldError(ValueError):
    """Invalid vector-field construction."""


def _is_zero(m: np.ndarray) -> bool:
    if np.issubdtype(m.dtype, np.integer):
        return not np.any(m)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    return float(np.max(np.abs(m))) <= _ZERO_TOL * scale if m.size else True


@dataclass(frozen=True)
class InteriorDerivative:
    """A grading-lowering operator encoding a vector field."""

    op: GradedOperator
    nilpotent_verified: bool

    @property
    def matrix(self) -> np.ndarray:
        return self.op.matrix

    @property
    def complex_ref(self) -> Complex:
        return self.op.complex_ref

    @staticmethod
    def from_matrix(c: Complex, matrix) -> "InteriorDerivative":
        matrix = np.asarray(matrix)
        action = classify_grading(matrix, c)
        if action not in (LOWERS, PRESERVES) or (action == PRESERVES and np.any(matrix)):
            raise FieldError("interior derivative must lower degree by exactly one")
        op = GradedOperator(matrix, c, LOWERS)
        # i_X lives in the blocks (p-1, p), so i_X^2 can be nonzero only in (p-2, p)
        nilpotent = all(_is_zero(op.block(p - 2, p - 1) @ op.block(p - 1, p))
                        for p in range(2, c.dimension + 1))
        return InteriorDerivative(op, nilpotent)


@dataclass(frozen=True)
class CartanOperators:
    """i_X together with D_X = d + i_X and L_X = d i_X + i_X d."""

    iX: InteriorDerivative
    DX: GradedOperator
    LX: GradedOperator
    factorization_holds: bool  # D_X^2 == L_X, equivalent to i_X^2 == 0


def build_edge_field(
    c: Complex,
    coefficients: dict,
    support=(1,),
    overwrite_order: bool = True,
) -> InteriorDerivative:
    """Interior derivative generated by edge coefficients.

    For an edge e = {u, v} (u < v) with coefficient a, every simplex x
    containing e contributes the entry (x \\ {u}, x) = a * sign, taken only
    when the source degree dim(x) lies in `support`.  With overwrite_order,
    edges are processed in basis order and later writes replace earlier
    ones at the same entry; otherwise contributions accumulate.
    """
    support = frozenset(int(p) for p in support)
    exact = all(isinstance(v, (int, np.integer)) for v in coefficients.values())
    ix = np.zeros((c.n, c.n), dtype=int if exact else float)
    edge_set = set(c.edges())
    keyed = {}
    for key, val in coefficients.items():
        e = _as_simplex(key)
        if e not in edge_set:
            raise FieldError(f"{e} is not an edge of the complex")
        keyed[e] = val
    # One pass over the simplices: the edges (u, v) of x that share u all
    # write the entry (x \ {u}, x), in ascending v, which is basis order.
    index = c._index_map()
    zero = ix.dtype.type(0)
    rows, cols, values = [], [], []
    for k, x in enumerate(c.simplices):
        if len(x) - 1 not in support:
            continue
        for pos, u in enumerate(x[:-1]):
            terms = [keyed[(u, v)] * (-1) ** pos for v in x[pos + 1 :] if (u, v) in keyed]
            if not terms:
                continue
            rows.append(index[x[:pos] + x[pos + 1 :]])
            cols.append(k)
            values.append(terms[-1] if overwrite_order else sum(terms, zero))
    ix[rows, cols] = values
    return InteriorDerivative.from_matrix(c, ix)


def random_edge_field(
    c: Complex, seed, support=(1, 3, 5, 7, 9), integer_coeffs: bool = False
) -> InteriorDerivative:
    """Edge field with one random coefficient per edge (seeded)."""
    rng = np.random.default_rng(seed)
    coeffs = {}
    for e in c.edges():
        coeffs[e] = int(rng.integers(0, 2)) if integer_coeffs else float(rng.random())
    support = frozenset(p for p in support if p <= c.dimension)
    if not coeffs:
        return zero_field(c)
    return build_edge_field(c, coeffs, support=support or {1})


def deterministic_field(c: Complex) -> InteriorDerivative:
    """Degree-1 field copying, per vertex, the first unit entry of d^T."""
    from .exterior import exterior_derivative

    dt = exterior_derivative(c).matrix.T
    n = c.n
    ix = np.zeros((n, n), dtype=int)
    for k in range(c.f_vector[0]):
        hits = np.nonzero(np.abs(dt[k]) == 1)[0]
        if hits.size:
            l = int(hits[0])
            ix[k, l] = dt[k, l]
    return InteriorDerivative.from_matrix(c, ix)


def zero_field(c: Complex) -> InteriorDerivative:
    return InteriorDerivative.from_matrix(c, np.zeros((c.n, c.n), dtype=int))


def adjoint_field(c: Complex) -> InteriorDerivative:
    """i_X = d^T, the extreme case whose Lie derivative is the Hodge Laplacian."""
    from .exterior import exterior_derivative

    return InteriorDerivative.from_matrix(c, exterior_derivative(c).matrix.T)


def sparsified_adjoint_field(c: Complex, p: float, seed) -> InteriorDerivative:
    """d^T with each nonzero entry kept independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise FieldError(f"keep probability must lie in [0, 1], got {p}")
    from .exterior import exterior_derivative

    rng = np.random.default_rng(seed)
    dt = exterior_derivative(c).matrix.T.copy()
    rows, cols = np.nonzero(dt)
    for i, j in zip(rows, cols):
        if rng.random() >= p:
            dt[i, j] = 0
    return InteriorDerivative.from_matrix(c, dt)


FIELD_KINDS = ("adjoint", "zero", "deterministic", "edge-random", "sparsified")


def canonical_fields(
    c: Complex,
    kind: str,
    p: float = 1.0,
    seed=0,
    support=(1, 3, 5, 7, 9),
    integer_coeffs: bool = False,
) -> InteriorDerivative:
    """The field of one of FIELD_KINDS on c.

    `p` applies to "sparsified" only, `support` and `integer_coeffs` to
    "edge-random" only, and `seed` to both.
    """
    if kind == "adjoint":
        return adjoint_field(c)
    if kind == "zero":
        return zero_field(c)
    if kind == "deterministic":
        return deterministic_field(c)
    if kind == "edge-random":
        return random_edge_field(c, seed, support, integer_coeffs)
    if kind == "sparsified":
        return sparsified_adjoint_field(c, p, seed)
    raise FieldError(f"unknown field kind {kind!r}")


def _same_complex(*ops):
    ref = ops[0].complex_ref
    for o in ops[1:]:
        if o.complex_ref.simplices != ref.simplices:
            raise FieldError("operators live on different complexes")
    return ref


def cartan(d: GradedOperator, ix: InteriorDerivative) -> CartanOperators:
    """Assemble D_X = d + i_X and L_X = d i_X + i_X d, for a `d` with d^2 = 0.

    D_X^2 - L_X = d^2 + i_X^2, so D_X^2 = L_X holds exactly when i_X^2 = 0,
    which `from_matrix` has already decided.
    """
    c = _same_complex(d, ix.op)
    dm = d.matrix
    im = ix.matrix
    return CartanOperators(
        ix,
        GradedOperator(dm + im, c, MIXED),
        GradedOperator(dm @ im + im @ dm, c, PRESERVES),
        ix.nilpotent_verified,
    )


def lie_bracket(
    ix: InteriorDerivative, iy: InteriorDerivative, d: GradedOperator
) -> InteriorDerivative:
    """i_[X,Y] = L_X i_Y - i_Y L_X."""
    c = _same_complex(ix.op, iy.op, d)
    lx = cartan(d, ix).LX.matrix
    iz = lx @ iy.matrix - iy.matrix @ lx
    return InteriorDerivative.from_matrix(c, iz)
