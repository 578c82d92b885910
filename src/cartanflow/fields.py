"""Vector fields as interior derivatives, Cartan operators and the Lie bracket."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import MAX_FACET_VERTICES, Complex, _as_simplex
from .exterior import GradedOperator, exterior_derivative

_ZERO_TOL = 1e-12
# every odd degree a complex within the size cap can have: the default edge-field support
ODD_DEGREES = tuple(range(1, MAX_FACET_VERTICES, 2))


class FieldError(ValueError):
    """Invalid vector-field construction."""


def _is_zero(m: np.ndarray) -> bool:
    if np.issubdtype(m.dtype, np.integer):
        return not np.any(m)
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 0.0)
    return float(np.max(np.abs(m))) <= _ZERO_TOL * scale if m.size else True


@dataclass(frozen=True)
class InteriorDerivative(GradedOperator):
    """A grading-lowering operator encoding a vector field."""

    nilpotent_verified: bool

    @staticmethod
    def from_matrix(c: Complex, matrix) -> "InteriorDerivative":
        matrix = GradedOperator(np.asarray(matrix), c).matrix  # shape check before the shifts
        if np.any(c.degree_shifts(matrix) != -1):
            raise FieldError("interior derivative must lower degree by exactly one")
        # i_X lives in the blocks (p-1, p), so i_X^2 can be nonzero only in (p-2, p)
        nilpotent = all(_is_zero(matrix[c.block(p - 2), c.block(p - 1)]
                                 @ matrix[c.block(p - 1), c.block(p)])
                        for p in range(2, c.dimension + 1))
        return InteriorDerivative(matrix, c, nilpotent)


@dataclass(frozen=True)
class CartanOperators:
    """i_X together with D_X = d + i_X and L_X = d i_X + i_X d."""

    iX: InteriorDerivative
    DX: GradedOperator
    LX: GradedOperator

    def bracket(self, iy: InteriorDerivative) -> InteriorDerivative:
        """i_[X,Y] = L_X i_Y - i_Y L_X."""
        lx = self.LX.matrix
        return InteriorDerivative.from_matrix(
            _same_complex(self.LX, iy), lx @ iy.matrix - iy.matrix @ lx)


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
    c: Complex, seed, support=ODD_DEGREES, integer_coeffs: bool = False
) -> InteriorDerivative:
    """Edge field with one random coefficient per edge (seeded).

    A support degree the complex lacks contributes nothing, as degree 0 does.
    """
    rng = np.random.default_rng(seed)
    coeffs = {}
    for e in c.edges():
        coeffs[e] = int(rng.integers(0, 2)) if integer_coeffs else float(rng.random())
    return build_edge_field(c, coeffs, support=support)


def deterministic_field(c: Complex) -> InteriorDerivative:
    """Degree-1 field copying, per vertex, the first unit entry of d^T."""
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
    return InteriorDerivative.from_matrix(c, exterior_derivative(c).matrix.T)


def sparsified_adjoint_field(c: Complex, p: float, seed) -> InteriorDerivative:
    """d^T with each nonzero entry kept independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise FieldError(f"keep probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    dt = exterior_derivative(c).matrix.T.copy()
    rows, cols = np.nonzero(dt)
    drop = rng.random(rows.size) >= p
    dt[rows[drop], cols[drop]] = 0
    return InteriorDerivative.from_matrix(c, dt)


FIELD_KINDS = ("adjoint", "zero", "deterministic", "edge-random", "sparsified")


def canonical_fields(
    c: Complex,
    kind: str,
    p: float = 1.0,
    seed=0,
    support=ODD_DEGREES,
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
    which `from_matrix` has already decided as `ix.nilpotent_verified`.
    """
    c = _same_complex(d, ix)
    dm = d.matrix
    im = ix.matrix
    return CartanOperators(
        ix,
        GradedOperator(dm + im, c),
        GradedOperator(dm @ im + im @ dm, c),
    )


def lie_bracket(
    ix: InteriorDerivative, iy: InteriorDerivative, d: GradedOperator
) -> InteriorDerivative:
    """i_[X,Y] = L_X i_Y - i_Y L_X."""
    return cartan(d, ix).bracket(iy)
