"""Finite abstract simplicial complexes with a canonical graded basis.

A complex is stored as an ordered list of simplices, sorted by
(cardinality, lexicographic).  That order makes the exterior derivative
strictly block-lower and every interior derivative strictly block-upper,
which the deformation code relies on.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

MAX_SIMPLICES = 4096
# A facet of k vertices has 2^k - 1 faces, so a wider facet alone exceeds the cap.
MAX_FACET_VERTICES = (MAX_SIMPLICES + 1).bit_length() - 1


class ComplexError(ValueError):
    """Invalid simplex or complex input."""


Simplex = tuple[int, ...]


def _as_simplex(vertices) -> Simplex:
    s = tuple(sorted(set(int(v) for v in vertices)))
    if not s:
        raise ComplexError("simplex must be non-empty")
    if any(v < 1 for v in s):
        raise ComplexError(f"vertex labels must be positive integers, got {s}")
    return s


def _check_size(count: int) -> None:
    if count > MAX_SIMPLICES:
        raise ComplexError(f"complex exceeds the {MAX_SIMPLICES} simplex limit ({count} found)")


def _basis_key(s: Simplex):
    return (len(s), s)


@dataclass(frozen=True)
class Complex:
    """Immutable simplicial complex over a canonically ordered basis."""

    simplices: tuple[Simplex, ...]
    f_vector: tuple[int, ...]
    block_offsets: tuple[int, ...]
    dimension: int

    @staticmethod
    def from_simplices(simplices, require_closed: bool = True) -> "Complex":
        basis = sorted({_as_simplex(s) for s in simplices}, key=_basis_key)
        if not basis:
            raise ComplexError("complex must contain at least one simplex")
        _check_size(len(basis))
        member = set(basis)
        if require_closed:
            for s in basis:
                for k in range(1, len(s)):
                    for face in itertools.combinations(s, k):
                        if face not in member:
                            raise ComplexError(
                                f"not closed: face {face} of {s} is missing"
                            )
        dim = len(basis[-1]) - 1
        f = [0] * (dim + 1)
        for s in basis:
            f[len(s) - 1] += 1
        offsets = [0]
        for count in f:
            offsets.append(offsets[-1] + count)
        return Complex(tuple(basis), tuple(f), tuple(offsets), dim)

    @property
    def n(self) -> int:
        return len(self.simplices)

    def index(self, simplex) -> int:
        return self._index_map()[_as_simplex(simplex)]

    def __contains__(self, simplex) -> bool:
        return _as_simplex(simplex) in self._index_map()

    def _index_map(self) -> dict:
        # lazily cached; frozen dataclass so stash via object.__setattr__
        cached = self.__dict__.get("_idx")
        if cached is None:
            cached = {s: i for i, s in enumerate(self.simplices)}
            object.__setattr__(self, "_idx", cached)
        return cached

    def degrees(self) -> np.ndarray:
        """Degree (cardinality - 1) of each basis element."""
        return np.repeat(np.arange(self.dimension + 1), self.f_vector)

    def degree_shifts(self, matrix) -> np.ndarray:
        """deg(row) - deg(col) at each nonzero entry of an operator on this basis."""
        rows, cols = np.nonzero(matrix)
        deg = self.degrees()
        return deg[rows] - deg[cols]

    def block(self, p: int) -> slice:
        """Index range of the degree-p basis elements."""
        if not 0 <= p <= self.dimension:
            raise ComplexError(f"degree {p} out of range 0..{self.dimension}")
        return slice(self.block_offsets[p], self.block_offsets[p + 1])

    def edges(self) -> list[Simplex]:
        return [s for s in self.simplices if len(s) == 2]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * fk for k, fk in enumerate(self.f_vector))

    def to_json(self) -> str:
        return json.dumps({"simplices": [list(s) for s in self.simplices]})


def generate_closure(facets) -> Complex:
    """Downward closure of a facet list: all non-empty subsets, deduplicated.

    A facet too wide for the size cap is rejected before it is enumerated,
    and the running union is checked after each facet, so no input makes
    this hold more than about twice MAX_SIMPLICES faces.
    """
    closed = set()
    for f in map(_as_simplex, facets):
        if len(f) > MAX_FACET_VERTICES:
            raise ComplexError(
                f"facet {f} has {len(f)} vertices; its closure alone exceeds "
                f"the {MAX_SIMPLICES} simplex limit"
            )
        for k in range(1, len(f) + 1):
            closed.update(itertools.combinations(f, k))
        _check_size(len(closed))
    return Complex.from_simplices(closed, require_closed=False)


def random_complex(n: int, m: int, seed: int) -> Complex:
    """Closure of m random vertex subsets of {1..n}.

    Each trial draws k uniform in {1..n}, then k vertices with replacement.
    Deterministic for a fixed seed.
    """
    if n < 1 or m < 1:
        raise ComplexError("random_complex needs n >= 1 and m >= 1")
    rng = np.random.default_rng(seed)

    def facets():
        for _ in range(m):
            k = int(rng.integers(1, n + 1))
            yield set(int(v) for v in rng.integers(1, n + 1, size=k))

    return generate_closure(facets())


def whitney_complex(edges) -> Complex:
    """Clique complex of a simple undirected graph given by its edge list."""
    edge_set = set()
    vertices = set()
    for e in edges:
        e = _as_simplex(e)
        if len(e) != 2:
            raise ComplexError(f"edge must join two distinct vertices, got {e}")
        edge_set.add(e)
        vertices.update(e)
    adj = {v: set() for v in vertices}
    for u, v in edge_set:
        adj[u].add(v)
        adj[v].add(u)

    cliques: set[Simplex] = set()

    def grow(clique: Simplex, candidates: set):
        cliques.add(clique)
        _check_size(len(cliques))
        for v in sorted(candidates):
            grow(clique + (v,), {u for u in candidates & adj[v] if u > v})

    for v in sorted(vertices):
        grow((v,), {u for u in adj[v] if u > v})
    return Complex.from_simplices(cliques, require_closed=False)


def _vertex_lists(value) -> list:
    # JSON arrays of integers only: no floats, bools or strings read as labels
    if not isinstance(value, list) or not all(
        isinstance(s, list) and all(type(v) is int for v in s) for s in value
    ):
        raise ComplexError("simplices must be JSON arrays of integer vertex labels")
    return value


def load_complex(path) -> Complex:
    """Load a complex from JSON: {"facets": [...]} or {"simplices": [...]}."""
    with open(path) as fh:
        try:
            data = json.load(fh)
            if "facets" in data:
                return generate_closure(_vertex_lists(data["facets"]))
            if "simplices" in data:
                return Complex.from_simplices(_vertex_lists(data["simplices"]), require_closed=True)
        except ComplexError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise ComplexError(f"malformed complex file {path}: {exc}") from exc
    raise ComplexError("complex JSON must contain 'facets' or 'simplices'")
