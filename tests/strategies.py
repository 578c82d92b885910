"""Shared hypothesis strategy: a random complex with integer fields on it."""

import numpy as np
from hypothesis import strategies as st

from cartanflow import build_edge_field, canonical_fields, random_complex
from cartanflow.fields import FIELD_KINDS

# "accumulate" sums the edge coefficients that meet at one entry of i_X,
# the edge-field mode in which i_X^2 != 0 is common
KINDS = FIELD_KINDS + ("accumulate",)
SUPPORTS = [(1, 3, 5, 7, 9), tuple(range(10)), (1, 2)]
seeds = st.integers(0, 2**32 - 1)


def integer_field(c, kind, seed, p, support):
    """The integer field of `kind`, one of KINDS, on c."""
    if kind == "accumulate":
        rng = np.random.default_rng(seed)
        coeffs = {e: int(rng.choice([-2, -1, 1, 2])) for e in c.edges()}
        return build_edge_field(c, coeffs, support=support, overwrite_order=False)
    return canonical_fields(c, kind, p, seed, support, integer_coeffs=True)


@st.composite
def complex_with_fields(draw, count=1, n=st.integers(3, 6), m=st.integers(3, 8)):
    """(c, i_X, ...): random_complex(n, m, seed) and `count` integer fields on it."""
    c = random_complex(draw(n), draw(m), draw(seeds))
    return (c, *(integer_field(c, draw(st.sampled_from(KINDS)), draw(seeds),
                               draw(st.floats(0.2, 0.8)), draw(st.sampled_from(SUPPORTS)))
                 for _ in range(count)))
