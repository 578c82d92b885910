import itertools

import numpy as np
import pytest

from cartanflow import (
    Complex,
    ComplexError,
    generate_closure,
    load_complex,
    random_complex,
    whitney_complex,
)


def test_closure_of_single_edge():
    c = generate_closure([(1, 2)])
    assert c.simplices == ((1,), (2,), (1, 2))


def test_closure_of_triangle_is_power_set():
    c = generate_closure([(1, 2, 3)])
    assert c.simplices == (
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    )


def test_closure_of_two_edges():
    c = generate_closure([(1, 2), (2, 3)])
    assert c.simplices == ((1,), (2,), (3,), (1, 2), (2, 3))


def test_closure_rejects_bad_input():
    with pytest.raises(ComplexError):
        generate_closure([()])
    with pytest.raises(ComplexError):
        generate_closure([(0, 1)])


@pytest.mark.parametrize("width", [13, 40])
def test_closure_rejects_facet_too_wide_for_the_cap(width):
    # 2^13 - 1 faces already exceed MAX_SIMPLICES; a 40-vertex facet must be
    # refused before any of its 2^40 - 1 faces are listed
    with pytest.raises(ComplexError, match="vertices"):
        generate_closure([range(1, width + 1)])


def test_closure_keeps_widest_facet_under_the_cap():
    assert generate_closure([range(1, 13)]).n == 2**12 - 1


def test_whitney_stops_at_the_cap():
    # K_40 has 2^40 - 1 cliques; enumeration must stop once the cap is passed
    with pytest.raises(ComplexError, match="limit"):
        whitney_complex(itertools.combinations(range(1, 41), 2))


@pytest.mark.parametrize("seed", range(5))
def test_closure_property_of_random_complex(seed):
    c = random_complex(5, 8, seed)
    members = set(c.simplices)
    for s in c.simplices:
        for k in range(1, len(s)):
            for face in itertools.combinations(s, k):
                assert face in members


def test_random_complex_is_deterministic():
    assert random_complex(10, 20, 42).simplices == random_complex(10, 20, 42).simplices


def test_random_complex_single_vertex():
    assert random_complex(1, 1, 0).simplices == ((1,),)


def test_random_complex_rejects_bad_counts():
    with pytest.raises(ComplexError):
        random_complex(0, 3, 0)
    with pytest.raises(ComplexError):
        random_complex(3, 0, 0)


def test_whitney_k2():
    c = whitney_complex([(1, 2)])
    assert c.f_vector == (2, 1)


def test_whitney_c4():
    c = whitney_complex([(1, 2), (2, 3), (3, 4), (4, 1)])
    assert c.n == 8
    assert c.f_vector == (4, 4)


def test_whitney_k3_fills_triangle():
    c = whitney_complex([(1, 2), (1, 3), (2, 3)])
    assert c.n == 7
    assert (1, 2, 3) in c


def test_whitney_rejects_loops():
    with pytest.raises(ComplexError):
        whitney_complex([(1, 1)])


def test_grading_summary_fixtures():
    k2 = whitney_complex([(1, 2)])
    assert (k2.f_vector, k2.block_offsets, k2.dimension) == ((2, 1), (0, 2, 3), 1)
    assert k2.euler_characteristic() == 1
    c4 = whitney_complex([(1, 2), (2, 3), (3, 4), (4, 1)])
    assert (c4.f_vector, c4.block_offsets, c4.dimension) == ((4, 4), (0, 4, 8), 1)
    assert c4.euler_characteristic() == 0
    k3 = whitney_complex([(1, 2), (1, 3), (2, 3)])
    assert (k3.f_vector, k3.dimension, k3.euler_characteristic()) == ((3, 3, 1), 2, 1)


@pytest.mark.parametrize("k", range(1, 9))
def test_full_simplex_euler_characteristic_is_one(k):
    c = generate_closure([tuple(range(1, k + 1))])
    assert c.euler_characteristic() == 1


def test_basis_order_is_canonical_and_stable():
    c = random_complex(6, 10, 3)
    assert list(c.simplices) == sorted(c.simplices, key=lambda s: (len(s), s))
    assert sum(c.f_vector) == c.n
    assert c.block_offsets[-1] == c.n


def test_vertex_labels_need_not_be_contiguous():
    c = generate_closure([(2, 9)])
    assert c.simplices == ((2,), (9,), (2, 9))


def test_json_roundtrip(tmp_path):
    c = random_complex(5, 6, 1)
    path = tmp_path / "c.json"
    path.write_text(c.to_json())
    assert load_complex(path).simplices == c.simplices


def test_load_facets_takes_closure(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"facets": [[1,2],[2,3,4]]}')
    c = load_complex(path)
    assert (2, 3, 4) in c and (3, 4) in c and (1,) in c


def test_load_unclosed_simplices_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"simplices": [[1,2]]}')
    with pytest.raises(ComplexError):
        load_complex(path)
