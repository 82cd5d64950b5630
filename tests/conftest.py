"""Fixtures shared by the embedding and acceptance tests."""

import math

import pytest

from kssearch.constraints import build_constraint_system
from kssearch.graphs import graph6_decode
from kssearch.grids import grid_embed


@pytest.fixture
def planted_star():
    """The star K_{1,5} and a solution of its delta = 1e-4 system that lies
    in the system's initial box.

    The star's N = 2 grid embedding pins vertices 0 and 1 on the axes the
    system pins, so its unit-scaled free directions solve the system.  The
    flip lemma's x and y flips then carry that solution into the box: for
    each coordinate, when it is negative on the first slot where it is not
    a coordinate zero, it is negated on every slot.
    """
    star = graph6_decode("Esa?")
    cs = build_constraint_system(star, 1e-4)
    mapping = grid_embed(star, 2).mapping
    assert all(mapping[v] == tuple(2 * c for c in axis) for v, axis in cs.pinned)
    point = [c / math.hypot(*mapping[v]) for v in cs.free for c in mapping[v]]
    for c in (0, 1):
        nonzero = [s for s in range(len(cs.free)) if (s, c) not in cs.coord_zero]
        if nonzero and point[3 * nonzero[0] + c] < 0:
            point[c::3] = [-x for x in point[c::3]]
    box = cs.initial_box()
    assert all(a <= x <= b for a, b, x in zip(box.lo, box.hi, point))
    return star, point
