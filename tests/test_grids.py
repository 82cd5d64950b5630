"""Grid generation, symmetry, exact embedding, uncolourable subsystems."""

import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from kssearch.graphs import Graph, is_square_free
from kssearch.colouring import is_k_colourable, solve_101, validate_101
from kssearch.grids import (
    EmbedBudgetExceeded,
    TruncationMarker,
    direction_count,
    enumerate_grid_subsystems,
    get_grid,
    grid_embed,
    minimize_uncolourable,
    normalize_direction,
    validate_grid_embedding,
)

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])


def brute_direction_count(n):
    pts = set()
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            for z in range(-n, n + 1):
                if max(abs(x), abs(y), abs(z)) == n:
                    pts.add(normalize_direction((x, y, z)))
    return len(pts)


@pytest.mark.parametrize("n", range(1, 13))
def test_direction_count_formula(n):
    assert len(get_grid(n).directions) == direction_count(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_direction_count_brute(n):
    assert direction_count(n) == brute_direction_count(n)


def test_known_counts():
    assert direction_count(1) == 13
    assert direction_count(2) == 49
    assert direction_count(4) == 193


coord = st.integers(-9, 9)


@given(coord, coord, coord)
def test_normalization_antipodal(x, y, z):
    if (x, y, z) == (0, 0, 0):
        return
    a = normalize_direction((x, y, z))
    b = normalize_direction((-x, -y, -z))
    assert a == b
    zz, yy, xx = a[2], a[1], a[0]
    assert zz > 0 or (zz == 0 and (yy > 0 or (yy == 0 and xx > 0)))


@given(coord, coord, coord, coord, coord, coord)
def test_orthogonality_invariant_under_normalization(x1, y1, z1, x2, y2, z2):
    if (x1, y1, z1) == (0, 0, 0) or (x2, y2, z2) == (0, 0, 0):
        return
    a = normalize_direction((x1, y1, z1))
    b = normalize_direction((x2, y2, z2))
    raw = x1 * x2 + y1 * y2 + z1 * z2
    normed = a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    assert (raw == 0) == (normed == 0)


def test_n1_grid_structure():
    sys1 = get_grid(1)
    g = sys1.graph
    assert g.n == 13
    i = sys1.directions.index((0, 0, 1))
    assert g.degree(i) == 4
    axes = [sys1.directions.index(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for a in range(3):
        for b in range(a + 1, 3):
            assert g.has_edge(axes[a], axes[b])
    # recorded by direct check: the 13-direction grid graph has no 4-cycle
    assert is_square_free(g)
    # and it is 101-colourable (witness recorded by the verify bundle)
    w = solve_101(g)
    assert w is not None and validate_101(g, w)


def test_example_dot_product():
    # (1,1,2).(1,1,-1) = 0: adjacent after normalization on the N=2 grid
    sys2 = get_grid(2)
    a = sys2.directions.index(normalize_direction((1, 1, 2)))
    # (1,1,-1) has Chebyshev norm 1; its norm-2 representative is (2,2,-2)
    b = sys2.directions.index(normalize_direction((2, 2, -2)))
    assert sys2.graph.has_edge(a, b)


def test_k3_axis_embedding():
    emb = grid_embed(K3, 1)
    assert emb is not None and validate_grid_embedding(K3, emb)
    assert set(emb.mapping) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_c4_never_embeds():
    for n in (1, 2, 3):
        assert grid_embed(C4, n) is None


def test_k13_embedding_n2():
    emb = grid_embed(K13, 2)
    assert emb is not None and validate_grid_embedding(K13, emb)
    centre = emb.mapping[0]
    for leaf in emb.mapping[1:]:
        assert sum(a * b for a, b in zip(centre, leaf)) == 0
    assert len(set(emb.mapping)) == 4


def test_embedded_implies_four_colourable():
    from kssearch.orderly import enumerate_graphs

    for n in range(2, 7):
        for g in enumerate_graphs(n):
            emb = None
            for gn in (1, 2, 3):
                emb = grid_embed(g, gn)
                if emb:
                    break
            if emb is not None:
                assert is_k_colourable(g, 4)[0]


def test_budget_error_distinct_from_not_found():
    sub = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
    with pytest.raises(EmbedBudgetExceeded):
        grid_embed(sub, 3, node_limit=2)


def test_minimize_uncolourable_requires_uncolourable():
    with pytest.raises(ValueError):
        minimize_uncolourable(get_grid(1))


def test_minimize_n2_critical():
    sys2 = get_grid(2)
    sub = minimize_uncolourable(sys2)
    assert len(sub.indices) >= 31
    assert solve_101(sub.graph) is None
    # critical: removing any single vertex restores colourability (spot check)
    rng = random.Random(0)
    picks = rng.sample(range(len(sub.indices)), 5)
    for v in picks:
        rest = [i for i in range(len(sub.indices)) if i != v]
        assert solve_101(sub.graph.induced(rest)) is not None


def test_subsystem_stream_n1_empty():
    out = list(enumerate_grid_subsystems(get_grid(1), size_bound=13, budget=50))
    assert out == []


def test_subsystem_stream_n2_finds_31():
    sys2 = get_grid(2)
    found = []
    for item in enumerate_grid_subsystems(
        sys2, size_bound=31, budget=3, mode="sample", seeds=(None, 0, 1)
    ):
        if isinstance(item, TruncationMarker):
            break
        found.append(item)
    assert found, "identity scan order reaches a 31-vertex critical system"
    for sub in found:
        assert len(sub.indices) == 31
        assert solve_101(sub.graph) is None


def test_subsystem_stream_truncation_marker():
    sys2 = get_grid(2)
    out = list(
        enumerate_grid_subsystems(sys2, size_bound=31, budget=1, mode="sample", seeds=(None, 0))
    )
    assert isinstance(out[-1], TruncationMarker)


def test_grid_system_json():
    import json

    data = json.loads(get_grid(1).to_json())
    assert data["N"] == 1 and len(data["directions"]) == 13
