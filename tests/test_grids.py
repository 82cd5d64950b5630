"""Grid generation, symmetry, exact embedding, uncolourable subsystems."""

import itertools
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from kssearch.graphs import Graph, _bits, is_square_free, triangles
from kssearch.colouring import is_k_colourable, solve_101, validate_101
from kssearch import grids
from kssearch.grids import (
    GridEmbedding,
    _axis_first,
    direction_count,
    enumerate_grid_subsystems,
    get_grid,
    grid_embed,
    minimize_uncolourable,
    normalize_direction,
    orthogonal_representatives,
    validate_grid_embedding,
)
from kssearch.orderly import enumerate_graphs

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
    for n in range(2, 7):
        for g in enumerate_graphs(n):
            emb = None
            for gn in (1, 2, 3):
                emb = grid_embed(g, gn)
                if emb:
                    break
            if emb is not None:
                assert is_k_colourable(g, 4)[0]


# ---------------------------------------------------------------------------
# Oracles: the pair/triple orbit scans and the pin-loop embedding search that
# orthogonal_representatives and grid_embed replaced.

def _reference_orbit_key(vectors):
    best = None
    for p in itertools.permutations(range(3)):
        for s in itertools.product((1, -1), repeat=3):
            img = tuple(
                normalize_direction((v[p[0]] * s[0], v[p[1]] * s[1], v[p[2]] * s[2]))
                for v in vectors
            )
            if best is None or img < best:
                best = img
    return best


@lru_cache(maxsize=None)
def _reference_representatives(n, k):
    grid = get_grid(n)
    dirs, rows = grid.directions, grid.graph.rows
    reps = {}
    for i in range(len(dirs)):
        for j in _bits(rows[i]):
            if k == 2:
                tuples = [(dirs[i], dirs[j])]
            else:
                tuples = [(dirs[i], dirs[j], dirs[m]) for m in _bits(rows[i] & rows[j])]
            for t in tuples:
                reps.setdefault(_reference_orbit_key(t), t)
    return tuple(_axis_first(n, [reps[key] for key in sorted(reps)]))


def _reference_grid_embed(g, n):
    if not is_square_free(g):
        return None
    grid = get_grid(n)
    dirs = grid.directions
    orth = grid.graph.rows
    dir_index = {d: i for i, d in enumerate(dirs)}
    tris = triangles(g)
    if tris:
        pinned = list(tris[0])
        pin_sets = _reference_representatives(n, 3)
    elif g.edge_count() > 0:
        pinned = list(g.edges()[0])
        pin_sets = _reference_representatives(n, 2)
    else:
        pinned = []
        pin_sets = [()]
    rest = sorted((v for v in range(g.n) if v not in pinned), key=lambda v: (-g.degree(v), v))
    vorder = pinned + rest
    full = (1 << len(dirs)) - 1

    def search(assign, cand, depth):
        if depth == g.n:
            return True
        v = vorder[depth]
        m = cand[v]
        while m:
            b = m & -m
            m ^= b
            d = b.bit_length() - 1
            new_cand = list(cand)
            ok = True
            for u in range(g.n):
                if assign[u] is None and u != v:
                    c = new_cand[u] & ~b
                    if g.has_edge(u, v):
                        c &= orth[d]
                    new_cand[u] = c
                    if c == 0:
                        ok = False
                        break
            if not ok:
                continue
            assign[v] = d
            if search(assign, new_cand, depth + 1):
                return True
            assign[v] = None
        return False

    for pins in pin_sets:
        assign = [None] * g.n
        cand = [full] * g.n
        ok = True
        for v, d in zip(pinned, pins):
            di = dir_index[d]
            if not cand[v] >> di & 1:
                ok = False
                break
            assign[v] = di
            for u in range(g.n):
                if assign[u] is None:
                    c = cand[u] & ~(1 << di)
                    if g.has_edge(u, v):
                        c &= orth[di]
                    cand[u] = c
            if any(cand[u] == 0 for u in range(g.n) if assign[u] is None):
                ok = False
                break
        if not ok:
            continue
        if search(assign, cand, len(pinned)):
            return GridEmbedding(n, tuple(dirs[assign[v]] for v in range(g.n)))
    return None


def _same_embedding(g, n):
    emb, ref = grid_embed(g, n), _reference_grid_embed(g, n)
    return (emb is None and ref is None) or (
        emb is not None and ref is not None and emb.mapping == ref.mapping
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orthogonal_representatives_match_reference(n):
    for k in (2, 3):
        assert orthogonal_representatives(get_grid(n), k) == _reference_representatives(n, k)


def test_grid_embed_matches_reference_small_graphs():
    for k in range(1, 8):
        for g in enumerate_graphs(k):
            for n in (1, 2, 3):
                assert _same_embedding(g, n), (k, g.rows, n)


@lru_cache(maxsize=None)
def _n2_candidates():
    grid = get_grid(2)
    subs = []
    for seed in (None, 0, 1):
        order = list(range(len(grid.directions)))
        if seed is not None:
            random.Random(seed).shuffle(order)
        subs.append(minimize_uncolourable(grid, order).graph)
    return subs


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_grid_embed_matches_reference_relabelled_candidates(data):
    g = data.draw(st.sampled_from(_n2_candidates()))
    perm = data.draw(st.permutations(range(g.n)))
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    for n in range(1, 6):
        assert _same_embedding(h, n)


@pytest.mark.parametrize("n", [1, 3, 5, 7])
def test_uncolourable_graph_on_colourable_grid_needs_no_search(n, monkeypatch):
    # a grid embedding would pull the grid's 101-colouring back onto g
    assert solve_101(get_grid(n).graph) is not None

    def no_search(*args):
        raise AssertionError("grid_embed searched a colourable grid")

    monkeypatch.setattr(grids, "orthogonal_representatives", no_search)
    for g in _n2_candidates():
        assert solve_101(g) is None
        assert grid_embed(g, n) is None


def test_minimize_uncolourable_requires_uncolourable():
    with pytest.raises(ValueError):
        minimize_uncolourable(get_grid(1), list(range(13)))


def _restart_greedy_indices(grid, order):
    """Remove the first removable vertex in scan order, then rescan from the start."""
    current = set(range(len(grid.directions)))
    while True:
        for v in order:
            if v in current and solve_101(grid.graph.induced(sorted(current - {v}))) is None:
                current.remove(v)
                break
        else:
            return tuple(sorted(current))


def test_minimize_n2_critical():
    sys2 = get_grid(2)
    for seed in (None, 0, 1, 2, 3, 4, 5):
        order = list(range(len(sys2.directions)))
        if seed is not None:
            random.Random(seed).shuffle(order)
        sub = minimize_uncolourable(sys2, order)
        assert 31 <= len(sub.indices) <= 41
        assert solve_101(sub.graph) is None
        # critical: removing any single vertex restores colourability
        for v in range(len(sub.indices)):
            rest = [i for i in range(len(sub.indices)) if i != v]
            assert solve_101(sub.graph.induced(rest)) is not None
        assert sub.indices == _restart_greedy_indices(sys2, order), seed


def test_subsystem_stream_n1_empty():
    out = list(enumerate_grid_subsystems(get_grid(1), size_bound=13, budget=50))
    assert out == []


def test_subsystem_stream_n2_finds_31():
    sys2 = get_grid(2)
    found = list(
        enumerate_grid_subsystems(sys2, size_bound=31, budget=3, mode="sample", seeds=(None, 0, 1))
    )
    assert found, "identity scan order reaches a 31-vertex critical system"
    for sub in found:
        assert len(sub.indices) == 31
        assert solve_101(sub.graph) is None


def test_subsystem_stream_runs_first_budget_seeds(monkeypatch):
    sys2 = get_grid(2)
    identity = list(range(len(sys2.directions)))
    minimize = grids.minimize_uncolourable
    orders = []

    def recorded(sys_, order):
        orders.append(order)
        return minimize(sys_, order)

    monkeypatch.setattr(grids, "minimize_uncolourable", recorded)
    out = list(
        enumerate_grid_subsystems(sys2, size_bound=31, budget=1, mode="sample", seeds=(None, 0))
    )
    # seed 0 lies beyond the budget: it is never run, and nothing marks the stop
    assert orders == [identity]
    assert [sub.indices for sub in out] == [minimize(sys2, identity).indices]
