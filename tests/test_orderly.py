"""Canonicity, canonical labelling, orderly enumeration, tickets and the
brute-force oracle."""

import collections
import functools
import itertools
import random

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from kssearch.graphs import (
    ENUM_MAX_VERTICES,
    Graph,
    encode_upper_triangle,
    graph_from_code,
    is_connected,
    is_square_free,
)
from kssearch.grids import get_grid, minimize_uncolourable
from kssearch import orderly
from kssearch.orderly import (
    DEFAULT_NODE_LIMIT,
    CanonicalBudgetExceeded,
    SubtreeTicket,
    _spread_rows,
    brute_force_classes,
    canonical_code,
    canonical_label,
    enumerate_graphs,
    extend,
    is_canonical,
    list_tickets,
)

K1 = Graph(1, (0,))
K2 = Graph.from_edges(2, [(0, 1)])
K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def relabel(g, perm):
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@functools.cache
def _perms(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def brute_is_canonical(g):
    """The identity's code against the codes of all n! relabelings."""
    n = g.n
    adj = np.array([[g.rows[u] >> v & 1 for v in range(n)] for u in range(n)], dtype=np.int64)
    perms = _perms(n)  # perms[0] is the identity
    codes = np.zeros(len(perms), dtype=np.int64)
    for j in range(1, n):
        for i in range(j):
            codes = codes << 1 | adj[perms[:, i], perms[:, j]]
    return bool(codes[0] == codes.max())


def labelled_graphs(n):
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, [p for b, p in enumerate(pairs) if mask >> b & 1])


def star(m):
    return Graph.from_edges(m + 1, [(0, i) for i in range(1, m + 1)])


def double_star(a, b):
    """Adjacent centres 0 and 1 with a and b leaves."""
    leaves = [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
    return Graph.from_edges(2 + a + b, [(0, 1)] + leaves)


def spider(m, legs):
    """K1,m whose first leaves carry pendant paths of the given lengths."""
    edges = [(0, i) for i in range(1, m + 1)]
    n = m + 1
    for leaf, length in enumerate(legs, 1):
        prev = leaf
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph.from_edges(n, edges)


TWIN_HEAVY = [
    star(5), star(6), star(7),
    double_star(2, 2), double_star(3, 2), double_star(3, 3), double_star(2, 4),
    spider(4, [1]), spider(4, [1, 1]), spider(3, [2]), spider(5, [1, 1]), spider(3, [1, 1, 1]),
    Graph.from_edges(6, [(u, v) for u in range(2) for v in range(2, 6)]),  # K2,4
    Graph.from_edges(7, [(0, 1)] + [(u, v) for u in range(2) for v in range(2, 7)]),  # book
    Graph.from_edges(6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),  # K6
]


@pytest.mark.parametrize("n", range(1, 6))
def test_is_canonical_matches_brute_force_on_every_labelled_graph(n):
    for g in labelled_graphs(n):
        expected = brute_is_canonical(g)
        assert is_canonical(g) == expected, g


@pytest.mark.parametrize("g", TWIN_HEAVY, ids=encode_upper_triangle)
def test_is_canonical_matches_brute_force_on_twin_heavy_graphs(g):
    rng = random.Random(g.n)
    labellings = [g, canonical_label(g)]
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        labellings += [relabel(g, perm), relabel(canonical_label(g), perm)]
    for h in labellings:
        expected = brute_is_canonical(h)
        assert is_canonical(h) == expected


@settings(max_examples=40, deadline=None)
@given(st.integers(6, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.sampled_from(
        [(i, j) for j in range(1, n) for i in range(j)])))
))
def test_is_canonical_matches_brute_force_on_drawn_graphs(drawn):
    n, edges = drawn
    g = Graph.from_edges(n, edges)
    for h in (g, canonical_label(g)):
        expected = brute_is_canonical(h)
        assert is_canonical(h) == expected


def test_extend_matches_brute_force_children():
    """extend(P) lists, in descending code order, exactly the oracle's classes
    on one more vertex whose canonical form has P as its prefix."""
    for k in range(1, 7):
        children = {}
        for g in brute_force_classes(k + 1):
            prefix = Graph(k, tuple(r & ((1 << k) - 1) for r in g.rows[:k]))
            children.setdefault(prefix, []).append(encode_upper_triangle(g))
        prefixes = set(brute_force_classes(k))
        if k <= 4:
            # non-canonical and disconnected prefixes have no canonical
            # extension
            prefixes.update(g for g in labelled_graphs(k) if is_square_free(g))
        for p in prefixes:
            expected = sorted(children.pop(p, []), reverse=True)
            assert [encode_upper_triangle(c) for c in extend(p)] == expected, p
        assert not children


@pytest.mark.parametrize("k", [7, 8])
def test_extend_matches_is_canonical_on_every_column(k):
    """extend(P) lists, in descending code order, exactly the square-free
    children of P that is_canonical accepts, for every canonical prefix P
    on k vertices; the brute-force oracle stops short of these sizes."""
    for p in enumerate_graphs(k):
        expected = []
        # column S's code value puts vertex 0's bit first
        for code in range((1 << k) - 1, 0, -1):
            S = [i for i in range(k) if code >> (k - 1 - i) & 1]
            if any(p.rows[i] & p.rows[j] for i, j in itertools.combinations(S, 2)):
                continue
            child = Graph.from_edges(k + 1, list(p.edges()) + [(i, k) for i in S])
            if is_canonical(child):
                expected.append(encode_upper_triangle(child))
        assert [encode_upper_triangle(c) for c in extend(p)] == expected, p


def test_canonicity_examples():
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        assert is_canonical(relabel(K3, perm))
    assert is_canonical(graph_from_code(3, "110"))
    assert not is_canonical(graph_from_code(3, "101"))
    assert is_canonical(graph_from_code(4, "110100"))  # star, centre first


def test_canonical_label_examples():
    for code in ("110", "101", "011"):
        assert encode_upper_triangle(canonical_label(graph_from_code(3, code))) == "110"
    assert canonical_code(K3) != canonical_code(graph_from_code(3, "110"))


def test_canonical_label_invariant_under_relabeling():
    rng = random.Random(99)
    for _ in range(150):
        n = rng.randint(2, 9)
        g = random_graph(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_code(g) == canonical_code(relabel(g, perm))
        assert is_canonical(canonical_label(g))


def test_canonical_label_budget(monkeypatch):
    g = random_graph(random.Random(1), 9, 0.5)
    monkeypatch.setattr(orderly, "DEFAULT_NODE_LIMIT", 3)
    with pytest.raises(CanonicalBudgetExceeded):
        canonical_label(g)


# ---------------------------------------------------------------------------
# canonical_label's cell search against the placement search it replaced

def _reference_canonical_label(g, limit=DEFAULT_NODE_LIMIT):
    """The earlier canonical_label: branch-and-bound over single placements.

    Every tied candidate is placed alone, so ties multiply the tree; kept
    only as the oracle for the cell search.
    """
    n = g.n
    if n == 1:
        return g
    rows = g.rows
    restrict = is_connected(g)
    full = (1 << n) - 1
    width = n
    fmask = (1 << width) - 1
    spread = _spread_rows(n, rows, width)
    best_cols = [-1] * n
    best_cols[0] = 0
    best_perm = None
    perm = [0] * n
    nodes = 0

    def rec(depth, used, frontier, packed):
        nonlocal nodes, best_perm
        nodes += 1
        if nodes > limit:
            raise CanonicalBudgetExceeded(f"canonical_label exceeded {limit} nodes on n={n}")
        if depth == n:
            best_perm = perm.copy()
            return
        cand = (frontier if (restrict and depth) else full) & ~used
        cands = []
        m = cand
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            cands.append((-(packed >> w * width & fmask), w))
        cands.sort()
        for negcv, w in cands:
            cv = -negcv
            t = best_cols[depth]
            if t >= 0 and cv < t:
                break
            if cv > t:
                best_cols[depth] = cv
                for d in range(depth + 1, n):
                    best_cols[d] = -1
            perm[depth] = w
            rec(depth + 1, used | 1 << w, frontier | rows[w], packed << 1 | spread[w])

    rec(0, 0, 0, 0)
    assert best_perm is not None
    new_rows = [0] * n
    for i in range(n):
        ri = rows[best_perm[i]]
        r = 0
        for j in range(n):
            if ri >> best_perm[j] & 1:
                r |= 1 << j
        new_rows[i] = r
    return Graph(n, tuple(new_rows))


def assert_same_label(g):
    assert encode_upper_triangle(canonical_label(g)) == encode_upper_triangle(
        _reference_canonical_label(g)
    ), g


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


@pytest.mark.parametrize("n", range(1, 7))
def test_canonical_label_matches_reference_on_every_labelled_graph(n):
    for g in labelled_graphs(n):
        assert_same_label(g)


@st.composite
def mixed_density_graphs(draw):
    n = draw(st.integers(7, 12))
    p = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    coins = draw(st.lists(st.floats(0, 1), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, c in zip(pairs, coins) if c < p])


@settings(max_examples=150, deadline=None)
@given(mixed_density_graphs())
def test_canonical_label_matches_reference_on_drawn_graphs(g):
    try:
        expected = _reference_canonical_label(g, limit=20_000)
    except CanonicalBudgetExceeded:
        assume(False)
    assert encode_upper_triangle(canonical_label(g)) == encode_upper_triangle(expected)


def blow_up(base, sizes, cliques):
    """Each vertex v of base becomes a clique or an independent set of
    sizes[v] vertices; modules of adjacent vertices are joined completely."""
    start = list(itertools.accumulate(sizes, initial=0))
    edges = []
    for v in range(base.n):
        if cliques[v]:
            edges += itertools.combinations(range(start[v], start[v + 1]), 2)
    for u, v in base.edges():
        edges += itertools.product(range(start[u], start[u + 1]), range(start[v], start[v + 1]))
    return Graph.from_edges(start[-1], edges)


def test_canonical_label_matches_reference_on_blow_ups():
    rng = random.Random(2026)
    for _ in range(150):
        k = rng.randint(2, 5)
        base = random_graph(rng, k, p=rng.choice([0.3, 0.6]))
        sizes = [rng.randint(1, 3) for _ in range(k)]
        cliques = [rng.random() < 0.5 for _ in range(k)]
        assert_same_label(shuffled(blow_up(base, sizes, cliques), rng))


def test_canonical_label_matches_reference_on_grid_subgraphs():
    grid = get_grid(2).graph
    rng = random.Random(7)
    for _ in range(80):
        keep = sorted(rng.sample(range(grid.n), rng.randint(8, 16)))
        assert_same_label(shuffled(grid.induced(keep), rng))


@pytest.mark.parametrize("scan", [None, 0, 1])
def test_canonical_label_matches_reference_on_bench_candidates(scan):
    """The critical subsystems the candidates benchmark deduplicates: 31 and
    33 vertices, with long ties that are not automorphisms."""
    grid = get_grid(2)
    order = list(range(len(grid.directions)))
    if scan is not None:
        random.Random(scan).shuffle(order)
    assert_same_label(minimize_uncolourable(grid, order).graph)


def test_extend_from_k1():
    # the edgeless child "0" is disconnected
    assert [encode_upper_triangle(g) for g in extend(K1)] == ["1"]


def test_extend_from_k2():
    children = extend(K2)
    assert sorted(encode_upper_triangle(g) for g in children) == ["110", "111"]


def test_extend_never_closes_squares():
    for g in enumerate_graphs(5):
        for child in extend(g):
            assert is_square_free(child)


def test_enumerate_small_counts():
    counts = collections.Counter(g.n for g in enumerate_graphs(10, n_min=1))
    assert [counts[n] for n in range(1, 11)] == [1, 1, 2, 3, 8, 19, 57, 186, 740, 3389]
    assert sum(1 for _ in enumerate_graphs(3)) == 2
    assert sum(1 for _ in enumerate_graphs(4)) == 3
    codes = {encode_upper_triangle(g) for g in enumerate_graphs(4)}
    # path, star, paw (triangle plus pendant)
    assert codes == {
        canonical_code(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])),
        canonical_code(Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
        canonical_code(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])),
    }


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_matches_oracle(n):
    oracle = {encode_upper_triangle(g) for g in brute_force_classes(n)}
    enum = [encode_upper_triangle(g) for g in enumerate_graphs(n)]
    assert len(set(enum)) == len(enum)  # pairwise distinct canonical codes
    assert oracle == set(enum)


def test_oracle_counts():
    # connected square-free classes on 1..6 vertices, counted by exhaustion
    assert [len(brute_force_classes(n)) for n in range(1, 7)] == [1, 1, 2, 3, 8, 19]
    with pytest.raises(ValueError, match="n <= 7"):
        brute_force_classes(8)


def test_prefix_closedness_and_connectedness():
    for n in range(2, 8):
        for g in enumerate_graphs(n):
            for k in range(1, n + 1):
                prefix = Graph(k, tuple(r & ((1 << k) - 1) for r in g.rows[:k]))
                assert is_canonical(prefix)
                assert is_connected(prefix)


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
def test_ticket_partition(depth):
    n = 9
    full = [encode_upper_triangle(g) for g in enumerate_graphs(n)]
    merged = []
    for t in list_tickets(depth):
        merged.extend(encode_upper_triangle(g) for g in enumerate_graphs(n, ticket=t))
    assert sorted(merged) == sorted(full)
    assert len(set(merged)) == len(merged)


def test_one_walk_yields_each_level_in_order():
    n_target = 9

    def levels(ticket, n_min):
        walk = list(enumerate_graphs(n_target, ticket, n_min=n_min))
        assert [g.n for g in walk if g.n < n_min] == []
        for m in range(n_min, n_target + 1):
            alone = list(enumerate_graphs(m, ticket))
            assert [g for g in walk if g.n == m] == alone
        return walk

    assert len(levels(None, 1)) == sum(
        len(list(enumerate_graphs(m))) for m in range(1, n_target + 1)
    )
    for t in [None, *list_tickets(4)]:
        levels(t, 5)
    with pytest.raises(ValueError, match="n_min"):
        list(enumerate_graphs(5, n_min=6))


def test_ticket_outside_enumeration_rejected():
    path_021 = Graph.from_edges(3, [(0, 2), (1, 2)])  # P3, not canonical
    edge_12 = Graph.from_edges(3, [(1, 2)])  # disconnected
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for prefix, reason in (
        (path_021, "not canonical"),
        (edge_12, "disconnected"),
        (c4, "4-cycle"),
    ):
        with pytest.raises(ValueError, match=reason):
            list(enumerate_graphs(5, SubtreeTicket(prefix)))


def test_enumeration_cap():
    with pytest.raises(ValueError, match=f"1..{ENUM_MAX_VERTICES}"):
        list(enumerate_graphs(ENUM_MAX_VERTICES + 1))
    # a connected square-free prefix at the cap has no extensions
    at_cap = star(ENUM_MAX_VERTICES - 1)
    assert is_canonical(at_cap) and extend(at_cap) == []


def test_ticket_id_roundtrip():
    for t in list_tickets(5):
        assert SubtreeTicket.from_id(t.ticket_id).prefix == t.prefix
