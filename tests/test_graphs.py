"""Graph representation, predicates, codes and graph6 round trips."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from kssearch.graphs import (
    Graph,
    Graph6Error,
    encode_upper_triangle,
    every_vertex_in_triangle,
    graph6_decode,
    graph6_encode,
    graph_from_code,
    is_connected,
    is_square_free,
    min_degree,
    triangle_core,
    triangles,
)

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
P3 = Graph.from_edges(3, [(0, 1), (0, 2)])  # centre labelled first


def random_graph(rng, n, p=0.4):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_codes_basic():
    assert encode_upper_triangle(K3) == "111"
    assert encode_upper_triangle(Graph(3, (0, 0, 0))) == "000"
    assert encode_upper_triangle(P3) == "110"


def test_p3_codes_all_labelings():
    # all 6 labelings of the path on 3 vertices, codes read off by hand:
    # centre first -> 110; centre second -> 101; centre last -> 011
    seen = set()
    base_edges = [(0, 1), (0, 2)]
    for perm in itertools.permutations(range(3)):
        g = Graph.from_edges(3, [(perm[u], perm[v]) for u, v in base_edges])
        seen.add(encode_upper_triangle(g))
    assert seen == {"110", "101", "011"}


@given(st.integers(1, 12), st.integers(0, 2**66 - 1))
def test_code_bijection(n, seed):
    length = n * (n - 1) // 2
    bits = format(seed % (1 << length), f"0{length}b") if length else ""
    g = graph_from_code(n, bits)
    assert encode_upper_triangle(g) == bits
    g2 = graph_from_code(n, encode_upper_triangle(g))
    assert g2 == g


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(0, ())


def brute_square_free(g):
    for quad in itertools.combinations(range(g.n), 4):
        for cyc in itertools.permutations(quad):
            if cyc[0] != min(cyc):
                continue  # fix rotation
            a, b, c, d = cyc
            if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d) and g.has_edge(d, a):
                return False
    return True


def test_square_free_exhaustive_small():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            code = format(mask, f"0{n * (n - 1) // 2}b") if n > 1 else ""
            g = graph_from_code(n, code)
            assert is_square_free(g) == brute_square_free(g)


def test_square_free_random_n6():
    rng = random.Random(11)
    for _ in range(300):
        g = random_graph(rng, 6)
        assert is_square_free(g) == brute_square_free(g)


def test_square_free_examples():
    assert not is_square_free(C4)
    assert is_square_free(K3)
    assert not is_square_free(K4)


def test_connectivity():
    assert is_connected(Graph(1, (0,)))
    assert not is_connected(Graph(2, (0, 0)))
    assert is_connected(P3)


def test_triangles_examples():
    assert triangles(K3) == [(0, 1, 2)]
    assert triangles(C4) == []
    assert len(triangles(K4)) == 4


def test_triangle_count_matches_trace_oracle():
    rng = random.Random(5)
    for _ in range(100):
        n = rng.randint(3, 12)
        g = random_graph(rng, n)
        a = np.zeros((n, n), dtype=np.int64)
        for u, v in g.edges():
            a[u, v] = a[v, u] = 1
        expected = int(np.trace(a @ a @ a)) // 6
        assert len(triangles(g)) == expected


def test_degree_and_triangle_membership():
    assert min_degree(K4) == 3 and every_vertex_in_triangle(K4)
    assert min_degree(P3) == 1 and not every_vertex_in_triangle(P3)
    assert min_degree(C4) == 2 and not every_vertex_in_triangle(C4)


def test_triangle_core_peels_everything_triangle_free():
    assert triangle_core(C4) == 0
    assert triangle_core(K3) == 0b111
    # paw: triangle plus pendant -> pendant peels
    paw = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert triangle_core(paw) == 0b0111


def in_alive_triangle(g: Graph, v: int, alive: set[int]) -> bool:
    nbrs = [u for u in alive if g.has_edge(u, v)]
    return any(g.has_edge(u, w) for u, w in itertools.combinations(nbrs, 2))


def peeled_core(g: Graph) -> int:
    """Oracle: peel the vertices in no triangle of the alive subgraph until none is left."""
    alive = set(range(g.n))
    while True:
        doomed = {v for v in alive if not in_alive_triangle(g, v, alive)}
        if not doomed:
            return sum(1 << v for v in alive)
        alive -= doomed


def assert_triangle_membership_matches_peel(g: Graph):
    core = peeled_core(g)
    assert triangle_core(g) == core
    assert every_vertex_in_triangle(g) == (core == (1 << g.n) - 1)


def test_triangle_membership_matches_peel_on_every_small_graph():
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
            assert_triangle_membership_matches_peel(Graph.from_edges(n, edges))


@given(st.integers(1, 14), st.integers(0, 2**91 - 1))
def test_triangle_membership_matches_peel_on_drawn_graphs(n, bits):
    pairs = list(itertools.combinations(range(n), 2))
    edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
    assert_triangle_membership_matches_peel(Graph.from_edges(n, edges))


def test_graph6_singleton():
    assert graph6_encode(Graph(1, (0,))) == "@"


def test_graph6_k3_roundtrip():
    assert graph6_decode(graph6_encode(K3)) == K3


def test_graph6_roundtrip_many_random():
    rng = random.Random(123)
    for _ in range(10_000):
        n = rng.randint(1, 32)
        g = random_graph(rng, n, p=rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert graph6_decode(graph6_encode(g)) == g


def test_graph6_long_form_roundtrip():
    rng = random.Random(9)
    for n in (63, 64, 100):
        g = random_graph(rng, n, p=0.1)
        line = graph6_encode(g)
        assert line.startswith("~")
        assert graph6_decode(line) == g


def test_graph6_errors_carry_offset():
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("")
    assert ei.value.offset == 0
    line = graph6_encode(K4)
    with pytest.raises(Graph6Error) as ei:
        graph6_decode(line[:-1])  # truncated body
    assert ei.value.offset == len(line) - 1
    with pytest.raises(Graph6Error) as ei:
        graph6_decode("D" + chr(20))  # invalid character
    assert ei.value.offset == 1
