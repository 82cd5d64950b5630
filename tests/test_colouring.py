"""101-colourability solver, k-colouring, DIMACS export."""

import collections
import itertools
import random

import pytest

from kssearch import colouring
from kssearch.graphs import Graph
from kssearch.colouring import (
    export_dimacs_101,
    is_k_colourable,
    solve_101,
    validate_101,
)
from kssearch.orderly import enumerate_graphs

K3 = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
C5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
K4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
K5 = Graph.from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])


def random_graph(rng, n, p):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def brute_101(g):
    for bits in itertools.product((0, 1), repeat=g.n):
        if validate_101(g, bits):
            return True
    return False


def test_k3_witness_is_101():
    w = solve_101(K3)
    assert w is not None and validate_101(K3, w)
    assert sorted(w) == [0, 1, 1]  # the 1,0,1 pattern in some order


def test_single_edge():
    g = Graph.from_edges(2, [(0, 1)])
    w = solve_101(g)
    assert w is not None and sum(1 for a in w if a == 0) <= 1


def test_completeness_vs_brute_force_random():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
        got = solve_101(g)
        assert (got is not None) == brute_101(g)
        if got is not None:
            assert validate_101(g, got)


def test_completeness_on_enumerated_square_free():
    for n in range(1, 9):
        for g in enumerate_graphs(n):
            w = solve_101(g)
            assert w is not None and validate_101(g, w)


def test_three_colourable_implies_101():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randint(2, 10), 0.35)
        ok3, w3 = is_k_colourable(g, 3)
        if ok3:
            assert solve_101(g) is not None
            # colour class 1 becomes 0: no edge is 0-0 and every triangle has one 0
            assert validate_101(g, tuple(0 if c == 1 else 1 for c in w3))


def test_k_colourability_examples():
    assert not is_k_colourable(C5, 2)[0]
    ok, w = is_k_colourable(C5, 3)
    assert ok and len(set(w)) <= 3
    assert not is_k_colourable(K4, 3)[0]
    assert is_k_colourable(K4, 4)[0]


def test_k_colouring_witness_is_proper():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        for k in (2, 3, 4):
            ok, w = is_k_colourable(g, k)
            if ok:
                assert all(1 <= c <= k for c in w)
                assert all(w[u] != w[v] for u, v in g.edges())


PETERSEN = Graph.from_edges(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)
W5 = Graph.from_edges(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])


def test_k_colouring_matches_brute_force(monkeypatch):
    """Both the greedy peel-order path and the backtracking fallback agree
    with exhaustive search.  The denser random graphs, K4, K5, the Petersen
    graph (3-regular) and the wheel W5 give the fallback inputs that are not
    (k-1)-degenerate, for k = 3 and for k = 4."""
    fallbacks = collections.Counter()
    backtrack = colouring._backtrack_colour

    def spy(g, k):
        fallbacks[k] += 1
        return backtrack(g, k)

    monkeypatch.setattr(colouring, "_backtrack_colour", spy)
    rng = random.Random(5)
    graphs = [random_graph(rng, rng.randint(1, 7), 0.4) for _ in range(150)]
    graphs += [random_graph(rng, rng.randint(4, 7), 0.75) for _ in range(60)]
    graphs += [K4, K5, PETERSEN, W5]
    calls = collections.Counter()
    for g in graphs:
        for k in (2, 3, 4):
            calls[k] += 1
            # colour classes are interchangeable: vertex 0 takes colour 0
            proper = any(
                all(c[u] != c[v] for u, v in g.edges())
                for c in itertools.product(range(1), *[range(k)] * (g.n - 1))
            )
            ok, w = is_k_colourable(g, k)
            assert ok == proper
            if ok:
                assert all(1 <= c <= k for c in w)
                assert all(w[u] != w[v] for u, v in g.edges())
    for k in (3, 4):
        assert 0 < fallbacks[k] < calls[k]


def test_k_colourability_rejects_bad_k():
    with pytest.raises(ValueError):
        is_k_colourable(K3, 5)


def test_filter_passes_known_ks_graph():
    # the 31-vertex critical subsystem of the N=2 grid meets every
    # necessary condition for a minimal KS candidate
    from kssearch.grids import get_grid, minimize_uncolourable
    from kssearch.pipeline import evaluate_graph

    sub = minimize_uncolourable(get_grid(2), list(range(49)))
    flags = evaluate_graph(sub.graph, grid_ladder=(), interval_budget=1).flags
    assert flags["square_free"] and flags["min_degree_ge3"]
    assert flags["every_vertex_in_triangle"] and flags["four_colourable"]
    assert not flags["three_colourable"] and not flags["colourable_101"]


def test_dimacs_structure():
    text = export_dimacs_101(K3)
    lines = text.strip().splitlines()
    assert lines[0] == "p cnf 3 4"
    assert len(lines) == 5
    edge = Graph.from_edges(2, [(0, 1)])
    lines = export_dimacs_101(edge).strip().splitlines()
    assert lines[0] == "p cnf 2 1"


def cnf_satisfiable(text):
    """Tiny independent DIMACS check by exhaustive assignment scan."""
    lines = [l for l in text.strip().splitlines() if l and not l.startswith("c")]
    nvars, nclauses = (int(x) for x in lines[0].split()[2:])
    clauses = []
    for line in lines[1:]:
        lits = [int(x) for x in line.split()[:-1]]
        clauses.append(lits)
    assert len(clauses) == nclauses
    for mask in range(1 << nvars):
        ok = True
        for cl in clauses:
            if not any((mask >> (abs(l) - 1) & 1) == (1 if l > 0 else 0) for l in cl):
                ok = False
                break
        if ok:
            return True
    return False


def test_dimacs_agrees_with_solver():
    rng = random.Random(12)
    checked = 0
    while checked < 300:
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.35]))
        from kssearch.graphs import is_square_free

        if not is_square_free(g):
            continue
        checked += 1
        assert cnf_satisfiable(export_dimacs_101(g)) == (solve_101(g) is not None)
