"""Exact 101-colourability and k-colourability.

A 101-colouring assigns 0/1 to vertices so that no edge has both endpoints 0
and no triangle has all three vertices 1.  The solver is a backtracking
search with unit propagation over vertex bitmasks:

  - a 0 forces every neighbour to 1 (edge rule);
  - two adjacent 1s force all their common neighbours to 0 (triangle rule).

Vertices outside the triangle core (the vertices that lie in a triangle) can
always take 1, so the search runs on the core only.  Every triangle of the
graph lies inside the core, so the core's 101-colourings are exactly the
graph's restricted to it.
"""

from __future__ import annotations

import json

from .graphs import Graph, _bits, triangle_core, triangles


def validate_101(g: Graph, assignment) -> bool:
    """Direct scan of both rules; independent of the solver's bookkeeping."""
    if len(assignment) != g.n or any(a not in (0, 1) for a in assignment):
        return False
    for u, v in g.edges():
        if assignment[u] == 0 and assignment[v] == 0:
            return False
    for a, b, c in triangles(g):
        if assignment[a] == 1 and assignment[b] == 1 and assignment[c] == 1:
            return False
    return True


def solve_101(g: Graph) -> tuple[int, ...] | None:
    """A satisfying 101-colouring, or None when exhaustive search refutes all.

    Deterministic: branch on the highest-degree unassigned core vertex,
    value 0 first.
    """
    core_mask = triangle_core(g)
    if core_mask == 0:
        return (1,) * g.n
    core = _bits(core_mask)
    sub = _solve_core(g.induced(core))
    if sub is None:
        return None
    out = [1] * g.n
    for i, v in enumerate(core):
        out[v] = sub[i]
    return tuple(out)


def _solve_core(g: Graph) -> tuple[int, ...] | None:
    n, rows = g.n, g.rows
    order = sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))

    def propagate(zeros: int, ones: int, pend0: int, pend1: int):
        while pend0 or pend1:
            if pend0:
                b = pend0 & -pend0
                pend0 ^= b
                v = b.bit_length() - 1
                nb = rows[v]
                if nb & zeros:
                    return None
                new1 = nb & ~ones
                ones |= new1
                pend1 |= new1
                continue
            b = pend1 & -pend1
            pend1 ^= b
            v = b.bit_length() - 1
            m = ones & rows[v]
            forced = 0
            while m:
                c = m & -m
                m ^= c
                forced |= rows[c.bit_length() - 1] & rows[v]
            if forced & ones:
                return None
            new0 = forced & ~zeros
            zeros |= new0
            pend0 |= new0
        return zeros, ones

    def choose(assigned: int) -> int:
        for v in order:
            if not assigned >> v & 1:
                return v
        return -1

    frames: list[tuple[int, int, int, int]] = []
    zeros = ones = 0
    v = choose(0)
    if v < 0:
        return ()
    val = 0
    while True:
        if val == 0:
            res = propagate(zeros | 1 << v, ones, 1 << v, 0)
        else:
            res = propagate(zeros, ones | 1 << v, 0, 1 << v)
        if res is not None:
            frames.append((zeros, ones, v, val))
            zeros, ones = res
            v = choose(zeros | ones)
            if v < 0:
                return tuple(1 if ones >> u & 1 else 0 for u in range(n))
            val = 0
        else:
            while True:
                if val == 0:
                    val = 1
                    break
                if not frames:
                    return None
                zeros, ones, v, val = frames.pop()


# ---------------------------------------------------------------------------
# Proper k-colouring (k = 2..4)

def is_k_colourable(g: Graph, k: int) -> tuple[bool, tuple[int, ...] | None]:
    """Exact decision with a witness (colours 1..k) when colourable.

    Greedy in peel order when g is (k-1)-degenerate, else one backtracking
    search.  Vertices of degree < k in what is left are peeled off until
    none remains; if that empties the graph, colouring them in reverse peel
    order gives each vertex at most k-1 coloured neighbours, so a free
    colour in 1..k.
    """
    if not 2 <= k <= 4:
        raise ValueError("k must be in 2..4")
    rows = g.rows
    left = (1 << g.n) - 1
    order = []
    peeled = True
    while left and peeled:
        peeled = False
        for v in _bits(left):
            if (rows[v] & left).bit_count() < k:
                left ^= 1 << v
                order.append(v)
                peeled = True
    if left:
        return _backtrack_colour(g, k)
    colours = [0] * g.n
    for v in reversed(order):
        taken = 0
        for u in _bits(rows[v]):
            taken |= 1 << colours[u]
        c = 1
        while taken >> c & 1:
            c += 1
        colours[v] = c
    return True, tuple(colours)


def _backtrack_colour(g: Graph, k: int):
    n, rows = g.n, g.rows
    colours = [0] * n
    forb = [0] * n
    kmask = (1 << k) - 1
    # DSATUR picks the greatest (forbidden colours, degree, -u); one integer
    # key per vertex orders alike, as degree and n - u both lie in 0..n.  A
    # coloured vertex's key is -1, so the pick is the index of the maximum.
    w = n + 1
    wsat = w * w
    keys = [rows[u].bit_count() * w + n - u for u in range(n)]

    def rec(uncoloured: int, max_used: int) -> bool:
        if not uncoloured:
            return True
        v = keys.index(max(keys))
        vkey = keys[v]
        keys[v] = -1
        left = uncoloured & ~(1 << v)
        avail = ~forb[v] & kmask
        # colours beyond max_used+1 are symmetric to it
        cap = min(k, max_used + 1)
        for c in range(1, cap + 1):
            if not avail >> (c - 1) & 1:
                continue
            bit = 1 << (c - 1)
            colours[v] = c
            changed = []
            dead = False
            m = rows[v] & left
            while m:
                b = m & -m
                m ^= b
                u = b.bit_length() - 1
                if not forb[u] & bit:
                    forb[u] |= bit
                    keys[u] += wsat
                    changed.append(u)
                    if forb[u] == kmask:
                        dead = True
            if not dead and rec(left, max(max_used, c)):
                return True
            for u in changed:
                forb[u] &= ~bit
                keys[u] -= wsat
            colours[v] = 0
        keys[v] = vkey
        return False

    if rec((1 << n) - 1, 0):
        return True, tuple(colours)
    return False, None


# ---------------------------------------------------------------------------
# Exports

def export_dimacs_101(g: Graph) -> str:
    """DIMACS CNF with one variable per vertex (true = assigned 1).

    Edge (u,v) gives clause (u | v); triangle (a,b,c) gives (-a | -b | -c).
    Satisfiable iff the graph is 101-colourable.
    """
    edges = g.edges()
    tris = triangles(g)
    lines = [f"p cnf {g.n} {len(edges) + len(tris)}"]
    for u, v in edges:
        lines.append(f"{u + 1} {v + 1} 0")
    for a, b, c in tris:
        lines.append(f"-{a + 1} -{b + 1} -{c + 1} 0")
    return "\n".join(lines) + "\n"


def witness_to_json(assignment) -> str:
    return json.dumps({str(v): int(a) for v, a in enumerate(assignment)})
