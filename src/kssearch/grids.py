"""Cubic grids of integer directions and exact grid embedding.

The grid with parameter N consists of the integer vectors on the surface of
the cube [-N, N]^3 with antipodal points identified; orthogonality is decided
by exact integer dot products, so a grid embedding is an unconditional
certificate of embeddability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice

from .graphs import Graph, _bits, is_square_free, triangles
from .colouring import solve_101

Vec = tuple[int, int, int]

MAX_GRID_N = 32


def normalize_direction(v: Vec) -> Vec:
    """Antipodal representative: first nonzero coordinate in (z, y, x) precedence positive."""
    x, y, z = v
    if z < 0 or (z == 0 and (y < 0 or (y == 0 and x < 0))):
        return (-x, -y, -z)
    return (x, y, z)


def direction_count(n: int) -> int:
    """((2N+1)^3 - (2N-1)^3) / 2 normalized directions on the grid surface."""
    return ((2 * n + 1) ** 3 - (2 * n - 1) ** 3) // 2


@dataclass(frozen=True)
class GridSystem:
    """All normalized directions of Chebyshev norm N plus their orthogonality graph."""

    N: int
    directions: tuple[Vec, ...]
    graph: Graph = field(repr=False)  # vertex i is directions[i]; edge iff dot product 0


def generate_grid(n: int) -> GridSystem:
    """Exactly the normalized surface directions; orthogonality by integer dot product."""
    import numpy as np

    if not 1 <= n <= MAX_GRID_N:
        raise ValueError(f"grid parameter {n} outside 1..{MAX_GRID_N}")
    seen = set()
    for x in range(-n, n + 1):
        for y in range(-n, n + 1):
            for z in range(-n, n + 1):
                if max(abs(x), abs(y), abs(z)) == n:
                    seen.add(normalize_direction((x, y, z)))
    directions = tuple(sorted(seen))
    arr = np.array(directions, dtype=np.int64)
    dots = arr @ arr.T
    orth = dots == 0
    rows = []
    for i in range(len(directions)):
        r = 0
        for j in np.nonzero(orth[i])[0]:
            if j != i:
                r |= 1 << int(j)
        rows.append(r)
    return GridSystem(n, directions, Graph(len(directions), tuple(rows)))


@lru_cache(maxsize=None)
def get_grid(n: int) -> GridSystem:
    """Memoized :func:`generate_grid`; grid systems are immutable and shared."""
    return generate_grid(n)


@lru_cache(maxsize=None)
def _grid_colourable(n: int) -> bool:
    return solve_101(get_grid(n).graph) is not None


# ---------------------------------------------------------------------------
# Grid symmetry (signed coordinate permutations, order 48)

_PERMS3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
_SIGNS = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]


def _sym_images(v: Vec) -> list[Vec]:
    """The 48 images of v, permutation-major (verify picks images by index)."""
    return [
        normalize_direction((v[p[0]] * s[0], v[p[1]] * s[1], v[p[2]] * s[2]))
        for p in _PERMS3
        for s in _SIGNS
    ]


def _orbit_key(vectors: tuple[Vec, ...]) -> tuple:
    """Canonical representative of an ordered vector tuple under grid symmetry."""
    return min(zip(*map(_sym_images, vectors)))


@lru_cache(maxsize=None)
def orthogonal_representatives(sys: GridSystem, k: int) -> tuple[tuple[Vec, ...], ...]:
    """One ordered tuple of k mutually orthogonal directions per grid-symmetry
    orbit (k = 2 or 3); the axis tuple first."""
    rows = sys.graph.rows
    level = [((i,), rows[i]) for i in range(len(rows))]
    for _ in range(k - 1):
        level = [(t + (j,), common & rows[j]) for t, common in level for j in _bits(common)]
    reps: dict[tuple, tuple[Vec, ...]] = {}
    for t, _ in level:
        vs = tuple(sys.directions[i] for i in t)
        reps.setdefault(_orbit_key(vs), vs)
    return tuple(_axis_first(sys.N, [reps[key] for key in sorted(reps)]))


def _axis_first(n: int, reps: list) -> list:
    """Sort orbit representatives with the literal axis pin first.

    The axis orbit's representative is rewritten to ((N,0,0),(0,N,0),(0,0,N))
    (or its pair prefix); coordinate permutations keep any ordered axis tuple
    in one orbit, so this is just a choice of representative.
    """
    axis = tuple(normalize_direction(a) for a in ((n, 0, 0), (0, n, 0), (0, 0, n)))

    def is_axis(rep):
        return all(v in axis for v in rep)

    out = [axis[: len(rep)] if is_axis(rep) else rep for rep in reps]
    return sorted(out, key=lambda r: (not is_axis(r), r))


# ---------------------------------------------------------------------------
# Embedding search

@dataclass(frozen=True)
class GridEmbedding:
    """Injective vertex -> direction map with exact orthogonality on edges."""

    N: int
    mapping: tuple[Vec, ...]


def validate_grid_embedding(g: Graph, emb: GridEmbedding) -> bool:
    """Exact integer re-validation: orthogonality on edges, injectivity, norms."""
    if len(emb.mapping) != g.n:
        return False
    if len(set(emb.mapping)) != g.n:
        return False
    for d in emb.mapping:
        if max(abs(c) for c in d) != emb.N:
            return False
        if d != normalize_direction(d):
            return False
    for u, v in g.edges():
        du, dv = emb.mapping[u], emb.mapping[v]
        if du[0] * dv[0] + du[1] * dv[1] + du[2] * dv[2] != 0:
            return False
    return True


def grid_embed(
    g: Graph,
    n: int,
    sys: GridSystem | None = None,
) -> GridEmbedding | None:
    """Backtracking assignment of vertices to grid-N directions.

    Returns an embedding (an unconditional certificate, exact arithmetic) or
    None after exhausting the search; None says nothing about embeddability
    elsewhere.  A graph that is not 101-colourable gets None without search
    on a 101-colourable grid (memoized per N): an embedding maps edges to
    orthogonal pairs and triangles to orthogonal triples, so it would pull
    the grid's colouring back onto the graph.  Symmetry is quotiented by
    pinning the first triangle (first edge for triangle-free graphs) to one
    representative per grid-symmetry orbit, axis images first, which
    together cover the full search space.
    A pin is a candidate set of one direction, placed by the search like any
    other vertex.
    """
    if not is_square_free(g):
        return None
    if sys is None:
        sys = get_grid(n)
    elif sys.N != n:
        raise ValueError("grid system parameter mismatch")
    if _grid_colourable(n) and solve_101(g) is None:
        return None
    dirs = sys.directions
    orth = sys.graph.rows
    dir_index = {d: i for i, d in enumerate(dirs)}

    tris = triangles(g)
    edges = g.edges()
    pinned = list(tris[0] if tris else edges[0] if edges else ())
    pin_sets = orthogonal_representatives(sys, len(pinned)) if pinned else [()]
    rest = sorted((v for v in range(g.n) if v not in pinned), key=lambda v: (-g.degree(v), v))
    vorder = pinned + rest
    full = (1 << len(dirs)) - 1

    def search(cand: list[int], depth: int) -> list[int] | None:
        """Place vorder[depth:]; a placed vertex's candidate set is its direction's bit."""
        if depth == g.n:
            return cand
        v = vorder[depth]
        adj = g.rows[v]
        m = cand[v]
        while m:
            b = m & -m
            m ^= b
            d = b.bit_length() - 1
            new_cand = list(cand)
            new_cand[v] = b
            for u in vorder[depth + 1:]:  # orth[d] lacks d: a neighbour never reuses it
                c = cand[u] & (orth[d] if adj >> u & 1 else ~b)
                if not c:
                    break
                new_cand[u] = c
            else:
                placed = search(new_cand, depth + 1)
                if placed is not None:
                    return placed
        return None

    for pins in pin_sets:
        cand = [full] * g.n
        for v, d in zip(pinned, pins):
            cand[v] = 1 << dir_index[d]
        placed = search(cand, 0)
        if placed is not None:
            return GridEmbedding(n, tuple(dirs[c.bit_length() - 1] for c in placed))
    return None


# ---------------------------------------------------------------------------
# Uncolourable subsystems

@dataclass(frozen=True)
class GridSubsystem:
    """An induced set of grid directions with its orthogonality graph."""

    N: int
    indices: tuple[int, ...]
    graph: Graph


def minimize_uncolourable(sys: GridSystem, scan_order: list[int]) -> GridSubsystem:
    """Greedy inclusion-minimal reduction of a non-101-colourable grid.

    One pass over the fixed scan order removes each vertex whose removal
    keeps the remaining graph uncolourable; the result is critical: removing
    any remaining vertex restores colourability.  One pass suffices because
    101-colourability is inherited by induced subgraphs: a vertex kept
    because the rest was colourable without it stays needed in every later,
    smaller subgraph, so restarting the scan after each removal (the
    textbook greedy) removes exactly the same vertices.
    """
    if solve_101(sys.graph) is not None:
        raise ValueError("grid is 101-colourable; nothing to minimize")
    current = set(range(len(sys.directions)))
    for v in scan_order:
        if solve_101(sys.graph.induced(sorted(current - {v}))) is None:
            current.remove(v)
    idx = tuple(sorted(current))
    return GridSubsystem(sys.N, idx, sys.graph.induced(idx))


def enumerate_grid_subsystems(
    sys: GridSystem,
    size_bound: int,
    budget: int = 100,
    mode: str = "sample",
    seeds: range | None = None,
):
    """Stream non-101-colourable induced subsystems of size <= size_bound.

    Runs a seeded greedy minimization from the full grid for each of the
    first ``budget`` seeds (``mode`` accepts only ``"sample"``; seed None
    keeps the identity scan order).  Each emitted subsystem is re-validated
    uncolourable and deduplicated by canonical label.
    """
    from .orderly import canonical_code

    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if solve_101(sys.graph) is not None:
        # every induced subsystem inherits the colouring
        return
    nd = len(sys.directions)
    seen: set[str] = set()
    if seeds is None:
        seeds = range(budget)
    for seed in islice(seeds, budget):
        order = list(range(nd))
        if seed is not None:
            random.Random(seed).shuffle(order)
        sub = minimize_uncolourable(sys, order)
        if len(sub.indices) > size_bound:
            continue
        if solve_101(sub.graph) is not None:
            raise AssertionError("minimized subsystem re-validated colourable")
        key = canonical_code(sub.graph)
        if key not in seen:
            seen.add(key)
            yield sub
