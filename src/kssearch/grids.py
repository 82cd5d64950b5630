"""Cubic grids of integer directions and exact grid embedding.

The grid with parameter N consists of the integer vectors on the surface of
the cube [-N, N]^3 with antipodal points identified; orthogonality is decided
by exact integer dot products, so a grid embedding is an unconditional
certificate of embeddability.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .graphs import Graph, _bits, is_square_free, triangles
from .colouring import solve_101

Vec = tuple[int, int, int]

MAX_GRID_N = 32


class EmbedBudgetExceeded(RuntimeError):
    """grid_embed hit its node limit before exhausting the search."""


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

    def to_json(self) -> str:
        return json.dumps({"N": self.N, "directions": [list(d) for d in self.directions]})


def generate_grid(n: int) -> GridSystem:
    """Exactly the normalized surface directions; orthogonality by integer dot product."""
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


# ---------------------------------------------------------------------------
# Grid symmetry (signed coordinate permutations, order 48)

_PERMS3 = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
_SIGNS = [(sx, sy, sz) for sx in (1, -1) for sy in (1, -1) for sz in (1, -1)]


def _sym_images(v: Vec) -> list[Vec]:
    out = []
    for p in _PERMS3:
        w = (v[p[0]], v[p[1]], v[p[2]])
        for s in _SIGNS:
            out.append(normalize_direction((w[0] * s[0], w[1] * s[1], w[2] * s[2])))
    return out


def _orbit_key(vectors: tuple[Vec, ...]) -> tuple:
    """Canonical representative of an ordered vector tuple under grid symmetry."""
    best = None
    for p in _PERMS3:
        for s in _SIGNS:
            img = tuple(
                normalize_direction((v[p[0]] * s[0], v[p[1]] * s[1], v[p[2]] * s[2]))
                for v in vectors
            )
            if best is None or img < best:
                best = img
    return best


@lru_cache(maxsize=None)
def orthogonal_pair_representatives(sys: GridSystem) -> list[tuple[Vec, Vec]]:
    """One ordered orthogonal pair per grid-symmetry orbit; axis pair first."""
    dirs = sys.directions
    rows = sys.graph.rows
    reps: dict[tuple, tuple[Vec, Vec]] = {}
    for i in range(len(dirs)):
        for j in _bits(rows[i]):
            pair = (dirs[i], dirs[j])
            key = _orbit_key(pair)
            if key not in reps:
                reps[key] = pair
    return tuple(_axis_first(sys.N, [reps[k] for k in sorted(reps)]))


@lru_cache(maxsize=None)
def orthogonal_triple_representatives(sys: GridSystem) -> list[tuple[Vec, Vec, Vec]]:
    """One ordered mutually-orthogonal triple per grid-symmetry orbit; axis triple first."""
    dirs = sys.directions
    rows = sys.graph.rows
    reps: dict[tuple, tuple[Vec, Vec, Vec]] = {}
    for i in range(len(dirs)):
        for j in _bits(rows[i]):
            common = rows[i] & rows[j]
            for k in _bits(common):
                trip = (dirs[i], dirs[j], dirs[k])
                key = _orbit_key(trip)
                if key not in reps:
                    reps[key] = trip
    return tuple(_axis_first(sys.N, [reps[k] for k in sorted(reps)]))


def _axis_first(n: int, reps: list) -> list:
    """Sort orbit representatives with the literal axis pin first.

    The axis orbit's representative is rewritten to ((N,0,0),(0,N,0),(0,0,N))
    (or its pair prefix); coordinate permutations keep any ordered axis tuple
    in one orbit, so this is just a choice of representative.
    """
    axis = tuple(normalize_direction(a) for a in ((n, 0, 0), (0, n, 0), (0, 0, n)))

    def is_axis(rep):
        return all(v in axis for v in rep)

    out = []
    for rep in reps:
        out.append(axis[: len(rep)] if is_axis(rep) else rep)
    return sorted(out, key=lambda r: (not is_axis(r), r))


# ---------------------------------------------------------------------------
# Embedding search

@dataclass(frozen=True)
class GridEmbedding:
    """Injective vertex -> direction map with exact orthogonality on edges."""

    N: int
    mapping: tuple[Vec, ...]

    def to_json(self) -> str:
        return json.dumps({"N": self.N, "map": {str(v): list(d) for v, d in enumerate(self.mapping)}})


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
    node_limit: int | None = None,
    sys: GridSystem | None = None,
) -> GridEmbedding | None:
    """Backtracking assignment of vertices to grid-N directions.

    Returns an embedding (an unconditional certificate, exact arithmetic) or
    None after exhausting the search; None says nothing about embeddability
    elsewhere.  Symmetry is quotiented by pinning the first triangle (first
    edge for triangle-free graphs) to one representative per grid-symmetry
    orbit, axis images first, which together cover the full search space.
    Raises :class:`EmbedBudgetExceeded` at the node limit.
    """
    if not is_square_free(g):
        return None
    if sys is None:
        sys = generate_grid(n)
    elif sys.N != n:
        raise ValueError("grid system parameter mismatch")
    dirs = sys.directions
    nd = len(dirs)
    orth = sys.graph.rows
    dir_index = {d: i for i, d in enumerate(dirs)}

    tris = triangles(g)
    if tris:
        pinned = list(tris[0])
        pin_sets = orthogonal_triple_representatives(sys)
    elif g.edge_count() > 0:
        u, v = g.edges()[0]
        pinned = [u, v]
        pin_sets = orthogonal_pair_representatives(sys)
    else:
        pinned = []
        pin_sets = [()]
    if tris and not pin_sets:
        return None

    rest = sorted((v for v in range(g.n) if v not in pinned), key=lambda v: (-g.degree(v), v))
    vorder = pinned + rest
    full = (1 << nd) - 1
    nodes = 0

    def search(assign: list[int | None], cand: list[int], depth: int) -> bool:
        nonlocal nodes
        if depth == g.n:
            return True
        v = vorder[depth]
        m = cand[v]
        while m:
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                raise EmbedBudgetExceeded(f"grid_embed exceeded {node_limit} nodes")
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
        assign: list[int | None] = [None] * g.n
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
            mapping = tuple(dirs[assign[v]] for v in range(g.n))
            return GridEmbedding(n, mapping)
    return None


# ---------------------------------------------------------------------------
# Uncolourable subsystems

@dataclass(frozen=True)
class GridSubsystem:
    """An induced set of grid directions with its orthogonality graph."""

    N: int
    indices: tuple[int, ...]
    directions: tuple[Vec, ...]
    graph: Graph

    def to_json(self) -> str:
        return json.dumps(
            {"N": self.N, "directions": [list(d) for d in self.directions]}
        )


@dataclass(frozen=True)
class TruncationMarker:
    """Emitted when a subsystem search stops on budget rather than exhaustion."""

    reason: str


def subsystem(sys: GridSystem, indices) -> GridSubsystem:
    idx = tuple(sorted(indices))
    return GridSubsystem(
        sys.N, idx, tuple(sys.directions[i] for i in idx), sys.graph.induced(idx)
    )


def minimize_uncolourable(
    sys: GridSystem, scan_order: list[int] | None = None
) -> GridSubsystem:
    """Greedy inclusion-minimal reduction of a non-101-colourable grid.

    Repeatedly removes the first vertex (in the fixed scan order) whose
    removal keeps the graph uncolourable, until critical: removing any
    remaining vertex restores colourability.
    """
    if solve_101(sys.graph) is not None:
        raise ValueError("grid is 101-colourable; nothing to minimize")
    nd = len(sys.directions)
    if scan_order is None:
        scan_order = list(range(nd))
    current = set(range(nd))
    while True:
        removed = False
        for v in scan_order:
            if v not in current:
                continue
            rest = sorted(current - {v})
            if solve_101(sys.graph.induced(rest)) is None:
                current.remove(v)
                removed = True
                break
        if not removed:
            return subsystem(sys, current)


def enumerate_grid_subsystems(
    sys: GridSystem,
    size_bound: int,
    budget: int = 100,
    mode: str = "sample",
    seeds: range | None = None,
):
    """Stream non-101-colourable induced subsystems of size <= size_bound.

    Runs seeded greedy minimizations from the full grid (``mode`` accepts
    only ``"sample"``; seed None keeps the identity scan order).  Each
    emitted subsystem is re-validated uncolourable and deduplicated by
    canonical label; a :class:`TruncationMarker` ends the stream when the
    budget runs out first.
    """
    from .orderly import canonical_code

    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if solve_101(sys.graph) is not None:
        # every induced subsystem inherits the colouring
        return
    nd = len(sys.directions)
    seen: set[str] = set()
    spent = 0
    if seeds is None:
        seeds = range(budget)
    for seed in seeds:
        if spent >= budget:
            yield TruncationMarker(f"budget {budget} exhausted")
            return
        spent += 1
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
