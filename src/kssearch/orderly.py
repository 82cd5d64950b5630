"""Orderly enumeration of canonical adjacency matrices.

A labelling is canonical when its upper-triangle code is lexicographically
greatest over all relabelings.  Enumeration grows canonical matrices one
column at a time, discarding non-canonical extensions immediately, and
yields exactly one representative per isomorphism class of connected
square-free graphs: in R^3 a 4-cycle of orthogonal vectors forces two of
them to coincide, and a smallest Kochen-Specker system is connected.

Connected graphs admit a strong search restriction: every prefix of a
canonical matrix of a connected graph is connected, so candidate vertices in
the canonicity search may be limited to neighbours of the placed ones.  The
search also skips work that automorphisms make redundant: twins within one
search, and the prefix's automorphisms across all extensions of a prefix
(see :func:`extend`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .graphs import (
    ENUM_MAX_VERTICES,
    Graph,
    code_from_hex,
    code_to_hex,
    encode_upper_triangle,
    graph_from_code,
    is_connected,
    is_square_free,
)

# canonical_label's budget, counted in nodes of its cell search: one node per
# ordered partition visited, however many vertices its last cell placed; read
# at each call
DEFAULT_NODE_LIMIT = 5_000_000
ORACLE_MAX_N = 7


class CanonicalBudgetExceeded(RuntimeError):
    """The canonical-labelling cell search hit its node limit."""


def _identity_columns(n: int, rows) -> list[int]:
    """Per-column code values of the identity labelling; bit (0,j) is the MSB."""
    cols = [0] * n
    for d in range(1, n):
        rd = rows[d]
        c = 0
        for i in range(d):
            c = c << 1 | (rd >> i & 1)
        cols[d] = c
    return cols


def _spread_rows(n: int, rows, width: int) -> list[int]:
    """Adjacency rows re-spread so vertex u's bit sits at position u*width.

    All per-vertex partial column values then live in one integer: appending
    a column bit to every value at once is a single shift-and-or, and
    backtracking is free because ints are immutable.
    """
    out = [0] * n
    for w in range(n):
        rw = rows[w]
        s = 0
        while rw:
            b = rw & -rw
            rw ^= b
            s |= 1 << ((b.bit_length() - 1) * width)
        out[w] = s
    return out


def _twin_masks(n: int, rows) -> list[int]:
    """Bit v of entry u is set when u != v are twins: N(u) - {v} == N(v) - {u}.

    That covers open twins (equal open rows) and closed twins (equal closed
    rows).  Swapping two twins is an automorphism fixing every other vertex.
    """
    out = [0] * n
    for u in range(n):
        ru = rows[u]
        for v in range(u + 1, n):
            if ru & ~(1 << v) == rows[v] & ~(1 << u):
                out[u] |= 1 << v
                out[v] |= 1 << u
    return out


def _searcher(n: int, width: int, cols, spread, twins, restrict: bool, rows, tree=None):
    """The canonicity search over n vertices, as ``rec(depth, used, frontier, packed)``.

    ``rec`` is True when no placement extending the given one has a greater
    code than the identity, whose column values are ``cols``; ``spread``
    holds the rows spread at ``width`` and ``twins`` the twin masks.
    Branch-and-bound over partial placements: a branch is pruned as soon as
    its partial code drops below the identity's, and the whole search aborts
    the moment any partial code exceeds it.  Among tied candidates only the
    lowest unplaced member of a twin class is explored: every unplaced twin
    of a candidate ties with it, and swapping the two fixes the placed
    vertices, so both subtrees give the same column sequences.  With
    ``restrict`` (connected graphs) candidates after the first are
    neighbours of placed vertices.  When ``tree`` is given, every node is
    appended to it in preorder as ``(depth, used, frontier, packed)``; nodes
    at depth n are tied leaves, that is automorphisms.
    """
    fmask = (1 << width) - 1
    full = (1 << n) - 1

    def rec(depth: int, used: int, frontier: int, packed: int) -> bool:
        if depth == n:
            if tree is not None:
                tree.append((depth, used, frontier, packed))
            return True
        target = cols[depth]
        cand = (frontier if (restrict and depth) else full) & ~used
        eqs = []
        m = cand
        while m:
            b = m & -m
            m ^= b
            w = b.bit_length() - 1
            cv = packed >> w * width & fmask
            if cv > target:
                return False
            if cv == target and not twins[w] & cand & (b - 1):
                eqs.append(w)
        if tree is not None:
            tree.append((depth, used, frontier, packed))
        for w in eqs:
            if not rec(depth + 1, used | 1 << w, frontier | rows[w], packed << 1 | spread[w]):
                return False
        return True

    return rec


def is_canonical(g: Graph) -> bool:
    """Exact check that no relabeling yields a strictly greater code.

    When g is connected the search visits only placements in which every
    vertex after the first has a placed neighbour, which is exact for
    connected graphs; otherwise it visits every placement.
    """
    n, rows = g.n, g.rows
    rec = _searcher(
        n, n, _identity_columns(n, rows), _spread_rows(n, rows, n),
        _twin_masks(n, rows), is_connected(g), rows,
    )
    return rec(0, 0, 0, 0)


def canonical_label(g: Graph) -> Graph:
    """The relabeling of g with the greatest code.

    Two graphs are isomorphic iff their canonical labels have equal codes.
    Raises :class:`CanonicalBudgetExceeded` when the search tree outgrows
    ``DEFAULT_NODE_LIMIT`` nodes.

    Branch-and-bound over ordered partitions.  The placed vertices form
    cells, each on a contiguous range of positions with its inner order left
    open.  An unplaced vertex's value is its best-case column: in each cell,
    in position order, its neighbours there come first.  Placing a vertex x
    splits every cell into its neighbours of x and the rest, in that order,
    and appends the cell {x}: x's column becomes its best case and no earlier
    column changes.  Only the candidates of greatest value are branched on,
    as in a plain placement search.  Below the root a group of them goes in
    as one cell when, once any member is placed, the other members are the
    only candidates of greatest value, so that a plain search would place the
    whole group next, in every order:

    - all of them, when they are pairwise non-adjacent and each meets every
      cell of two or more vertices in the same set;
    - otherwise, each connected component of the graph they induce that is a
      clique of two or more vertices meeting those cells alike.

    The columns such a cell adds are checked against the best code one by
    one, as single placements are.  Every cell of a leaf holds twins, so
    reading its members out in ascending order gives the leaf's code.
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
    best_cells: tuple[tuple[int, int], ...] = ()
    nodes = 0
    limit = DEFAULT_NODE_LIMIT

    def reach(cell: int) -> int:
        """The union of the neighbourhoods of the cell's members."""
        out = 0
        while cell:
            b = cell & -cell
            cell ^= b
            out |= rows[b.bit_length() - 1]
        return out

    def branches(ties: int, multi: int) -> list[tuple[int, int, bool]]:
        """The tied candidates as ``(cell, size, clique)``, one per branch."""
        ws = [w for w in range(n) if ties >> w & 1]
        if all(not rows[w] & ties for w in ws) and len({rows[w] & multi for w in ws}) == 1:
            return [(ties, len(ws), False)]
        out = []
        left = ties
        while left:
            comp = grow = left & -left
            while grow:
                b = grow & -grow
                grow ^= b
                new = rows[b.bit_length() - 1] & ties & ~comp
                comp |= new
                grow |= new
            left &= ~comp
            members = [w for w in ws if comp >> w & 1]
            sig = rows[members[0]] & multi
            if len(members) > 1 and all(
                (rows[w] | 1 << w) & comp == comp and rows[w] & multi == sig for w in members
            ):
                out.append((comp, len(members), True))
            else:
                out.extend((1 << w, 1, False) for w in members)
        out.sort(key=lambda branch: branch[0] & -branch[0])
        return out

    def place(depth, unplaced, packed, cells, multi, cell, size, around):
        """``(packed, cells, multi)`` once ``cell`` is placed at ``depth``.

        ``multi`` is the union of the cells of two or more vertices and
        ``around`` the cell's neighbourhood.  Each such cell is split by the
        neighbourhood of the new cell's members, which meet it alike; the
        value of an unplaced vertex that sees a split cell is corrected in
        place.  Then every value gains the new cell's ``size`` bits.
        """
        nbrs = rows[(cell & -cell).bit_length() - 1]
        if multi & nbrs and multi & ~nbrs:
            out = []
            multi = pos = 0
            for c, s in cells:
                c1 = c & nbrs
                if s == 1 or not c1 or c1 == c:
                    out.append((c, s))
                    if s > 1:
                        multi |= c
                    pos += s
                    continue
                c2 = c ^ c1
                s1 = c1.bit_count()
                s2 = s - s1
                shift = depth - pos - s
                see = reach(c) & unplaced
                while see:
                    b = see & -see
                    see ^= b
                    z = b.bit_length() - 1
                    j1 = (rows[z] & c1).bit_count()
                    j2 = (rows[z] & c2).bit_count()
                    if j1 < s1 and j2:
                        j = j1 + j2
                        old = ((1 << j) - 1) << (s - j)
                        new = ((1 << j1) - 1) << (s - j1) | ((1 << j2) - 1) << (s2 - j2)
                        packed += (new - old) << (z * width + shift)
                out += ((c1, s1), (c2, s2))
                if s1 > 1:
                    multi |= c1
                if s2 > 1:
                    multi |= c2
                pos += s
            cells = tuple(out)
        if size == 1:
            packed = packed << 1 | spread[cell.bit_length() - 1]
        else:
            multi |= cell
            packed <<= size
            see = around & unplaced
            while see:
                b = see & -see
                see ^= b
                z = b.bit_length() - 1
                j = (rows[z] & cell).bit_count()
                packed |= ((1 << j) - 1) << (size - j + z * width)
        return packed, cells + ((cell, size),), multi

    def rec(depth: int, used: int, frontier: int, packed: int, cells, multi: int) -> None:
        nonlocal nodes, best_cells
        nodes += 1
        if nodes > limit:
            raise CanonicalBudgetExceeded(f"canonical_label exceeded {limit} nodes on n={n}")
        if depth == n:
            best_cells = cells
            return
        top = -1
        ties = 0
        m = (frontier if (restrict and depth) else full) & ~used
        while m:
            b = m & -m
            m ^= b
            cv = packed >> (b.bit_length() - 1) * width & fmask
            if cv > top:
                top, ties = cv, b
            elif cv == top:
                ties |= b
        t = best_cols[depth]
        if top < t:
            return
        if top > t:
            best_cols[depth] = top
            for d in range(depth + 1, n):
                best_cols[d] = -1
        if depth and ties & (ties - 1):
            options = branches(ties, multi)
        else:
            options = [(1 << w, 1, False) for w in range(n) if ties >> w & 1]
        for cell, size, clique in options:
            # the block's later columns, checked in turn like single placements
            for i in range(1, size):
                cv = top << i | ((1 << i) - 1 if clique else 0)
                t = best_cols[depth + i]
                if cv < t:
                    break
                if cv > t:
                    best_cols[depth + i] = cv
                    for d in range(depth + i + 1, n):
                        best_cols[d] = -1
            else:
                around = reach(cell)
                placed = used | cell
                packed2, cells2, multi2 = place(
                    depth, full & ~placed, packed, cells, multi, cell, size, around
                )
                rec(depth + size, placed, frontier | around, packed2, cells2, multi2)

    rec(0, 0, 0, 0, (), 0)
    perm = [w for c, _ in best_cells for w in range(n) if c >> w & 1]
    new_rows = [0] * n
    for i in range(n):
        ri = rows[perm[i]]
        r = 0
        for j in range(n):
            if ri >> perm[j] & 1:
                r |= 1 << j
        new_rows[i] = r
    return Graph(n, tuple(new_rows))


def canonical_code(g: Graph) -> str:
    """The upper-triangle code of :func:`canonical_label`: a complete
    isomorphism invariant, equal for two graphs exactly when they are
    isomorphic."""
    return encode_upper_triangle(canonical_label(g))


# ---------------------------------------------------------------------------
# Matrix extension

def extend(prefix: Graph) -> list[Graph]:
    """All connected square-free canonical one-vertex extensions of a
    canonical prefix.

    Candidate last columns S are tried in descending code order and
    filtered: square-free incrementally (the new vertex must close no
    4-cycle, i.e. its neighbours must have pairwise disjoint
    neighbourhoods), connected-prefix rule (empty column discarded), orbit
    rule, canonicity last.  A prefix that is not canonical has no canonical
    extension, and neither has a disconnected one.

    The prefix's own canonicity search runs once, at the child's width, and
    its tree is kept.  Its tied leaves and its twin transpositions generate
    Aut(prefix): every automorphism is a leaf of the unpruned search, which
    twin pruning shortens only by twin transpositions.

    Orbit rule: an automorphism of the prefix maps S to a column whose child
    is isomorphic, so an S that is not the greatest of its orbit is rejected
    without a search.  Candidates arrive in descending order and the
    candidate set is Aut-invariant, so S is the greatest of its orbit exactly
    when no earlier candidate's orbit contains it.

    Canonicity of the child: while the new vertex k is unplaced, the child's
    search walks the prefix's tree, whose nodes need no new scan, because
    the prefix vertices' column values are those of the prefix.  It does so
    in two passes.  The first computes only k's column value at each node:
    a node where it beats the identity's rejects S, and the nodes where it
    ties are kept.  Only when no node rejects does the second pass run the
    child's own search below each kept node, in preorder.  The verdict is
    the walk's, an AND over the nodes, as the search has no side effects;
    but the root, where k always ties, no longer costs a full search for
    every S that a later node rejects.  The prefix's twin masks serve the
    child unchanged, though S may hold a twin u and not its higher twin w:
    S is the greatest of its orbit, so it holds the lower members of each
    twin class.  Before k is placed, a placement that puts w before u gains
    by swapping them, since k's column bits move up; once k is placed, u's
    column value exceeds w's, so a tie of w is a beat by u.
    """
    k = prefix.n
    rows = prefix.rows
    if k >= ENUM_MAX_VERTICES or not is_connected(prefix):
        return []
    n = k + 1
    cols = _identity_columns(k, rows)
    twins = _twin_masks(k, rows)
    spread = _spread_rows(k, rows, n)
    tree: list[tuple[int, int, int, int]] = []
    if not _searcher(k, n, cols, spread, twins, True, rows, tree)(0, 0, 0, 0):
        return []

    # the vertex a node places is what its used set adds to its parent's
    nodes = []
    gens = []
    used_at = [0] * n
    path = [0] * k
    for d, used, frontier, packed in tree:
        v = 0
        if d:
            v = path[d - 1] = (used ^ used_at[d - 1]).bit_length() - 1
            used_at[d] = used
        nodes.append((d, v, used, frontier, packed))
        if d == k and any(path[i] != i for i in range(k)):
            gens.append(path.copy())
    for u in range(k):
        later = twins[u] >> (u + 1) << (u + 1)
        if later:
            v = (later & -later).bit_length() - 1
            p = list(range(k))
            p[u], p[v] = v, u
            gens.append(p)

    # vertices that share a neighbour: a column holding both closes a 4-cycle
    conf = [0] * k
    for i in range(k):
        ri = rows[i]
        for j in range(i + 1, k):
            if ri & rows[j]:
                conf[i] |= 1 << j
                conf[j] |= 1 << i
    kbit = 1 << k
    ktop = 1 << k * n
    seen: set[int] = set()
    out = []

    def image(p: list[int], S: int) -> int:
        T = 0
        while S:
            b = S & -S
            S ^= b
            T |= 1 << p[b.bit_length() - 1]
        return T

    # k's twins for column S: each u outside S with rows[u] == S, looked up
    # here, and each u in S with rows[u] == S - {u}, checked per candidate
    by_row: dict[int, int] = {}
    for u in range(k):
        by_row[rows[u]] = by_row.get(rows[u], 0) | 1 << u
    spread_k = spread + [0]
    child_cols = cols + [0]

    def child_is_canonical(S: int) -> bool:
        sk = newcol = 0
        k_twins = by_row.get(S, 0)
        m = S
        while m:
            b = m & -m
            m ^= b
            i = b.bit_length() - 1
            sk |= 1 << i * n
            newcol |= 1 << k - 1 - i
            if rows[i] == S ^ b:
                k_twins |= b
        child_cols[k] = newcol
        # pass 1: k's column value at every node, with no search.  k ties
        # only where it is a candidate: the connected prefix's columns after
        # the first are nonzero, so a tying k has a placed neighbour.  An
        # unplaced twin of k, whose subtree the tree holds, stands for it.
        k_at = [0] * n  # k's column value at the current node of each depth
        ties = []
        for node in nodes:
            d, v, used, _, _ = node
            c = 0
            if d:
                c = k_at[d] = k_at[d - 1] << 1 | S >> v & 1
            target = child_cols[d]
            if c > target:
                return False
            if c == target and not k_twins & ~used:
                ties.append(node)
        # pass 2: the child's search below each tie, in preorder.  k is
        # placed in every call of rec, so rec never reads k's row, twin mask
        # or slot in packed: the prefix's rows and twin masks serve, and the
        # k bit they lack would only enter frontiers that already hold k
        child_spread = spread_k.copy()
        child_spread[k] = sk
        m = S
        while m:
            b = m & -m
            m ^= b
            child_spread[b.bit_length() - 1] |= ktop
        rec = _searcher(n, n, child_cols, child_spread, twins, True, rows)
        return all(
            rec(d + 1, used | kbit, frontier | S, packed << 1 | sk)
            for d, _, used, frontier, packed in ties
        )

    def emit(S: int) -> None:
        if S == 0 or S in seen:
            return
        seen.add(S)
        stack = [S]
        while stack:
            T = stack.pop()
            for p in gens:
                U = image(p, T)
                if U not in seen:
                    seen.add(U)
                    stack.append(U)
        if child_is_canonical(S):
            child_rows = tuple(rows[i] | kbit if S >> i & 1 else rows[i] for i in range(k))
            out.append(Graph._unchecked(n, child_rows + (S,)))

    def dfs(v: int, S: int, allowed: int) -> None:
        if v == k:
            emit(S)
            return
        if allowed >> v & 1:
            dfs(v + 1, S | (1 << v), allowed & ~conf[v])
        dfs(v + 1, S, allowed)

    dfs(0, 0, kbit - 1)
    return out


# ---------------------------------------------------------------------------
# Subtree tickets (parallel partitioning / checkpointing)

@dataclass(frozen=True, slots=True)
class SubtreeTicket:
    """One independent DFS subtree, identified by its canonical prefix."""

    prefix: Graph

    @property
    def ticket_id(self) -> str:
        code = encode_upper_triangle(self.prefix)
        return f"{self.prefix.n}:{code_to_hex(code) or '0'}"

    @staticmethod
    def from_id(text: str) -> "SubtreeTicket":
        head, _, hexpart = text.partition(":")
        n = int(head)
        return SubtreeTicket(graph_from_code(n, code_from_hex(n, hexpart)))


def list_tickets(depth: int) -> list[SubtreeTicket]:
    """Tickets at a fixed split depth; they partition the enumeration exactly."""
    return [SubtreeTicket(g) for g in enumerate_graphs(depth)]


def enumerate_graphs(
    n_target: int,
    ticket: SubtreeTicket | None = None,
    n_min: int | None = None,
) -> Iterator[Graph]:
    """Stream one canonical representative per isomorphism class of
    connected square-free graphs at n_target.

    Deterministic DFS order (descending candidate column code).  With
    ``n_min``, one preorder walk streams every class with n_min <= n <=
    n_target, each before its extensions; the classes of one size come in
    the order ``enumerate_graphs`` gives that size alone.  With a ticket,
    only that subtree is walked; a ticket whose prefix the enumeration never
    reaches (not canonical, disconnected, or with a 4-cycle) raises
    ValueError rather than yielding nothing.
    """
    if not 1 <= n_target <= ENUM_MAX_VERTICES:
        raise ValueError(f"n_target outside 1..{ENUM_MAX_VERTICES}")
    lo = n_target if n_min is None else n_min
    if not 1 <= lo <= n_target:
        raise ValueError("n_min outside 1..n_target")
    if ticket is None:
        start = Graph(1, (0,))
    else:
        start = ticket.prefix
        if start.n > n_target:
            raise ValueError("ticket deeper than enumeration target")
        if not is_connected(start):
            raise ValueError(f"ticket {ticket.ticket_id}: prefix is disconnected")
        if not is_square_free(start):
            raise ValueError(f"ticket {ticket.ticket_id}: prefix contains a 4-cycle")
        if not is_canonical(start):
            raise ValueError(f"ticket {ticket.ticket_id}: prefix is not canonical")

    def walk(g: Graph) -> Iterator[Graph]:
        if g.n >= lo:
            yield g
        if g.n == n_target:
            return
        for child in extend(g):
            yield from walk(child)

    yield from walk(start)


# ---------------------------------------------------------------------------
# Brute-force oracle (independent of the branch-and-bound machinery)

def brute_force_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of connected square-free
    graphs by exhaustive enumeration.

    Walks all 2^(n(n-1)/2) labelled graphs as code integers, filters with
    vectorised bitmask arithmetic, then sweeps the surviving codes in
    descending order: the first code of each orbit is the orbit maximum, and
    its whole orbit (all n! relabelings, computed exhaustively) is marked
    seen.  No branch-and-bound involved.  Representatives come back in
    descending code order.
    """
    import numpy as np

    if not 1 <= n <= ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {ORACLE_MAX_N}")
    if n == 1:
        return [Graph(1, (0,))]
    L = n * (n - 1) // 2
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    # pair k occupies bit L-1-k, so the integer orders exactly like the code
    shift = {p: L - 1 - k for k, p in enumerate(pairs)}
    survivors = []
    chunk = 1 << 16
    total = 1 << L
    pop = np.array([bin(v).count("1") for v in range(1 << n)], dtype=np.int8)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rows = np.zeros((n, len(codes)), dtype=np.int32)
        for (i, j), s in shift.items():
            b = (codes >> s & 1).astype(np.int32)
            rows[i] |= b << j
            rows[j] |= b << i
        # square-free: no two rows share two neighbours; then connected
        ok = np.ones(len(codes), dtype=bool)
        for i in range(n):
            for j in range(i + 1, n):
                ok &= pop[rows[i] & rows[j]] <= 1
        reach = np.ones(len(codes), dtype=np.int32)
        for _ in range(n - 1):
            nbr = np.zeros_like(reach)
            for i in range(n):
                nbr |= np.where(reach >> i & 1 == 1, rows[i], 0)
            reach |= nbr
        ok &= reach == (1 << n) - 1
        survivors.append(codes[ok])
    codes = np.concatenate(survivors)
    codes[::-1].sort()

    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    src = np.array([shift[(i, j)] for (i, j) in pairs], dtype=np.int64)
    dst = np.zeros((len(perms), L), dtype=np.int64)
    for k, (i, j) in enumerate(pairs):
        a, b = perms[:, i], perms[:, j]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        dst[:, k] = L - 1 - (hi * (hi - 1) // 2 + lo)
    seen: set[int] = set()
    reps = []
    for code in codes:
        c = int(code)
        if c in seen:
            continue
        reps.append(c)
        orbit = np.zeros(len(perms), dtype=np.int64)
        for k in range(L):
            orbit |= (c >> int(src[k]) & 1) << dst[:, k]
        seen.update(int(v) for v in orbit)
    return [graph_from_code(n, format(c, f"0{L}b")) for c in reps]
