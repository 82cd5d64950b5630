"""Bit-matrix graphs.

A graph is stored as one integer bitmask per vertex (bit j of ``rows[i]``
set iff i and j are adjacent), which keeps the square-free test and the
enumeration hot loop allocation-free.  Vertices are 0-indexed internally.

Enumeration and canonical codes are capped at 64 vertices (the search space
of interest ends near 31); the type itself also hosts the much larger grid
orthogonality graphs, so its own cap is looser.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_VERTICES = 4096
ENUM_MAX_VERTICES = 64


class Graph6Error(ValueError):
    """Malformed graph6 text; ``offset`` is the offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph: vertex count plus one adjacency bitmask per vertex."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 1..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        full = (1 << self.n) - 1
        rows = self.rows
        for i, r in enumerate(rows):
            if r & ~full:
                raise ValueError(f"row {i} has bits beyond vertex count")
            if r >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
            m = r
            while m:
                b = m & -m
                m ^= b
                j = b.bit_length() - 1
                if not rows[j] >> i & 1:
                    raise ValueError(f"adjacency not symmetric at ({i},{j})")

    @staticmethod
    def _unchecked(n: int, rows: tuple[int, ...]) -> "Graph":
        """Constructor bypassing validation, for rows built by trusted code."""
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "rows", rows)
        return g

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for i in range(self.n):
            m = self.rows[i] >> (i + 1) << (i + 1)
            while m:
                b = m & -m
                m ^= b
                out.append((i, b.bit_length() - 1))
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def induced(self, vertices) -> "Graph":
        """Induced subgraph; ``vertices`` keep their relative order."""
        verts = list(vertices)
        pos = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for i, v in enumerate(verts):
            m = self.rows[v]
            while m:
                b = m & -m
                m ^= b
                w = b.bit_length() - 1
                if w in pos:
                    rows[i] |= 1 << pos[w]
        return Graph(len(verts), tuple(rows))


def _bits(m: int) -> list[int]:
    out = []
    while m:
        b = m & -m
        m ^= b
        out.append(b.bit_length() - 1)
    return out


# ---------------------------------------------------------------------------
# Upper-triangle codes

def encode_upper_triangle(g: Graph) -> str:
    """Entries strictly above the diagonal, column by column, as a '0'/'1' string.

    Column j contributes bits (0,j), (1,j), ..., (j-1,j) in that order, so the
    string compares lexicographically exactly like the canonical-order
    bitstring.  Length is n(n-1)/2.
    """
    out = []
    for j in range(1, g.n):
        col = g.rows[j]
        out.extend("1" if col >> i & 1 else "0" for i in range(j))
    return "".join(out)


def graph_from_code(n: int, code: str) -> Graph:
    """Inverse of :func:`encode_upper_triangle`."""
    if len(code) != n * (n - 1) // 2:
        raise ValueError(f"code length {len(code)} != n(n-1)/2 for n={n}")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if code[k] == "1":
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, tuple(rows))


def code_to_hex(code: str) -> str:
    """Pack a code string into hex (used for ticket descriptors)."""
    if not code:
        return ""
    width = -(-len(code) // 4)
    return format(int(code, 2), f"0{width}x")


def code_from_hex(n: int, hexstr: str) -> str:
    length = n * (n - 1) // 2
    if length == 0:
        return ""
    value = int(hexstr, 16)
    if value >> length:
        raise ValueError("hex value too large for code length")
    return format(value, f"0{length}b")


# ---------------------------------------------------------------------------
# Predicates

def is_square_free(g: Graph) -> bool:
    """True iff g has no 4-cycle subgraph.

    Two vertices with >= 2 common neighbours are opposite corners of a square,
    so one popcount per vertex pair decides.
    """
    rows = g.rows
    for i in range(g.n):
        ri = rows[i]
        for j in range(i + 1, g.n):
            if (ri & rows[j]).bit_count() >= 2:
                return False
    return True


def is_connected(g: Graph) -> bool:
    rows = g.rows
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            b = m & -m
            m ^= b
            nxt |= rows[b.bit_length() - 1]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << g.n) - 1


def triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All 3-cliques, each listed once as an ascending triple."""
    rows = g.rows
    out = []
    for i in range(g.n):
        ri = rows[i]
        m = ri >> (i + 1) << (i + 1)
        while m:
            b = m & -m
            m ^= b
            j = b.bit_length() - 1
            common = (ri & rows[j]) >> (j + 1) << (j + 1)
            while common:
                c = common & -common
                common ^= c
                out.append((i, j, c.bit_length() - 1))
    return out


def min_degree(g: Graph) -> int:
    return min(r.bit_count() for r in g.rows)


def every_vertex_in_triangle(g: Graph) -> bool:
    """True iff each vertex lies in at least one 3-clique."""
    return triangle_core(g) == (1 << g.n) - 1


def triangle_core(g: Graph) -> int:
    """Bitmask of the vertices that lie in a triangle.

    A vertex in no triangle can always be assigned 1 in a 101-colouring, so
    colourability of g equals colourability of the core.
    """
    rows = g.rows
    core = 0
    for v, r in enumerate(rows):
        m = r
        while m:
            b = m & -m
            m ^= b
            if r & rows[b.bit_length() - 1]:
                core |= 1 << v
                break
    return core


# ---------------------------------------------------------------------------
# graph6 interchange format

def graph6_encode(g: Graph) -> str:
    """Standard graph6 line (without trailing newline)."""
    if g.n <= 62:
        head = chr(g.n + 63)
    else:
        head = "~" + "".join(chr((g.n >> s & 63) + 63) for s in (12, 6, 0))
    bits = encode_upper_triangle(g)
    pad = -len(bits) % 6
    bits += "0" * pad
    body = "".join(chr(int(bits[i : i + 6], 2) + 63) for i in range(0, len(bits), 6))
    return head + body


def graph6_decode(text: str) -> Graph:
    """Parse one graph6 line; raises :class:`Graph6Error` naming the bad byte."""
    s = text.rstrip("\n")
    if not s:
        raise Graph6Error("empty graph6 line", 0)
    for k, ch in enumerate(s):
        if ch != "~" and not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"invalid graph6 character {ch!r}", k)
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("graph6 vertex counts beyond 258047 unsupported", 1)
        if len(s) < 4:
            raise Graph6Error("truncated graph6 vertex count", len(s))
        n = 0
        for k in range(1, 4):
            n = n << 6 | (ord(s[k]) - 63)
        body_start = 4
    else:
        n = ord(s[0]) - 63
        body_start = 1
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside 1..{MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 6)
    if len(s) - body_start < nbytes:
        raise Graph6Error("truncated graph6 body", len(s))
    if len(s) - body_start > nbytes:
        raise Graph6Error("trailing bytes after graph6 body", body_start + nbytes)
    bits = []
    for k in range(body_start, body_start + nbytes):
        bits.append(format(ord(s[k]) - 63, "06b"))
    code = "".join(bits)
    if any(c == "1" for c in code[nbits:]):
        raise Graph6Error("nonzero padding bits", body_start + nbytes - 1)
    return graph_from_code(n, code[:nbits])

