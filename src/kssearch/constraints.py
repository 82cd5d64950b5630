"""Orthogonality constraint systems over the reals and their contractor.

A graph's embedding is sought as one unit vector per vertex on the closed
upper hemisphere, with exact dot-product-zero equations on edges.  Rotational
symmetry is quotiented by pinning the first triangle to the orthonormal axis
triple (first edge to two axes for triangle-free graphs), leaving three real
variables per free vertex.

Vertex distinctness is projective: directions u, v coincide iff (u.v)^2 = 1,
so the separation inequality used here is (u.v)^2 <= 1 - delta^2 for every
non-adjacent pair.  Unlike a plain |u-v|^2 lower bound it also excludes
near-antipodal coincidences on the closed hemisphere boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, triangles
from .intervals import (
    Interval,
    IntervalBox,
    ONE,
    QInterval,
    ZERO,
    isqrt_nonneg,
    narrow_by_div,
    _up,
)

AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

DEFAULT_DELTA = 1e-4
# below this, sqrt(1 - delta^2) rounds to 1.0 and separation pruning goes vacuous
MIN_DELTA = 1e-7


class NoEdgesError(ValueError):
    """Graph has no edges: nothing to constrain, trivially embeddable."""


@dataclass(frozen=True)
class ConstraintSystem:
    """Equations and inequalities for embedding ``graph`` on the unit sphere.

    Variables are grouped three per free vertex, in ascending vertex order:
    slot s owns variables (3s, 3s+1, 3s+2) = (x, y, z).
    """

    graph: Graph
    delta: float
    pinned: tuple[tuple[int, tuple[int, int, int]], ...]  # (vertex, axis vector)
    free: tuple[int, ...]
    norm_slots: tuple[int, ...]
    coord_zero: tuple[tuple[int, int], ...]  # (slot, coordinate) = 0
    dot_pairs: tuple[tuple[int, int], ...]  # free-free edges, by slot
    sep_pairs: tuple[tuple[int, int], ...]  # free-free non-adjacent, by slot
    sep_coords: tuple[tuple[int, int], ...]  # (slot, coordinate): |coord| bounded

    @property
    def num_vars(self) -> int:
        return 3 * len(self.free)

    @property
    def num_equations(self) -> int:
        return len(self.norm_slots) + len(self.coord_zero) + len(self.dot_pairs)

    @property
    def sep_bound(self) -> float:
        """Outward-rounded sqrt(1 - delta^2); |u.v| above it violates separation."""
        return _up(math.sqrt(1.0 - self.delta * self.delta))

    def initial_box(self) -> IntervalBox:
        ivs = []
        for _ in self.free:
            ivs.extend(
                (Interval(-1.0, 1.0), Interval(-1.0, 1.0), Interval(0.0, 1.0))
            )
        return IntervalBox(tuple(ivs))


def build_constraint_system(g: Graph, delta: float = DEFAULT_DELTA) -> ConstraintSystem:
    """Pin a triangle (or an edge) to the axes and transcribe the constraints.

    Raises :class:`NoEdgesError` for edgeless graphs.
    """
    if g.edge_count() == 0:
        raise NoEdgesError("graph has no edges; trivially embeddable")
    if not MIN_DELTA <= delta < 1.0:
        raise ValueError(f"delta must lie in [{MIN_DELTA}, 1); smaller values are "
                         "below double-precision separation resolution")
    tris = triangles(g)
    if tris:
        pin_verts = list(tris[0])
    else:
        pin_verts = list(g.edges()[0])
    pinned = tuple((v, AXES[i]) for i, v in enumerate(pin_verts))
    pin_axis = {v: i for i, (v, _) in enumerate(pinned)}
    free = tuple(v for v in range(g.n) if v not in pin_axis)
    slot = {v: s for s, v in enumerate(free)}

    coord_zero = []
    dot_pairs = []
    for u, v in g.edges():
        pu, pv = u in pin_axis, v in pin_axis
        if pu and pv:
            # axis vectors are mutually orthogonal: constant check holds
            continue
        if pu:
            coord_zero.append((slot[v], pin_axis[u]))
        elif pv:
            coord_zero.append((slot[u], pin_axis[v]))
        else:
            dot_pairs.append((slot[u], slot[v]))

    sep_pairs = []
    sep_coords = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if g.has_edge(a, b):
                continue
            pa, pb = a in pin_axis, b in pin_axis
            if pa and pb:
                continue  # distinct axes by construction
            if pa:
                sep_coords.append((slot[b], pin_axis[a]))
            elif pb:
                sep_coords.append((slot[a], pin_axis[b]))
            else:
                sep_pairs.append((slot[a], slot[b]))

    return ConstraintSystem(
        graph=g,
        delta=delta,
        pinned=pinned,
        free=free,
        norm_slots=tuple(range(len(free))),
        coord_zero=tuple(sorted(coord_zero)),
        dot_pairs=tuple(sorted(dot_pairs)),
        sep_pairs=tuple(sorted(sep_pairs)),
        sep_coords=tuple(sorted(sep_coords)),
    )


@dataclass(frozen=True)
class Refutation:
    """Which constraint excluded its target, and over which box state.

    ``snapshot`` is the (partially narrowed, still solution-enclosing) box at
    the moment of refutation; the named constraint's residual evaluates away
    from its target over it, which the exact shadow mode re-verifies.
    """

    kind: str
    detail: tuple
    snapshot: tuple


class EmptyBox(Exception):
    def __init__(self, refutation: Refutation):
        self.refutation = refutation
        super().__init__(f"{refutation.kind} {refutation.detail}")


def contract_explain(box: IntervalBox, cs: ConstraintSystem):
    """One hull-consistency sweep: (box, None), or (None, refutation) when
    the box holds no solution.

    Every equation is solved for each of its variable occurrences with
    interval arithmetic and the result intersected with the current domain;
    the surviving box contains every solution of the delta-system in ``box``.
    """
    try:
        return _sweep(box, cs), None
    except EmptyBox as e:
        return None, e.refutation


def _abs_band(domain: Interval, sq_range: Interval) -> Interval | None:
    """domain ∩ {x : x^2 ∈ sq_range}, hulled over the two sign branches."""
    root = isqrt_nonneg(sq_range)
    if root is None:
        return None
    rl, rh = root.lo, root.hi
    best: Interval | None = None
    for piece in (Interval(-rh, -max(rl, 0.0)), Interval(max(rl, 0.0), rh)):
        cut = domain.intersect(piece)
        if cut is not None:
            best = cut if best is None else best.hull(cut)
    return best


# the two other coordinates of each coordinate, ascending
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _sweep(box: IntervalBox, cs: ConstraintSystem) -> IntervalBox:
    ivs = list(box.ivs)

    def fail(kind: str, detail: tuple) -> None:
        raise EmptyBox(Refutation(kind, detail, tuple(ivs)))

    def setiv(i: int, iv: Interval | None, kind: str, detail: tuple) -> None:
        if iv is None:
            fail(kind, detail)
        ivs[i] = iv

    def narrow_pairs(pairs, band: Interval | None, kind: str) -> None:
        """Narrow u.v into ``band`` (u.v = 0 when None) for each slot pair,
        solving each product u_c v_c against the other two."""
        for s, t in pairs:
            prods = [ivs[3 * s + c] * ivs[3 * t + c] for c in range(3)]
            full = ZERO + prods[0] + prods[1] + prods[2]
            if (not full.contains_zero()) if band is None else (full.intersect(band) is None):
                fail(kind, (s, t))
            for c in range(3):
                i, j = 3 * s + c, 3 * t + c
                a, b = _OTHERS[c]
                rest = ZERO + prods[a] + prods[b]
                # negation is exact; ZERO - rest would round one ulp outward
                target = -rest if band is None else band - rest
                setiv(i, narrow_by_div(ivs[i], target, ivs[j]), kind, (s, t))
                setiv(j, narrow_by_div(ivs[j], target, ivs[i]), kind, (s, t))
                prods[c] = ivs[i] * ivs[j]

    # coordinate-zero equations (edges into pinned axes)
    for s, c in cs.coord_zero:
        i = 3 * s + c
        if not ivs[i].contains_zero():
            fail("coord-zero", (s, c))
        ivs[i] = ZERO

    # unit norms
    for s in cs.norm_slots:
        base = 3 * s
        sq = [ivs[base + c].sqr() for c in range(3)]
        total = sq[0] + sq[1] + sq[2]
        if not (total - ONE).contains_zero():
            fail("norm", (s,))
        for c in range(3):
            rest = ONE - sq[(c + 1) % 3] - sq[(c + 2) % 3]
            setiv(base + c, _abs_band(ivs[base + c], rest), "norm", (s,))
            sq[c] = ivs[base + c].sqr()

    # dot products on edges between free vertices
    narrow_pairs(cs.dot_pairs, None, "edge-dot")

    # separation inequalities
    bound = cs.sep_bound
    band = Interval(-bound, bound)
    for s, c in cs.sep_coords:
        i = 3 * s + c
        setiv(i, ivs[i].intersect(band), "separation-axis", (s, c))
    narrow_pairs(cs.sep_pairs, band, "separation")

    return IntervalBox(tuple(ivs))


# ---------------------------------------------------------------------------
# Exact-rational shadow re-check of refutations

def recheck_refutation_exact(cs: ConstraintSystem, ref: Refutation) -> bool:
    """Confirm with exact rational arithmetic that the named constraint's
    residual avoids its target over the refutation's snapshot box.

    The snapshot endpoints are floats, hence exactly representable as
    rationals; a True result upgrades the outward-rounded float refutation to
    an exact one.
    """
    q = [QInterval.from_interval(iv) for iv in ref.snapshot]

    def qdot(s: int, t: int) -> QInterval:
        total = QInterval(Fraction(0), Fraction(0))
        for c in range(3):
            total = total + q[3 * s + c] * q[3 * t + c]
        return total

    if ref.kind == "norm":
        (s,) = ref.detail
        total = q[3 * s].sqr() + q[3 * s + 1].sqr() + q[3 * s + 2].sqr()
        return not (total - QInterval(Fraction(1), Fraction(1))).contains_zero()
    if ref.kind == "coord-zero":
        s, c = ref.detail
        return not q[3 * s + c].contains_zero()
    if ref.kind == "edge-dot":
        s, t = ref.detail
        return not qdot(s, t).contains_zero()
    if ref.kind in ("separation", "separation-axis"):
        # exact bound: (u.v)^2 must exceed 1 - delta^2 over the whole box
        dsq = Fraction(cs.delta) * Fraction(cs.delta)
        if ref.kind == "separation-axis":
            s, c = ref.detail
            val = q[3 * s + c].sqr()
        else:
            s, t = ref.detail
            val = qdot(s, t).sqr()
        return val.lo > 1 - dsq
    raise ValueError(f"unknown refutation kind {ref.kind!r}")
