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
    IntervalBox,
    QInterval,
    hull_of_cuts,
    isqrt_nonneg,
    mul,
    narrow_by_div,
    sqr,
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
    def sep_bound(self) -> float:
        """Outward-rounded sqrt(1 - delta^2); |u.v| above it violates separation."""
        return _up(math.sqrt(1.0 - self.delta * self.delta))

    def initial_box(self) -> IntervalBox:
        k = len(self.free)
        return IntervalBox((-1.0, -1.0, 0.0) * k, (1.0, 1.0, 1.0) * k)


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
    snapshot: IntervalBox


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


# the two other coordinates of each coordinate, ascending
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _sweep(box: IntervalBox, cs: ConstraintSystem) -> IntervalBox:
    """The sweep on float endpoints; raises :class:`EmptyBox`.

    The box's endpoints are copied into two lists, ``lo`` and ``hi``, and
    narrowed in place.  Each step performs the float operations of the
    ``Interval`` arithmetic, in the same order: a sum of products starts from
    0.0 as ``ZERO + p0 + p1 + p2`` did, products and squares go through
    :func:`mul` and :func:`sqr`, and intersections keep ``max``/``min``'s
    argument order, so signed zeros come out the same.  The outward rounding
    of sums is ``nextafter`` written out.  It equals the guarded
    ``_dn``/``_up`` except at an infinity, which sums over the solver's boxes
    (endpoints in [-1, 1]) never reach; the divisions, which can overflow,
    round inside :func:`narrow_by_div`.
    """
    lo = list(box.lo)
    hi = list(box.hi)
    nx = math.nextafter
    inf = math.inf
    ninf = -inf

    def fail(kind: str, detail: tuple) -> None:
        raise EmptyBox(Refutation(kind, detail, IntervalBox(tuple(lo), tuple(hi))))

    def narrow_pairs(pairs, band, kind: str) -> None:
        """Narrow u.v into ``band`` (u.v = 0 when None) for each slot pair,
        solving each product u_c v_c against the other two."""
        if band is not None:
            blo, bhi = band
        pl = [0.0, 0.0, 0.0]
        ph = [0.0, 0.0, 0.0]
        for s, t in pairs:
            for c in (0, 1, 2):
                i, j = 3 * s + c, 3 * t + c
                pl[c], ph[c] = mul(lo[i], hi[i], lo[j], hi[j])
            fl = nx(nx(nx(0.0 + pl[0], ninf) + pl[1], ninf) + pl[2], ninf)
            fh = nx(nx(nx(0.0 + ph[0], inf) + ph[1], inf) + ph[2], inf)
            if not (fl <= 0.0 <= fh if band is None else hull_of_cuts(fl, fh, (band,))):
                fail(kind, (s, t))
            for c in (0, 1, 2):
                i, j = 3 * s + c, 3 * t + c
                a, b = _OTHERS[c]
                rl = nx(nx(0.0 + pl[a], ninf) + pl[b], ninf)
                rh = nx(nx(0.0 + ph[a], inf) + ph[b], inf)
                if band is None:
                    # negation is exact; ZERO - rest would round one ulp outward
                    tl, th = -rh, -rl
                else:
                    tl, th = nx(blo - rh, ninf), nx(bhi - rl, inf)
                cut = narrow_by_div(lo[i], hi[i], tl, th, lo[j], hi[j])
                if cut is None:
                    fail(kind, (s, t))
                lo[i], hi[i] = cut
                cut = narrow_by_div(lo[j], hi[j], tl, th, lo[i], hi[i])
                if cut is None:
                    fail(kind, (s, t))
                lo[j], hi[j] = cut
                pl[c], ph[c] = mul(lo[i], hi[i], lo[j], hi[j])

    # coordinate-zero equations (edges into pinned axes)
    for s, c in cs.coord_zero:
        i = 3 * s + c
        if not lo[i] <= 0.0 <= hi[i]:
            fail("coord-zero", (s, c))
        lo[i] = hi[i] = 0.0

    # unit norms: each coordinate's square lies in 1 minus the other two
    for s in cs.norm_slots:
        base = 3 * s
        sq = [sqr(lo[i], hi[i]) for i in (base, base + 1, base + 2)]
        tl = nx(nx(sq[0][0] + sq[1][0], ninf) + sq[2][0], ninf)
        th = nx(nx(sq[0][1] + sq[1][1], inf) + sq[2][1], inf)
        if not nx(tl - 1.0, ninf) <= 0.0 <= nx(th - 1.0, inf):
            fail("norm", (s,))
        for c in (0, 1, 2):
            ql, qh = sq[(c + 1) % 3]
            rl, rh = sq[(c + 2) % 3]
            # 1 - q - r, then x ∩ ±sqrt of it, hulled over the two signs
            root = isqrt_nonneg(
                nx(nx(1.0 - qh, ninf) - rh, ninf), nx(nx(1.0 - ql, inf) - rl, inf)
            )
            cut = None
            if root is not None:
                m = 0.0 if 0.0 > root[0] else root[0]
                cut = hull_of_cuts(lo[base + c], hi[base + c], ((-root[1], -m), (m, root[1])))
            if cut is None:
                fail("norm", (s,))
            lo[base + c], hi[base + c] = cut
            sq[c] = sqr(lo[base + c], hi[base + c])

    # dot products on edges between free vertices
    narrow_pairs(cs.dot_pairs, None, "edge-dot")

    # separation inequalities
    bound = cs.sep_bound
    band = (-bound, bound)
    for s, c in cs.sep_coords:
        i = 3 * s + c
        cut = hull_of_cuts(lo[i], hi[i], (band,))
        if cut is None:
            fail("separation-axis", (s, c))
        lo[i], hi[i] = cut
    narrow_pairs(cs.sep_pairs, band, "separation")

    return IntervalBox(tuple(lo), tuple(hi))


# ---------------------------------------------------------------------------
# Exact-rational shadow re-check of refutations

def recheck_refutation_exact(cs: ConstraintSystem, ref: Refutation) -> bool:
    """Confirm with exact rational arithmetic that the named constraint's
    residual avoids its target over the refutation's snapshot box.

    The snapshot endpoints are floats, hence exactly representable as
    rationals; a True result upgrades the outward-rounded float refutation to
    an exact one.
    """
    box = ref.snapshot
    q = [QInterval(Fraction(a), Fraction(b)) for a, b in zip(box.lo, box.hi)]

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
