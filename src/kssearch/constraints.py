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

The flip lemma: negating x (or y) in every vector keeps norms, dot products,
coordinate zeros, separation bounds and z >= 0, and sends each pinned axis to
its antipode (the same direction), so x and y may each be >= 0 on one slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, triangles
from .intervals import (
    IntervalBox,
    QInterval,
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
        """Per slot x, y in [-1, 1], z in [0, 1]; by the flip lemma x, y >= 0 on one slot each."""
        k = len(self.free)
        lo = [-1.0, -1.0, 0.0] * k
        for c in (0, 1):  # the first slot where c is not a coordinate zero, if any
            for s in [s for s in range(k) if (s, c) not in self.coord_zero][:1]:
                lo[3 * s + c] = 0.0
        return IntervalBox(tuple(lo), (1.0, 1.0, 1.0) * k)


def build_constraint_system(g: Graph, delta: float = DEFAULT_DELTA) -> ConstraintSystem:
    """Pin a triangle (or an edge) to the axes and transcribe the constraints.

    Raises ValueError for a delta outside [MIN_DELTA, 1), and then
    :class:`NoEdgesError` for edgeless graphs.
    """
    if not MIN_DELTA <= delta < 1.0:
        raise ValueError(f"delta must lie in [{MIN_DELTA}, 1); smaller values are "
                         "below double-precision separation resolution")
    if g.edge_count() == 0:
        raise NoEdgesError("graph has no edges; trivially embeddable")
    tris = triangles(g)
    if tris:
        pin_verts = list(tris[0])
    else:
        pin_verts = list(g.edges()[0])
    pinned = tuple((v, AXES[i]) for i, v in enumerate(pin_verts))
    pin_axis = {v: i for i, (v, _) in enumerate(pinned)}
    free = tuple(v for v in range(g.n) if v not in pin_axis)
    slot = {v: s for s, v in enumerate(free)}

    # an edge asks for orthogonality, a non-edge for separation: against a
    # pinned axis that bounds one coordinate, between free vertices a dot product
    coord_zero, dot_pairs, sep_coords, sep_pairs = [], [], [], []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            coords, pairs = (coord_zero, dot_pairs) if g.has_edge(a, b) else (sep_coords, sep_pairs)
            pa, pb = a in pin_axis, b in pin_axis
            if pa and pb:
                continue  # distinct, mutually orthogonal axes by construction
            if pa:
                coords.append((slot[b], pin_axis[a]))
            elif pb:
                coords.append((slot[a], pin_axis[b]))
            else:
                pairs.append((slot[a], slot[b]))

    return ConstraintSystem(
        graph=g,
        delta=delta,
        pinned=pinned,
        free=free,
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
    interval-object oracle in ``tests/test_interval_kernels.py``, in the same
    order: a sum of products starts from 0.0 as the oracle's
    ``ZERO + p0 + p1 + p2`` does, and intersections and hulls keep
    ``max``/``min``'s argument order, so signed zeros come out the same.
    Products and squares are :func:`mul` and :func:`sqr` written out in the
    loop, as are the square roots, the intersections and the quotient by a
    denominator that excludes zero, with its one cut; a denominator that
    contains zero goes through :func:`narrow_by_div`.  The
    outward rounding of sums, products, squares and roots is ``nextafter``
    written out.  It equals the guarded ``_dn``/``_up`` except at an
    infinity, which these values over the solver's boxes (endpoints in
    [-1, 1]) never reach; a quotient can overflow, so its rounding keeps the
    guard.

    Two kinds of step are skipped, each because it would return the box's
    own endpoints, signed zeros included: the narrowings of a separation
    pair whose dot product already lies in the band, and a division whose
    target and denominator both contain zero, which has the whole line as
    quotient.  A product is recomputed only after one of its factors was
    assigned.
    """
    lo = list(box.lo)
    hi = list(box.hi)
    nx = math.nextafter
    sqrt = math.sqrt
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
                a, b, d, e = lo[i], hi[i], lo[j], hi[j]
                p0, p1, p2, p3 = a * d, a * e, b * d, b * e
                ml = p1 if p1 < p0 else p0
                ml = p2 if p2 < ml else ml
                ml = p3 if p3 < ml else ml
                mh = p1 if p1 > p0 else p0
                mh = p2 if p2 > mh else mh
                mh = p3 if p3 > mh else mh
                pl[c], ph[c] = nx(ml, ninf), nx(mh, inf)
            fl = nx(nx(nx(0.0 + pl[0], ninf) + pl[1], ninf) + pl[2], ninf)
            fh = nx(nx(nx(0.0 + ph[0], inf) + ph[1], inf) + ph[2], inf)
            if band is None:
                if not fl <= 0.0 <= fh:
                    fail(kind, (s, t))
            else:
                if not (blo if blo > fl else fl) <= (bhi if bhi < fh else fh):
                    fail(kind, (s, t))
                if blo <= fl and fh <= bhi:
                    # the sum lies in the band, so each product's target below
                    # holds every product over the box: no narrowing can cut
                    continue
            for c in (0, 1, 2):
                i, j = 3 * s + c, 3 * t + c
                x, y = _OTHERS[c]
                rl = nx(nx(0.0 + pl[x], ninf) + pl[y], ninf)
                rh = nx(nx(0.0 + ph[x], inf) + ph[y], inf)
                if band is None:
                    # negation is exact; ZERO - rest would round one ulp outward
                    tl, th = -rh, -rl
                else:
                    tl, th = nx(blo - rh, ninf), nx(bhi - rl, inf)
                spans_zero = tl <= 0.0 <= th
                assigned = False
                # u_c in target / v_c, then v_c in target / u_c
                for k, m in ((i, j), (j, i)):
                    d, e = lo[m], hi[m]
                    if d > 0.0 or e < 0.0:
                        q0, q1, q2, q3 = tl / d, tl / e, th / d, th / e
                        ql = q1 if q1 < q0 else q0
                        ql = q2 if q2 < ql else ql
                        ql = q3 if q3 < ql else ql
                        qh = q1 if q1 > q0 else q0
                        qh = q2 if q2 > qh else qh
                        qh = q3 if q3 > qh else qh
                        if ql != inf:
                            ql = nx(ql, ninf)
                        if qh != ninf:
                            qh = nx(qh, inf)
                        a, b = lo[k], hi[k]
                        a = ql if ql > a else a
                        b = qh if qh < b else b
                        if not a <= b:
                            fail(kind, (s, t))
                        lo[k], hi[k] = a, b
                        assigned = True
                    elif not spans_zero:
                        cut = narrow_by_div(lo[k], hi[k], tl, th, d, e)
                        if cut is None:
                            fail(kind, (s, t))
                        lo[k], hi[k] = cut
                        assigned = True
                if assigned:
                    a, b, d, e = lo[i], hi[i], lo[j], hi[j]
                    p0, p1, p2, p3 = a * d, a * e, b * d, b * e
                    ml = p1 if p1 < p0 else p0
                    ml = p2 if p2 < ml else ml
                    ml = p3 if p3 < ml else ml
                    mh = p1 if p1 > p0 else p0
                    mh = p2 if p2 > mh else mh
                    mh = p3 if p3 > mh else mh
                    pl[c], ph[c] = nx(ml, ninf), nx(mh, inf)

    # coordinate-zero equations (edges into pinned axes)
    for s, c in cs.coord_zero:
        i = 3 * s + c
        if not lo[i] <= 0.0 <= hi[i]:
            fail("coord-zero", (s, c))
        lo[i] = hi[i] = 0.0

    # unit norms: each coordinate's square lies in 1 minus the other two
    sl = [0.0, 0.0, 0.0]
    sh = [0.0, 0.0, 0.0]
    for s in range(len(cs.free)):
        base = 3 * s
        for c in (0, 1, 2):
            a, b = lo[base + c], hi[base + c]
            if a >= 0:
                sl[c], sh[c] = nx(a * a, ninf), nx(b * b, inf)
            elif b <= 0:
                sl[c], sh[c] = nx(b * b, ninf), nx(a * a, inf)
            else:
                a, b = a * a, b * b
                sl[c], sh[c] = 0.0, nx(b if b > a else a, inf)
        tl = nx(nx(sl[0] + sl[1], ninf) + sl[2], ninf)
        th = nx(nx(sh[0] + sh[1], inf) + sh[2], inf)
        if not nx(tl - 1.0, ninf) <= 0.0 <= nx(th - 1.0, inf):
            fail("norm", (s,))
        for c in (0, 1, 2):
            q, r = (c + 1) % 3, (c + 2) % 3
            # 1 - q - r, then x ∩ ±sqrt of it: the cut [nl, nh] by the
            # negative root and [pl, ph] by the positive one, hulled
            rl = nx(nx(1.0 - sh[q], ninf) - sh[r], ninf)
            rh = nx(nx(1.0 - sl[q], inf) - sl[r], inf)
            if rh < 0:
                fail("norm", (s,))
            rl = 0.0 if 0.0 > rl else rl
            rl, rh = nx(sqrt(rl), ninf), nx(sqrt(rh), inf)
            m = 0.0 if 0.0 > rl else rl
            a, b = lo[base + c], hi[base + c]
            nl, nh = -rh, -m
            nl = nl if nl > a else a
            nh = nh if nh < b else b
            pl = m if m > a else a
            ph = rh if rh < b else b
            if nl <= nh:
                if pl <= ph:
                    nl = pl if pl < nl else nl
                    nh = ph if ph > nh else nh
                a, b = nl, nh
            elif pl <= ph:
                a, b = pl, ph
            else:
                fail("norm", (s,))
            lo[base + c], hi[base + c] = a, b
            if a >= 0:
                sl[c], sh[c] = nx(a * a, ninf), nx(b * b, inf)
            elif b <= 0:
                sl[c], sh[c] = nx(b * b, ninf), nx(a * a, inf)
            else:
                a, b = a * a, b * b
                sl[c], sh[c] = 0.0, nx(b if b > a else a, inf)

    # dot products on edges between free vertices
    narrow_pairs(cs.dot_pairs, None, "edge-dot")

    # separation inequalities
    bound = cs.sep_bound
    for s, c in cs.sep_coords:
        i = 3 * s + c
        a, b = lo[i], hi[i]
        a = -bound if -bound > a else a
        b = bound if bound < b else b
        if not a <= b:
            fail("separation-axis", (s, c))
        lo[i], hi[i] = a, b
    narrow_pairs(cs.sep_pairs, (-bound, bound), "separation")

    return IntervalBox(tuple(lo), tuple(hi))


# ---------------------------------------------------------------------------
# Exact-rational shadow re-check of refutations

def recheck_refutation_exact(cs: ConstraintSystem, ref: Refutation) -> bool:
    """Confirm with exact rational arithmetic that the named constraint's
    residual avoids its target over the refutation's snapshot box.

    The snapshot endpoints are floats, hence exactly representable as
    rationals; a True result upgrades the outward-rounded float refutation to
    an exact one.  Only the variables the constraint reads are converted.
    """
    lo, hi = ref.snapshot.lo, ref.snapshot.hi

    def q(i: int) -> QInterval:
        return QInterval(Fraction(lo[i]), Fraction(hi[i]))

    def qdot(s: int, t: int) -> QInterval:
        total = QInterval(Fraction(0), Fraction(0))
        for c in range(3):
            total = total + q(3 * s + c) * q(3 * t + c)
        return total

    if ref.kind == "norm":
        (s,) = ref.detail
        total = q(3 * s).sqr() + q(3 * s + 1).sqr() + q(3 * s + 2).sqr()
        return not (total - QInterval(Fraction(1), Fraction(1))).contains_zero()
    if ref.kind == "coord-zero":
        s, c = ref.detail
        return not q(3 * s + c).contains_zero()
    if ref.kind == "edge-dot":
        s, t = ref.detail
        return not qdot(s, t).contains_zero()
    if ref.kind in ("separation", "separation-axis"):
        # exact bound: (u.v)^2 must exceed 1 - delta^2 over the whole box
        dsq = Fraction(cs.delta) * Fraction(cs.delta)
        if ref.kind == "separation-axis":
            s, c = ref.detail
            val = q(3 * s + c).sqr()
        else:
            s, t = ref.detail
            val = qdot(s, t).sqr()
        return val.lo > 1 - dsq
    raise ValueError(f"unknown refutation kind {ref.kind!r}")
