"""The float-endpoint interval kernels against an Interval-object oracle.

``contract_explain``'s sweep, the Krawczyk image and the distinctness test
work on plain float endpoints.  The functions below named ``ref_*`` are the
earlier implementation on ``Interval`` objects, kept only as the oracle: it
turns each box into ``Interval`` objects itself, and the kernels must
reproduce it bit for bit (``float.hex``), refutation kind, detail and
snapshot included, on random sub-boxes of the constraint systems' initial
boxes and on fixed boxes that reach the sweep's rarer branches.  The
oracle's ``Interval`` and its outward rounding are defined here, so it
shares no arithmetic with the kernels it checks.  The float residuals and
Jacobian of the Newton step are checked the same way against the two
separate functions they replaced, and the exact re-check of a refutation
against the earlier one, which converted the whole snapshot box.
"""

import math
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from kssearch import embedding
from kssearch.constraints import (
    EmptyBox,
    Refutation,
    build_constraint_system,
    contract_explain,
    recheck_refutation_exact,
)
from kssearch.embedding import (
    decide_embeddability,
    _equations,
    _float_system,
    _krawczyk_image,
    _polish,
    check_distinctness,
    choose_slices,
)
from kssearch.graphs import Graph, graph6_decode, graph6_encode
from kssearch.grids import get_grid, minimize_uncolourable
from kssearch.intervals import (
    IntervalBox,
    QInterval,
    WidthUnderflow,
    _dn as kernel_dn,
    _up as kernel_up,
    bisect,
    mul,
    narrow_by_div,
    sqr,
)
from kssearch.orderly import enumerate_graphs

# ---------------------------------------------------------------------------
# Oracle: the Interval-object sweep and Krawczyk image

_INF = math.inf
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF) if math.isfinite(x) else x


def _up(x: float) -> float:
    return math.nextafter(x, _INF) if math.isfinite(x) else x


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval; sums and differences round outward by one ulp."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_dn(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_dn(self.lo - other.hi), _up(self.hi - other.lo))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


ZERO = Interval(0.0, 0.0)
ONE = Interval(1.0, 1.0)


def to_ivs(box: IntervalBox) -> list:
    return [Interval(a, b) for a, b in zip(box.lo, box.hi)]


def to_box(ivs) -> IntervalBox:
    return IntervalBox(tuple(iv.lo for iv in ivs), tuple(iv.hi for iv in ivs))


def ref_mul(x: Interval, y: Interval) -> Interval:
    a, b, c, d = x.lo, x.hi, y.lo, y.hi
    p = (a * c, a * d, b * c, b * d)
    return Interval(_dn(min(p)), _up(max(p)))


def ref_sqr(x: Interval) -> Interval:
    a, b = x.lo, x.hi
    if a >= 0:
        return Interval(_dn(a * a), _up(b * b))
    if b <= 0:
        return Interval(_dn(b * b), _up(a * a))
    return Interval(0.0, _up(max(a * a, b * b)))


def ref_scale(x: Interval, k: float) -> Interval:
    if k >= 0:
        return Interval(_dn(x.lo * k), _up(x.hi * k))
    return Interval(_dn(x.hi * k), _up(x.lo * k))


def ref_isqrt_nonneg(x: Interval):
    if x.hi < 0:
        return None
    lo = max(x.lo, 0.0)
    return Interval(_dn(math.sqrt(lo)), _up(math.sqrt(x.hi)))


def ref_extended_div(num: Interval, den: Interval) -> list:
    a, b = num.lo, num.hi
    c, d = den.lo, den.hi
    if c == 0.0 and d == 0.0:
        return [Interval(-_INF, _INF)] if num.contains_zero() else []
    if c > 0 or d < 0:
        lo = min(_dn(a / c), _dn(a / d), _dn(b / c), _dn(b / d))
        hi = max(_up(a / c), _up(a / d), _up(b / c), _up(b / d))
        return [Interval(lo, hi)]
    if num.contains_zero():
        return [Interval(-_INF, _INF)]
    out = []
    if b < 0:
        if d > 0:
            out.append(Interval(-_INF, _up(b / d)))
        if c < 0:
            out.append(Interval(_dn(b / c), _INF))
    else:
        if c < 0:
            out.append(Interval(-_INF, _up(a / c)))
        if d > 0:
            out.append(Interval(_dn(a / d), _INF))
    return out


def ref_hull_of_cuts(var: Interval, pieces):
    best = None
    for p in pieces:
        cut = var.intersect(p)
        if cut is not None:
            best = cut if best is None else best.hull(cut)
    return best


def ref_narrow_by_div(var: Interval, num: Interval, den: Interval):
    return ref_hull_of_cuts(var, ref_extended_div(num, den))


def ref_abs_band(domain: Interval, sq_range: Interval):
    root = ref_isqrt_nonneg(sq_range)
    if root is None:
        return None
    rl, rh = root.lo, root.hi
    return ref_hull_of_cuts(domain, (Interval(-rh, -max(rl, 0.0)), Interval(max(rl, 0.0), rh)))


def ref_sweep(box: IntervalBox, cs) -> IntervalBox:
    ivs = to_ivs(box)

    def fail(kind, detail):
        raise EmptyBox(Refutation(kind, detail, to_box(ivs)))

    def setiv(i, iv, kind, detail):
        if iv is None:
            fail(kind, detail)
        ivs[i] = iv

    def narrow_pairs(pairs, band, kind):
        for s, t in pairs:
            prods = [ref_mul(ivs[3 * s + c], ivs[3 * t + c]) for c in range(3)]
            full = ZERO + prods[0] + prods[1] + prods[2]
            if (not full.contains_zero()) if band is None else (full.intersect(band) is None):
                fail(kind, (s, t))
            for c in range(3):
                i, j = 3 * s + c, 3 * t + c
                a, b = _OTHERS[c]
                rest = ZERO + prods[a] + prods[b]
                target = -rest if band is None else band - rest
                setiv(i, ref_narrow_by_div(ivs[i], target, ivs[j]), kind, (s, t))
                setiv(j, ref_narrow_by_div(ivs[j], target, ivs[i]), kind, (s, t))
                prods[c] = ref_mul(ivs[i], ivs[j])

    for s, c in cs.coord_zero:
        i = 3 * s + c
        if not ivs[i].contains_zero():
            fail("coord-zero", (s, c))
        ivs[i] = ZERO

    for s in range(len(cs.free)):
        base = 3 * s
        sq = [ref_sqr(ivs[base + c]) for c in range(3)]
        total = sq[0] + sq[1] + sq[2]
        if not (total - ONE).contains_zero():
            fail("norm", (s,))
        for c in range(3):
            rest = ONE - sq[(c + 1) % 3] - sq[(c + 2) % 3]
            setiv(base + c, ref_abs_band(ivs[base + c], rest), "norm", (s,))
            sq[c] = ref_sqr(ivs[base + c])

    narrow_pairs(cs.dot_pairs, None, "edge-dot")

    bound = cs.sep_bound
    band = Interval(-bound, bound)
    for s, c in cs.sep_coords:
        i = 3 * s + c
        setiv(i, ivs[i].intersect(band), "separation-axis", (s, c))
    narrow_pairs(cs.sep_pairs, band, "separation")

    return to_box(ivs)


def ref_contract_explain(box, cs):
    try:
        return ref_sweep(box, cs), None
    except EmptyBox as e:
        return None, e.refutation


def ref_recheck_refutation_exact(cs, ref: Refutation) -> bool:
    """The exact re-check of a refutation over its whole snapshot box."""
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
        dsq = Fraction(cs.delta) * Fraction(cs.delta)
        if ref.kind == "separation-axis":
            s, c = ref.detail
            val = q[3 * s + c].sqr()
        else:
            s, t = ref.detail
            val = qdot(s, t).sqr()
        return val.lo > 1 - dsq
    raise ValueError(f"unknown refutation kind {ref.kind!r}")


def ref_residuals_at(cs, eqs, pt):
    out = []
    thin = [Interval.point(v) for v in pt]
    for eq in eqs:
        if eq[0] == "norm":
            s = eq[1]
            x, y, z = thin[3 * s], thin[3 * s + 1], thin[3 * s + 2]
            out.append(ref_sqr(x) + ref_sqr(y) + ref_sqr(z) - ONE)
        elif eq[0] == "coord":
            out.append(thin[3 * eq[1] + eq[2]])
        else:
            s, t = eq[1], eq[2]
            acc = ZERO
            for c in range(3):
                acc = acc + ref_mul(thin[3 * s + c], thin[3 * t + c])
            out.append(acc)
    return out


def ref_interval_jacobian(cs, eqs, box, slices):
    m = len(eqs) + len(slices)
    rows = [[ZERO] * cs.num_vars for _ in range(m)]
    for i, eq in enumerate(eqs):
        if eq[0] == "norm":
            s = eq[1]
            for c in range(3):
                rows[i][3 * s + c] = ref_scale(box[3 * s + c], 2.0)
        elif eq[0] == "coord":
            rows[i][3 * eq[1] + eq[2]] = ONE
        else:
            s, t = eq[1], eq[2]
            for c in range(3):
                rows[i][3 * s + c] = box[3 * t + c]
                rows[i][3 * t + c] = box[3 * s + c]
    for k, (coord, _val) in enumerate(slices):
        rows[len(eqs) + k][coord] = ONE
    return rows


def ref_krawczyk_image(cs, eqs, box: IntervalBox, slices):
    nv = cs.num_vars
    mid = box.midpoint()
    cur = to_ivs(box)
    fmid = ref_residuals_at(cs, eqs, mid)
    for coord, val in slices:
        fmid.append(Interval.point(mid[coord]) - Interval.point(val))
    jac = ref_interval_jacobian(cs, eqs, cur, slices)
    jmid = np.array([[0.5 * (iv.lo + iv.hi) for iv in row] for row in jac])
    try:
        cmat = np.linalg.inv(jmid)
    except np.linalg.LinAlgError:
        return "singular midpoint Jacobian"
    if not np.all(np.isfinite(cmat)):
        return "non-finite preconditioner"
    delta_iv = [cur[i] - Interval.point(mid[i]) for i in range(nv)]
    newbox = []
    for i in range(nv):
        cf = ZERO
        for j in range(nv):
            cf = cf + ref_scale(fmid[j], cmat[i, j])
        acc = Interval.point(mid[i]) - cf
        for j in range(nv):
            mij = Interval.point(1.0 if i == j else 0.0)
            s = ZERO
            for k in range(nv):
                s = s + ref_scale(jac[k][j], cmat[i, k])
            mij = mij - s
            acc = acc + ref_mul(mij, delta_iv[j])
        newbox.append(acc)
    return newbox


def ref_float_residuals(cs, eqs, pt: np.ndarray) -> np.ndarray:
    out = np.zeros(len(eqs))
    for i, eq in enumerate(eqs):
        if eq[0] == "norm":
            s = eq[1]
            out[i] = pt[3 * s] ** 2 + pt[3 * s + 1] ** 2 + pt[3 * s + 2] ** 2 - 1.0
        elif eq[0] == "coord":
            out[i] = pt[3 * eq[1] + eq[2]]
        else:
            s, t = eq[1], eq[2]
            out[i] = sum(pt[3 * s + c] * pt[3 * t + c] for c in range(3))
    return out


def ref_float_jacobian(cs, eqs, pt: np.ndarray) -> np.ndarray:
    jac = np.zeros((len(eqs), cs.num_vars))
    for i, eq in enumerate(eqs):
        if eq[0] == "norm":
            s = eq[1]
            for c in range(3):
                jac[i, 3 * s + c] = 2.0 * pt[3 * s + c]
        elif eq[0] == "coord":
            jac[i, 3 * eq[1] + eq[2]] = 1.0
        else:
            s, t = eq[1], eq[2]
            for c in range(3):
                jac[i, 3 * s + c] = pt[3 * t + c]
                jac[i, 3 * t + c] = pt[3 * s + c]
    return jac


def ref_check_distinctness(cs, box: IntervalBox) -> bool:
    ivs = to_ivs(box)
    for s, c in cs.sep_coords:
        if ref_sqr(ivs[3 * s + c]).hi >= 1.0:
            return False
    for s, t in cs.sep_pairs:
        acc = ZERO
        for c in range(3):
            acc = acc + ref_mul(ivs[3 * s + c], ivs[3 * t + c])
        if ref_sqr(acc).hi >= 1.0:
            return False
    return True


# ---------------------------------------------------------------------------
# The float-endpoint helpers, over the whole finite range (overflow to inf,
# underflow, signed zeros)

finite = st.floats(allow_nan=False, allow_infinity=False)
pairs = st.tuples(finite, finite).map(sorted)


def _same(got, want: Interval | None) -> bool:
    if want is None:
        return got is None
    return got is not None and (got[0].hex(), got[1].hex()) == (want.lo.hex(), want.hi.hex())


def test_rounding_matches_oracle():
    for x in (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1.7976931348623157e308,
              -1.7976931348623157e308, _INF, -_INF):
        assert kernel_dn(x).hex() == _dn(x).hex()
        assert kernel_up(x).hex() == _up(x).hex()
    assert math.isnan(kernel_dn(math.nan)) and math.isnan(kernel_up(math.nan))


@settings(max_examples=1000, deadline=None)
@given(pairs, pairs, pairs)
@example((0.0, 1.0), (1e300, 1e308), (-1e-300, 1e-10))  # every quotient overflows
@example((-0.0, 1.0), (1.0, 2.0), (-0.0, 1.0))  # signed zeros
@example((-3.0, 3.0), (1.0, 2.0), (-1.0, 1.0))  # the domain meets both rays
def test_float_helpers_match_interval_oracle(v, num, den):
    """narrow_by_div is checked on the divisions the sweep sends it: a
    denominator that contains 0 and a target that does not."""
    v_iv, num_iv, den_iv = Interval(*v), Interval(*num), Interval(*den)
    assert _same(mul(*num, *den), ref_mul(num_iv, den_iv))
    assert _same(sqr(*num), ref_sqr(num_iv))
    if den_iv.contains_zero() and not num_iv.contains_zero():
        assert _same(narrow_by_div(*v, *num, *den), ref_narrow_by_div(v_iv, num_iv, den_iv))


# ---------------------------------------------------------------------------
# Inputs: bisection paths from the initial box, contracting on the way

C4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
P4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
PAW = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
K13 = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
GRAPHS = (
    [C4, P4, PAW, K13]
    + [g for n in range(1, 7) for g in enumerate_graphs(n) if g.edge_count()]
    + [graph6_decode("I{d@?gI@w"), graph6_decode("I{O_ogI@W")]
)


def _hex(box: IntervalBox) -> list:
    return [(a.hex(), b.hex()) for a, b in zip(box.lo, box.hi)]


@st.composite
def sub_boxes(draw):
    """A constraint system and a box reached from its initial box by a random
    path of bisections (left or right child) and oracle sweeps, so that the
    box's endpoints are both dyadic and contracted ones."""
    g = draw(st.sampled_from(GRAPHS))
    cs = build_constraint_system(g, draw(st.sampled_from([1e-4, 0.3])))
    box = cs.initial_box()
    for step in draw(st.lists(st.sampled_from("lrc"), max_size=40)):
        if step == "c":
            nxt, _ = ref_contract_explain(box, cs)
            if nxt is None:
                break
            box = nxt
        else:
            try:
                box = bisect(box)[step == "r"]
            except WidthUnderflow:
                break
    return cs, box


def assert_sweep_matches_oracle(box, cs):
    """contract_explain equals the oracle by float.hex, a refutation's kind,
    detail and snapshot included; returns the oracle's answer."""
    got, got_ref = contract_explain(box, cs)
    want, want_ref = ref_contract_explain(box, cs)
    if want is None:
        assert got is None
        assert (got_ref.kind, got_ref.detail) == (want_ref.kind, want_ref.detail)
        assert _hex(got_ref.snapshot) == _hex(want_ref.snapshot)
    else:
        assert got_ref is None
        assert _hex(got) == _hex(want)
    return want, want_ref


@settings(max_examples=600, deadline=None)
@given(sub_boxes())
def test_contract_explain_matches_interval_oracle(case):
    assert_sweep_matches_oracle(case[1], case[0])


def test_contract_explain_matches_interval_oracle_on_critical_31():
    """The 84-variable system of the N = 2 grid's 31-vertex critical
    subsystem, on seeded paths of bisections and sweeps: 60 sweeps."""
    g = minimize_uncolourable(get_grid(2), list(range(49))).graph
    assert g.n == 31
    rng = random.Random(31)
    for delta in (1e-4, 0.3):
        cs = build_constraint_system(g, delta)
        assert cs.num_vars == 84
        box = cs.initial_box()
        for _ in range(30):
            for _ in range(rng.randrange(4)):
                box = bisect(box)[rng.random() < 0.5]
            box = assert_sweep_matches_oracle(box, cs)[0] or cs.initial_box()


def test_separation_pair_inside_band_matches_interval_oracle():
    """The sweep skips the narrowings of a separation pair whose dot product
    already lies in the band.  On this box pair (0, 2) lies in it and pair
    (1, 2) still narrows; the kernel matches the oracle, which never skips."""
    g = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4)])
    cs = build_constraint_system(g, 0.3)
    assert cs.sep_pairs == ((0, 2), (1, 2))
    box = IntervalBox(
        (-0.45, 0.42, 0.66, 0.24, -0.87, 0.76, 0.23, -0.76, 0.66),
        (-0.4, 0.62, 0.71, 0.54, -0.57, 1.0, 0.43, -0.66, 0.96),
    )
    # the sweep only narrows, so (0, 2) stays in the band at its step
    ivs = to_ivs(box)
    dot = ZERO + ref_mul(ivs[0], ivs[6]) + ref_mul(ivs[1], ivs[7]) + ref_mul(ivs[2], ivs[8])
    assert -cs.sep_bound <= dot.lo and dot.hi <= cs.sep_bound
    want, _ = ref_contract_explain(box, cs)
    got, got_ref = contract_explain(box, cs)
    assert want is not None and got_ref is None
    assert _hex(got) == _hex(want)
    # in the oracle, (0, 2) cuts nothing and (1, 2) cuts
    assert _hex(ref_contract_explain(box, replace(cs, sep_pairs=((1, 2),)))[0]) == _hex(want)
    assert _hex(ref_contract_explain(box, replace(cs, sep_pairs=((0, 2),)))[0]) != _hex(want)


# ---------------------------------------------------------------------------
# Fixed boxes for the sweep's division branches, which random sub-boxes
# rarely reach.  A division by a denominator that excludes 0 is the sweep's
# inlined quotient; one whose target and denominator both contain 0 has the
# whole line as quotient and is skipped; any other goes through
# narrow_by_div, which may split it in two.

# K3 plus a disjoint edge: the triangle is pinned, and the edge is the one
# edge-dot pair (0, 1), u = (x0, x1, x2) against v = (x3, x4, x5)
TRIANGLE_AND_EDGE = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (3, 4)])


def oracle_divisions(box, cs, monkeypatch):
    """The oracle's contract_explain on ``box``, and its divisions in order,
    each as (domain, target, denominator, cut)."""
    divisions = []
    divide = ref_narrow_by_div

    def record(var, num, den):
        cut = divide(var, num, den)
        divisions.append((var, num, den, cut))
        return cut

    monkeypatch.setattr(sys.modules[__name__], "ref_narrow_by_div", record)
    return ref_contract_explain(box, cs), divisions


def branch(num: Interval, den: Interval) -> str:
    """The sweep's branch for a division of ``num`` by ``den``."""
    if den.lo > 0.0 or den.hi < 0.0:
        return "quotient"
    if num.contains_zero():
        return "skipped"
    return f"{len(ref_extended_div(num, den))}-piece fallback"


def test_division_branches_match_interval_oracle(monkeypatch):
    """One sweep that skips a division, cuts with the inlined quotient and
    cuts with a two-piece quotient."""
    cs = build_constraint_system(TRIANGLE_AND_EDGE, 1e-4)
    box = IntervalBox((-0.1, -0.1, 0.6, -0.4, -0.8, 0.7), (0.5, 0.9, 1.0, 0.4, 0.9, 0.8))
    (want, _), divisions = oracle_divisions(box, cs, monkeypatch)
    assert want is not None
    kinds = [branch(num, den) for _, num, den, _ in divisions]
    cutting = {
        branch(num, den) for var, num, den, cut in divisions if (cut.lo, cut.hi) != (var.lo, var.hi)
    }
    assert "skipped" in kinds
    assert {"quotient", "2-piece fallback"} <= cutting
    got, got_ref = contract_explain(box, cs)
    assert got_ref is None
    assert _hex(got) == _hex(want)


# u = (1/2, sqrt(3)/2, 0) and v = (v0, -X, 1) with X = 3e-310 / (sqrt(3)/2):
# u.v = v0/2 - 3e-310 misses 0 for v0 <= 5.9999999999994e-310 by a few
# subnormal ulps, which the outward-rounded sum still covers.  The first
# division, of u0 by v0, finds the empty cut.
UV_NEAR_ORTHOGONAL = (0.5, 0.8660254037844386, 0.0, -3.46410161513773e-310, 1.0)


@pytest.mark.parametrize("v0_lo, kind", [(1e-310, "quotient"), (-0.0, "1-piece fallback")])
def test_empty_cut_matches_interval_oracle(v0_lo, kind, monkeypatch):
    """An empty cut refutes the box in each branch with the oracle's kind,
    detail and snapshot; the exact re-check confirms it."""
    cs = build_constraint_system(TRIANGLE_AND_EDGE, 1e-4)
    u0, u1, u2, v1, v2 = UV_NEAR_ORTHOGONAL
    box = IntervalBox((u0, u1, u2, v0_lo, v1, v2), (u0, u1, u2, 5.9999999999994e-310, v1, v2))
    (want, want_ref), divisions = oracle_divisions(box, cs, monkeypatch)
    assert want is None
    _, num, den, cut = divisions[-1]
    assert cut is None and branch(num, den) == kind
    got, got_ref = contract_explain(box, cs)
    assert got is None
    assert (got_ref.kind, got_ref.detail) == (want_ref.kind, want_ref.detail) == ("edge-dot", (0, 1))
    assert _hex(got_ref.snapshot) == _hex(want_ref.snapshot)
    assert recheck_refutation_exact(cs, got_ref)


def test_signed_zero_endpoints_match_interval_oracle(monkeypatch):
    """A denominator whose lower endpoint is -0.0 straddles zero, so it
    goes to the fallback, which cuts; a -0.0 endpoint of the box comes out
    of the sweep as -0.0."""
    cs = build_constraint_system(TRIANGLE_AND_EDGE, 0.3)
    box = IntervalBox((-0.6, -0.9, 0.3, -0.0, -0.0, 0.5), (0.7, 0.9, 0.5, 0.7, 0.2, 1.0))
    (want, _), divisions = oracle_divisions(box, cs, monkeypatch)
    assert want is not None
    assert any(
        den.lo.hex() == "-0x0.0p+0" and branch(num, den) == "1-piece fallback"
        and (cut.lo, cut.hi) != (var.lo, var.hi)
        for var, num, den, cut in divisions
    )
    got, got_ref = contract_explain(box, cs)
    assert got_ref is None
    assert _hex(got) == _hex(want)
    assert "-0x0.0p+0" in [x.hex() for x in got.lo]


# The sweep computes each product and square once; the oracle recomputes a
# term after narrowing its coordinate c, and a later coordinate of the same
# constraint reads it.  On STALE_TERMS the recompute changes u_0 v_0 (by two
# written-out quotients) and x_0^2, and later coordinates still narrow.
STALE_TERMS = IntervalBox((0.25, 0.59, 0.74, -0.94, 0.3, 0.11), (0.48, 0.88, 0.92, -0.07, 0.89, 0.9))


def after_norms(box, cs) -> list:
    """The oracle's box after the coordinate zeros and the norms, where the
    edge-dot pairs start."""
    return to_ivs(ref_contract_explain(box, replace(cs, dot_pairs=(), sep_pairs=(), sep_coords=()))[0])


def test_stale_square_matches_interval_oracle():
    cs = build_constraint_system(TRIANGLE_AND_EDGE, 1e-4)
    x = to_ivs(STALE_TERMS)[:3]
    sq = [ref_sqr(iv) for iv in x]
    target = ONE - sq[1] - sq[2]
    fresh = ref_sqr(ref_abs_band(x[0], target))
    # the upper end falls, but not below the target's
    assert target.hi <= fresh.hi < sq[0].hi
    assert after_norms(STALE_TERMS, cs)[1].hi < x[1].hi
    assert_sweep_matches_oracle(STALE_TERMS, cs)


def test_stale_product_matches_interval_oracle():
    cs = build_constraint_system(TRIANGLE_AND_EDGE, 1e-4)
    start = after_norms(STALE_TERMS, cs)
    u, v = start[:3], start[3:]
    p = [ref_mul(a, b) for a, b in zip(u, v)]
    target = -(ZERO + p[1] + p[2])
    u0 = ref_narrow_by_div(u[0], target, v[0])
    v0 = ref_narrow_by_div(v[0], target, u0)
    assert branch(target, v[0]) == branch(target, u0) == "quotient"
    assert target.hi <= ref_mul(u0, v0).hi < p[0].hi
    want, _ = assert_sweep_matches_oracle(STALE_TERMS, replace(cs, sep_coords=()))
    assert want.hi[4] < v[1].hi and want.hi[5] < v[2].hi
    assert_sweep_matches_oracle(STALE_TERMS, cs)


def test_rays_cut_recomputes_product():
    """The exception: narrow_by_div cuts u_0 to one float a few ulps below
    target / v_0, and the recomputed product, unlike the first one, lies
    below the target.  The oracle then refutes at u_1 v_1, and so does the
    kernel, which recomputes the product after a cut by rays."""
    cs = build_constraint_system(TRIANGLE_AND_EDGE, 1e-4)
    box = IntervalBox(
        tuple(map(float.fromhex, ("-0x1.fd495c853fcefp-3", "0x1.17cff8d93eb25p-1", "0x1.96f9af74d0289p-1",
                                  "-0x1.1759a1c19137ap-1", "-0x1.966c2777c927dp-1", "0x1.5369446bd362dp-2"))),
        tuple(map(float.fromhex, ("0x1.029ef9f749f89p-2", "0x1.1d1f2a1296115p-1", "0x1.9aa4d1ced50f7p-1",
                                  "0x1.130db798c289ep-1", "-0x1.87f94e5b348f2p-1", "0x1.68f44bf0422d4p-2"))),
    )
    start = after_norms(box, cs)
    u, v = start[:3], start[3:]
    p = [ref_mul(a, b) for a, b in zip(u, v)]
    target = -(ZERO + p[1] + p[2])
    assert branch(target, v[0]) == "2-piece fallback"
    u0 = ref_narrow_by_div(u[0], target, v[0])
    fresh = ref_mul(u0, ref_narrow_by_div(v[0], target, u0))
    assert u0.lo == u0.hi == u[0].hi
    assert fresh.hi < target.lo <= p[0].hi
    want, want_ref = assert_sweep_matches_oracle(box, cs)
    assert want is None and (want_ref.kind, want_ref.detail) == ("edge-dot", (0, 1))


def test_recheck_matches_whole_box_oracle(monkeypatch):
    """The exact re-check converts only the variables the refuting
    constraint reads.  It agrees with the whole-box re-check on every
    refutation decide_embeddability makes on the n <= 6 graphs and the two
    n = 10 classes, and on each of them over the initial box, where most
    constraints do not refute."""
    recheck = embedding.recheck_refutation_exact
    answers = []

    def both(cs, ref):
        got = recheck(cs, ref)
        assert got == ref_recheck_refutation_exact(cs, ref)
        loose = replace(ref, snapshot=cs.initial_box())
        answers.append((ref.kind, got, recheck(cs, loose)))
        assert answers[-1][2] == ref_recheck_refutation_exact(cs, loose)
        return got

    monkeypatch.setattr(embedding, "recheck_refutation_exact", both)
    budgets = {"I{d@?gI@w": 10**6, "I{O_ogI@W": 1000}
    for g in GRAPHS:
        budget = budgets.get(graph6_encode(g), 3000)
        decide_embeddability(g, budget=budget, verify_refutations=True)
    kinds = {kind for kind, _, _ in answers}
    assert {"norm", "edge-dot", "separation"} <= kinds
    assert {got for _, got, _ in answers} == {True}
    assert False in {loose for _, _, loose in answers}


def assert_float_system_matches(cs, eqs, pt) -> None:
    """_float_system against the two functions it replaced, by float.hex."""
    f, jac = _float_system(cs, eqs, pt)
    want_f, want_jac = ref_float_residuals(cs, eqs, pt), ref_float_jacobian(cs, eqs, pt)
    assert f.shape == want_f.shape and jac.shape == want_jac.shape
    assert [float(v).hex() for v in f] == [float(v).hex() for v in want_f]
    assert [float(v).hex() for v in jac.flat] == [float(v).hex() for v in want_jac.flat]


@settings(max_examples=300, deadline=None)
@given(sub_boxes(), st.sampled_from([None, 1e-9, 1e-7, 1e-5, 1e-3, 0.1]))
def test_krawczyk_image_matches_interval_oracle(case, eps):
    """On the sub-box itself, or on a box of radius eps around the
    Gauss-Newton polish of its midpoint, as the solver builds them.  The
    float system is checked at that midpoint and at its polish."""
    cs, box = case
    if cs.num_vars == 0:
        return  # prove_root_in_box answers a constant system itself
    eqs = _equations(cs)
    assert_float_system_matches(cs, eqs, np.array(box.midpoint()))
    if eps is not None:
        polished = _polish(cs, eqs, np.array(box.midpoint()))
        assert_float_system_matches(cs, eqs, polished)
        if not np.all(np.isfinite(polished)):
            return
        box = IntervalBox(tuple(polished - eps), tuple(polished + eps))
    slices = choose_slices(cs, np.array(box.midpoint()))
    if len(eqs) + len(slices) != cs.num_vars:
        return  # over-determined: prove_root_in_box never builds the image
    want = ref_krawczyk_image(cs, eqs, box, slices)
    got = _krawczyk_image(cs, eqs, box.lo, box.hi, slices)
    if isinstance(want, str):
        assert got is None
    else:
        assert _hex(IntervalBox(*got)) == _hex(to_box(want))


@settings(max_examples=300, deadline=None)
@given(sub_boxes(), st.sampled_from([None, 1e-7, 1e-5, 1e-3, 0.1]))
def test_check_distinctness_matches_interval_oracle(case, eps):
    """On the sub-box, or on a box of radius eps around the Gauss-Newton
    polish of its midpoint, where the solver asks the question."""
    cs, box = case
    if eps is not None and cs.num_vars:
        polished = _polish(cs, _equations(cs), np.array(box.midpoint()))
        if not np.all(np.isfinite(polished)):
            return
        box = IntervalBox(tuple(polished - eps), tuple(polished + eps))
    assert check_distinctness(cs, box) == ref_check_distinctness(cs, box)
