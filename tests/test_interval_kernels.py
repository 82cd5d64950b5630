"""The float-endpoint interval kernels against an Interval-object oracle.

``contract_explain``'s sweep, the Krawczyk image and the distinctness test
work on plain float endpoints.  The functions below named ``ref_*`` are the
earlier implementation on ``Interval`` objects, kept only as the oracle: it
turns each box into ``Interval`` objects itself, and the kernels must
reproduce it bit for bit (``float.hex``), refutation kind, detail and
snapshot included, on random sub-boxes of the constraint systems' initial
boxes.
"""

import math

import numpy as np
from hypothesis import example, given, settings
import hypothesis.strategies as st

from kssearch.constraints import (
    EmptyBox,
    Refutation,
    build_constraint_system,
    contract_explain,
)
from kssearch.embedding import (
    _equations,
    _krawczyk_image,
    _polish,
    check_distinctness,
    choose_slices,
)
from kssearch.graphs import Graph, graph6_decode
from kssearch.intervals import (
    Interval,
    IntervalBox,
    WidthUnderflow,
    _dn as kernel_dn,
    _up as kernel_up,
    bisect,
    extended_div,
    hull_of_cuts,
    isqrt_nonneg,
    mul,
    narrow_by_div,
    sqr,
)
from kssearch.orderly import enumerate_graphs

# ---------------------------------------------------------------------------
# Oracle: the Interval-object sweep and Krawczyk image

ZERO = Interval(0.0, 0.0)
ONE = Interval(1.0, 1.0)
_INF = math.inf
_OTHERS = ((1, 2), (0, 2), (0, 1))


def _dn(x: float) -> float:
    return math.nextafter(x, -_INF) if math.isfinite(x) else x


def _up(x: float) -> float:
    return math.nextafter(x, _INF) if math.isfinite(x) else x


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

    for s in cs.norm_slots:
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
@given(pairs, pairs, pairs, st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0]) | finite, max_size=4))
@example((0.0, 1.0), (1e300, 1e308), (1e-300, 1e-10), [])  # every quotient overflows
@example((-0.0, 1.0), (0.0, 1.0), (1.0, 2.0), [0.0, 1.0])  # signed zeros
def test_float_helpers_match_interval_oracle(v, num, den, ends):
    v_iv, num_iv, den_iv = Interval(*v), Interval(*num), Interval(*den)
    assert _same(mul(*num, *den), ref_mul(num_iv, den_iv))
    assert _same(sqr(*num), ref_sqr(num_iv))
    assert _same(isqrt_nonneg(*num), ref_isqrt_nonneg(num_iv))
    got = extended_div(*num, *den)
    want = ref_extended_div(num_iv, den_iv)
    assert len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))
    assert _same(narrow_by_div(*v, *num, *den), ref_narrow_by_div(v_iv, num_iv, den_iv))
    pieces = [tuple(sorted(ends[k : k + 2])) for k in range(0, len(ends) - 1, 2)]
    want = ref_hull_of_cuts(v_iv, [Interval(*p) for p in pieces])
    assert _same(hull_of_cuts(*v, pieces), want)


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


@settings(max_examples=600, deadline=None)
@given(sub_boxes())
def test_contract_explain_matches_interval_oracle(case):
    cs, box = case
    got, got_ref = contract_explain(box, cs)
    want, want_ref = ref_contract_explain(box, cs)
    if want is None:
        assert got is None
        assert (got_ref.kind, got_ref.detail) == (want_ref.kind, want_ref.detail)
        assert _hex(got_ref.snapshot) == _hex(want_ref.snapshot)
    else:
        assert got_ref is None
        assert _hex(got) == _hex(want)


@settings(max_examples=300, deadline=None)
@given(sub_boxes(), st.sampled_from([None, 1e-9, 1e-7, 1e-5, 1e-3, 0.1]))
def test_krawczyk_image_matches_interval_oracle(case, eps):
    """On the sub-box itself, or on a box of radius eps around the
    Gauss-Newton polish of its midpoint, as the solver builds them."""
    cs, box = case
    if cs.num_vars == 0:
        return  # prove_root_in_box answers a constant system itself
    eqs = _equations(cs)
    if eps is not None:
        polished = _polish(cs, eqs, np.array(box.midpoint()))
        if not np.all(np.isfinite(polished)):
            return
        box = IntervalBox(tuple(polished - eps), tuple(polished + eps))
    slices = choose_slices(cs, np.array(box.midpoint()))
    if len(eqs) + len(slices) != cs.num_vars:
        return  # over-determined: prove_root_in_box never builds the image
    want = ref_krawczyk_image(cs, eqs, box, slices)
    got = _krawczyk_image(cs, eqs, box.lo, box.hi, slices)
    if isinstance(want, str):
        assert got == want
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
