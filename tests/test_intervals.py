"""Enclosure properties of the float-endpoint helpers, division, bisection."""

import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from kssearch.intervals import (
    IntervalBox,
    WidthUnderflow,
    _dn,
    _up,
    bisect,
    mul,
    narrow_by_div,
    sqr,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def iv(a, b):
    return (a, b) if a <= b else (b, a)


def contains(pair, v) -> bool:
    return pair[0] <= v <= pair[1]


def point_in(pair, t):
    lo, hi = pair
    return min(max(lo + t * (hi - lo), lo), hi)


@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
def test_add_sub_mul_enclosure(a, b, c, d, t1, t2):
    """Sums rounded outward with _dn/_up, as the sweep and the Krawczyk
    image round them, and the mul and sqr helpers enclose point results."""
    x, y = iv(a, b), iv(c, d)
    px, py = point_in(x, t1), point_in(y, t2)
    assert contains((_dn(x[0] + y[0]), _up(x[1] + y[1])), px + py)
    assert contains((_dn(x[0] - y[1]), _up(x[1] - y[0])), px - py)
    assert contains(mul(*x, *y), px * py)
    assert contains(sqr(*x), px * px)


@given(finite, finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
def test_narrow_by_div_enclosure(a, b, c, d, x, t1, t2):
    """A domain point q with q * y in the target for some nonzero y of a
    denominator that contains 0 stays in the cut."""
    num, den = iv(a, b), (-abs(c), abs(d))
    if num[0] <= 0.0 <= num[1]:
        return
    pn, pd = point_in(num, t1), point_in(den, t2)
    if pd == 0:
        return
    q = pn / pd
    cut = narrow_by_div(*iv(q, x), *num, *den)
    assert cut is not None and contains(cut, q)


def test_narrow_by_div():
    # x * y = 8 with y = [-1, 4]: x <= -8 or x >= 2
    assert narrow_by_div(-10.0, 10.0, 8.0, 8.0, -1.0, 4.0) == (-10.0, 10.0)
    assert narrow_by_div(0.0, 10.0, 8.0, 8.0, -1.0, 4.0) == (math.nextafter(2.0, 0.0), 10.0)
    assert narrow_by_div(-5.0, 1.0, 8.0, 8.0, -1.0, 4.0) is None
    # x * y = -8 with y = [0, 4]: x <= -2
    assert narrow_by_div(-10.0, 10.0, -8.0, -8.0, 0.0, 4.0) == (-10.0, math.nextafter(-2.0, 0.0))
    # no x has x * 0 = 8
    assert narrow_by_div(-10.0, 10.0, 8.0, 8.0, 0.0, 0.0) is None


def test_bisect_basic():
    b = IntervalBox((0.0,), (1.0,))
    l, r = bisect(b)
    assert l.hi[0] == r.lo[0] == 0.5
    assert l.lo[0] == 0.0 and r.hi[0] == 1.0
    # each child shares the endpoint tuple the split left alone
    assert l.lo is b.lo and r.hi is b.hi


def test_bisect_tie_rule():
    b = IntervalBox((0.0, 0.0, 0.0, 0.0, 0.0, 2.0), (0.5, 1.0, 0.25, 0.25, 0.25, 3.0))
    l, r = bisect(b)  # dims 1 and 5 tie at width 1; dim 1 must split
    assert l.hi[1] == r.lo[1] and (l.lo[5], l.hi[5]) == (b.lo[5], b.hi[5])


def test_bisect_children_cover_parent():
    rng = random.Random(8)
    for _ in range(200):
        dims = rng.randint(1, 6)
        b = IntervalBox(
            *zip(*(sorted((rng.uniform(-5, 5), rng.uniform(-5, 5))) for _ in range(dims)))
        )
        if b.max_width == 0:
            continue
        l, r = bisect(b)
        # the children meet at the split and match the parent elsewhere
        (i,) = [k for k in range(dims) if l.hi[k] != b.hi[k]]
        assert l.lo == b.lo and r.hi == b.hi
        assert l.hi[:i] + l.hi[i + 1 :] == b.hi[:i] + b.hi[i + 1 :]
        assert r.lo[:i] + r.lo[i + 1 :] == b.lo[:i] + b.lo[i + 1 :]
        assert b.lo[i] < l.hi[i] == r.lo[i] < b.hi[i]


def test_bisect_width_underflow():
    with pytest.raises(WidthUnderflow):
        bisect(IntervalBox((1.0,), (1.0,)))
    tiny = math.nextafter(1.0, 2.0)
    with pytest.raises(WidthUnderflow):
        bisect(IntervalBox((1.0,), (tiny,)))


def random_poly(rng, nvars, nterms):
    terms = []
    for _ in range(nterms):
        coeff = rng.randint(-5, 5)
        exps = [0] * nvars
        for _ in range(rng.randint(0, 4)):
            exps[rng.randrange(nvars)] += 1
        if sum(exps) > 4:
            continue
        terms.append((coeff, tuple(exps)))
    return terms


def eval_poly_float(terms, pt):
    total = 0.0
    for coeff, exps in terms:
        v = coeff
        for x, e in zip(pt, exps):
            v *= x**e
        total += v
    return total


def eval_poly_interval(terms, box):
    """Products through mul, the sum rounded outward with _dn/_up."""
    lo = hi = 0.0
    for coeff, exps in terms:
        tl = th = float(coeff)
        for x, e in zip(box, exps):
            for _ in range(e):
                tl, th = mul(tl, th, *x)
        lo, hi = _dn(lo + tl), _up(hi + th)
    return lo, hi


def test_enclosure_random_degree4_polynomials():
    rng = random.Random(42)
    trials = 0
    while trials < 20_000:
        nvars = rng.randint(1, 4)
        terms = random_poly(rng, nvars, rng.randint(1, 5))
        box = [iv(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(nvars)]
        pt = [rng.uniform(*b) for b in box]
        val = eval_poly_float(terms, pt)
        assert contains(eval_poly_interval(terms, box), val)
        trials += 1
