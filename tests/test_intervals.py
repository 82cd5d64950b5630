"""Interval arithmetic enclosure properties, division, bisection."""

import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from kssearch.intervals import (
    Interval,
    IntervalBox,
    WidthUnderflow,
    bisect,
    extended_div,
    isqrt_nonneg,
    narrow_by_div,
)

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def iv(a, b):
    return Interval(min(a, b), max(a, b))


@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
def test_add_sub_mul_enclosure(a, b, c, d, t1, t2):
    x = iv(a, b)
    y = iv(c, d)
    px = x.lo + t1 * (x.hi - x.lo)
    py = y.lo + t2 * (y.hi - y.lo)
    px = min(max(px, x.lo), x.hi)
    py = min(max(py, y.lo), y.hi)
    assert (x + y).contains(px + py)
    assert (x - y).contains(px - py)
    assert (x * y).contains(px * py)
    assert x.sqr().contains(px * px)


def contains(pair, v) -> bool:
    return pair[0] <= v <= pair[1]


@given(finite, finite)
def test_sqrt_enclosure(a, b):
    x = iv(abs(a), abs(b))
    r = isqrt_nonneg(x.lo, x.hi)
    assert r is not None
    mid = 0.5 * (x.lo + x.hi)
    assert contains(r, math.sqrt(mid))


def test_sqrt_negative_interval():
    assert isqrt_nonneg(-2.0, -1.0) is None
    r = isqrt_nonneg(-1.0, 4.0)
    assert contains(r, 0.0) and contains(r, 2.0)


def test_extended_division_cases():
    whole = extended_div(1.0, 2.0, 0.0, 0.0)
    assert whole == []
    whole = extended_div(-1.0, 1.0, 0.0, 0.0)
    assert len(whole) == 1 and math.isinf(whole[0][0])
    plain = extended_div(1.0, 2.0, 1.0, 2.0)
    assert len(plain) == 1 and contains(plain[0], 1.0) and contains(plain[0], 2.0)
    split = extended_div(1.0, 2.0, -1.0, 1.0)
    assert len(split) == 2


@given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
def test_extended_division_enclosure(a, b, c, d, t1, t2):
    num = iv(a, b)
    den = iv(c, d)
    pn = min(max(num.lo + t1 * (num.hi - num.lo), num.lo), num.hi)
    pd = min(max(den.lo + t2 * (den.hi - den.lo), den.lo), den.hi)
    if pd == 0:
        return
    q = pn / pd
    pieces = extended_div(num.lo, num.hi, den.lo, den.hi)
    assert any(contains(p, q) for p in pieces)


def test_narrow_by_div():
    # x * y = target with y = [2, 4], target = [8, 8] -> x in [2, 4]
    got = narrow_by_div(-10.0, 10.0, 8.0, 8.0, 2.0, 4.0)
    assert got[0] <= 2.0 <= 4.0 <= got[1]
    assert narrow_by_div(5.0, 6.0, 8.0, 8.0, 2.0, 4.0) is None


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
        b = IntervalBox.from_lists(
            sorted((rng.uniform(-5, 5), rng.uniform(-5, 5))) for _ in range(dims)
        )
        if b.max_width == 0:
            continue
        l, r = bisect(b)
        for i in range(dims):
            assert l.lo[i] >= b.lo[i] and r.hi[i] <= b.hi[i]
            hull = Interval(l.lo[i], l.hi[i]).hull(Interval(r.lo[i], r.hi[i]))
            assert hull == Interval(b.lo[i], b.hi[i])


def test_bisect_width_underflow():
    with pytest.raises(WidthUnderflow):
        bisect(IntervalBox((1.0,), (1.0,)))
    tiny = math.nextafter(1.0, 2.0)
    with pytest.raises(WidthUnderflow):
        bisect(IntervalBox((1.0,), (tiny,)))


def test_box_from_lists_validates_endpoints():
    box = IntervalBox.from_lists([[-1, 1], ["0.5", 0.75]])
    assert box == IntervalBox((-1.0, 0.5), (1.0, 0.75))
    assert box.to_lists() == [[-1.0, 1.0], [0.5, 0.75]]
    for bad in ([["a", 1.0]], [[None, 1.0]], [[0.0]], [[0.0, 1.0, 2.0]], [0.5]):
        with pytest.raises(ValueError, match="not two numbers"):
            IntervalBox.from_lists(bad)
    # inverted and NaN pairs convert as they are; decide_embeddability rejects
    # them (test_resume_boxes_must_lie_in_the_initial_box)
    box = IntervalBox.from_lists([[1.0, 0.0], [0.0, math.nan]])
    assert box.lo == (1.0, 0.0) and box.hi[0] == 0.0 and math.isnan(box.hi[1])


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
    total = Interval(0.0, 0.0)
    for coeff, exps in terms:
        term = Interval(float(coeff), float(coeff))
        for x, e in zip(box, exps):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def test_enclosure_random_degree4_polynomials():
    rng = random.Random(42)
    trials = 0
    while trials < 20_000:
        nvars = rng.randint(1, 4)
        terms = random_poly(rng, nvars, rng.randint(1, 5))
        box = [iv(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(nvars)]
        pt = [rng.uniform(b.lo, b.hi) for b in box]
        val = eval_poly_float(terms, pt)
        enc = eval_poly_interval(terms, box)
        assert enc.lo <= val <= enc.hi
        trials += 1
