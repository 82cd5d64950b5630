"""Outward-rounded interval arithmetic and axis-aligned boxes.

An interval is a (lo, hi) pair of floats and a box is a tuple of lower and a
tuple of upper endpoints.  Every endpoint operation is computed in double
precision and then pushed one ulp outward, so an interval result always
encloses the true real result (round-to-nearest error is below one ulp).
``tests/test_interval_kernels.py`` keeps an independent interval-object
oracle that these helpers and the solver's kernels must match bit for bit.
A Fraction-based exact mirror, :class:`QInterval`, backs the on-demand shadow
re-check of refutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub

_INF = math.inf


# nextafter already leaves -inf (going down), +inf (going up) and nan alone;
# the guards keep the other infinity from becoming the largest finite float
def _dn(x: float) -> float:
    return math.nextafter(x, -_INF) if x != _INF else x


def _up(x: float) -> float:
    return math.nextafter(x, _INF) if x != -_INF else x


# ---------------------------------------------------------------------------
# Float-endpoint helpers
#
# ``min`` and ``max`` are written out: ``b if b < a else a`` is ``min(a, b)``,
# ties and signed zeros included, and costs a fraction of the builtin call.

def midpoint(lo: float, hi: float) -> float:
    """Midpoint of [lo, hi], clamped into it (halves first on overflow)."""
    m = 0.5 * (lo + hi)
    if not math.isfinite(m):
        m = 0.5 * lo + 0.5 * hi
    return min(max(m, lo), hi)


def mul(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """[a, b] * [c, d], outward rounded."""
    p0, p1, p2, p3 = a * c, a * d, b * c, b * d
    lo = p1 if p1 < p0 else p0
    lo = p2 if p2 < lo else lo
    lo = p3 if p3 < lo else lo
    hi = p1 if p1 > p0 else p0
    hi = p2 if p2 > hi else hi
    hi = p3 if p3 > hi else hi
    return _dn(lo), _up(hi)


def sqr(a: float, b: float) -> tuple[float, float]:
    """{x^2 : x in [a, b]}, outward rounded."""
    if a >= 0:
        return _dn(a * a), _up(b * b)
    if b <= 0:
        return _dn(b * b), _up(a * a)
    a, b = a * a, b * b
    return 0.0, _up(b if b > a else a)


def narrow_by_div(lo: float, hi: float, a: float, b: float, c: float, d: float):
    """[lo, hi] ∩ ([a, b] / [c, d]) for a denominator that contains 0 and a
    target that does not; None when empty.

    The quotient is then up to two rays, (-inf, r] and [s, inf), and a
    domain that meets both comes back whole.  The sweep divides by a
    denominator that excludes 0 itself, and skips a division whose target
    contains 0 too, as its quotient is the whole line.
    """
    pieces = []
    if b < 0:
        if d > 0:
            pieces.append((-_INF, _up(b / d)))
        if c < 0:
            pieces.append((_dn(b / c), _INF))
    else:  # a > 0
        if c < 0:
            pieces.append((-_INF, _up(a / c)))
        if d > 0:
            pieces.append((_dn(a / d), _INF))
    best = None
    for plo, phi in pieces:
        cl = plo if plo > lo else lo
        ch = phi if phi < hi else hi
        if cl <= ch:
            if best is not None:
                cl = cl if cl < best[0] else best[0]
                ch = ch if ch > best[1] else best[1]
            best = (cl, ch)
    return best


# ---------------------------------------------------------------------------
# Exact-rational mirror (shadow mode)

@dataclass(frozen=True, slots=True)
class QInterval:
    lo: Fraction
    hi: Fraction

    def __add__(self, o):
        return QInterval(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, o):
        return QInterval(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, o):
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return QInterval(min(p), max(p))

    def sqr(self):
        if self.lo >= 0:
            return QInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return QInterval(self.hi * self.hi, self.lo * self.lo)
        return QInterval(Fraction(0), max(self.lo * self.lo, self.hi * self.hi))

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi


# ---------------------------------------------------------------------------
# Boxes

class WidthUnderflow(RuntimeError):
    """The widest dimension cannot be split in finite precision."""


@dataclass(frozen=True)
class IntervalBox:
    """One closed interval [lo[i], hi[i]] per variable, outward-rounded endpoints."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __len__(self):
        return len(self.lo)

    @property
    def max_width(self) -> float:
        return max(map(sub, self.hi, self.lo), default=0.0)

    def midpoint(self) -> list[float]:
        return list(map(midpoint, self.lo, self.hi))


def bisect(box: IntervalBox) -> tuple[IntervalBox, IntervalBox]:
    """Split the widest dimension at its midpoint (ties: lowest index).

    The two children cover the parent exactly; the left child shares the
    parent's ``lo`` tuple and the right child its ``hi``.  Raises
    :class:`WidthUnderflow` when no dimension can be split.
    """
    lo, hi = box.lo, box.hi
    widths = list(map(sub, hi, lo))
    wmax = max(widths, default=0.0)
    if not wmax > 0.0:
        raise WidthUnderflow("box has zero width in every dimension")
    i = widths.index(wmax)
    m = midpoint(lo[i], hi[i])
    if m <= lo[i] or m >= hi[i]:
        raise WidthUnderflow(f"dimension {i} cannot be split at {m!r}")
    return (
        IntervalBox(lo, hi[:i] + (m,) + hi[i + 1 :]),
        IntervalBox(lo[:i] + (m,) + lo[i + 1 :], hi),
    )
