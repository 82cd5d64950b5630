"""Outward-rounded interval arithmetic and axis-aligned boxes.

Every endpoint operation is computed in double precision and then pushed one
ulp outward, so an interval result always encloses the true real result
(round-to-nearest error is below one ulp).  A Fraction-based exact mirror of
the same evaluations backs the on-demand shadow re-check of refutations.
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


@dataclass(frozen=True, slots=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(v: float) -> "Interval":
        return Interval(v, v)

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_dn(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_dn(self.lo - other.hi), _up(self.hi - other.lo))

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        return Interval(*mul(self.lo, self.hi, other.lo, other.hi))

    def sqr(self) -> "Interval":
        return Interval(*sqr(self.lo, self.hi))

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def intersect(self, other: "Interval") -> "Interval | None":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return Interval(lo, hi) if lo <= hi else None

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))


# ---------------------------------------------------------------------------
# Float-endpoint helpers: an interval is a (lo, hi) pair of floats
#
# The solver works on these, not on Interval objects; a box is a tuple of
# lower and a tuple of upper endpoints.  ``min`` and ``max`` are written out:
# ``b if b < a else a`` is ``min(a, b)``, ties and signed zeros included, and
# costs a fraction of the builtin call.

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


def isqrt_nonneg(lo: float, hi: float) -> tuple[float, float] | None:
    """Enclosure of sqrt over [lo, hi] ∩ [0, ∞); None when hi < 0."""
    if hi < 0:
        return None
    lo = 0.0 if 0.0 > lo else lo
    return _dn(math.sqrt(lo)), _up(math.sqrt(hi))


def extended_div(a: float, b: float, c: float, d: float) -> list[tuple[float, float]]:
    """[a, b] / [c, d] as 0, 1 or 2 intervals (splitting around a zero of den).

    The union of the returned intervals contains every x with x*y ∈ [a, b]
    for some y ∈ [c, d].  A two-sided zero denominator with 0 ∈ [a, b] yields
    the whole line (returned as one interval).
    """
    if c == 0.0 and d == 0.0:
        return [(-_INF, _INF)] if a <= 0.0 <= b else []
    if c > 0 or d < 0:
        # rounding is monotone, so rounding the extreme quotient equals
        # taking the extreme of the rounded quotients
        q0, q1, q2, q3 = a / c, a / d, b / c, b / d
        lo = q1 if q1 < q0 else q0
        lo = q2 if q2 < lo else lo
        lo = q3 if q3 < lo else lo
        hi = q1 if q1 > q0 else q0
        hi = q2 if q2 > hi else hi
        hi = q3 if q3 > hi else hi
        return [(_dn(lo), _up(hi))]
    # den straddles zero
    if a <= 0.0 <= b:
        return [(-_INF, _INF)]
    out = []
    if b < 0:
        if d > 0:
            out.append((-_INF, _up(b / d)))
        if c < 0:
            out.append((_dn(b / c), _INF))
    else:  # a > 0
        if c < 0:
            out.append((-_INF, _up(a / c)))
        if d > 0:
            out.append((_dn(a / d), _INF))
    return out


def hull_of_cuts(lo: float, hi: float, pieces) -> tuple[float, float] | None:
    """[lo, hi] ∩ (union of pieces), hulled; None when every cut is empty."""
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


def narrow_by_div(lo: float, hi: float, a: float, b: float, c: float, d: float):
    """[lo, hi] ∩ ([a, b] / [c, d]), hulled when the division splits; None when empty."""
    return hull_of_cuts(lo, hi, extended_div(a, b, c, d))


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

    def log_volume(self) -> float:
        """Sum of log2 widths (thin dimensions clamped); orders boxes by volume."""
        total = 0.0
        for w in map(sub, self.hi, self.lo):
            total += math.log2(max(w, 1e-300))
        return total

    def midpoint(self) -> list[float]:
        return list(map(midpoint, self.lo, self.hi))

    def contains_point(self, pt) -> bool:
        return all(a <= v <= b for a, b, v in zip(self.lo, self.hi, pt))

    def to_lists(self) -> list[list[float]]:
        return [[a, b] for a, b in zip(self.lo, self.hi)]

    @staticmethod
    def from_lists(data) -> "IntervalBox":
        """The box of ``[[lo, hi], ...]``; ValueError unless each pair is two
        numbers.  Ordering and containment are the solver's checks."""
        lo, hi = [], []
        for pair in data:
            try:
                a, b = map(float, pair)
            except (TypeError, ValueError):
                raise ValueError(f"box interval {pair!r} is not two numbers") from None
            lo.append(a)
            hi.append(b)
        return IntervalBox(tuple(lo), tuple(hi))


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
