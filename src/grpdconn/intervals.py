"""Outward-rounded interval arithmetic for certification bounds.

Every operation widens its result by one ulp on each side, so computed
enclosures are sound overapproximations of the exact real intervals. Only
the operations needed by the certification pipeline are provided (affine
arithmetic, products, quotients, squares, sqrt, sin/cos, abs).
"""
from __future__ import annotations

import math
from dataclasses import dataclass


def _down(x: float) -> float:
    # an overflow to +inf steps down to the largest double, which lies below
    # the finite exact value; -inf stays
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi) or self.lo > self.hi:
            raise ValueError(f"invalid interval [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(float(x), float(x))

    @classmethod
    def of(cls, lo: float, hi: float) -> "Interval":
        return cls(float(lo), float(hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __add__(self, other):
        other = _coerce(other)
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        products = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        # a term 0 x inf (NaN) counts as 0: an infinite bound stands for
        # arbitrarily large finite values
        products = [0.0 if math.isnan(p) else p for p in products]
        return Interval(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError("interval division by an interval containing zero")
        quotients = []
        for a in (self.lo, self.hi):
            for b in (other.lo, other.hi):
                # a term inf / inf (NaN) counts as both 0 and inf, with its sign
                sign = math.copysign(1.0, a) * math.copysign(1.0, b)
                q = a / b
                quotients += [sign * 0.0, sign * math.inf] if math.isnan(q) else [q]
        return Interval(_down(min(quotients)), _up(max(quotients)))

    def sq(self) -> "Interval":
        if self.lo >= 0:
            return Interval(_down(self.lo * self.lo), _up(self.hi * self.hi))
        if self.hi <= 0:
            return Interval(_down(self.hi * self.hi), _up(self.lo * self.lo))
        m = max(-self.lo, self.hi)
        return Interval(0.0, _up(m * m))

    def sqrt(self) -> "Interval":
        if self.lo < 0:
            raise ValueError("sqrt of an interval with negative part")
        return Interval(_down(math.sqrt(self.lo)), _up(math.sqrt(self.hi)))

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(0.0, _up(max(-self.lo, self.hi)))

    def sin(self) -> "Interval":
        return _trig(self, math.sin, math.pi / 2.0)

    def cos(self) -> "Interval":
        return _trig(self, math.cos, 0.0)

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"


def _coerce(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval.point(float(x))


def _trig(iv: Interval, fn, crest_offset: float) -> Interval:
    """Monotonicity-aware enclosure of sin/cos; falls back to [-1, 1]."""
    # the width of an interval with an infinite bound is inf or NaN
    if not iv.width < 2.0 * math.pi:
        return Interval(-1.0, 1.0)
    lo = fn(iv.lo)
    hi = fn(iv.hi)
    out_lo, out_hi = min(lo, hi), max(lo, hi)
    # extrema of sin at pi/2 + k pi, of cos at k pi
    k_min = math.ceil((iv.lo - crest_offset) / math.pi)
    k_max = math.floor((iv.hi - crest_offset) / math.pi)
    for k in range(k_min, k_max + 1):
        out_lo = min(out_lo, -1.0 if k % 2 else 1.0)
        out_hi = max(out_hi, -1.0 if k % 2 else 1.0)
    return Interval(max(-1.0, _down(out_lo)), min(1.0, _up(out_hi)))


def fmt_bound(iv: Interval) -> dict:
    """Decimal-string rendering with explicit rounding direction."""
    return {"lo": f"{iv.lo:.17g}", "hi": f"{iv.hi:.17g}", "rounding": "outward"}
