import math
import sys

import pytest
from hypothesis import given, strategies as st

from grpdconn.intervals import Interval, fmt_bound

finite = st.floats(min_value=-1e8, max_value=1e8, allow_nan=False)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval.of(min(a, b), max(a, b))


def _inside(iv, s):
    """The point a fraction s across iv, kept inside iv: the rounded affine
    combination can land outside, e.g. on 0.0 for [-1.0, -1e-308] and s = 1."""
    return min(max(iv.lo + s * (iv.hi - iv.lo), iv.lo), iv.hi)


@given(intervals(), intervals(), st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=1))
def test_arithmetic_soundness(i1, i2, s, t):
    x = _inside(i1, s)
    y = _inside(i2, t)
    assert (i1 + i2).contains(x + y)
    assert (i1 - i2).contains(x - y)
    assert (i1 * i2).contains(x * y)
    assert i1.sq().contains(x * x)
    assert i1.abs().contains(abs(x))


@given(intervals(), st.floats(min_value=0, max_value=1))
def test_trig_soundness(iv, s):
    x = _inside(iv, s)
    assert iv.sin().contains(math.sin(x))
    assert iv.cos().contains(math.cos(x))
    assert -1.0 <= iv.sin().lo and iv.sin().hi <= 1.0


def test_sqrt_and_division():
    iv = Interval.of(4.0, 9.0)
    s = iv.sqrt()
    assert s.contains(2.0) and s.contains(3.0)
    q = Interval.of(1.0, 2.0) / Interval.of(2.0, 4.0)
    assert q.contains(0.5) and q.contains(0.25)
    with pytest.raises(ZeroDivisionError):
        Interval.of(1.0, 2.0) / Interval.of(-1.0, 1.0)


def test_overflowing_bounds_stay_sound():
    # 1 / 5e-324 = 2^1074 overflows to inf in floating point; the exact
    # quotient is finite, so the enclosure must keep the largest double below
    # it (found by the mpmath cross-check in test_intervals_mpmath.py)
    big = sys.float_info.max
    q = Interval.point(1.0) / Interval.point(5e-324)
    assert q.lo == big and q.hi == math.inf
    q = Interval.point(-1.0) / Interval.point(5e-324)
    assert q.lo == -math.inf and q.hi == -big
    assert (Interval.point(big) + Interval.point(big)).lo == big
    assert (Interval.point(1e200) * Interval.point(-1e200)).hi == -big


def test_trig_hits_extrema():
    iv = Interval.of(0.0, 4.0)  # contains pi/2
    assert iv.sin().hi == 1.0
    iv2 = Interval.of(2.0, 5.0)  # contains pi
    assert iv2.cos().lo == -1.0


def test_outward_rounding_strict():
    a = Interval.point(0.1)
    b = Interval.point(0.2)
    c = a + b
    assert c.lo < 0.1 + 0.2 < c.hi or c.contains(0.30000000000000004)
    assert c.width > 0.0


def test_intersections():
    assert Interval.of(0, 1).intersects(Interval.of(1, 2))
    assert not Interval.of(0, 1).intersects(Interval.of(1.5, 2))


def test_fmt_bound_records_direction():
    d = fmt_bound(Interval.of(1.0, 2.0))
    assert d["rounding"] == "outward"
    assert d["lo"] == "1" and d["hi"] == "2"



def test_zero_times_infinity_counts_as_zero():
    # the infinite bound stands for arbitrarily large finite values, whose
    # products with 0 are 0
    q = Interval.of(0.0, 0.0) * Interval.of(-math.inf, math.inf)
    assert (q.lo, q.hi) == (-5e-324, 5e-324)
    q = Interval.of(0.0, 1.0) * Interval.of(2.0, math.inf)
    assert q.lo < 0.0 and q.hi == math.inf


def test_infinity_over_infinity_spans_zero_to_infinity():
    q = Interval.of(math.inf, math.inf) / Interval.of(math.inf, math.inf)
    assert q.lo <= 0.0 and q.hi == math.inf
    q = Interval.of(-math.inf, -math.inf) / Interval.of(math.inf, math.inf)
    assert q.lo == -math.inf and q.hi >= 0.0
    q = Interval.of(1.0, math.inf) / Interval.of(1.0, math.inf)
    assert q.lo <= 0.0 and q.hi == math.inf


@pytest.mark.parametrize("lo, hi", [(math.inf, math.inf), (-math.inf, -math.inf),
                                    (0.0, math.inf), (-math.inf, 0.0)])
def test_trig_of_an_infinite_bound_is_the_unit_range(lo, hi):
    iv = Interval.of(lo, hi)
    for fn in (iv.sin, iv.cos):
        out = fn()
        assert (out.lo, out.hi) == (-1.0, 1.0)


@given(intervals(), intervals())
def test_finite_products_and_quotients_keep_their_bounds(i1, i2):
    # the rules for 0 x inf and inf / inf leave finite inputs as they were
    products = [a * b for a in (i1.lo, i1.hi) for b in (i2.lo, i2.hi)]
    p = i1 * i2
    assert (p.lo, p.hi) == (math.nextafter(min(products), -math.inf),
                            math.nextafter(max(products), math.inf))
    if not i2.contains(0.0):
        quotients = [a / b for a in (i1.lo, i1.hi) for b in (i2.lo, i2.hi)]
        q = i1 / i2
        assert (q.lo, q.hi) == (math.nextafter(min(quotients), -math.inf),
                                math.nextafter(max(quotients), math.inf))
