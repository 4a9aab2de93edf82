"""Cross-check of the interval enclosures against mpmath's interval
arithmetic over every finite double (skipped where mpmath is missing), and of
an atlas shift's one declaration against mpmath."""
import contextlib

import pytest
from hypothesis import given, strategies as st

from grpdconn.constructions import SineShift
from grpdconn.intervals import Interval

mpmath = pytest.importorskip("mpmath")
mp_iv = mpmath.iv

doubles = st.floats(allow_nan=False, allow_infinity=False)
nonzero = st.floats(min_value=5e-324, allow_infinity=False) | \
    st.floats(max_value=-5e-324, allow_infinity=False)


@contextlib.contextmanager
def _mp_precision(bits: int = 200):
    """mpmath's interval context at ``bits`` bits: its enclosures are then
    far tighter than a double's ulp, so containing them means containing the
    exact ranges."""
    old = mp_iv.prec
    mp_iv.prec = bits
    try:
        yield
    finally:
        mp_iv.prec = old


def _pair(a: float, b: float) -> Interval:
    return Interval.of(min(a, b), max(a, b))


def _mp(x: Interval):
    return mp_iv.mpf([x.lo, x.hi])


def _encloses(ours: Interval, exact) -> bool:
    return ours.lo <= exact.a and exact.b <= ours.hi


@given(doubles, doubles)
def test_trig_encloses_mpmath(a, b):
    x = _pair(a, b)
    with _mp_precision():
        assert _encloses(x.sin(), mp_iv.sin(_mp(x))), x
        assert _encloses(x.cos(), mp_iv.cos(_mp(x))), x


@given(st.floats(min_value=0.0, allow_infinity=False), st.floats(min_value=0.0,
                                                                  allow_infinity=False))
def test_sqrt_encloses_mpmath(a, b):
    x = _pair(a, b)
    with _mp_precision():
        assert _encloses(x.sqrt(), mp_iv.sqrt(_mp(x))), x


@given(doubles, doubles, nonzero, nonzero)
def test_division_encloses_mpmath(a, b, c, d):
    x, y = _pair(a, b), _pair(c, d)
    if y.lo <= 0.0 <= y.hi:
        return
    with _mp_precision():
        assert _encloses(x / y, _mp(x) / _mp(y)), (x, y)


amplitudes = st.floats(min_value=-1e300, max_value=1e300)
angles = st.floats(min_value=-1e3, max_value=1e3)


@given(amplitudes, doubles, doubles)
def test_sine_shift_interval_encloses_mpmath(amp, a, b):
    x = _pair(a, b)
    with _mp_precision():
        assert _encloses(SineShift(amp).interval(x), mp_iv.mpf(amp) * mp_iv.sin(_mp(x))), (amp, x)


@given(amplitudes, angles)
def test_sine_shift_value_and_deriv_match_mpmath(amp, y):
    shift = SineShift(amp)
    with mpmath.workdps(40):
        def value(t):
            return mpmath.mpf(amp) * mpmath.sin(t)

        tol = 1e-15 * abs(amp) + 5e-324   # a few ulps, or one subnormal step
        assert abs(shift.value(y) - value(mpmath.mpf(y))) <= tol, (amp, y)
        assert abs(shift.deriv(y) - mpmath.diff(value, mpmath.mpf(y))) <= tol, (amp, y)
