import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from grpdconn.errors import InvalidHorizon, InvalidParams
from grpdconn.geometry import Patch, Point, Space, Tangent, line
from grpdconn.integrate import (
    EXCLUDED_POINT,
    NORM_BLOWUP,
    STEP_COLLAPSE,
    TrajectoryOutcome,
    integrate,
    integrate_rows,
)

R = line(1)


def _field(fn):
    return lambda t, p: Tangent(p, (fn(t, p.coords[0]),))


def test_zero_field_stays_put():
    out = integrate(_field(lambda t, x: 0.0), Point.make(R, 0, (0.7,)), 1.0)
    assert out.completed
    assert out.end.coords[0] == 0.7


def test_constant_field_translates():
    out = integrate(_field(lambda t, x: 1.0), Point.make(R, 0, (0.0,)), 1.0)
    assert out.completed
    assert abs(out.end.coords[0] - 1.0) < 1e-10


def test_quadratic_blowup_escapes_near_half():
    # x' = x^2, x(0) = 2 blows up at t = 1/2 (x(t) = 2 / (1 - 2t))
    out = integrate(_field(lambda t, x: x * x), Point.make(R, 0, (2.0,)), 1.0)
    assert not out.completed
    assert out.escape_reason in (NORM_BLOWUP, "StepCollapse")
    assert abs(out.escape_time - 0.5) < 0.05


def test_measured_order_is_four():
    # pure fixed-step runs (refinement disabled) on x' = x over [0, 1]
    errors = []
    h = 0.1
    for _ in range(5):
        out = integrate(_field(lambda t, x: x), Point.make(R, 0, (1.0,)), 1.0,
                        h=h, ode_tol=math.inf)
        errors.append(abs(out.end.coords[0] - math.e))
        h /= 2.0
    orders = [math.log2(errors[k] / errors[k + 1]) for k in range(4)]
    mean = sum(orders) / len(orders)
    assert 3.7 <= mean <= 4.3, orders


def test_excluded_point_detected_on_crossing():
    punctured = line(1, excluded=(((0.0,), 1e-3),))
    out = integrate(_field(lambda t, x: 1.0), Point.make(punctured, 0, (-0.5,)), 1.0)
    assert not out.completed
    assert out.escape_reason == EXCLUDED_POINT
    assert abs(out.escape_time - 0.5) < 5e-3


def test_invalid_horizon():
    with pytest.raises(InvalidHorizon):
        integrate(_field(lambda t, x: 0.0), Point.make(R, 0, (0.0,)), 0.0)


def test_completed_reaches_horizon():
    out = integrate(_field(lambda t, x: math.sin(t)), Point.make(R, 0, (0.0,)), 0.7)
    assert out.completed
    assert abs(out.samples[-1][0] - 0.7) < 1e-9


def test_unsubdivided_step_evaluates_the_field_eleven_times():
    # the full step and the first half step share their first stage
    calls = []

    def field(t, p):
        calls.append(t)
        return Tangent(p, (p.coords[0],))

    out = integrate(field, Point.make(R, 0, (1.0,)), 1.0, h=0.1, ode_tol=math.inf)
    assert out.completed and len(out.samples) == 11
    assert len(calls) == 110


def test_excluded_ball_on_angle_patch_caught_after_winding():
    # the ball at theta = 1 is next met at theta = 1 + 2 pi, from theta = 2
    circle = Space((Patch(0, 1, "", (((1.0,), 0.1),)),))
    field = lambda t, p: Tangent(p, (10.0,))
    out = integrate(field, Point.make(circle, 0, (2.0,)), 1.0, h=2e-2)
    assert out.escape_reason == EXCLUDED_POINT
    assert abs(out.escape_time - (2 * math.pi - 1.1) / 10) < 2e-2


@pytest.mark.parametrize("nan_at", [0, 1])
def test_nan_in_any_coordinate_stops_the_integration(nan_at):
    # a NaN velocity from t = 0.5 on makes the Richardson gap NaN in that
    # coordinate; whichever coordinate it is, the step cannot be resolved
    def field(t, p):
        v = [1.0, 1.0]
        if t > 0.5:
            v[nan_at] = math.nan
        return Tangent(p, tuple(v))

    out = integrate(field, Point.make(line(2), 0, (0.0, 0.0)), 1.0)
    assert not out.completed
    assert out.escape_reason == STEP_COLLAPSE
    assert out.escape_time == 0.5


# sample times: grid-like values, repeats (a StepCollapse escape repeats the
# last grid time) and values whose distances to t round to ties
_times = st.lists(st.sampled_from([0.0, 5e-324, 0.02, 1.0 / 3.0, 0.34, 0.5, 2.0 / 3.0, 1.0])
                  | st.floats(-2.0, 3.0), min_size=1, max_size=12)


@given(_times, st.sampled_from([1.0 / 3.0, 2.0 / 3.0, 1.0, 0.0, -1.0, 1e300])
       | st.floats(-3.0, 4.0))
def test_state_at_bisection_matches_the_nearest_sample_scan(times, t):
    samples = [(time, object()) for time in sorted(times)]
    outcome = TrajectoryOutcome("Completed", samples)
    # the first sample of least distance, as min() scans for it
    nearest = min(samples, key=lambda item: abs(item[0] - t))
    assert outcome.state_at(t) is nearest[1]


TWO_PATCHES = Space((Patch(1, 0, "a"), Patch(1, 0, "b", (((0.5,), 0.1),))))


def _unit_speed(t, rows, Y):
    return np.ones(Y.shape)


def test_a_start_on_a_punctured_patch_escapes_alone():
    out = integrate_rows(_unit_speed, [Point.make(TWO_PATCHES, 1, (0.0,))], 1.0, h=0.1)[0]
    assert out.escape_reason == EXCLUDED_POINT and out.end.patch_index == 1


@pytest.mark.parametrize("other", [Point.make(TWO_PATCHES, 1, (0.0,)),
                                   Point.make(line(1), 0, (0.0,))],
                         ids=["other patch", "other space"])
def test_rows_refuse_starts_off_the_first_start_patch(other):
    # one block runs on one patch: a start elsewhere would be integrated on
    # the first start's patch, past its own excluded ball
    first = Point.make(TWO_PATCHES, 0, (0.0,))
    with pytest.raises(InvalidParams):
        integrate_rows(_unit_speed, [first, other], 1.0, h=0.1)
