"""Differential test of escape detection against exact first-hit times.

Under a constant field the trajectory is the straight line y0 + v t in the
universal cover, and it first meets a ball (centre c, radius r, angle
coordinates of c taken at every lift c + 2 pi k) at the smallest root t >= 0
of |y0 + v t - c|^2 = r^2. The integrator must escape through an excluded
point if and only if that root lies before the horizon, and report a time
within one step of it. Cases within a margin of a tangential hit, of the
horizon, or of a ball at the start are left out. The test runs on the
one-row call and on blocks of 32 rows.
"""
import itertools
import math

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from grpdconn.geometry import TWO_PI, Patch, Point, Space, Tangent
from grpdconn.integrate import EXCLUDED_POINT, integrate, integrate_rows

H = 2e-2
MARGIN = 1e-6
LAYOUTS = [(1, 0), (2, 0), (0, 1), (1, 1), (0, 2), (2, 1)]

angle = st.one_of(st.floats(0.0, 0.3), st.floats(TWO_PI - 0.3, TWO_PI - 1e-9),
                  st.floats(0.0, TWO_PI - 1e-9))
line_coord = st.floats(-2.0, 2.0)
speed = st.floats(-8.0, 8.0)


@st.composite
def patches(draw):
    """A patch of a drawn layout with one or two balls, angle centres near 0,
    near 2 pi or anywhere."""
    lin, circ = draw(st.sampled_from(LAYOUTS))
    balls = tuple(
        (tuple(draw(line_coord) for _ in range(lin)) + tuple(draw(angle) for _ in range(circ)),
         draw(st.floats(0.05, 0.5)))
        for _ in range(draw(st.integers(1, 2))))
    return Patch(lin, circ, "", balls)


def rows(patch: Patch):
    """(start, velocity) on the patch: starts anywhere, windings of an angle
    up to about a turn and a third."""
    return st.tuples(
        st.tuples(*([line_coord] * patch.lin_count + [st.floats(0.0, TWO_PI)] * patch.circ_count)),
        st.tuples(*([speed] * patch.dim)))


def first_hit(patch: Patch, y0, v):
    """The exact first hit time over [0, 1], inf when the line misses every
    ball, or None when the case lies within the margin of a tangential hit,
    of the horizon, or of a ball at the start."""
    y0, v = np.asarray(y0), np.asarray(v)
    a = float(v @ v)
    best = math.inf
    for center, radius in patch.excluded_points:
        lifts = []
        for i, c in enumerate(center):
            if i < patch.lin_count:
                lifts.append((c,))
                continue
            lo = min(y0[i], y0[i] + v[i]) - radius
            hi = max(y0[i], y0[i] + v[i]) + radius
            lifts.append([c + TWO_PI * k for k in range(math.ceil((lo - c) / TWO_PI) - 1,
                                                         math.floor((hi - c) / TWO_PI) + 2)])
        for lifted in itertools.product(*lifts):
            d = y0 - np.asarray(lifted)
            if float(np.linalg.norm(d)) < radius + MARGIN:
                return None
            if a == 0.0:
                continue
            closest = min(max(-float(d @ v) / a, 0.0), 1.0)
            if abs(float(np.linalg.norm(d + closest * v)) - radius) < MARGIN:
                return None
            disc = float(d @ v) ** 2 - a * (float(d @ d) - radius * radius)
            if disc > 0.0:
                t = (-float(d @ v) - math.sqrt(disc)) / a
                if t >= 0.0:
                    best = min(best, t)
    if abs(best - 1.0) < MARGIN:
        return None
    return best if best < 1.0 else math.inf


def _check(outcome, hit):
    if hit == math.inf:
        assert outcome.completed
    else:
        assert not outcome.completed
        assert outcome.escape_reason == EXCLUDED_POINT
        assert abs(outcome.escape_time - hit) <= H + MARGIN


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_row_escape_matches_exact_hit(data):
    patch = data.draw(patches())
    y0, v = data.draw(rows(patch))
    hit = first_hit(patch, y0, v)
    if hit is None:
        return
    space = Space((patch,))
    out = integrate(lambda t, p: Tangent(p, v), Point.raw(space, 0, y0), 1.0, h=H)
    _check(out, hit)


# no shrinking: a failing block of 32 rows shrinks for a long time, and the
# one-row test above gives the small counterexample
@settings(max_examples=30, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.data())
def test_block_escapes_match_exact_hits(data):
    patch = data.draw(patches())
    cases = [data.draw(rows(patch)) for _ in range(32)]
    cases = [(y0, v, hit) for y0, v in cases if (hit := first_hit(patch, y0, v)) is not None]
    if not cases:
        return
    space = Space((patch,))
    V = np.array([v for _, v, _ in cases], dtype=float)
    outs = integrate_rows(lambda t, rows, Y: V[rows],
                          [Point.raw(space, 0, y0) for y0, _, _ in cases], 1.0, h=H)
    for out, (_, _, hit) in zip(outs, cases):
        _check(out, hit)
