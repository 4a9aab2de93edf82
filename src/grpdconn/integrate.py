"""Fixed-step RK4 integration with escape detection.

The integrator advances on the nominal grid ``h_ode`` and, per step, compares
a full step against two half steps (one level of Richardson refinement). The
half-step state is accepted; the disagreement drives step subdivision. A step
that cannot meet ``ode_tol`` at the minimal subdivision reports StepCollapse.
Angle coordinates evolve in the universal cover; consumers wrap on demand.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .config import DEFAULT, Config
from .errors import InvalidHorizon
from .geometry import TWO_PI, Point, Tangent

NORM_BLOWUP = "NormBlowup"
EXCLUDED_POINT = "ExcludedPoint"
STEP_COLLAPSE = "StepCollapse"

_MAX_SUBDIVISION = 12


@dataclass
class TrajectoryOutcome:
    status: str                      # "Completed" | "Escaped"
    samples: list[tuple[float, Point]] = field(default_factory=list)
    escape_time: Optional[float] = None
    escape_reason: Optional[str] = None

    @property
    def completed(self) -> bool:
        return self.status == "Completed"

    @property
    def end(self) -> Optional[Point]:
        return self.samples[-1][1] if self.samples else None

    def state_at(self, t: float) -> Point:
        """Sample nearest to time t (samples lie on the nominal grid)."""
        best = min(self.samples, key=lambda item: abs(item[0] - t))
        return best[1]


class _Escape(Exception):
    def __init__(self, time: float, reason: str, state):
        self.time = time
        self.reason = reason
        self.state = state


def _rk4(f, t, y, h, k1):
    """One RK4 step of size h from (t, y), given the first stage k1 = f(t, y)."""
    y2 = [yi + 0.5 * h * ki for yi, ki in zip(y, k1)]
    k2 = f(t + 0.5 * h, y2)
    y3 = [yi + 0.5 * h * ki for yi, ki in zip(y, k2)]
    k3 = f(t + 0.5 * h, y3)
    y4 = [yi + h * ki for yi, ki in zip(y, k3)]
    k4 = f(t + h, y4)
    return [
        yi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    ]


def _chord_ball_hit(y0, y1, center, radius):
    """Parameter of closest approach if the chord y0->y1 enters the ball."""
    d = [b - a for a, b in zip(y0, y1)]
    w = [a - c for a, c in zip(y0, center)]
    dd = sum(x * x for x in d)
    s = 0.0 if dd == 0.0 else max(0.0, min(1.0, -sum(x * y for x, y in zip(w, d)) / dd))
    closest = [a + s * x for a, x in zip(y0, d)]
    dist = math.sqrt(sum((c - e) ** 2 for c, e in zip(closest, center)))
    return s if dist < radius else None


def _segment_ball_hit(y0, y1, center, radius, lin_count):
    """Earliest closest-approach parameter over the lifts of the ball that the
    chord y0->y1 enters.

    The chord lies in the universal cover, while angle coordinates of the
    centre (indices from ``lin_count`` on) are normalised to [0, 2pi), so each
    is tried at every lift ``centre + 2pi k`` within ``radius`` of the chord.
    """
    lifts = []
    for i, c in enumerate(center):
        lo, hi = min(y0[i], y1[i]) - radius, max(y0[i], y1[i]) + radius
        if i < lin_count or not math.isfinite(hi - lo):
            lifts.append((c,))
            continue
        k_lo, k_hi = math.ceil((lo - c) / TWO_PI), math.floor((hi - c) / TWO_PI)
        lifts.append(tuple(c + TWO_PI * k for k in range(k_lo, k_hi + 1)))
    hits = [s for lifted in itertools.product(*lifts)
            if (s := _chord_ball_hit(y0, y1, lifted, radius)) is not None]
    return min(hits, default=None)


def integrate(
    field: Callable[[float, Point], Tangent],
    p0: Point,
    horizon: float,
    cfg: Config = DEFAULT,
    h: Optional[float] = None,
    ode_tol: Optional[float] = None,
) -> TrajectoryOutcome:
    """Integrate ``dy/dt = field(t, y)`` from p0 over [0, horizon].

    ``ode_tol=None`` uses the configured tolerance; pass ``math.inf`` to
    disable subdivision (pure fixed-step RK4 accepting the half-step state).
    """
    if horizon <= 0:
        raise InvalidHorizon(f"horizon must be positive, got {horizon}")
    h = cfg.numeric_h_ode if h is None else h
    tol = cfg.numeric_ode_tol if ode_tol is None else ode_tol
    bound = cfg.numeric_blowup_bound

    space, patch_index = p0.space, p0.patch_index
    patch = p0.patch
    exclusions = patch.excluded_points

    def f(t, y):
        v = field(t, Point.raw(space, patch_index, tuple(y)))
        return v.coeffs

    def check_segment(t0, t1, y0, y1):
        if any(abs(c) > bound for c in y1):
            raise _Escape(t1, NORM_BLOWUP, y1)
        for center, radius in exclusions:
            s = _segment_ball_hit(y0, y1, center, radius, patch.lin_count)
            if s is not None:
                raise _Escape(t0 + s * (t1 - t0), EXCLUDED_POINT, y1)

    def advance(t, y, step, depth, k1):
        # the full step, the first half step and the first subdivision all
        # start at (t, y), so they share its first stage k1 = f(t, y) (step
        # doubling as in Hairer, Norsett & Wanner, Solving ODEs I, II.4)
        y_full = _rk4(f, t, y, step, k1)
        y_mid = _rk4(f, t, y, 0.5 * step, k1)
        t_mid = t + 0.5 * step
        y_half = _rk4(f, t_mid, y_mid, 0.5 * step, f(t_mid, y_mid))
        disagreement = max((abs(a - b) for a, b in zip(y_full, y_half)), default=0.0)
        if not math.isfinite(disagreement) or disagreement > tol:
            if depth >= _MAX_SUBDIVISION:
                raise _Escape(t, STEP_COLLAPSE, y)
            y_mid2 = advance(t, y, 0.5 * step, depth + 1, k1)
            return advance(t_mid, y_mid2, 0.5 * step, depth + 1, f(t_mid, y_mid2))
        check_segment(t, t + step, y, y_half)
        return y_half

    y = list(p0.coords)
    samples = [(0.0, p0)]
    n_steps = max(1, int(math.ceil(horizon / h - cfg.numeric_tol_time)))
    try:
        for k in range(n_steps):
            t0 = k * h
            t1 = min((k + 1) * h, horizon)
            y = advance(t0, y, t1 - t0, 0, f(t0, y))
            samples.append((t1, Point.raw(space, patch_index, tuple(y))))
    except _Escape as esc:
        samples.append((esc.time, Point.raw(space, patch_index, tuple(esc.state))))
        return TrajectoryOutcome("Escaped", samples, esc.time, esc.reason)
    return TrajectoryOutcome("Completed", samples)


def dump_trajectory(outcome: TrajectoryOutcome, path: str) -> None:
    """Write line-oriented (time, coordinates...) records."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, p in outcome.samples:
            fields = [f"{t:.17g}"] + [f"{c:.17g}" for c in p.coords]
            fh.write(" ".join(fields) + "\n")
