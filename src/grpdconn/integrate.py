"""Fixed-step RK4 integration with escape detection.

The integrator advances on the nominal grid ``h_ode`` and, per step, compares
a full step against two half steps (one level of Richardson refinement). The
half-step state is accepted; the disagreement drives step subdivision. A step
that cannot meet ``ode_tol`` at the minimal subdivision reports StepCollapse.
Angle coordinates evolve in the universal cover; consumers wrap on demand.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Config
from .errors import InvalidHorizon, InvalidParams
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
        """Sample nearest to time t (samples lie on the nominal grid); on a
        tie the earliest, as a scan would find it.

        Sample times never decrease, so their distances to t fall up to the
        first sample at or after t and rise from it: two bisections find the
        nearest one, the second the earliest sample whose distance ties with
        the sample before t.
        """
        samples = self.samples
        i = bisect.bisect_left(samples, t, key=lambda item: item[0])
        if i == len(samples) or (i and abs(samples[i - 1][0] - t) <= abs(samples[i][0] - t)):
            gap = abs(samples[i - 1][0] - t)
            i = bisect.bisect_left(samples, -gap, hi=i, key=lambda item: -abs(item[0] - t))
        return samples[i][1]


def _rk4(f, t, rows, Y, h, K1):
    """One RK4 step of size h from (t, Y) for a block of rows, given the first
    stage K1 = f(t, rows, Y)."""
    K2 = f(t + 0.5 * h, rows, Y + 0.5 * h * K1)
    K3 = f(t + 0.5 * h, rows, Y + 0.5 * h * K2)
    K4 = f(t + h, rows, Y + h * K3)
    return Y + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


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


def integrate_rows(
    field: Callable[[float, np.ndarray, np.ndarray], np.ndarray],
    starts: Sequence[Point],
    horizon: float,
    cfg: Config = DEFAULT,
    h: Optional[float] = None,
    ode_tol: Optional[float] = None,
    first_escape: bool = False,
) -> list[Optional[TrajectoryOutcome]]:
    """Integrate ``dy/dt = field(t, rows, Y)`` from a block of starts on one
    patch over [0, horizon], one trajectory per start. Starts on another
    space or patch than the first raise ``InvalidParams``.

    ``field`` takes the indices ``rows`` (into ``starts``) of the ``(k, n)``
    block of states ``Y`` and returns the ``(k, n)`` block of velocities; a
    row's velocity may depend on nothing but its own row. Each row follows
    exactly the arithmetic it would follow alone: the same step doubling, the
    rows whose Richardson gap exceeds the tolerance (or is not finite)
    subdivide as a subset, and a row stops at its own escape.

    With ``first_escape`` only the first row that escapes (in ``starts``
    order) matters: after each nominal step the rows after the first row
    that has escaped so far are dropped, and their outcome is None.

    ``ode_tol=None`` uses the configured tolerance; pass ``math.inf`` to
    disable subdivision (pure fixed-step RK4 accepting the half-step state).
    """
    if horizon <= 0:
        raise InvalidHorizon(f"horizon must be positive, got {horizon}")
    h = cfg.numeric_h_ode if h is None else h
    tol = cfg.numeric_ode_tol if ode_tol is None else ode_tol
    bound = cfg.numeric_blowup_bound

    space, patch_index = starts[0].space, starts[0].patch_index
    if any(p.patch_index != patch_index or (p.space is not space and p.space != space)
           for p in starts):
        raise InvalidParams("integrate_rows needs every start on the first start's patch")
    patch = starts[0].patch
    samples = [[(0.0, p)] for p in starts]
    escapes: dict[int, tuple[float, str, np.ndarray]] = {}

    def check_segments(t, rows, Y0, Y1, step, alive):
        """Escapes over the accepted steps Y0 -> Y1 of the rows in the mask
        ``alive``: norm blowup at the step's end, then each excluded ball in
        turn. Clears the rows that escape from the mask and returns it."""
        big = np.abs(Y1) > bound
        if big.any():
            blown = alive & big.any(axis=1)
            for j in np.flatnonzero(blown):
                escapes[rows[j]] = (t + step, NORM_BLOWUP, Y1[j])
            alive &= ~blown
        for center, radius in patch.excluded_points:
            for j in np.flatnonzero(alive):
                s = _segment_ball_hit(Y0[j].tolist(), Y1[j].tolist(), center, radius,
                                      patch.lin_count)
                if s is not None:
                    escapes[rows[j]] = (t + s * ((t + step) - t), EXCLUDED_POINT, Y1[j])
                    alive[j] = False
        return alive

    def advance(t, rows, Y, step, depth, K1, Y_full=None):
        """One step of size ``step`` for every row; returns the new states and
        the mask of the rows that did not escape.

        The full step, the first half step and the first subdivision all start
        at (t, Y), so they share its first stage K1, and a subdivision's first
        half reuses the half step as its full step (step doubling as in
        Hairer, Norsett & Wanner, Solving ODEs I, II.4).
        """
        if Y_full is None:
            Y_full = _rk4(field, t, rows, Y, step, K1)
        Y_mid = _rk4(field, t, rows, Y, 0.5 * step, K1)
        t_mid = t + 0.5 * step
        Y_half = _rk4(field, t_mid, rows, Y_mid, 0.5 * step, field(t_mid, rows, Y_mid))
        gap = np.abs(Y_full - Y_half)
        flat = gap.ravel().tolist()
        # a NaN or infinite gap makes the sum fail the test
        if max(flat, default=0.0) <= tol and sum(flat) < math.inf:
            return Y_half, check_segments(t, rows, Y, Y_half, step,
                                          np.ones(len(rows), dtype=bool))
        # the rows whose gap exceeds the tolerance or is not finite subdivide
        gap = gap.max(axis=1, initial=0.0)
        redo = ~(gap <= tol) | (gap == math.inf)
        alive = check_segments(t, rows, Y, Y_half, step, ~redo)
        sub = np.flatnonzero(redo)
        if depth >= _MAX_SUBDIVISION:
            for j in sub:
                escapes[rows[j]] = (t, STEP_COLLAPSE, Y[j])
            return Y_half, alive
        Y1, ok1 = advance(t, rows[sub], Y[sub], 0.5 * step, depth + 1, K1[sub], Y_mid[sub])
        sub, Y1 = sub[ok1], Y1[ok1]
        if not len(sub):
            return Y_half, alive
        Y2, ok2 = advance(t_mid, rows[sub], Y1, 0.5 * step, depth + 1,
                          field(t_mid, rows[sub], Y1))
        Y_new = Y_half.copy()
        Y_new[sub] = Y2
        alive[sub[ok2]] = True
        return Y_new, alive

    rows = np.arange(len(starts))
    Y = np.array([p.coords for p in starts], dtype=float).reshape(len(starts), patch.dim)
    n_steps = max(1, int(math.ceil(horizon / h - cfg.numeric_tol_time)))
    with np.errstate(all="ignore"):
        for k in range(n_steps):
            t0 = k * h
            t1 = min((k + 1) * h, horizon)
            Y, alive = advance(t0, rows, Y, t1 - t0, 0, field(t0, rows, Y))
            if first_escape and escapes:
                alive &= rows < min(escapes)
            rows, Y = rows[alive], Y[alive]
            for r, y in zip(rows.tolist(), Y.tolist()):
                samples[r].append((t1, Point(space, patch_index, tuple(y))))
            if not len(rows):
                break
    if first_escape and escapes:
        first = min(escapes)
        escapes = {first: escapes[first]}
    out: list[Optional[TrajectoryOutcome]] = [None] * len(starts)
    for r in rows.tolist():
        out[r] = TrajectoryOutcome("Completed", samples[r])
    for r, (time, reason, state) in escapes.items():
        samples[r].append((time, Point(space, patch_index, tuple(state.tolist()))))
        out[r] = TrajectoryOutcome("Escaped", samples[r], time, reason)
    return out


def integrate(
    field: Callable[[float, Point], Tangent],
    p0: Point,
    horizon: float,
    cfg: Config = DEFAULT,
    h: Optional[float] = None,
    ode_tol: Optional[float] = None,
) -> TrajectoryOutcome:
    """Integrate ``dy/dt = field(t, y)`` from p0 over [0, horizon]: the
    one-row call of :func:`integrate_rows`."""
    space, patch_index = p0.space, p0.patch_index

    def rows(t, _, Y):
        p = Point(space, patch_index, tuple(Y.tolist()[0]))
        return np.array(field(t, p).coeffs, dtype=float)[None]

    return integrate_rows(rows, [p0], horizon, cfg, h, ode_tol)[0]


def dump_trajectory(outcome: TrajectoryOutcome, path: str) -> None:
    """Write line-oriented (time, coordinates...) records."""
    with open(path, "w", encoding="utf-8") as fh:
        for t, p in outcome.samples:
            fields = [f"{t:.17g}"] + [f"{c:.17g}" for c in p.coords]
            fh.write(" ".join(fields) + "\n")
