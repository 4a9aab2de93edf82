"""Correctness checks of the benchmark's operations.

Each check takes an output of grpdconn and what the benchmark computed or
required independently, and returns ``None`` when the output is right or a
one-line reason when it is wrong. They never compare against a saved copy of
an earlier output. ``selftest.py`` feeds each of them a corrupted output.
"""
from __future__ import annotations

import math

import grpdconn

NO_COUNTEREXAMPLE = "NoCounterexampleFound"
WITNESS = "IncompleteWitness"


def no_counterexample(verdict, budget: int):
    """A probe on a complete connection must use its whole budget cleanly."""
    if verdict.kind != NO_COUNTEREXAMPLE:
        return f"expected {NO_COUNTEREXAMPLE}, got {verdict.kind} ({verdict.witness})"
    if verdict.budget != budget:
        return f"budget {verdict.budget} != requested {budget}"
    return None


def first_witness(verdict, drawn, index: int):
    """A probe on an incomplete connection must report an escape in (0, 1)
    at sample ``index``, the first drawn pair whose lift leaves the space.

    ``drawn`` lists the (path, start) pairs the probe drew, in order; the
    witness must carry the start arrow of the pair it names.
    """
    if verdict.kind != WITNESS:
        return f"expected {WITNESS}, got {verdict.kind}"
    w = verdict.witness
    t = w["escape_time"]
    if t is None or not 0.0 < t < 1.0:
        return f"escape time {t} outside (0, 1)"
    i = w["sample_index"]
    if i != index:
        return f"witness at sample {i}, the closed form puts the first escape at {index}"
    start = drawn[i][1]
    if w["start"] != {"patch": start.patch_index, "coords": list(start.coords)}:
        return f"witness start {w['start']} is not drawn sample {i}"
    return None


def time_matches(t: float, expected: float, window: float):
    if not abs(t - expected) <= window:
        return f"escape at t = {t:.6f}, expected {expected:.6f} +- {window:g}"
    return None


def escape_matches(outcome, escape_time: float, window: float):
    """A transport must escape, within ``window`` of ``escape_time``."""
    if outcome.completed:
        return f"completed, expected an escape near t = {escape_time:.6f}"
    return time_matches(outcome.trajectory.escape_time, escape_time, window)


def segment_escape(gamma, start, h: float):
    """Closed-form escape of a lift that follows a segment path exactly.

    On the punctured bundle and the cover, the lift over a segment a -> b
    with the cubic profile s(t) = 3t^2 - 2t^3 stays in the patch of its
    start, and meets the patch's deleted point c when the path does, at
    s(t) = (c - a) / (b - a). The integrator tests step chords against the
    ball around c, and a chord of step ``h`` strays from the cubic by at most
    h^2/8 max|x''|, so the flagged time lies within (radius + stray) / |x'|
    of the crossing. Returns ``(crossing, half_width, clearance)``: crossing
    is None when the path does not cross c, and clearance is the distance of
    the nearer endpoint to c.
    """
    if not start.patch.excluded_points:
        return None, math.inf, math.inf
    ((c,), radius), = start.patch.excluded_points
    a, b = gamma.point(0.0).coords[0], gamma.point(1.0).coords[0]
    clearance = min(abs(a - c), abs(b - c))
    if (a > c) == (b > c):
        return None, math.inf, clearance
    s = (c - a) / (b - a)
    t = 0.5 - math.sin(math.asin(1.0 - 2.0 * s) / 3.0)
    speed = 6.0 * t * (1.0 - t) * abs(b - a)
    stray = h * h / 8.0 * 6.0 * abs(b - a)
    return t, (radius + stray) / speed, clearance


def log_chart_escape(legs, h: float, grid: int = 512):
    """Closed-form escape through the deleted point 0 in log charts x = +-e^u.

    Each leg is ``(sign, r0, delta)``: the lift moves u by du/dt = -sign
    e^(-u) d(delta)/dt, so r(t) = e^(u(t)) = r0 - sign (delta(t) - delta(0))
    and the leg escapes where r first reaches 0, at t*. The integrator
    reports the start of the step it cannot resolve, which lies within one
    step ``h`` before t*. Returns ``(centre, half_width, clearance)`` of that
    window [t* - h, t*]: centre is None when no leg reaches 0, and clearance
    is the smallest r(t) over [0, 1] (negative once a leg has crossed).
    """
    ts = [k / grid for k in range(grid + 1)]
    first, clearance = None, math.inf
    for sign, r0, delta in legs:
        d0 = delta(0.0)
        r = [r0 - sign * (delta(t) - d0) for t in ts]
        clearance = min(clearance, min(r))
        k = next((k for k, v in enumerate(r) if v <= 0.0), None)
        if k is None:
            continue
        lo, hi = ts[k - 1], ts[k]
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if r0 - sign * (delta(mid) - d0) <= 0.0 else (mid, hi)
        first = hi if first is None else min(first, hi)
    if first is None:
        return None, math.inf, clearance
    return first - 0.5 * h, 0.5 * h + 1e-9, clearance


def verdict_is(report, expected: str):
    if report.verdict != expected:
        return f"verdict {report.verdict} (max residual {report.max_residual:.3e}), " \
               f"expected {expected}"
    return None


def passed(report):
    """A CheckReport-like result (``passed``, ``max_residual``) must pass."""
    if not report.passed:
        return f"failed with max residual {report.max_residual:.3e}"
    return None


def below(value: float, bound: float, what: str):
    if not value < bound:
        return f"{what} {value:.3e} not below {bound:g}"
    return None


def transport_end(outcome, want, tol: float, drift_tol: float):
    """A completed transport must end at ``want`` with drift below drift_tol."""
    if not outcome.completed:
        t = outcome.trajectory
        return f"escaped at t = {t.escape_time} ({t.escape_reason})"
    gap = grpdconn.distance(outcome.end, want)
    if not gap < tol:
        return f"end {outcome.end.coords} is {gap:.3e} from the closed form {want.coords}"
    if not outcome.drift < drift_tol:
        return f"drift {outcome.drift:.3e} not below {drift_tol:g}"
    return None


def round_trips(result, starts, tol: float, hol_tol: float):
    """Holonomy of a loop with trivial closed-form holonomy.

    Every round trip must complete, return within hol_tol, and the forward
    image must equal its start within ``tol``.
    """
    if result.escapes:
        return f"{len(result.escapes)} round trips escaped: {result.escapes[0]}"
    if not result.passed or not result.worst_roundtrip < hol_tol:
        return f"round trip residual {result.worst_roundtrip:.3e} not below {hol_tol:g}"
    if len(result.images) != len(starts):
        return f"{len(result.images)} images for {len(starts)} starts"
    for (g, image), start in zip(result.images, starts):
        gap = grpdconn.distance(image, start)
        if not gap < tol:
            return f"loop image {image.coords} is {gap:.3e} from its start"
    return None


def crosscheck_clean(report):
    """Complete pair fibration: total, kernel and base probes all clean."""
    kinds = [report.total_verdict.kind, report.kernel_verdict.kind,
             report.base_verdict.kind]
    if any(k != NO_COUNTEREXAMPLE for k in kinds) or not report.consistent:
        return f"verdict triple {kinds}, consistent={report.consistent}"
    return None
