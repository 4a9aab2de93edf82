"""Parallel transport along base paths, holonomy, and completeness probes.

Transport integrates d tau/dt = hor(tau, gamma'(t)) with the integrator's
escape detection; a completed lift reports its projection drift, an escaped
one its escape time and reason. Completeness is only ever falsified here; the
probes never claim it.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Config
from .errors import InvalidParams, NotALoop, PairSamplerFailure, StartFiberMismatch
from .geometry import Point, distance
from .groupoid import _Worst, _coords, rng_for
from .integrate import TrajectoryOutcome, integrate, integrate_rows
from .connection import (
    Connection,
    INCONCLUSIVE,
    RowLift,
    MultiplicativityReport,
    _banded_verdict,
    kernel_connection,
)
from .catalog import base_submersion_morphism
from .paths import BasePath
from .smoothmap import SmoothMap, jacobian
from .tangent import tm_apply


@dataclass
class TransportOutcome:
    status: str
    end: Optional[Point]
    drift: float
    trajectory: TrajectoryOutcome

    @property
    def completed(self) -> bool:
        return self.status == "Completed"

    def state_at(self, t: float) -> Point:
        return self.trajectory.state_at(t)


def pushed_path(map_: SmoothMap, path: BasePath, cfg: Config = DEFAULT) -> BasePath:
    """Image of a path under a smooth map, with pushforward velocities."""

    def point(t: float) -> Point:
        return map_(path.point(t))

    def coeffs(t: float) -> tuple:
        J = jacobian(map_, path.point(t), cfg)
        return tuple((J @ np.asarray(path.velocity_coeffs(t))).tolist())

    return BasePath(map_.codomain, point, coeffs,
                    is_loop=path.is_loop, label=f"{map_.name}∘{path.label}")


def product_path(G, gamma: BasePath, eta: BasePath, cfg: Config = DEFAULT) -> BasePath:
    """Pointwise product of two composable paths in a groupoid's arrows."""

    def point(t: float) -> Point:
        return G.compose(gamma.point(t), eta.point(t))

    def coeffs(t: float) -> tuple:
        v = tm_apply(G, gamma.point(t), eta.point(t), gamma.velocity_coeffs(t),
                     eta.velocity_coeffs(t), cfg)
        return tuple(v.tolist())

    return BasePath(G.arrows, point, coeffs,
                    is_loop=gamma.is_loop and eta.is_loop,
                    label=f"m({gamma.label},{eta.label})")


def base_connection(c: Connection) -> Connection:
    """The connection ``c.hor0`` on the base submersion of ``c``'s morphism."""
    return Connection(base_submersion_morphism(c.morphism), c.hor0, c.hor0,
                      {"provenance": "base"})


def _check_start(pi, gamma: BasePath, g: Point, cfg: Config) -> None:
    start_gap = distance(pi.arrow_map(g), gamma.point(0.0))
    if not (start_gap < cfg.groupoid_tol_compose * 10 + 1e-12):
        raise StartFiberMismatch(
            f"start arrow projects {start_gap:.3e} away from gamma(0)"
        )


def _velocity_rows(paths: list[BasePath]):
    """The velocities of ``paths`` at time t as a ``(k, m)`` block for the
    rows asked for. One step asks for about five distinct times, each several
    times and for shrinking sets of rows, so each time keeps its block and
    later asks for its rows take them from it."""
    blocks: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def at(t: float, rows: np.ndarray) -> np.ndarray:
        hit = blocks.get(t)
        if hit is not None:
            known, V = hit
            if known is rows or known.tobytes() == rows.tobytes():
                return V
            pos = np.minimum(np.searchsorted(known, rows), len(known) - 1)
            if np.array_equal(known[pos], rows):
                return V[pos]
        V = np.array([paths[r].velocity_coeffs(t) for r in rows.tolist()], dtype=float)
        if len(blocks) >= 8:
            del blocks[next(iter(blocks))]
        blocks[t] = rows, V
        return V

    return at


def _outcome(pi, gamma: BasePath, trajectory) -> Optional[TransportOutcome]:
    """A transport's outcome from its trajectory, with its projection drift."""
    if trajectory is None:
        return None
    if not trajectory.completed:
        return TransportOutcome("Escaped", None, math.inf, trajectory)
    drift = 0.0
    stride = max(1, len(trajectory.samples) // 32)
    for idx in range(0, len(trajectory.samples), stride):
        t, p = trajectory.samples[idx]
        drift = max(drift, distance(pi.arrow_map(p), gamma.point(t)))
    t_end, p_end = trajectory.samples[-1]
    drift = max(drift, distance(pi.arrow_map(p_end), gamma.point(t_end)))
    end = p_end.normalized()
    return TransportOutcome("Completed", end, drift, trajectory)


def parallel_transport_rows(
    c: Connection,
    paths: list[BasePath],
    starts: list[Point],
    t1: float = 1.0,
    cfg: Config = DEFAULT,
    h: Optional[float] = None,
    first_escape: bool = False,
) -> list[Optional[TransportOutcome]]:
    """Horizontal lifts of ``paths[i]`` through ``starts[i]``, integrated up
    to ``t1``.

    When ``c.hor`` is a :class:`RowLift` the rows on each start patch are
    integrated as one block, and each field evaluation lifts the whole block
    in one call of ``c.hor.rows``; any other lift (a plain function, such as
    a tracer's wrapper) transports one row at a time through
    :func:`integrate`. With ``first_escape`` the rows after the first one that
    escapes are dropped (their outcome is None). Unequal numbers of paths
    and starts raise ``InvalidParams``.
    """
    if len(paths) != len(starts):
        raise InvalidParams(f"{len(paths)} paths for {len(starts)} starts")
    pi = c.morphism
    for gamma, g in zip(paths, starts):
        _check_start(pi, gamma, g, cfg)
    trajectories: list = [None] * len(starts)
    if isinstance(c.hor, RowLift):
        groups: dict[int, list[int]] = {}
        for i, g in enumerate(starts):
            groups.setdefault(g.patch_index, []).append(i)
        ceiling = len(starts)
        for patch, rows in groups.items():
            rows = [i for i in rows if i < ceiling]
            if not rows:
                continue
            velocity = _velocity_rows([paths[i] for i in rows])

            def field(t, block, Y, patch=patch, velocity=velocity, lift=c.hor.rows):
                return lift(patch, Y, velocity(t, block))

            outs = integrate_rows(field, [starts[i] for i in rows], t1, cfg, h,
                                  first_escape=first_escape)
            for i, out in zip(rows, outs):
                trajectories[i] = out
                if first_escape and out is not None and not out.completed:
                    ceiling = min(ceiling, i)
    else:
        for i, (gamma, g) in enumerate(zip(paths, starts)):
            # the velocity does not depend on the state, and one step asks
            # for it at about five distinct times, each several times
            velocity = functools.lru_cache(maxsize=8)(gamma.velocity)
            trajectories[i] = integrate(lambda t, p: c.hor(p, velocity(t)), g, t1, cfg=cfg,
                                        h=h)
            if first_escape and not trajectories[i].completed:
                break
    if first_escape:
        first = min((i for i, tr in enumerate(trajectories)
                     if tr is not None and not tr.completed), default=len(starts))
        trajectories[first + 1:] = [None] * (len(starts) - first - 1)
    return [_outcome(pi, gamma, tr) for gamma, tr in zip(paths, trajectories)]


def parallel_transport(
    c: Connection,
    gamma: BasePath,
    g: Point,
    t1: float = 1.0,
    cfg: Config = DEFAULT,
    h: Optional[float] = None,
) -> TransportOutcome:
    """Horizontal lift of ``gamma`` through ``g``, integrated up to ``t1``:
    the one-row call of :func:`parallel_transport_rows`."""
    return parallel_transport_rows(c, [gamma], [g], t1, cfg, h)[0]


@dataclass
class HolonomyResult:
    images: list[tuple[Point, Point]]
    escapes: list[dict]
    worst_roundtrip: float
    passed: bool


def holonomy(
    c: Connection,
    gamma: BasePath,
    fiber_samples: list[Point],
    cfg: Config = DEFAULT,
    h: Optional[float] = None,
) -> HolonomyResult:
    """Partial self-map of the start fibre induced by a loop.

    Transports each sample around the loop and back along the reverse path;
    completed round trips must return within hol_tol.
    """
    if distance(gamma.point(0.0), gamma.point(1.0)) > cfg.groupoid_tol_compose * 10:
        raise NotALoop("gamma(1) != gamma(0)")
    images = []
    escapes = []
    worst = 0.0
    rev = gamma.reversed()
    for g in fiber_samples:
        fwd = parallel_transport(c, gamma, g, 1.0, cfg, h)
        if not fwd.completed:
            escapes.append({"start": _coords(g), "leg": "forward",
                            "escape_time": fwd.trajectory.escape_time,
                            "reason": fwd.trajectory.escape_reason})
            continue
        back = parallel_transport(c, rev, fwd.end, 1.0, cfg, h)
        if not back.completed:
            escapes.append({"start": _coords(g), "leg": "reverse",
                            "escape_time": back.trajectory.escape_time,
                            "reason": back.trajectory.escape_reason})
            continue
        images.append((g, fwd.end))
        worst = max(worst, distance(back.end, g))
    return HolonomyResult(images, escapes, worst, worst < cfg.transport_hol_tol)


@dataclass
class ProbeVerdict:
    kind: str                      # "NoCounterexampleFound" | "IncompleteWitness"
    budget: int
    seed: int
    witness: Optional[dict] = None

    @property
    def found_witness(self) -> bool:
        return self.kind == "IncompleteWitness"


def _transport_in_order(legs, t1: float, cfg: Config, h: float):
    """Outcomes of (connection, path, start) legs transported one at a time,
    in order, up to the first escape (the legs after it are not transported:
    None). An error surfaces where this loop meets it, and so does a leg that
    is an exception."""
    outs = [None] * len(legs)
    for j, leg in enumerate(legs):
        if isinstance(leg, Exception):
            raise leg
        outs[j] = parallel_transport(*leg, t1, cfg, h)
        if not outs[j].completed:
            break
    return outs


def _transport_in_blocks(legs, t1: float, cfg: Config, h: float, first_escape=False):
    """Outcomes of (connection, path, start) legs, one block per connection."""
    outs = [None] * len(legs)
    by_conn: dict[int, tuple[Connection, list[int]]] = {}
    for j, (conn, _, _) in enumerate(legs):
        by_conn.setdefault(id(conn), (conn, []))[1].append(j)
    for conn, js in by_conn.values():
        done = parallel_transport_rows(conn, [legs[j][1] for j in js],
                                       [legs[j][2] for j in js], t1, cfg, h, first_escape)
        for j, out in zip(js, done):
            outs[j] = out
    return outs


def _leg_outcomes(leg_sets, t1: float, cfg: Config, h: float, first_escape: bool = False):
    """Outcomes of every sample's (connection, path, start) legs, in blocks.

    A leg may be an exception, standing for a draw that failed: the other
    legs are transported in blocks, and the exception is raised where a loop
    over the samples, each sample's legs up to its first escape, would meet
    it (its outcome is None where that loop would not). A block that raises
    is transported again sample by sample and leg by leg, so that its error
    surfaces where that loop would meet it; so is a single leg, which makes
    no block.
    """
    flat = [leg for legs in leg_sets for leg in legs if not isinstance(leg, Exception)]
    if len(flat) > 1:
        try:
            done = iter(_transport_in_blocks(flat, t1, cfg, h, first_escape))
        except Exception:
            pass
        else:
            sets = []
            for legs in leg_sets:
                outs = [None if isinstance(leg, Exception) else next(done) for leg in legs]
                for j, leg in enumerate(legs):
                    if isinstance(leg, Exception) and all(
                            out is not None and out.completed for out in outs[:j]):
                        raise leg
                sets.append(outs)
            return sets
    return [_transport_in_order(legs, t1, cfg, h) for legs in leg_sets]


# samples per block of a probe: the first blocks are small, so that an early
# witness costs little; 64 from the fourth block on
_PROBE_CHUNKS = (8, 16, 32, 64)


def completeness_probe(
    c: Connection,
    path_family: Callable[[np.random.Generator], tuple[BasePath, Point]],
    budget: int,
    seed: int,
    cfg: Config = DEFAULT,
) -> ProbeVerdict:
    """Falsification probe: transport sampled (path, start) pairs to t = 1.

    Returns the first escape as an IncompleteWitness; exhausting the budget
    yields NoCounterexampleFound, which is not a completeness claim.

    Samples are drawn and transported in index order, in blocks of
    ``_PROBE_CHUNKS`` samples. The witness is the first escaping index: after
    each step the rows above the first escaped row are dropped. A draw that
    raises, a start that does not project to its path's start, or an error
    inside a block surfaces only where sample-by-sample transport would have
    met it: a failed draw ends the block as its last leg and is raised unless
    a lower sample escapes, and a block that raises is transported again one
    sample at a time.
    """
    h, horizon = cfg.transport_probe_h_ode, cfg.transport_horizon
    sizes = itertools.chain(_PROBE_CHUNKS, itertools.repeat(_PROBE_CHUNKS[-1]))
    start = 0
    while start < budget:
        stop = min(start + next(sizes), budget)
        legs = []
        for i in range(start, stop):
            try:
                legs.append((c, *path_family(rng_for(seed, 61, i))))
            except Exception as exc:
                legs.append(exc)
                break
        outs = _leg_outcomes([legs], horizon, cfg, h, first_escape=True)[0]
        for j, outcome in enumerate(outs):
            if outcome is not None and not outcome.completed:
                _, gamma, g = legs[j]
                return ProbeVerdict(
                    "IncompleteWitness",
                    budget,
                    seed,
                    witness={
                        "sample_index": start + j,
                        "path": gamma.label,
                        "start": _coords(g),
                        "escape_time": outcome.trajectory.escape_time,
                        "reason": outcome.trajectory.escape_reason,
                    },
                )
        start = stop
    return ProbeVerdict("NoCounterexampleFound", budget, seed)


# ---------------------------------------------------------------------------
# path-based multiplicativity

_CHECK_TIMES = (1.0 / 3.0, 2.0 / 3.0, 1.0)


def transport_multiplicativity_check(
    c: Connection,
    n_pairs: int,
    seed: int,
    cfg: Config = DEFAULT,
) -> MultiplicativityReport:
    """Compatibility of parallel transport with the groupoid operations.

    For sampled composable path pairs and starts, compares source, target,
    inverse, and product of transported arrows against transports along the
    correspondingly transformed base paths, at the times 1/3, 2/3 and 1. Escaped
    legs mark the sample Inconclusive rather than failed.

    Each pair draws its composable paths and starts, then its unit path and
    start, from its own generator. A pair's six legs and its two unit legs
    are transported in one set of blocks (one per connection); a pair with
    an escaped leg is Inconclusive, and its unit legs are dropped. A unit
    draw that raises surfaces only on a pair whose six legs complete, where
    a pair-by-pair loop would draw it. Clauses are recorded in pair order.
    """
    pi = c.morphism
    if pi.transport is None or pi.transport.composable is None:
        raise PairSamplerFailure(f"{pi.name} carries no composable path-pair sampler")
    G, H = pi.total, pi.base_grpd
    worst = _Worst()
    h_step = cfg.transport_probe_h_ode
    base_conn = base_connection(c)
    unit_draw = pi.transport.object_path_with_start

    starts, leg_sets = [], []
    for i in range(n_pairs):
        rng = rng_for(seed, 67, i)
        gamma, eta, g, k = pi.transport.composable(rng)
        legs = [
            (c, gamma, g),
            (c, eta, k),
            (c, pushed_path(H.inv, gamma, cfg), G.inv(g)),
            (c, product_path(H, gamma, eta, cfg), G.compose(g, k)),
            (base_conn, pushed_path(H.src, gamma, cfg), G.src(g)),
            (base_conn, pushed_path(H.tgt, gamma, cfg), G.tgt(g)),
        ]
        x = None
        if unit_draw is not None:
            try:
                delta, x = unit_draw(rng)
                legs += [(base_conn, delta, x), (c, pushed_path(H.unit, delta, cfg), G.unit(x))]
            except Exception as exc:
                x = None
                legs.append(exc)
        starts.append((g, k, x))
        leg_sets.append(legs)
    outcomes = _leg_outcomes(leg_sets, 1.0, cfg, h_step)
    conclusive = [i for i, outs in enumerate(outcomes)
                  if all(out is not None and out.completed for out in outs[:6])]

    inconclusive = n_pairs - len(conclusive)
    for i in conclusive:
        tau_g, tau_k, tau_inv, tau_prod, sigma_s, sigma_t = outcomes[i][:6]
        g, k, x = starts[i]
        w = {"sample": i, "g": _coords(g), "k": _coords(k)}
        for t in _CHECK_TIMES:
            tau_t = tau_g.state_at(t)
            worst.record("source", distance(G.src(tau_t), sigma_s.state_at(t)), w)
            worst.record("target", distance(G.tgt(tau_t), sigma_t.state_at(t)), w)
            worst.record("inverse", distance(G.inv(tau_t), tau_inv.state_at(t)), w)
            worst.record("product",
                         distance(G.compose(tau_t, tau_k.state_at(t)), tau_prod.state_at(t)),
                         w)
        if x is None:
            continue
        xi, zeta = outcomes[i][6:]
        if zeta is not None and xi.completed and zeta.completed:
            for t in _CHECK_TIMES:
                worst.record("unit", distance(G.unit(xi.state_at(t)), zeta.state_at(t)),
                             {"x": _coords(x)})
        else:
            inconclusive += 1

    if not conclusive:
        verdict = INCONCLUSIVE
    else:
        verdict = _banded_verdict(worst.max_residual, cfg.conn_tol_mult)
    return MultiplicativityReport(
        verdict=verdict,
        residuals=worst.clauses,
        witnesses={"worst": worst.witness} if worst.witness else {},
        max_residual=worst.max_residual,
        n_samples=n_pairs,
        seed=seed,
        inconclusive_samples=inconclusive,
    )


# ---------------------------------------------------------------------------
# path/transport correspondence (current-groupoid picture)


@dataclass
class CurrentGroupoidReport:
    bijection_residual: float
    reconstruction_residual: float
    injectivity_min_separation: Optional[float]
    surjectivity: str                 # "checked" | "NotApplicable"
    passed: bool
    n_samples: int
    seed: int


def current_groupoid_check(
    c: Connection, n_samples: int, seed: int, cfg: Config = DEFAULT
) -> CurrentGroupoidReport:
    """Mutual inversion of (gamma, g) -> tau and tau -> (pi∘tau, tau(0)).

    Forward: the lift's projection must hug gamma (drift) and start at g.
    Backward: re-lifting the projected data at half the step must reproduce
    the path pointwise. On connections flagged incomplete only injectivity
    of the completed samples is verified.
    """
    pi = c.morphism
    incomplete = bool(c.metadata.get("incomplete"))
    bijection = 0.0
    reconstruction = 0.0
    min_sep: Optional[float] = None
    h_step = cfg.transport_probe_h_ode
    for i in range(n_samples):
        rng = rng_for(seed, 71, i)
        gamma, g = pi.transport.path_with_start(rng)
        out = parallel_transport(c, gamma, g, 1.0, cfg, h=h_step)
        if not out.completed:
            continue
        bijection = max(bijection, out.drift, distance(out.trajectory.samples[0][1], g))
        refined = parallel_transport(c, gamma, g, 1.0, cfg, h=h_step / 2.0)
        if refined.completed:
            for t, p in out.trajectory.samples[:: max(1, len(out.trajectory.samples) // 16)]:
                reconstruction = max(reconstruction, distance(p, refined.state_at(t)))
        if incomplete:
            if pi.fiber_sampler is None:
                continue
            g2 = pi.fiber_sampler(gamma.point(0.0), rng)
            if distance(g, g2) > 1e-9 and g.patch_index == g2.patch_index:
                out2 = parallel_transport(c, gamma, g2, 1.0, cfg, h=h_step)
                if out2.completed:
                    sep = distance(out.end, out2.end)
                    min_sep = sep if min_sep is None else min(min_sep, sep)
    tol = cfg.transport_drift_tol
    passed = bijection < tol and reconstruction < tol and (
        min_sep is None or min_sep > 1e-9
    )
    return CurrentGroupoidReport(
        bijection_residual=bijection,
        reconstruction_residual=reconstruction,
        injectivity_min_separation=min_sep,
        surjectivity="NotApplicable" if incomplete else "checked",
        passed=passed,
        n_samples=n_samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# completeness theorem cross-checks


@dataclass
class ImplicationStatus:
    name: str
    status: str                      # "consistent" | "violated" | "not-applicable"


# The implication diagram as (name, given, then, condition), each read "given
# complete implies then complete". Where its condition holds, an implication
# is violated when the then-probe finds a witness and the given-probe does not.
_IMPLICATIONS = (
    ("total_complete_implies_kernel_complete", "total", "kernel", "unconditional"),
    ("kernel_complete_implies_base_complete", "kernel", "base", "unconditional"),
    ("kernel_complete_implies_total_complete", "kernel", "total", "fibration"),
    ("base_complete_implies_kernel_complete", "base", "kernel",
     "fibration_and_source_connected_kernel"),
)


@dataclass
class ConsistencyReport:
    total_verdict: ProbeVerdict
    kernel_verdict: ProbeVerdict
    base_verdict: ProbeVerdict
    fibration_ok: bool
    fibration_note: str
    kernel_source_connected: bool
    implications: list[ImplicationStatus]
    consistent: bool


def theorem_crosscheck_kernel(
    c: Connection,
    budget: int,
    seed: int,
    cfg: Config = DEFAULT,
    fibration_ok: Optional[bool] = None,
) -> ConsistencyReport:
    """Probe total/kernel/base completeness and test the implication diagram.

    The diagram: total complete => kernel complete => base complete, with the
    dashed converses (kernel => total under the fibration hypothesis, base =>
    kernel under source-connectedness of the kernel). Probes only falsify,
    so a "violated" status means a no-counterexample probe would have to be
    under-budgeted for the theorems to hold.
    """
    pi = c.morphism
    if fibration_ok is None:
        fibration_ok = bool(pi.metadata.get("declared_fibration"))
    kernel_sconn = bool(pi.kernel.groupoid.metadata.get("source_connected"))

    total_v = completeness_probe(c, pi.transport.path_with_start, budget, seed, cfg)

    kernel_v = completeness_probe(kernel_connection(c, cfg),
                                  pi.kernel.family.transport.path_with_start, budget, seed, cfg)
    base_v = completeness_probe(base_connection(c), pi.transport.object_path_with_start,
                                budget, seed, cfg)

    found = {"total": total_v.found_witness, "kernel": kernel_v.found_witness,
             "base": base_v.found_witness}
    conditions = {"unconditional": True, "fibration": fibration_ok,
                  "fibration_and_source_connected_kernel": kernel_sconn and fibration_ok}
    implications = [
        ImplicationStatus(name, "not-applicable" if conditions[condition] is False
                          else "violated" if found[then] and not found[given]
                          else "consistent")
        for name, given, then, condition in _IMPLICATIONS
    ]

    consistent = all(s.status != "violated" for s in implications)
    note = "fibration flag true" if fibration_ok else "fibration precondition fails"
    return ConsistencyReport(
        total_verdict=total_v,
        kernel_verdict=kernel_v,
        base_verdict=base_v,
        fibration_ok=fibration_ok,
        fibration_note=note,
        kernel_source_connected=kernel_sconn,
        implications=implications,
        consistent=consistent,
    )
