"""Parallel transport along base paths, holonomy, and completeness probes.

Transport integrates d tau/dt = hor(tau, gamma'(t)) with the integrator's
escape detection; a completed lift reports its projection drift, an escaped
one its escape time and reason. Completeness is only ever falsified here; the
probes never claim it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Config
from .errors import NotALoop, PairSamplerFailure, StartFiberMismatch
from .geometry import Point, Tangent, distance
from .groupoid import _Worst, _coords, rng_for
from .integrate import TrajectoryOutcome, integrate
from .connection import (
    Connection,
    INCONCLUSIVE,
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

    def velocity(t: float) -> Tangent:
        p = path.point(t)
        J = jacobian(map_, p, cfg)
        return Tangent(map_(p), tuple((J @ np.asarray(path.velocity(t).coeffs)).tolist()))

    return BasePath(map_.codomain, point, velocity,
                    is_loop=path.is_loop, label=f"{map_.name}∘{path.label}")


def product_path(G, gamma: BasePath, eta: BasePath, cfg: Config = DEFAULT) -> BasePath:
    """Pointwise product of two composable paths in a groupoid's arrows."""

    def point(t: float) -> Point:
        return G.compose(gamma.point(t), eta.point(t))

    def velocity(t: float) -> Tangent:
        g, h = gamma.point(t), eta.point(t)
        v = tm_apply(G, g, h, gamma.velocity(t), eta.velocity(t), cfg)
        return Tangent(G.compose(g, h), tuple(v.tolist()))

    return BasePath(G.arrows, point, velocity,
                    is_loop=gamma.is_loop and eta.is_loop,
                    label=f"m({gamma.label},{eta.label})")


def base_connection(c: Connection) -> Connection:
    """The connection ``c.hor0`` on the base submersion of ``c``'s morphism."""
    return Connection(base_submersion_morphism(c.morphism), c.hor0, c.hor0,
                      {"provenance": "base"})


def parallel_transport(
    c: Connection,
    gamma: BasePath,
    g: Point,
    t1: float = 1.0,
    cfg: Config = DEFAULT,
    h: Optional[float] = None,
) -> TransportOutcome:
    """Horizontal lift of ``gamma`` through ``g``, integrated up to ``t1``."""
    pi = c.morphism
    start_gap = distance(pi.arrow_map(g), gamma.point(0.0))
    if not (start_gap < cfg.groupoid_tol_compose * 10 + 1e-12):
        raise StartFiberMismatch(
            f"start arrow projects {start_gap:.3e} away from gamma(0)"
        )

    # the velocity does not depend on the state, and one step asks for it at
    # about five distinct times, each several times
    velocity = functools.lru_cache(maxsize=8)(gamma.velocity)

    def field(t: float, p: Point) -> Tangent:
        return c.hor(p, velocity(t))

    trajectory = integrate(field, g, t1, cfg=cfg, h=h)
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
    """
    for i in range(budget):
        rng = rng_for(seed, 61, i)
        gamma, g = path_family(rng)
        outcome = parallel_transport(c, gamma, g, cfg.transport_horizon, cfg,
                                     h=cfg.transport_probe_h_ode)
        if not outcome.completed:
            return ProbeVerdict(
                "IncompleteWitness",
                budget,
                seed,
                witness={
                    "sample_index": i,
                    "path": gamma.label,
                    "start": _coords(g),
                    "escape_time": outcome.trajectory.escape_time,
                    "reason": outcome.trajectory.escape_reason,
                },
            )
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
    """
    pi = c.morphism
    if pi.transport is None or pi.transport.composable is None:
        raise PairSamplerFailure(f"{pi.name} carries no composable path-pair sampler")
    G, H = pi.total, pi.base_grpd
    worst = _Worst()
    inconclusive = 0
    conclusive = 0
    h_step = cfg.transport_probe_h_ode

    base_conn = base_connection(c)

    def base_transport(path: BasePath, x: Point):
        return parallel_transport(base_conn, path, x, 1.0, cfg, h=h_step)

    for i in range(n_pairs):
        rng = rng_for(seed, 67, i)
        gamma, eta, g, k = pi.transport.composable(rng)
        legs = {}
        escaped = False
        for name, (path, start, conn) in {
            "tau_g": (gamma, g, c),
            "tau_k": (eta, k, c),
            "tau_inv": (pushed_path(H.inv, gamma, cfg), G.inv(g), c),
            "tau_prod": (product_path(H, gamma, eta, cfg), G.compose(g, k), c),
            "sigma_s": (pushed_path(H.src, gamma, cfg), G.src(g), base_conn),
            "sigma_t": (pushed_path(H.tgt, gamma, cfg), G.tgt(g), base_conn),
        }.items():
            out = parallel_transport(conn, path, start, 1.0, cfg, h=h_step)
            if not out.completed:
                escaped = True
                break
            legs[name] = out
        if escaped:
            inconclusive += 1
            continue
        conclusive += 1
        w = {"sample": i, "g": _coords(g), "k": _coords(k)}
        for t in _CHECK_TIMES:
            tau_t = legs["tau_g"].state_at(t)
            worst.record("source", distance(G.src(tau_t), legs["sigma_s"].state_at(t)), w)
            worst.record("target", distance(G.tgt(tau_t), legs["sigma_t"].state_at(t)), w)
            worst.record("inverse", distance(G.inv(tau_t), legs["tau_inv"].state_at(t)), w)
            worst.record(
                "product",
                distance(
                    G.compose(tau_t, legs["tau_k"].state_at(t)),
                    legs["tau_prod"].state_at(t),
                ),
                w,
            )

        if pi.transport.object_path_with_start is not None:
            delta, x = pi.transport.object_path_with_start(rng)
            xi = base_transport(delta, x)
            zeta = parallel_transport(
                c, pushed_path(H.unit, delta, cfg), G.unit(x), 1.0, cfg, h=h_step
            )
            if xi.completed and zeta.completed:
                for t in _CHECK_TIMES:
                    worst.record(
                        "unit",
                        distance(G.unit(xi.state_at(t)), zeta.state_at(t)),
                        {"x": _coords(x)},
                    )
            else:
                inconclusive += 1

    if conclusive == 0:
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
    condition: str
    status: str                      # "consistent" | "violated" | "not-applicable"
    detail: str


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

    kc = kernel_connection(c, cfg)
    k_family = pi.kernel.family

    def kernel_paths(rng):
        if k_family.transport is not None and k_family.transport.path_with_start:
            return k_family.transport.path_with_start(rng)
        delta, _ = pi.transport.object_path_with_start(rng)
        k0 = k_family.fiber_sampler(delta.point(0.0), rng)
        return delta, k0

    kernel_v = completeness_probe(kc, kernel_paths, budget, seed, cfg)

    base_conn = base_connection(c)

    def base_paths(rng):
        return pi.transport.object_path_with_start(rng)

    base_v = completeness_probe(base_conn, base_paths, budget, seed, cfg)

    W, N = True, False
    obs = {
        "total": total_v.found_witness,
        "kernel": kernel_v.found_witness,
        "base": base_v.found_witness,
    }
    implications = []

    def assess(name, condition_ok, condition_desc, violated, detail_violated, detail_ok):
        if condition_ok is False:
            status, detail = "not-applicable", f"precondition fails: {condition_desc}"
        elif violated:
            status, detail = "violated", detail_violated
        else:
            status, detail = "consistent", detail_ok
        implications.append(ImplicationStatus(name, condition_desc, status, detail))

    assess(
        "total_complete_implies_kernel_complete",
        True,
        "unconditional",
        obs["kernel"] and not obs["total"],
        "kernel witness found but total probe found none; total probe must be under-budgeted",
        "kernel witness implies total witness or both clean",
    )
    assess(
        "kernel_complete_implies_base_complete",
        True,
        "unconditional",
        obs["base"] and not obs["kernel"],
        "base witness found but kernel probe found none; kernel probe must be under-budgeted",
        "base witness implies kernel witness or both clean",
    )
    assess(
        "kernel_complete_implies_total_complete",
        fibration_ok,
        "morphism is a fibration",
        obs["total"] and not obs["kernel"],
        f"total witness {total_v.witness} with clean kernel probe despite fibration flag",
        "clean kernel probe and clean total probe, or kernel witness present",
    )
    assess(
        "base_complete_implies_kernel_complete",
        kernel_sconn and fibration_ok,
        "kernel source-connected and morphism a fibration",
        obs["kernel"] and not obs["base"],
        f"kernel witness {kernel_v.witness} with clean base probe despite source-connected kernel",
        "clean base probe and clean kernel probe, or base witness present",
    )

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
