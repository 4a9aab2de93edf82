"""The benchmark's three workloads.

Each workload has a ``setup(seed, size)`` that builds connections,
quadratures, certificates and sampled inputs, and a ``round(state, ops)``
that runs the same fixed list of operations every time it is called. An
operation is one call into grpdconn that yields a verdict or a transport,
together with its check from ``checks.py``.

Library functions are always looked up on their modules at call time
(``T.parallel_transport``, not a name bound at import), so that the traced
run sees every call the benchmark makes.
"""
from __future__ import annotations

import math
import time

import numpy as np

import grpdconn
from grpdconn import catalog
from grpdconn import connection as C
from grpdconn import constructions as K
from grpdconn import groupoid as GR
from grpdconn import scenarios as S
from grpdconn import transport as T
from grpdconn.config import DEFAULT

import checks

MULT = C.MULTIPLICATIVE
NOT_MULT = C.NOT_MULTIPLICATIVE
# The verdict the mathematics gives for each scenario connection: only the
# quadratic skew lift on the plane-over-circle morphism is not multiplicative.
EXPECTED_VERDICT = {"luca_r2_s1": NOT_MULT}
WITNESS_BUDGET = 200        # cap for first-witness probes; witnesses come far earlier
WITNESS_INDEX = 3           # completed pairs before the escaping one in a first-witness probe
CLEARANCE = 0.2             # closed-form margin a sampled pair must keep from the other outcome
ESCAPE_BAND = (0.25, 0.75)  # closed-form escape time of the witness pair
END_TOL = 1e-6              # closed-form transport end and loop image agreement

# Sizes per workload. "full" is the benchmark; "tiny" is the smoke run of
# selftest.py. Few first-witness probes run on the punctured Morita pullback
# because each costs ~0.7 s. Path-based checks run on the complete
# closed-form lifts only: on the punctured bundle and the cover a third and a
# fifth of the sampled pairs escape, which makes both the work and, with few
# pairs, the verdict (Inconclusive) depend on the seed.
SIZES = {
    "probe_sweep": {
        "full": dict(morita=8, cover_kernel=24, bundle_base=48, sproper=16, pair=8,
                     witness=dict(bundle=8, cover=6, pair=4, morita=2),
                     pairs=dict(luca=1, morita=1, pair=2, product=2, sproper=2),
                     cert_samples=24),
        "tiny": dict(morita=1, cover_kernel=2, bundle_base=2, sproper=1, pair=1,
                     witness=dict(bundle=1, cover=1, pair=1, morita=1),
                     pairs=dict(luca=1, morita=1, pair=1, product=1, sproper=1),
                     cert_samples=4),
    },
    "long_transport": {
        "full": dict(transports=1, loops=1, pairs=1, current=1),
        "tiny": dict(transports=1, loops=1, pairs=1, current=1, h=2e-2),
    },
    "fibre_average": {
        "full": dict(validate=8, fixed=20, repair=6, refine=4, family=3, family_check=3,
                     pointwise=20, complement=20, axioms=50),
        "tiny": dict(validate=1, fixed=1, repair=1, refine=1, family=1, family_check=1,
                     pointwise=1, complement=1, axioms=2),
    },
}


class Ops:
    """Counts operations and collects failures and wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.seconds: dict[str, float] = {}   # time per operation, summed over rounds

    def run(self, label: str, call, check):
        """Run one operation; ``check(output)`` returns None or a reason."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an operation that raises is a failed operation
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[label] = self.seconds.get(label, 0.0) + time.perf_counter() - t0
        reason = check(out)
        if reason is not None:
            self.wrong.append(f"{label}: {reason}")
        return out


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def _recording(pairs, family):
    """A (path, start) sampler that hands out ``pairs`` first, then draws from
    ``family``; it records what it handed out so a witness can be replayed."""
    drawn = []

    def draw(rng):
        pair = pairs[len(drawn)] if len(drawn) < len(pairs) else family(rng)
        drawn.append(pair)
        return pair

    return draw, drawn


def _scenario_connections(cfg):
    return [(name, scenario.connection_factory(cfg)[0], EXPECTED_VERDICT.get(name, MULT))
            for name, scenario in S.REGISTRY.items() if scenario.connection_factory]


# ---------------------------------------------------------------------------
# probe_sweep: many short transports at the probe step h = 2e-2


def _log_chart_legs(name, conn, gamma, start):
    """(sign, e^u0, delta) per fibre leg of a log-chart lift (see checks)."""
    md = conn.morphism.metadata
    if name == "morita":                  # arrows (x_t, x_s, u_t, u_s)
        _, ft, fs = md["triple"][0](start)
        legs = ((ft, 0), (fs, 1))
    else:                                 # pair fibration: arrows (u1, u2, th1, th2)
        legs = zip(md["product_space"].split(start), (0, 1))
    return [(1.0 if p.patch_index == 0 else -1.0, math.exp(p.coords[0]),
             lambda t, k=k: gamma.point(t).coords[k]) for p, k in legs]


def _escape(name, conn, gamma, start, h):
    if name in ("bundle", "cover"):
        return checks.segment_escape(gamma, start, h)
    return checks.log_chart_escape(_log_chart_legs(name, conn, gamma, start), h)


def _witness_inputs(name, conn, rng, h):
    """WITNESS_INDEX pairs whose lifts complete, then one that escapes.

    Pairs come from the scenario's own sampler; the closed forms sort them,
    and pairs within CLEARANCE of the other outcome are passed over. The
    escaping pair must escape within ESCAPE_BAND, so that first-witness
    probes do alike amounts of work at every seed.
    """
    sampler = conn.morphism.transport.path_with_start
    completing, escaping = [], None
    while len(completing) < WITNESS_INDEX or escaping is None:
        gamma, start = sampler(rng)
        t, _, clearance = _escape(name, conn, gamma, start, h)
        if abs(clearance) < CLEARANCE:
            continue
        if t is None:
            completing.append((gamma, start))
        elif escaping is None and ESCAPE_BAND[0] < t < ESCAPE_BAND[1]:
            escaping = (gamma, start)
    pairs = completing[:WITNESS_INDEX] + [escaping]
    escape = [_escape(name, conn, *escaping, step)[:2] for step in (h, 0.5 * h)]
    return pairs, escape


def setup_probe_sweep(seed: int, size: str) -> dict:
    z = SIZES["probe_sweep"][size]
    cfg = DEFAULT
    h = cfg.transport_probe_h_ode
    rng = np.random.default_rng(seed)
    morita = S.morita_setup(cfg)[0]
    bundle = S.punctured_bundle_setup(cfg=cfg)[0]
    cover = S.cover_setup(cfg=cfg)[0]
    pair = S.pair_fibration_setup(punctured=False, cfg=cfg)[0]
    luca = S.luca_setup(cfg)[0]
    product = S.product_not_uniform_setup(cfg)[0]
    fam, atlas, profile, schedule = S.sproper_setup(cfg)
    sproper, cert = K.complete_connection_builder(
        fam, atlas, schedule, profile, cfg, z["cert_samples"], seed)
    if cert.verdict != "CertifiedComplete":
        raise RuntimeError(f"sproper certificate: {cert.verdict}")
    bundle_base = C.Connection(catalog.base_submersion_morphism(bundle.morphism),
                               bundle.hor0, bundle.hor0, {"provenance": "base"})

    complete = [
        ("morita", morita, morita.morphism.transport.path_with_start, z["morita"]),
        ("cover.kernel", C.kernel_connection(cover, cfg),
         cover.morphism.kernel.family.transport.path_with_start, z["cover_kernel"]),
        ("bundle.base", bundle_base, bundle_base.morphism.transport.path_with_start,
         z["bundle_base"]),
        ("sproper", sproper, S.sproper_paths(fam, cfg), z["sproper"]),
    ]
    incomplete = {"bundle": bundle, "cover": cover,
                  "pair": S.pair_fibration_setup(punctured=True, cfg=cfg)[0],
                  "morita": S.morita_punctured_setup(cfg)[0]}
    witness = [(name, incomplete[name], seed_, *_witness_inputs(name, incomplete[name], rng, h))
               for name, n in z["witness"].items() for seed_ in _seeds(rng, n)]
    closed_form = {"luca": (luca, NOT_MULT), "morita": (morita, MULT), "pair": (pair, MULT),
                   "product": (product, MULT), "sproper": (sproper, MULT)}
    pathchecks = [(name, *closed_form[name], n) for name, n in z["pairs"].items()]
    return dict(cfg=cfg, complete=[(*c, s) for c, s in zip(complete, _seeds(rng, len(complete)))],
                pair=(pair, z["pair"], _seeds(rng, 1)[0]), witness=witness,
                pathchecks=pathchecks, pathcheck_seed=_seeds(rng, 1)[0])


def round_probe_sweep(st: dict, ops: Ops) -> None:
    cfg = st["cfg"]
    h = cfg.transport_probe_h_ode
    for name, conn, family, budget, seed in st["complete"]:
        ops.run(f"probe[{name}]",
                lambda: T.completeness_probe(conn, family, budget, seed, cfg),
                lambda v: checks.no_counterexample(v, budget))
    pair, budget, seed = st["pair"]
    ops.run("crosscheck[pair_fibration]",
            lambda: T.theorem_crosscheck_kernel(pair, budget, seed, cfg),
            checks.crosscheck_clean)

    for name, conn, seed, pairs, (at_h, at_half_h) in st["witness"]:
        draw, drawn = _recording(pairs, conn.morphism.transport.path_with_start)
        v = ops.run(f"witness[{name}:{seed}]",
                    lambda: T.completeness_probe(conn, draw, WITNESS_BUDGET, seed, cfg),
                    lambda v: checks.first_witness(v, drawn, WITNESS_INDEX)
                    or checks.time_matches(v.witness["escape_time"], *at_h))
        if v is None or not v.found_witness:
            continue
        ops.run(f"half_step[{name}:{seed}]",
                lambda: T.parallel_transport(conn, *pairs[-1], cfg.transport_horizon, cfg,
                                             h=0.5 * h),
                lambda out: checks.escape_matches(out, *at_half_h)
                or checks.escape_matches(out, v.witness["escape_time"], h))

    for name, conn, expected, n_pairs in st["pathchecks"]:
        ops.run(f"pathcheck[{name}]",
                lambda: T.transport_multiplicativity_check(conn, n_pairs,
                                                           st["pathcheck_seed"], cfg),
                lambda rep: checks.verdict_is(rep, expected))


# ---------------------------------------------------------------------------
# long_transport: few costly transports at the nominal step and on averaged lifts


KAPPA = 0.4  # fibre rate of the exponential base lift built by morita_setup


def _scalar_curve(rng, loop: bool):
    """a + b t + A (sin(2 pi t + ph) - sin ph); a loop when b = 0."""
    a = float(rng.uniform(-1.5, 1.5))
    b = 0.0 if loop else float(rng.uniform(-1.0, 1.0))
    amp = float(rng.uniform(0.1, 0.5))
    ph = float(rng.uniform(0.0, 2 * math.pi))
    f = lambda t: a + b * t + amp * (math.sin(2 * math.pi * t + ph) - math.sin(ph))
    df = lambda t: b + amp * 2 * math.pi * math.cos(2 * math.pi * t + ph)
    return f, df


def _morita_input(c, rng, loop: bool):
    """A base path (x_t(t), x_s(t)) in the line pair groupoid and a start arrow.

    Pullback arrows have coordinates (x_t, x_s, f_t, f_s). Under the
    exponential base lift each fibre leg flows as f(t) = f(0) exp(kappa
    (x(t) - x(0))), which gives the closed-form end the transport must reach.
    """
    H = c.morphism.base_grpd
    ft_, dft = _scalar_curve(rng, loop)
    fs_, dfs = _scalar_curve(rng, loop)
    gamma = grpdconn.coordinate_path(H.arrows, 0, lambda t: (ft_(t), fs_(t)),
                                     lambda t: (dft(t), dfs(t)), is_loop=loop)
    f_t, f_s = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
    arrows = c.morphism.total.arrows
    start = grpdconn.Point.raw(arrows, 0, (ft_(0.0), fs_(0.0), f_t, f_s))
    end = grpdconn.Point.raw(arrows, 0, (
        ft_(1.0), fs_(1.0),
        f_t * math.exp(KAPPA * (ft_(1.0) - ft_(0.0))),
        f_s * math.exp(KAPPA * (fs_(1.0) - fs_(0.0)))))
    return gamma, start, end


def setup_long_transport(seed: int, size: str) -> dict:
    z = SIZES["long_transport"][size]
    cfg = DEFAULT
    rng = np.random.default_rng(seed)
    morita = S.morita_setup(cfg, kappa=KAPPA)[0]
    return dict(
        cfg=cfg, morita=morita, h=z.get("h", cfg.numeric_h_ode),
        transports=[_morita_input(morita, rng, loop=False) for _ in range(z["transports"])],
        loops=[_morita_input(morita, rng, loop=True)[:2] for _ in range(z["loops"])],
        pairs=z["pairs"], current=z["current"], check_seed=_seeds(rng, 1)[0])


def round_long_transport(st: dict, ops: Ops) -> None:
    cfg, c, h = st["cfg"], st["morita"], st["h"]
    for k, (gamma, start, want) in enumerate(st["transports"]):
        ops.run(f"transport[morita:{k}]",
                lambda: T.parallel_transport(c, gamma, start, 1.0, cfg, h=h),
                lambda out: checks.transport_end(out, want, END_TOL, cfg.transport_drift_tol))
    for k, (loop, start) in enumerate(st["loops"]):
        ops.run(f"holonomy[morita:{k}]",
                lambda: T.holonomy(c, loop, [start], cfg, h=h),
                lambda res: checks.round_trips(res, [start], END_TOL, cfg.transport_hol_tol))
    # the averaged lift memoises its value at every point it is asked for,
    # and every round transports along the same paths: a lift built once
    # would answer later rounds from memory
    avg, seed = S.proper_average_connection(cfg), st["check_seed"]
    ops.run("pathcheck[proper_average]",
            lambda: T.transport_multiplicativity_check(avg, st["pairs"], seed, cfg),
            lambda rep: checks.verdict_is(rep, MULT))
    ops.run("current_groupoid[proper_average]",
            lambda: T.current_groupoid_check(avg, st["current"], seed, cfg),
            lambda rep: None if rep.passed else
            f"bijection {rep.bijection_residual:.3e}, "
            f"reconstruction {rep.reconstruction_residual:.3e}")


# ---------------------------------------------------------------------------
# fibre_average: quadratures, averaging, pointwise checks; no integration


def _flat_field(g):
    return grpdconn.Tangent(g, (1.0,) + (0.0,) * (g.patch.dim - 1))


def _skewed_source_lift(g, w):
    phi = g.coords[3]
    skew = 0.2 * math.sin(phi) * w.coeffs[1] + 0.1 * w.coeffs[2]
    return grpdconn.Tangent(g, (w.coeffs[0], w.coeffs[1], w.coeffs[2], skew))


def _rotating_base_lift(x, w):
    v1, v2 = x.coords[1], x.coords[2]
    return grpdconn.Tangent(x, (w.coeffs[0], 0.05 * v2 * w.coeffs[0],
                                -0.05 * v1 * w.coeffs[0]))


def _max_gap(F1, F2, points) -> float:
    return max(float(np.linalg.norm(np.asarray(F1(g).coeffs) - np.asarray(F2(g).coeffs)))
               for g in points)


def setup_fibre_average(seed: int, size: str) -> dict:
    z = SIZES["fibre_average"][size]
    cfg = DEFAULT
    rng = np.random.default_rng(seed)
    fam, quad = S.so2_family_setup(cfg, nodes=256)
    _, quad4 = S.so2_family_setup(cfg, nodes=1024)
    G = fam.total
    return dict(
        cfg=cfg, z=z, fam=fam, G=G, quad=quad, quad4=quad4,
        skewed=S.skewed_family_field(fam),
        fixed_points=[G.arrow_sampler(rng) for _ in range(z["fixed"])],
        refine_points=[G.arrow_sampler(rng) for _ in range(z["refine"])],
        connections=_scenario_connections(cfg),
        instances=catalog.default_instances(),
        check_seed=_seeds(rng, 1)[0])


def round_fibre_average(st: dict, ops: Ops) -> None:
    cfg, z, G, seed = st["cfg"], st["z"], st["G"], st["check_seed"]
    quad = st["quad"]
    ops.run("quadrature[256]", lambda: quad.validate(G, z["validate"], seed, cfg),
            checks.passed)
    ops.run("averaging_fixed_point",
            lambda: _max_gap(K.haar_average(G, quad, _flat_field, 8, seed, cfg,
                                            check=False)[0],
                             _flat_field, st["fixed_points"]),
            lambda gap: checks.below(gap, 1e-9, "averaged flat field moved by"))
    repaired = ops.run("averaging_repair",
                       lambda: K.haar_average(G, quad, st["skewed"], z["repair"], seed, cfg),
                       lambda out: checks.passed(out[1])
                       or checks.below(out[1].max_residual, 1e-6, "residual"))
    if repaired is not None:
        ops.run("quadrature_refinement[256:1024]",
                lambda: _max_gap(repaired[0],
                                 K.haar_average(G, st["quad4"], st["skewed"], 8, seed, cfg,
                                                check=False)[0],
                                 st["refine_points"]),
                lambda gap: checks.below(gap, 1e-8, "256-vs-1024 node gap"))
    ops.run("proper_family_connection",
            lambda: C.multiplicativity_check_pointwise(
                K.proper_family_connection(st["fam"], _rotating_base_lift,
                                           _skewed_source_lift, quad, z["family"], seed, cfg),
                z["family_check"], seed, cfg),
            lambda rep: checks.verdict_is(rep, MULT))
    for name, conn, expected in st["connections"]:
        if name == "proper_average":   # memoising lift: a fresh one per round
            conn = S.REGISTRY[name].connection_factory(cfg)[0]
        ops.run(f"pointwise[{name}]",
                lambda: C.multiplicativity_check_pointwise(conn, z["pointwise"], seed, cfg),
                lambda rep: checks.verdict_is(rep, expected))
        ops.run(f"complement[{name}]",
                lambda: C.complement_check(conn, z["complement"], seed, cfg),
                checks.passed)
    for name, grpd in st["instances"]:
        ops.run(f"axioms[{name}]", lambda: GR.check_axioms(grpd, z["axioms"], seed, cfg),
                lambda rep: checks.passed(rep)
                or checks.below(rep.max_residual, 1e-9, "axiom residual"))


WORKLOADS = {
    "probe_sweep": (setup_probe_sweep, round_probe_sweep),
    "long_transport": (setup_long_transport, round_long_transport),
    "fibre_average": (setup_fibre_average, round_fibre_average),
}
