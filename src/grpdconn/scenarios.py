"""Named scenario registry, report documents, and serialization.

Each scenario binds a construction recipe to an ordered list of checks with
expected verdicts; the registry doubles as the regression corpus. Reports
serialize deterministically: identical (scenario, seed, config) produce
byte-identical JSON (timings appear only in the text rendering).
"""
from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from . import catalog as cat
from .config import DEFAULT, Config
from .connection import (
    Connection,
    MULTIPLICATIVE,
    NOT_MULTIPLICATIVE,
    Rejection,
    RowLift,
    action_connection,
    complement_check,
    kernel_connection,
    multiplicativity_check_pointwise,
    product_clause_residual,
)
from .constructions import (
    AtlasWindow,
    HaarFiberQuadrature,
    RowField,
    SineShift,
    TrivializingAtlas,
    complete_connection_builder,
    flatness_certificate_check,
    haar_average,
    invariant_exhaustion,
    level_schedule,
    morita_compare,
    morita_connection,
    proper_family_connection,
)
from .errors import CertificateFailure, UnknownScenario
from .geometry import Point, ProductSpace, Space, Tangent, distance, line
from .groupoid import GroupoidMorphism, TransportSamplers, fibration_probe, rng_for
from .paths import BasePath
from .tangent import VBFiberData, splitting_correspondence
from .transport import (
    base_connection,
    completeness_probe,
    parallel_transport,
    theorem_crosscheck_kernel,
    transport_multiplicativity_check,
)

SCHEMA_VERSION = "grpdconn-report-1"


# ---------------------------------------------------------------------------
# report documents


def _fmt(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, np.floating):
        return f"{float(value):.17g}"
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return str(value)


@dataclass
class CheckResult:
    name: str
    verdict: str
    expected: str
    matched: bool
    worst_residual: Optional[float] = None
    witness: Optional[dict] = None
    n_samples: int = 0
    details: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "expected": self.expected,
            "matched": self.matched,
            "worst_residual": _fmt(self.worst_residual),
            "witness": _fmt(self.witness),
            "n_samples": self.n_samples,
            "details": _fmt(self.details),
        }


@dataclass
class ReportDocument:
    scenario: str
    description: str
    note: str
    seed: int
    config_snapshot: dict
    checks: list[CheckResult]
    overall_pass: bool

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario,
            "description": self.description,
            "note": self.note,
            "seed": self.seed,
            "config": self.config_snapshot,
            "checks": [c.to_json_obj() for c in self.checks],
            "overall_pass": self.overall_pass,
        }


def emit_report(doc: ReportDocument, format: str = "json") -> str:
    """Serialize a report; json output is deterministic byte-for-byte."""
    if format == "json":
        return json.dumps(doc.to_json_obj(), indent=2, ensure_ascii=False) + "\n"
    if format == "text":
        lines = [
            f"scenario {doc.scenario} (seed {doc.seed}): "
            + ("PASS" if doc.overall_pass else "FAIL"),
            f"  {doc.description}",
        ]
        for c in doc.checks:
            status = "ok " if c.matched else "FAIL"
            resid = "" if c.worst_residual is None else f" residual={c.worst_residual:.3e}"
            lines.append(
                f"  [{status}] {c.name}: {c.verdict} (expected {c.expected})"
                f"{resid} [{c.wall_time:.2f}s]"
            )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# scenario plumbing


@dataclass
class Scenario:
    name: str
    description: str
    note: str
    run: Callable[[int, Config, float], Iterator[CheckResult]]
    connection_factory: Optional[Callable[[Config], tuple[Connection, dict]]] = None


def _check(name, verdict, expected, residual=None, witness=None, n=0,
           details=None) -> CheckResult:
    verdict = str(verdict)
    matched = verdict == expected
    return CheckResult(
        name=name,
        verdict=verdict,
        expected=expected,
        matched=matched,
        worst_residual=residual,
        witness=witness,
        n_samples=n,
        details=details or {},
    )


def _scale(n: int, budget_scale: float) -> int:
    return max(1, int(round(n * budget_scale)))


def _probe(name, verdict, expected, details=None) -> CheckResult:
    """A check on a completeness probe verdict."""
    return _check(name, verdict.kind, expected, None, verdict.witness, verdict.budget,
                  details)


def _crosscheck(name, cross, **details) -> CheckResult:
    """A check on a cross-check report: its consistency and verdict triple."""
    triple = [cross.total_verdict.kind, cross.kernel_verdict.kind, cross.base_verdict.kind]
    return _check(name, "consistent" if cross.consistent else "violated", "consistent",
                  details={"triple": triple, **details})


def _pointwise(name, rep, expected, witness=None) -> CheckResult:
    """A check on a pointwise multiplicativity report with its clause residuals."""
    return _check(name, rep.verdict, expected, rep.max_residual, witness, rep.n_samples,
                  {"clauses": rep.residuals})


# ---------------------------------------------------------------------------
# shared scenario setups (also used by the acceptance suite)



def _escape_rates(u: np.ndarray) -> np.ndarray:
    """exp(-u) clamped to the float range, per entry; escaping lifts only
    grow. Entries go through math.exp, from which np.exp differs in the last
    bit on some inputs."""
    return np.array([math.exp(min(-x, 700.0)) for x in u.ravel().tolist()]).reshape(u.shape)


def luca_setup(cfg: Config = DEFAULT):
    """Plane-over-circle group morphism with the skewed quadratic lift."""
    pi = cat.plane_to_circle_morphism()

    @RowLift
    def hor(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
        x = C[:, 0]
        return np.column_stack((W[:, 0], x * x * W[:, 0]))

    @RowLift
    def hor0(p: int, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        return X[:, :0].copy()

    c = Connection(pi, hor, hor0, {"provenance": "skewed_square_lift",
                                   "claimed_multiplicative": False})
    return c, {}


@RowLift
def _identity_lift(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The unique lift of a local diffeomorphism: the same coefficients."""
    return W


def punctured_bundle_setup(cfg: Config = DEFAULT):
    """Punctured finite-group bundle as a family over its base line."""
    bundle = cat.group_bundle(line(1, name="R"), "finite", order=2, punctured_at=(0.0,),
                              excl_radius=cfg.numeric_excl_radius)
    pi = cat.bundle_family_morphism(bundle)
    c = Connection(pi, _identity_lift, _identity_lift,
                   {"provenance": "local_diffeo_unique", "claimed_multiplicative": True,
                    "incomplete": True})
    return c, {"bundle": bundle}


def cover_setup(cfg: Config = DEFAULT):
    """Disjoint-union covering morphism with its unique (identity) lift."""
    pi = cat.covering_union_morphism(excl_radius=cfg.numeric_excl_radius)
    c = Connection(pi, _identity_lift, _identity_lift,
                   {"provenance": "local_diffeo_unique", "claimed_multiplicative": True,
                    "incomplete": True})
    return c, {}


def _exp_base_lift(base_prod: ProductSpace, kappa: float):
    """hor0 on pr1: N x F -> N with fibre rate kappa: closed-form transports
    x(t) = x(0) * exp(kappa * (delta(t) - delta(0)))."""

    @RowLift
    def hor0(p: int, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        return base_prod.join_rows(p, W, kappa * base_prod.factor_rows(p, X, 1) * W[:, :1])

    return hor0


def morita_setup(cfg: Config = DEFAULT, kappa: float = 0.4):
    """Pullback of the line pair groupoid along pr1: R x F -> R."""
    H = cat.pair_groupoid(line(1, name="Rbase"))
    pi = cat.pullback_of_projection(H, line(1, name="F"), name="morita_pullback")
    base_prod = pi.metadata["base_product"]
    hor0 = _exp_base_lift(base_prod, kappa)
    c = morita_connection(pi, hor0)
    _attach_morita_transport(pi, punctured=False)
    return c, {"kappa": kappa, "H": H, "base_prod": base_prod}


def morita_punctured_setup(cfg: Config = DEFAULT):
    """Same pullback with the fibre punctured at 0 (log charts) and a
    fibre-translation base lift that escapes through the deleted point."""
    from .geometry import Patch

    H = cat.pair_groupoid(line(1, name="Rbase"))
    F = Space((Patch(1, 0, "pos"), Patch(1, 0, "neg")), name="F*")
    pi = cat.pullback_of_projection(H, F, name="morita_pullback_punctured")
    base_prod = pi.metadata["base_product"]

    @RowLift
    def hor0(p: int, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        sign = 1.0 if base_prod.unpack_index(p)[1] == 0 else -1.0
        rate = -sign * _escape_rates(base_prod.factor_rows(p, X, 1)) * W[:, :1]
        return base_prod.join_rows(p, W, rate)

    c = morita_connection(pi, hor0)
    _attach_morita_transport(pi, punctured=True)
    return c, {"base_prod": base_prod}


def _attach_morita_transport(pi: GroupoidMorphism, punctured: bool):
    """Closed-form path samplers for pullbacks of the line pair groupoid."""
    H = pi.base_grpd
    base_prod: ProductSpace = pi.metadata["base_product"]
    _, join3 = pi.metadata["triple"]
    F = base_prod.right

    def curve(rng):
        return cat.sine_curve(rng, cat.uniform(-1.5, 1.5), cat.uniform(-1.0, 1.0), 0.5)

    def fiber_point(rng):
        idx = int(rng.integers(len(F.patches)))
        span = (-1.0, 1.0) if punctured else (-2.0, 2.0)
        return Point.raw(F, idx, (float(rng.uniform(*span)),))

    def path_with_start(rng):
        gamma = cat.curve_path(H.arrows, 0, curve(rng), curve(rng))
        g = join3(gamma.point(0.0), fiber_point(rng), fiber_point(rng))
        return gamma, g

    def composable(rng):
        gamma, eta = cat.composable_pair_paths(H.arrows, curve, rng)
        shared = fiber_point(rng)
        g = join3(gamma.point(0.0), fiber_point(rng), shared)
        k = join3(eta.point(0.0), shared, fiber_point(rng))
        return gamma, eta, g, k

    def object_path_with_start(rng):
        delta = cat.curve_path(H.objects, 0, curve(rng))
        x = base_prod.join(delta.point(0.0), fiber_point(rng))
        return delta, x

    pi.transport = TransportSamplers(path_with_start, composable, object_path_with_start)


def morita_closed_form_end(c: Connection, gamma: BasePath, g: Point,
                           kappa: float) -> Point:
    """Closed-form transport for the exponential base lift: the middle arrow
    follows gamma, the fibre legs flow by exp(kappa * displacement)."""
    pi = c.morphism
    split3, join3 = pi.metadata["triple"]
    H = pi.base_grpd
    prodH: ProductSpace = H.metadata["product_space"]
    h0, ft, fs = split3(g)
    t_leg0, s_leg0 = prodH.split(gamma.point(0.0))
    t_leg1, s_leg1 = prodH.split(gamma.point(1.0))
    F = ft.space
    ft_end = Point.raw(F, ft.patch_index,
                       (ft.coords[0] * math.exp(kappa * (t_leg1.coords[0] - t_leg0.coords[0])),))
    fs_end = Point.raw(F, fs.patch_index,
                       (fs.coords[0] * math.exp(kappa * (s_leg1.coords[0] - s_leg0.coords[0])),))
    return join3(gamma.point(1.0), ft_end, fs_end)


def pair_fibration_setup(punctured: bool = False, cfg: Config = DEFAULT):
    """Angle-pair fibration with the product of base lifts.

    Complete variant: flat fibre lift. Punctured variant: fibre translation
    toward the deleted point in log charts.
    """
    pi = cat.pair_fibration(punctured=punctured)
    prodM: ProductSpace = pi.metadata["product_space"]
    M = prodM.left

    def fibre_lift(rate_signs):
        """The lift (rate * w, w) on rows whose first columns are log-chart
        fibre coordinates u and whose last ones are the angles, which both M
        (u, theta) and its pairs (u1, u2, theta1, theta2) are; the rate is 0,
        or in the punctured variant -sign exp(-u), a translation toward the
        deleted point in the chart of sign +-1 (rate_signs[patch] = -sign)."""

        @RowLift
        def rows(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
            if not punctured:
                return np.concatenate((np.zeros_like(W), W), axis=1)
            return np.concatenate((rate_signs[p] * _escape_rates(C[:, :W.shape[1]]) * W, W),
                                  axis=1)

        return rows

    def minus_signs(*patches):
        return np.array([-1.0 if q == 0 else 1.0 for q in patches])

    hor0 = fibre_lift([minus_signs(q) for q in range(len(M.patches))])
    hor = fibre_lift([minus_signs(*prodM.unpack_index(p))
                      for p in range(len(prodM.space.patches))])

    c = Connection(pi, hor, hor0, {"provenance": "pair_product_lift",
                                   "claimed_multiplicative": True,
                                   "incomplete": punctured})
    return c, {}


def so2_family_setup(cfg: Config = DEFAULT, nodes: int = 0):
    """Constant rotation-action family over a line, with quadrature."""
    fiber = cat.so2_action_groupoid()
    fam = cat.trivial_family(line(1, name="N"), fiber)
    n_nodes = nodes or cfg.constr_node_count
    quad = HaarFiberQuadrature.from_groupoid(fam.total, n_nodes)
    return fam, quad


@RowLift
def _skewed_source_lift(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
    """A source lift on the rotation-action family that is skewed in the fibre angle."""
    skew = 0.2 * np.sin(C[:, 3]) * W[:, 1] + 0.1 * W[:, 2]
    return np.column_stack((W[:, 0], W[:, 1], W[:, 2], skew))


@RowLift
def _rotating_base_lift(p: int, X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """A base-object lift on the rotation-action family that turns the plane."""
    w = W[:, 0]
    return np.column_stack((w, 0.05 * X[:, 2] * w, -0.05 * X[:, 1] * w))


def skewed_family_field(fam: GroupoidMorphism) -> RowField:
    """A generic source-projectable lift of the unit base field, on rows
    (y, v1, v2, phi)."""

    @RowField
    def X(p: int, C: np.ndarray) -> np.ndarray:
        y, v1, v2, phi = C[:, 0], C[:, 1], C[:, 2], C[:, 3]
        return np.column_stack((np.ones(len(C)), 0.2 * v2 + 0.1 * np.sin(y), -0.1 * v1,
                                0.3 + 0.25 * np.sin(phi) + 0.1 * v1))

    return X


def sproper_setup(cfg: Config = DEFAULT):
    """Two-window shifted atlas on the Z2-bundle family over a line."""
    fiber = cat.group_bundle(line(1, name="F"), "finite", order=2)
    fam = cat.trivial_family(line(1, name="N"), fiber)
    atlas = TrivializingAtlas(fam, [AtlasWindow((-2.8, 0.8), (-3.2, 1.2), SineShift(0.0)),
                                    AtlasWindow((-0.8, 2.8), (-1.2, 3.2), SineShift(0.3))])
    profile, _ = invariant_exhaustion(fiber, 16, 0, cfg)
    schedule = level_schedule(atlas, profile)
    return fam, atlas, profile, schedule


def sproper_paths(fam: GroupoidMorphism, cfg: Config):
    """Long oscillating sampler paths confined to the certification box."""
    N = fam.base_grpd.objects
    amp = 0.8
    span = cfg.constr_box - 0.1 - amp

    def paths(rng):
        a = float(rng.uniform(-span, span))
        b = float(rng.uniform(-span, span))
        A = float(rng.uniform(0.0, amp))
        ph = float(rng.uniform(0.0, 2 * math.pi))

        def f(t):
            return a + (b - a) * t + A * math.sin(math.pi * t) * math.sin(2 * math.pi * t + ph)

        def df(t):
            return (b - a) + A * (
                math.pi * math.cos(math.pi * t) * math.sin(2 * math.pi * t + ph)
                + 2 * math.pi * math.sin(math.pi * t) * math.cos(2 * math.pi * t + ph)
            )

        gamma = cat.curve_path(N, 0, (f, df))
        g = fam.fiber_sampler(gamma.point(0.0), rng)
        return gamma, g

    return paths


def product_not_uniform_setup(cfg: Config = DEFAULT):
    H = cat.pair_groupoid(line(1, name="R"))
    pi = cat.product_with_manifold(H, line(1, name="P"))
    arr_prod: ProductSpace = pi.total.metadata["arr_product"]
    obj_prod: ProductSpace = pi.total.metadata["obj_product"]

    @RowLift
    def hor(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
        return arr_prod.join_rows(p, W, np.zeros((1, 1)))

    @RowLift
    def hor0(p: int, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        return obj_prod.join_rows(p, W, np.zeros((1, 1)))

    # composable paths: affine coordinate curves sharing the middle one
    def curve(rng):
        return cat.sine_curve(rng, cat.uniform(-1.5, 1.5), cat.uniform(-1.0, 1.0), 0.0)

    def composable(rng):
        gamma, eta = cat.composable_pair_paths(H.arrows, curve, rng)
        p = cat.sample_point(line(1, name="P"), rng)
        g = arr_prod.join(gamma.point(0.0), p)
        k = arr_prod.join(eta.point(0.0), p)
        return gamma, eta, g, k

    pi.transport = dataclasses.replace(
        pi.transport, composable=composable,
        object_path_with_start=cat.with_fibre_start(
            lambda rng: cat.curve_path(H.objects, 0, curve(rng)), pi.object_fiber_sampler))
    c = Connection(pi, hor, hor0, {"provenance": "flat_product",
                                   "claimed_multiplicative": True})
    return c, {}

# ---------------------------------------------------------------------------
# scenario run functions: each yields its checks in order


def _run_luca(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    c, _ = luca_setup(cfg)
    rep = complement_check(c, _scale(60, scale), seed, cfg)
    yield _check("complement_check", "pass" if rep.passed else "fail", "pass",
                 rep.max_residual, rep.witness, rep.n_samples)

    G = c.total
    g = Point.raw(G.arrows, 0, (1.0, 0.0))
    a = Tangent(c.morphism.arrow_map(g), (1.0,))
    resid, produced, required = product_clause_residual(c, g, g, a, a, cfg)
    yield _check(
        "product_clause_witness",
        "residual>=1" if resid >= 1.0 else f"residual={resid:.3e}",
        "residual>=1",
        resid,
        {"g": [1.0, 0.0], "a": [1.0], "produced": list(produced),
         "required": list(required)},
        1,
    )

    rep = multiplicativity_check_pointwise(c, _scale(100, scale), seed, cfg)
    yield _pointwise("multiplicativity_pointwise", rep, NOT_MULTIPLICATIVE,
                     rep.witnesses.get("worst"))

    rep = transport_multiplicativity_check(c, _scale(25, scale), seed, cfg)
    yield _check("multiplicativity_transport", rep.verdict, NOT_MULTIPLICATIVE,
                 rep.max_residual, rep.witnesses.get("worst"), rep.n_samples,
                 {"clauses": rep.residuals,
                  "inconclusive_samples": rep.inconclusive_samples})


def _run_so2_action(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    am = cat.so2_action_morphism(trivial=False)

    def zero_hor0(x: Point, w: Tangent) -> Tangent:
        return Tangent(x, (0.0,) * x.patch.dim)

    result = action_connection(am, zero_hor0, _scale(40, scale), seed, cfg)
    if isinstance(result, Rejection):
        probe = result.probe_residuals.get("probe[0]", float("nan"))
        yield _check("action_criterion", "Rejection", "Rejection",
                     result.worst_residual, result.witness,
                     details={"probe_residuals": result.probe_residuals})
        yield _check(
            "invariance_at_probe",
            "residual≈1" if abs(probe - 1.0) < 1e-6 else f"residual={probe:.6f}",
            "residual≈1", probe, {"x": [1.0, 0.0]}, 1,
        )
    else:
        yield _check("action_criterion", "Connection", "Rejection")

    am_trivial = cat.so2_action_morphism(trivial=True)
    result2 = action_connection(am_trivial, zero_hor0, _scale(40, scale), seed, cfg)
    if isinstance(result2, Rejection):
        yield _check("trivial_action_variant", "Rejection", MULTIPLICATIVE)
    else:
        rep = multiplicativity_check_pointwise(result2, _scale(60, scale), seed, cfg)
        yield _pointwise("trivial_action_variant", rep, MULTIPLICATIVE)

    am_finite = cat.reflection_action_morphism()
    result3 = action_connection(am_finite, zero_hor0, _scale(30, scale), seed, cfg)
    yield _check("finite_action_variant",
                 "Connection" if isinstance(result3, Connection) else "Rejection",
                 "Connection")


def _run_punctured_bundle(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    c, _ = punctured_bundle_setup(cfg=cfg)
    rep = multiplicativity_check_pointwise(c, _scale(80, scale), seed, cfg)
    yield _pointwise("multiplicativity_pointwise", rep, MULTIPLICATIVE)

    v = completeness_probe(c, c.morphism.transport.path_with_start, _scale(500, scale),
                           seed, cfg)
    escape_ok = v.found_witness and v.witness["escape_time"] < 1.0
    yield _probe("completeness_probe_total", v, "IncompleteWitness",
                 {"escape_before_horizon": escape_ok})

    base_conn = base_connection(c)
    v = completeness_probe(base_conn, base_conn.morphism.transport.path_with_start,
                           _scale(500, scale), seed, cfg)
    yield _probe("completeness_probe_base", v, "NoCounterexampleFound")

    cross = theorem_crosscheck_kernel(c, _scale(120, scale), seed, cfg)
    yield _crosscheck("kernel_theorem_crosscheck", cross,
                      fibration=cross.fibration_note,
                      kernel_source_connected=cross.kernel_source_connected,
                      implications=[{"name": s.name, "status": s.status}
                                    for s in cross.implications])


def _run_cover(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    c, _ = cover_setup(cfg=cfg)
    rep = multiplicativity_check_pointwise(c, _scale(80, scale), seed, cfg)
    yield _pointwise("multiplicativity_pointwise", rep, MULTIPLICATIVE)

    kc = kernel_connection(c, cfg)
    kf = c.morphism.kernel.family
    v = completeness_probe(kc, kf.transport.path_with_start, _scale(500, scale), seed, cfg)
    yield _probe("completeness_probe_kernel", v, "NoCounterexampleFound")

    v = completeness_probe(c, c.morphism.transport.path_with_start, _scale(500, scale),
                           seed, cfg)
    yield _probe("completeness_probe_total", v, "IncompleteWitness")

    fv = fibration_probe(c.morphism, _scale(40, scale), seed, cfg)
    yield _check("star_surjectivity", str(fv.star_surjective_heuristic), "False",
                 None, {"worst_uncovered": fv.worst_uncovered_distance},
                 fv.n_samples,
                 {"submersion_ok": fv.submersion_ok, "note": fv.note})

    cross = theorem_crosscheck_kernel(c, _scale(120, scale), seed, cfg)
    yield _crosscheck("kernel_theorem_crosscheck", cross, fibration=cross.fibration_note)


def _run_morita(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    c, extras = morita_setup(cfg)
    kappa = extras["kappa"]
    rep = multiplicativity_check_pointwise(c, _scale(80, scale), seed, cfg)
    yield _pointwise("multiplicativity_pointwise", rep, MULTIPLICATIVE)

    worst = 0.0
    n = _scale(50, scale)
    for i in range(n):
        gamma, g = c.morphism.transport.path_with_start(rng_for(seed, 113, i))
        got = parallel_transport(c, gamma, g, 1.0, cfg, h=cfg.transport_probe_h_ode)
        want = morita_closed_form_end(c, gamma, g, kappa)
        worst = max(worst, distance(got.end, want)) if got.completed else math.inf
    yield _check("transport_closed_form",
                 "match" if worst < 1e-6 else f"deviation={worst:.3e}",
                 "match", worst, None, n)

    # uniqueness: a vertically skewed lift deviates and is flagged
    def skewed(g: Point, a: Tangent) -> Tangent:
        base = c.hor(g, a)
        extra = [0.0] * g.patch.dim
        # vertical directions are the two fibre slots (indices 2, 3 in the
        # packed line-pair pullback coordinates)
        extra[2] = 1e-3 * a.coeffs[0]
        extra[3] = 1e-3 * a.coeffs[1]
        return Tangent(g, tuple(b + e for b, e in zip(base.coeffs, extra)))

    c_skew = Connection(c.morphism, skewed, c.hor0, {"provenance": "skewed"})
    dev = morita_compare(c, c_skew, _scale(40, scale), seed)
    rep = multiplicativity_check_pointwise(c_skew, _scale(60, scale), seed, cfg)
    yield _check("uniqueness_perturbed_lift", rep.verdict, NOT_MULTIPLICATIVE,
                 rep.max_residual, None, rep.n_samples,
                 {"deviation_from_formula": dev})

    v = completeness_probe(c, c.morphism.transport.path_with_start, _scale(200, scale),
                           seed, cfg)
    yield _probe("completeness_probe_total", v, "NoCounterexampleFound")

    cp, _ = morita_punctured_setup(cfg)
    v = completeness_probe(cp, cp.morphism.transport.path_with_start, _scale(200, scale),
                           seed, cfg)
    yield _probe("completeness_transfer_punctured_base", v, "IncompleteWitness")


def _run_pair_fibration(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    c, _ = pair_fibration_setup(punctured=False, cfg=cfg)
    rep = multiplicativity_check_pointwise(c, _scale(80, scale), seed, cfg)
    yield _pointwise("multiplicativity_pointwise", rep, MULTIPLICATIVE)

    cross = theorem_crosscheck_kernel(c, _scale(150, scale), seed, cfg)
    yield _crosscheck("crosscheck_complete_variant", cross)
    clean = all(not v.found_witness for v in
                (cross.total_verdict, cross.kernel_verdict, cross.base_verdict))
    yield _check("complete_variant_probes_clean", str(clean), "True")

    cp, _ = pair_fibration_setup(punctured=True, cfg=cfg)
    cross = theorem_crosscheck_kernel(cp, _scale(150, scale), seed, cfg)
    yield _crosscheck("crosscheck_punctured_variant", cross)
    witnesses = cross.total_verdict.found_witness and cross.kernel_verdict.found_witness
    yield _check("punctured_variant_witnesses", str(witnesses), "True",
                 details={"total": cross.total_verdict.witness,
                          "kernel": cross.kernel_verdict.witness})


def _field_gap(G, X1, X2, n: int, seed: int, salt: int) -> float:
    """Largest coefficient gap between two fields at n sampled arrows."""
    worst = 0.0
    for i in range(n):
        g = G.arrow_sampler(rng_for(seed, salt, i))
        worst = max(worst, float(np.linalg.norm(
            np.asarray(X1(g).coeffs) - np.asarray(X2(g).coeffs))))
    return worst


def _run_proper_average(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    fam, quad = so2_family_setup(cfg)
    G = fam.total
    qrep = quad.validate(G, _scale(20, scale), seed, cfg)
    yield _check("quadrature", "pass" if qrep.passed else "fail", "pass",
                 qrep.max_residual, qrep.witness, qrep.n_samples)

    # fixed point: the flat lift is already multiplicative
    def X_flat(g: Point) -> Tangent:
        return Tangent(g, (1.0,) + (0.0,) * (g.patch.dim - 1))

    X_flat_hat, _ = haar_average(G, quad, X_flat, 8, seed, cfg, check=False)
    worst = _field_gap(G, X_flat_hat, X_flat, _scale(100, scale), seed, 127)
    yield _check("averaging_fixed_point",
                 "fixed" if worst < 1e-9 else f"moved={worst:.3e}", "fixed",
                 worst, None, _scale(100, scale))

    X = skewed_family_field(fam)
    X_hat, rep = haar_average(G, quad, X, _scale(40, scale), seed, cfg)
    yield _check("averaged_field_multiplicative",
                 "pass" if rep.passed else "fail", "pass",
                 rep.max_residual, rep.witness, rep.n_samples,
                 {"clauses": rep.clauses, "nodes": quad.node_count})

    # quadrature refinement: 4x nodes agree
    _, quad4 = so2_family_setup(cfg, nodes=quad.node_count * 4)
    X_hat4, _ = haar_average(G, quad4, X, 8, seed, cfg, check=False)
    worst = _field_gap(G, X_hat, X_hat4, _scale(25, scale), seed, 131)
    yield _check("quadrature_refinement",
                 "converged" if worst < 1e-8 else f"gap={worst:.3e}",
                 "converged", worst, None, _scale(25, scale))

    # full proper-family connection from a skewed source lift
    conn = proper_family_connection(fam, _rotating_base_lift, _skewed_source_lift, quad,
                                    _scale(30, scale), seed, cfg)
    rep = multiplicativity_check_pointwise(conn, _scale(50, scale), seed, cfg)
    yield _pointwise("proper_family_connection", rep, MULTIPLICATIVE)


def _run_sproper(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    fam, atlas, profile, schedule = sproper_setup(cfg)
    arep = atlas.validate(_scale(20, scale), seed, cfg)
    yield _check("atlas", "pass" if arep.passed else "fail", "pass",
                 arep.max_residual, arep.witness, arep.n_samples)

    _, exh_rep = invariant_exhaustion(atlas.fiber, _scale(40, scale), seed, cfg)
    yield _check("invariant_exhaustion", "pass" if exh_rep.passed else "fail",
                 "pass", exh_rep.max_residual, None, exh_rep.n_samples)

    yield _check("level_schedule_disjoint", str(schedule.disjoint_verified),
                 "True", details={"levels": schedule.per_window})

    conn, cert = complete_connection_builder(fam, atlas, schedule, profile, cfg,
                                             n_cert_samples=_scale(24, scale), seed=seed)
    yield _check("certificate", cert.verdict, "CertifiedComplete",
                 cert.partition_sum_residual, None, 0,
                 {"slab_gap": cert.slab_gap,
                  "windows": [
                      {"window": w.window, "levels": w.levels,
                       "flatness_residual": w.flatness_residual,
                       "precompact_bound": w.precompact_bound}
                      for w in cert.windows
                  ]})

    fv = flatness_certificate_check(conn, schedule, _scale(12, scale), seed, cfg)
    yield _check("certificate_recheck", fv.verdict, "CertifiedComplete",
                 max(fv.worst_fiber_residual, fv.worst_base_residual),
                 None, fv.n_samples, {"bounds": fv.precompact_bounds})

    rep = multiplicativity_check_pointwise(conn, _scale(60, scale), seed, cfg)
    yield _check("multiplicativity_pointwise", rep.verdict, MULTIPLICATIVE,
                 rep.max_residual, None, rep.n_samples)

    v = completeness_probe(conn, sproper_paths(fam, cfg), _scale(500, scale), seed, cfg)
    yield _probe("completeness_probe", v, "NoCounterexampleFound")

    bad = level_schedule(atlas, profile, schedule.truncation_depth)
    bad.levels[(1, 1)] = bad.levels[(1, 0)]
    try:
        complete_connection_builder(fam, atlas, bad, profile, cfg, 4, seed)
        verdict = "not_caught"
    except CertificateFailure as exc:
        verdict = f"CertificateFailure[{str(exc).split(':')[0]}]"
    yield _check("injected_overlap", verdict, "CertificateFailure[slab_disjointness]")


def _run_product_not_uniform(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    c, _ = product_not_uniform_setup(cfg)
    fv = fibration_probe(c.morphism, _scale(40, scale), seed, cfg)
    fib_flags = fv.submersion_ok and fv.shriek_submersion_ok and fv.star_surjective_heuristic
    yield _check("fibration_flags", str(fib_flags), "True",
                 None, None, fv.n_samples,
                 {"min_singular_value": fv.min_singular_value,
                  "shriek_min_singular_value": fv.shriek_min_singular_value,
                  "worst_uncovered": fv.worst_uncovered_distance,
                  "note": fv.note})
    yield _check("uniform_ok", str(fv.uniform_ok), "False",
                 details={"rank": fv.uniform_rank,
                          "required": fv.uniform_rank_required})
    rep = multiplicativity_check_pointwise(c, _scale(60, scale), seed, cfg)
    yield _check("multiplicativity_pointwise", rep.verdict, MULTIPLICATIVE,
                 rep.max_residual, None, rep.n_samples)


def _run_splitting(seed: int, cfg: Config, scale: float) -> Iterator[CheckResult]:
    worst = {"h": 0.0, "p": 0.0, "C": 0.0, "involution": 0.0}
    n = _scale(50, scale)
    for i in range(n):
        rng = rng_for(seed, 137, i)
        dim_k = int(rng.integers(1, 4))
        dim_q = int(rng.integers(1, 4))
        dim_e = dim_k + dim_q
        Q, _ = np.linalg.qr(rng.normal(size=(dim_e, dim_e)))
        iota = Q[:, :dim_k]
        R, _ = np.linalg.qr(rng.normal(size=(dim_q, dim_q)))
        pi_mat = R @ Q[:, dim_k:].T
        h0 = np.linalg.lstsq(pi_mat, np.eye(dim_q), rcond=None)[0]
        h = h0 + iota @ rng.normal(scale=0.5, size=(dim_k, dim_q))

        from_h = splitting_correspondence(VBFiberData(iota, pi_mat, h=h), "h")
        worst["h"] = max(worst["h"], max(from_h.residuals.values()))
        from_p = splitting_correspondence(VBFiberData(iota, pi_mat, p=from_h.p), "p")
        worst["p"] = max(worst["p"], max(from_p.residuals.values()))
        from_c = splitting_correspondence(VBFiberData(iota, pi_mat, C=from_h.C), "C")
        worst["C"] = max(worst["C"], max(from_c.residuals.values()))
        worst["involution"] = max(
            worst["involution"],
            float(np.max(np.abs(from_p.h - h))),
            float(np.max(np.abs(from_c.h - h))),
        )
    overall = max(worst.values())
    yield _check("splitting_identities",
                 "exact" if overall < 1e-12 else f"residual={overall:.3e}",
                 "exact", overall, None, n, {"clauses": worst})

# ---------------------------------------------------------------------------
# registry


def _registry() -> dict[str, Scenario]:
    entries = [
        Scenario(
            "luca_r2_s1",
            "Quadratic-skew lift on the plane-over-circle group morphism: a "
            "fibrewise complement that fails the product clause",
            "abelian-group counterexample: the horizontal space is not a subgroup",
            _run_luca,
            luca_setup,
        ),
        Scenario(
            "so2_action_no_mec",
            "Rotation action morphism SO(2)⋉R² → SO(2): the invariance "
            "criterion rejects every candidate lift",
            "connected-group action obstruction: nontrivial actions admit no "
            "compatible lift",
            _run_so2_action,
            None,
        ),
        Scenario(
            "punctured_group_bundle",
            "Punctured finite-group bundle over the line: multiplicative, "
            "escapes through the deleted point before t = 1",
            "local diffeomorphism with a non-covering projection: multiplicative "
            "but incomplete; the base stays complete",
            _run_punctured_bundle,
            punctured_bundle_setup,
        ),
        Scenario(
            "disjoint_union_cover",
            "Disjoint union (bundle ⊔ punctured bundle) over the bundle: kernel "
            "complete, total incomplete, star-surjectivity fails",
            "kernel completeness does not transfer without the fibration "
            "hypothesis",
            _run_cover,
            cover_setup,
        ),
        Scenario(
            "morita_pullback",
            "Pullback of the line pair groupoid along a product projection: "
            "unique lift over the base connection, closed-form transport",
            "pullback projections carry a unique lift per base connection; "
            "completeness transfers from the base",
            _run_morita,
            morita_setup,
        ),
        Scenario(
            "pair_fibration_kernel_thm",
            "Angle-pair fibration with product lifts: completeness verdict "
            "triples on the complete and punctured-fibre variants",
            "kernel-completeness transfer for fibrations, probed on both sides",
            _run_pair_fibration,
            lambda cfg: pair_fibration_setup(punctured=False, cfg=cfg),
        ),
        Scenario(
            "proper_average",
            "Rotation-action family over a line: fibre averaging fixes "
            "multiplicative fields and repairs skewed lifts",
            "normalized invariant fibre averaging on proper groupoids produces "
            "multiplicative data",
            _run_proper_average,
            lambda cfg: (proper_average_connection(cfg), {}),
        ),
        Scenario(
            "sproper_complete_family",
            "Two-window shifted Z₂-bundle family: lexicographic level schedule, "
            "interval-certified complete glued lift",
            "source-proper fibres admit complete lifts via slab-flat gluing",
            _run_sproper,
            lambda cfg: (sproper_connection(cfg), {}),
        ),
        Scenario(
            "product_not_uniform",
            "Product of the line pair groupoid with a line, projected to the "
            "first factor: a fibration that is not uniform",
            "the comparison map to the pullback groupoid drops rank on products",
            _run_product_not_uniform,
            product_not_uniform_setup,
        ),
        Scenario(
            "splitting_fixture",
            "Random exact-sequence fibre data: right/left splittings and "
            "complements correspond exactly",
            "split exact sequences: h∘π + ι∘p = id, Φ invertible, C = ker p = im h",
            _run_splitting,
            None,
        ),
    ]
    return {s.name: s for s in entries}


def proper_average_connection(cfg: Config) -> Connection:
    # the averaging integrands on this family are trigonometric polynomials
    # of degree <= 3 in the fibre angle, so 8 uniform nodes integrate exactly;
    # the acceptance suite re-verifies node-count independence numerically
    fam, quad = so2_family_setup(cfg, nodes=8)

    return proper_family_connection(fam, _rotating_base_lift, _skewed_source_lift, quad, 12,
                                    0, cfg)


def sproper_connection(cfg: Config) -> Connection:
    fam, atlas, profile, schedule = sproper_setup(cfg)
    conn, _ = complete_connection_builder(fam, atlas, schedule, profile, cfg, 6, 0)
    return conn


REGISTRY = _registry()


def list_scenarios() -> list[tuple[str, str, str]]:
    """(name, one-line description, source note) in stable order."""
    return [(s.name, s.description, s.note) for s in REGISTRY.values()]


def run_scenario(
    name: str,
    seed: int = 7,
    budget_scale: float = 1.0,
    cfg: Config = DEFAULT,
) -> ReportDocument:
    """Execute a scenario's checks in order and compare against expectations.

    A check's wall time runs from the previous check (the first from the start
    of the run), so the times add up to the whole run.
    """
    scenario = REGISTRY.get(name)
    if scenario is None:
        raise UnknownScenario(name)
    checks = []
    start = time.perf_counter()
    for check in scenario.run(seed, cfg, budget_scale):
        now = time.perf_counter()
        check.wall_time, start = now - start, now
        checks.append(check)
    return ReportDocument(
        scenario=name,
        description=scenario.description,
        note=scenario.note,
        seed=seed,
        config_snapshot=cfg.snapshot(),
        checks=checks,
        overall_pass=all(c.matched for c in checks),
    )
