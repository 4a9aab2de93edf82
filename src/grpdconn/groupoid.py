"""Lie groupoids as coordinate data: structure maps, samplers, and probes.

A groupoid carries object and arrow spaces, the five structure maps as
coordinate functions, and closed-form samplers (rejection sampling is not
allowed; fibres have measure zero in arrow space). Checks are sampled and
report worst residuals with witnesses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Config
from .errors import SamplerFailure
from .geometry import Point, Space, distance
from .linalg import rank
from .paths import BasePath
from .smoothmap import PairMap, SmoothMap, jacobian


def rng_for(seed: int, *salts: int) -> np.random.Generator:
    """Deterministic generator addressed by (seed, salts...)."""
    return np.random.default_rng([int(seed) & 0x7FFFFFFF, *(int(s) & 0x7FFFFFFF for s in salts)])


@dataclass(frozen=True)
class ArrayKernels:
    """Broadcasting structure maps on blocks of coordinate rows.

    A block is a patch index with a ``(k, dim)`` array of coordinates on that
    patch. ``nodes(p, X, n)`` is the target-fibre quadrature for node count n
    at every object row of the block X, as one ``(q, slots, H, w)`` block per
    node patch q: ``H`` is ``(k, m, dim)``, the m nodes on q of every object
    row, ``slots`` (m,) their places in each row's node order and ``w`` (m,)
    their weights. Every object of a groupoid has the same node layout.
    ``mul(p, G, q, H)`` composes row i of G with row i of H, and a one-row G
    with every row of H; ``src(p, C)`` returns a block; ``unit(p, X)`` takes
    a block of objects to the block of their units;
    ``inv(p, C)`` returns a block and inv's Jacobians as a ``(k, dim, dim)``
    array. The averaging applies the ``mul`` partials at one row of a patch
    pair to every row, so ``haar_average`` and
    ``HaarFiberQuadrature.from_groupoid`` refuse a groupoid whose ``mul.jac2``
    is not a ``PatchJacobian``. Treat returned arrays as read-only.
    """

    nodes: Callable[[int, np.ndarray, int], list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]]
    mul: Callable[[int, np.ndarray, int, np.ndarray], tuple[int, np.ndarray]]
    inv: Callable[[int, np.ndarray], tuple[int, np.ndarray, np.ndarray]]
    src: Callable[[int, np.ndarray], tuple[int, np.ndarray]]
    unit: Callable[[int, np.ndarray], tuple[int, np.ndarray]]


def points(space: Space, patch_index: int, rows: np.ndarray) -> list[Point]:
    """The rows of a coordinate block as Points of ``space``."""
    return [Point(space, patch_index, tuple(r)) for r in rows.tolist()]


@dataclass
class Groupoid:
    name: str
    objects: Space
    arrows: Space
    src: SmoothMap
    tgt: SmoothMap
    unit: SmoothMap
    inv: SmoothMap
    mul: PairMap
    arrow_sampler: Callable[[np.random.Generator], Point]
    object_sampler: Callable[[np.random.Generator], Point]
    sfiber_sampler: Callable[[Point, np.random.Generator], Point]
    tfiber_sampler: Callable[[Point, np.random.Generator], Point]
    sfiber_grid: Optional[Callable[[Point, int], list[Point]]] = None
    probe_objects: tuple[Point, ...] = ()
    metadata: dict = field(default_factory=dict)
    kernels: Optional[ArrayKernels] = None

    def pair_sample(self, rng: np.random.Generator) -> tuple[Point, Point]:
        """Composable pair (g, h) with src(g) = tgt(h), exact by construction."""
        g = self.arrow_sampler(rng)
        h = self.tfiber_sampler(self.src(g), rng)
        return g, h

    def triple_sample(self, rng) -> tuple[Point, Point, Point]:
        g, h = self.pair_sample(rng)
        k = self.tfiber_sampler(self.src(h), rng)
        return g, h, k

    def compose(self, g: Point, h: Point) -> Point:
        return self.mul(g, h)

    def sfiber_cover(self, x: Point, n: int, rng) -> list[Point]:
        if self.sfiber_grid is not None:
            return self.sfiber_grid(x, n)
        return [self.sfiber_sampler(x, rng) for _ in range(n)]


@dataclass
class KernelData:
    """Closed-form presentation of ker(pi) as a groupoid over M.

    ``embed`` maps kernel arrows into the total arrow space; ``family`` is the
    induced family morphism onto the unit groupoid of N.
    """

    groupoid: Groupoid
    embed: SmoothMap
    family: "GroupoidMorphism"


@dataclass
class TransportSamplers:
    """Closed-form transport scenarios attached to a morphism.

    ``path_with_start`` draws a base path in H's arrows together with a start
    arrow in the pi-fibre of its initial point. ``composable`` draws a pair of
    pointwise-composable base paths with composable start arrows.
    ``object_path_with_start`` draws a base-object path in N with a start
    object in the pi0-fibre.
    """

    path_with_start: Callable[[np.random.Generator], tuple[BasePath, Point]]
    composable: Optional[
        Callable[[np.random.Generator], tuple[BasePath, BasePath, Point, Point]]
    ] = None
    object_path_with_start: Optional[
        Callable[[np.random.Generator], tuple[BasePath, Point]]
    ] = None


@dataclass
class GroupoidMorphism:
    name: str
    total: Groupoid
    base_grpd: Groupoid
    arrow_map: SmoothMap
    object_map: SmoothMap
    fiber_sampler: Optional[Callable[[Point, np.random.Generator], Point]] = None
    object_fiber_sampler: Optional[Callable[[Point, np.random.Generator], Point]] = None
    kernel: Optional[KernelData] = None
    transport: Optional[TransportSamplers] = None
    metadata: dict = field(default_factory=dict)


@dataclass
class CheckReport:
    name: str
    passed: bool
    max_residual: float
    clauses: dict[str, float]
    witness: Optional[dict]
    n_samples: int
    seed: int


class _Worst:
    """Track the worst residual per clause with its witness."""

    def __init__(self):
        self.clauses: dict[str, float] = {}
        self.witness = None
        self.max_residual = 0.0

    def record(self, clause: str, residual: float, witness: dict):
        residual = float(residual)
        if not math.isfinite(residual):
            residual = math.inf
        if residual > self.clauses.get(clause, -1.0):
            self.clauses[clause] = residual
        if residual > self.max_residual:
            self.max_residual = residual
            self.witness = dict(witness, clause=clause, residual=residual)

    def report(self, name: str, tol: float, n: int, seed: int) -> CheckReport:
        return CheckReport(
            name=name,
            passed=self.max_residual < tol,
            max_residual=self.max_residual,
            clauses=self.clauses,
            witness=self.witness,
            n_samples=n,
            seed=seed,
        )


def _coords(p: Point) -> dict:
    return {"patch": p.patch_index, "coords": list(p.coords)}


def check_axioms(G: Groupoid, n_samples: int, seed: int, cfg: Config = DEFAULT) -> CheckReport:
    """Sampled residuals of the groupoid axioms; pass iff below tol_alg."""
    worst = _Worst()
    try:
        for i in range(n_samples):
            rng = rng_for(seed, 11, i)
            x = G.object_sampler(rng)
            ux = G.unit(x)
            worst.record("unit_source", distance(G.src(ux), x), {"object": _coords(x)})
            worst.record("unit_target", distance(G.tgt(ux), x), {"object": _coords(x)})

            g, h = G.pair_sample(rng)
            gh = G.compose(g, h)
            w = {"g": _coords(g), "h": _coords(h)}
            worst.record("product_source", distance(G.src(gh), G.src(h)), w)
            worst.record("product_target", distance(G.tgt(gh), G.tgt(g)), w)
            worst.record(
                "right_unit", distance(G.compose(g, G.unit(G.src(g))), g), {"g": _coords(g)}
            )
            worst.record(
                "left_unit", distance(G.compose(G.unit(G.tgt(g)), g), g), {"g": _coords(g)}
            )
            gi = G.inv(g)
            worst.record("inverse_source", distance(G.src(gi), G.tgt(g)), {"g": _coords(g)})
            worst.record(
                "right_inverse", distance(G.compose(g, gi), G.unit(G.tgt(g))), {"g": _coords(g)}
            )
            worst.record(
                "left_inverse", distance(G.compose(gi, g), G.unit(G.src(g))), {"g": _coords(g)}
            )

            a, b, c = G.triple_sample(rng)
            assoc = distance(G.compose(G.compose(a, b), c), G.compose(a, G.compose(b, c)))
            worst.record("associativity", assoc, {"g": _coords(a), "h": _coords(b), "k": _coords(c)})
    except SamplerFailure:
        raise
    except Exception as exc:  # surface sampler/map breakage with context
        raise SamplerFailure(f"axiom check on {G.name} failed to sample: {exc}") from exc
    return worst.report(f"axioms[{G.name}]", cfg.groupoid_tol_alg, n_samples, seed)


def morphism_check(
    pi: GroupoidMorphism, n_samples: int, seed: int, cfg: Config = DEFAULT
) -> CheckReport:
    """Functoriality residuals of a groupoid morphism."""
    G, H = pi.total, pi.base_grpd
    worst = _Worst()
    for i in range(n_samples):
        rng = rng_for(seed, 13, i)
        x = G.object_sampler(rng)
        worst.record(
            "unit_compat",
            distance(pi.arrow_map(G.unit(x)), H.unit(pi.object_map(x))),
            {"object": _coords(x)},
        )
        g, h = G.pair_sample(rng)
        worst.record(
            "source_compat",
            distance(H.src(pi.arrow_map(g)), pi.object_map(G.src(g))),
            {"g": _coords(g)},
        )
        worst.record(
            "target_compat",
            distance(H.tgt(pi.arrow_map(g)), pi.object_map(G.tgt(g))),
            {"g": _coords(g)},
        )
        worst.record(
            "product_compat",
            distance(
                pi.arrow_map(G.compose(g, h)),
                H.compose(pi.arrow_map(g), pi.arrow_map(h)),
            ),
            {"g": _coords(g), "h": _coords(h)},
        )
    return worst.report(f"morphism[{pi.name}]", cfg.groupoid_tol_alg, n_samples, seed)


@dataclass
class FibrationVerdict:
    submersion_ok: bool
    min_singular_value: float
    shriek_submersion_ok: bool
    shriek_min_singular_value: float
    star_surjective_heuristic: bool
    worst_uncovered_distance: float
    uniform_ok: bool
    uniform_rank: int
    uniform_rank_required: int
    n_samples: int
    seed: int
    note: str = "star-surjectivity is a sampling heuristic, not a certificate"


def _coord_delta(target: Point, at: Point):
    """Per-coordinate difference target - at, wrapped on angle coordinates."""
    from .geometry import wrap_difference

    patch = at.patch
    return np.array(
        [
            wrap_difference(t, a) if patch.is_circ(i) else t - a
            for i, (t, a) in enumerate(zip(target.coords, at.coords))
        ]
    )


def _refine_fiber_candidate(pi, G, x, h, g, best, steps: int = 4):
    """Gauss-Newton refinement of a source-fibre candidate toward a target.

    Moves the candidate inside s^{-1}(x) (to first order) to reduce
    dist(pi(g), h); stops on patch mismatch, exclusion entry, or loss of
    progress. Exact on the catalog's affine fibres, heuristic elsewhere.
    """
    if g is None or not math.isfinite(best) or best < 1e-12:
        return best
    for _ in range(steps):
        img = pi.arrow_map(g)
        if img.patch_index != h.patch_index:
            return best
        J = np.vstack([jacobian(pi.arrow_map, g), jacobian(G.src, g)])
        rhs = np.concatenate([_coord_delta(h, img), np.zeros(x.patch.dim)])
        step, *_ = np.linalg.lstsq(J, rhs, rcond=None)
        cand = Point.raw(g.space, g.patch_index,
                         tuple(c + s for c, s in zip(g.coords, step)))
        if cand.patch.exclusion_violation(cand.patch._normalize(cand.coords)) is not None:
            return best
        if distance(G.src(cand), x) > 1e-6:
            return best
        d = distance(pi.arrow_map(cand), h)
        if d >= best:
            return best
        best, g = d, cand
    return best


def fibration_probe(
    pi: GroupoidMorphism, n_samples: int, seed: int, cfg: Config = DEFAULT
) -> FibrationVerdict:
    """Numerical probes for the fibration hierarchy of a morphism.

    submersion/shriek/uniform are singular-value rank tests at samples;
    star-surjectivity is a nearest-distance covering heuristic over
    source-fibre samples (probe objects of the total groupoid always
    included).
    """
    G, H = pi.total, pi.base_grpd
    dim_G = G.arrows.dim
    dim_H = H.arrows.dim
    dim_M = G.objects.dim
    dim_N = H.objects.dim

    min_sv = math.inf
    min_sv_shriek = math.inf
    uniform_rank_seen = dim_G + 1
    rank_required = 2 * dim_M + dim_H - 2 * dim_N
    shriek_rank = dim_H + dim_M - dim_N

    for i in range(n_samples):
        rng = rng_for(seed, 17, i)
        g = G.arrow_sampler(rng)
        Dpi = jacobian(pi.arrow_map, g)
        sv = np.linalg.svd(Dpi, compute_uv=False)
        min_sv = min(min_sv, float(sv[dim_H - 1]) if dim_H else math.inf)

        Ds = jacobian(G.src, g)
        Dt = jacobian(G.tgt, g)
        J_shriek = np.vstack([Dpi, Ds])
        sv2 = np.linalg.svd(J_shriek, compute_uv=False)
        if shriek_rank:
            min_sv_shriek = min(min_sv_shriek, float(sv2[shriek_rank - 1]))

        J_star = np.vstack([Dt, Dpi, Ds])
        uniform_rank_seen = min(uniform_rank_seen, rank(J_star, cfg))

    worst_uncovered = 0.0
    objects = list(G.probe_objects)
    for i in range(max(4, n_samples // 8)):
        objects.append(G.object_sampler(rng_for(seed, 19, i)))
    for j, x in enumerate(objects):
        rng = rng_for(seed, 23, j)
        y = pi.object_map(x)
        candidates = G.sfiber_cover(x, min(64, cfg.groupoid_fiber_grid), rng)
        if not candidates:
            raise SamplerFailure(f"empty source-fibre sample at {x.coords}")
        for k in range(8):
            h = H.sfiber_sampler(y, rng_for(seed, 29, j, k))
            best, g_best = math.inf, None
            for cand in candidates:
                d = distance(pi.arrow_map(cand), h)
                if d < best:
                    best, g_best = d, cand
            best = _refine_fiber_candidate(pi, G, x, h, g_best, best)
            worst_uncovered = max(worst_uncovered, best)

    return FibrationVerdict(
        submersion_ok=min_sv > cfg.groupoid_sv_tol,
        min_singular_value=min_sv,
        shriek_submersion_ok=min_sv_shriek > cfg.groupoid_sv_tol,
        shriek_min_singular_value=min_sv_shriek,
        star_surjective_heuristic=worst_uncovered < cfg.groupoid_cover_tol,
        worst_uncovered_distance=worst_uncovered,
        uniform_ok=uniform_rank_seen >= rank_required,
        uniform_rank=int(uniform_rank_seen),
        uniform_rank_required=int(rank_required),
        n_samples=n_samples,
        seed=seed,
    )
