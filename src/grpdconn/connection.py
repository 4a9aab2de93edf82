"""Ehresmann connections on groupoid submersions and their compatibility checks.

A connection is represented by its horizontal-lift operator ``hor`` (arrow,
base-arrow tangent) -> total tangent, together with an independent
base-object lift ``hor0``. Compatibility of the two along units is a checked
clause, never an assumption. Verdicts use three bands: pass below tol_mult,
fail above 10*tol_mult, Inconclusive in between.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT, Config
from .errors import (
    KernelEmbeddingNotPatchConstant,
    KernelNotExposed,
    NotAFamily,
    NotAnActionMorphism,
    RankDeficientLift,
)
from .geometry import Point, Space, Tangent
from .groupoid import (
    CheckReport,
    Groupoid,
    GroupoidMorphism,
    _Worst,
    _coords,
    points,
    rng_for,
)
from .linalg import (
    apply_rows,
    intersect_columns,
    min_principal_angle,
    nullspace,
    rank,
    solve_least_squares,
    subspace_residual,
)
from .smoothmap import PatchJacobian, SmoothMap, jacobian
from .tangent import SubbundleFrame, tm_apply

MULTIPLICATIVE = "Multiplicative"
NOT_MULTIPLICATIVE = "NotMultiplicative"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class RowLift:
    """A lift given on blocks of coordinate rows.

    ``rows(patch, C, W)`` lifts, at every row of a ``(k, dim)`` block ``C``
    of points on one patch, the tangent coefficients in the same row of the
    ``(k, m)`` block ``W``, and returns the lifts as a ``(k, dim)`` array; a
    row's lift depends on nothing but its own rows of ``C`` and ``W``.
    Called as ``lift(p, w)`` it makes the one-row call and returns a Tangent
    at ``p``; the base point of ``w`` is not read.
    """

    rows: Callable[[int, np.ndarray, np.ndarray], np.ndarray]

    def __call__(self, p: Point, w: Tangent) -> Tangent:
        out = self.rows(p.patch_index, np.array([p.coords]), np.array([w.coeffs]))
        return Tangent(p, tuple(out[0].tolist()))


def lift_rows(lift, space: Space, base_map: SmoothMap):
    """The row form of a lift on ``space``: ``lift.rows`` for a
    :class:`RowLift`; any other lift goes through this per-row adapter, which
    calls it at each row with the tangent based at ``base_map`` of the row."""
    if isinstance(lift, RowLift):
        return lift.rows

    def rows(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
        return np.array([lift(g, Tangent(base_map(g), tuple(w))).coeffs
                         for g, w in zip(points(space, p, C), W.tolist())],
                        dtype=float).reshape(C.shape)

    return rows


@dataclass
class Connection:
    morphism: GroupoidMorphism
    hor: Callable[[Point, Tangent], Tangent]
    hor0: Callable[[Point, Tangent], Tangent]
    metadata: dict = field(default_factory=dict)

    @property
    def total(self) -> Groupoid:
        return self.morphism.total

    @property
    def base(self) -> Groupoid:
        return self.morphism.base_grpd

    def lift_frame(self, g: Point) -> SubbundleFrame:
        """Frame of Hor_g: lifts of a coordinate basis at pi(g)."""
        return _basis_lifts(self.hor, g, self.morphism.arrow_map(g))

    def base_lift_frame(self, x: Point) -> SubbundleFrame:
        return _basis_lifts(self.hor0, x, self.morphism.object_map(x))


def _basis_lifts(lift, p: Point, q: Point) -> SubbundleFrame:
    """The frame at ``p`` of ``lift``'s lifts of the coordinate basis at ``q``."""
    return SubbundleFrame(p, [lift(p, Tangent(q, tuple(e)))
                              for e in np.eye(q.patch.dim).tolist()])


@dataclass
class MultiplicativityReport:
    verdict: str
    residuals: dict[str, float]
    witnesses: dict[str, dict]
    max_residual: float
    n_samples: int
    seed: int
    inconclusive_samples: int = 0

    @property
    def passed(self) -> bool:
        return self.verdict == MULTIPLICATIVE


def _banded_verdict(max_residual: float, tol: float) -> str:
    if max_residual < tol:
        return MULTIPLICATIVE
    if max_residual > 10.0 * tol:
        return NOT_MULTIPLICATIVE
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# complement check


def complement_check(c: Connection, n_samples: int, seed: int, cfg: Config = DEFAULT) -> CheckReport:
    """Right-inverse, linearity, rank, and transversality of the lift.

    At sampled arrows: T pi ∘ hor = id, hor linear, dim(im hor) +
    dim(ker T pi) = dim T_g G, and the minimal principal angle between
    im(hor) and ker T pi exceeds the configured angle tolerance. The base
    lift is checked the same way against T pi0.
    """
    worst = _Worst()
    pi = c.morphism
    for i in range(n_samples):
        rng = rng_for(seed, 41, i)
        g = pi.total.arrow_sampler(rng)
        h = pi.arrow_map(g)
        Dpi = jacobian(pi.arrow_map, g)
        fr = c.lift_frame(g)
        L = fr.matrix()
        w = {"g": _coords(g)}
        dim_h = h.patch.dim
        proj = Dpi @ L - np.eye(dim_h) if dim_h else np.zeros((0, 0))
        if proj.size:
            worst.record("right_inverse", float(np.max(np.abs(proj))), w)
        # linearity: hor(g, a v1 + v2) = a hor(v1) + hor(v2)
        if dim_h:
            a = float(rng.uniform(-2, 2))
            v1 = tuple(rng.uniform(-1, 1, dim_h))
            v2 = tuple(rng.uniform(-1, 1, dim_h))
            combo = tuple(a * x + y for x, y in zip(v1, v2))
            lhs = c.hor(g, Tangent(h, combo))
            rhs = a * c.hor(g, Tangent(h, v1)) + c.hor(g, Tangent(h, v2))
            worst.record(
                "linearity",
                max(abs(p - q) for p, q in zip(lhs.coeffs, rhs.coeffs)) if lhs.coeffs else 0.0,
                w,
            )
        vert = nullspace(Dpi, cfg)
        if rank(L, cfg) < L.shape[1]:
            raise RankDeficientLift(f"lift frame at {g.coords} is rank-deficient")
        if L.shape[1] + vert.shape[1] != g.patch.dim:
            worst.record("dimension_split", 1.0, w)
        angle = min_principal_angle(L, vert, cfg)
        worst.record("transversality", max(0.0, cfg.conn_angle_tol - angle) / max(cfg.conn_angle_tol, 1e-300), w)

        x = pi.total.object_sampler(rng)
        y = pi.object_map(x)
        Dpi0 = jacobian(pi.object_map, x)
        fr0 = c.base_lift_frame(x)
        if y.patch.dim:
            proj0 = Dpi0 @ fr0.matrix() - np.eye(y.patch.dim)
            worst.record("base_right_inverse", float(np.max(np.abs(proj0))), {"x": _coords(x)})
    return worst.report(f"complement[{pi.name}]", cfg.groupoid_tol_alg * 10, n_samples, seed)


# ---------------------------------------------------------------------------
# pointwise multiplicativity


def product_clause_residual(
    c: Connection, g: Point, h: Point, a: Tangent, b: Tangent
) -> tuple[float, tuple, tuple]:
    """Residual of Tm(hor_g(a), hor_h(b)) = hor_{gh}(Tm_H(a, b)) in the flat gauge.

    Returns (residual, produced coefficients, required coefficients).
    """
    G = c.total
    H = c.base
    gh = G.compose(g, h)
    lhs = tm_apply(G, g, h, c.hor(g, a), c.hor(h, b))
    ab = tm_apply(H, c.morphism.arrow_map(g), c.morphism.arrow_map(h), a, b)
    base_prod = H.compose(c.morphism.arrow_map(g), c.morphism.arrow_map(h))
    rhs = c.hor(gh, Tangent(base_prod, tuple(ab)))
    resid = float(np.linalg.norm(lhs - np.asarray(rhs.coeffs))) if len(lhs) else 0.0
    return resid, tuple(float(v) for v in lhs), tuple(rhs.coeffs)


def _solve_composable_base_pair(H: Groupoid, h1: Point, h2: Point, rng):
    """Random base tangents (a, b) at (h1, h2) with Ts(a) = Tt(b)."""
    dim = h1.patch.dim
    a = np.asarray(rng.uniform(-1, 1, dim))
    Ts = jacobian(H.src, h1)
    Tt = jacobian(H.tgt, h2)
    b0 = np.asarray(rng.uniform(-1, 1, dim))
    correction, resid = solve_least_squares(Tt, Ts @ a - Tt @ b0)
    b = b0 + correction
    if resid > 1e-8:
        return None
    return Tangent(h1, tuple(a)), Tangent(h2, tuple(b))


def multiplicativity_check_pointwise(
    c: Connection, n_samples: int, seed: int, cfg: Config = DEFAULT
) -> MultiplicativityReport:
    """Pointwise residuals of the six compatibility clauses of the lift.

    Clauses: source, target, unit, inverse, product, and the base
    restriction Hor ∩ TM = Hor0 at units. Residuals are flat-gauge norms.
    """
    pi = c.morphism
    G, H = pi.total, pi.base_grpd
    worst = _Worst()
    for i in range(n_samples):
        rng = rng_for(seed, 43, i)
        g = G.arrow_sampler(rng)
        hg = pi.arrow_map(g)
        dim_h = hg.patch.dim
        a = Tangent(hg, tuple(rng.uniform(-1, 1, dim_h)))
        lift = c.hor(g, a)
        w = {"g": _coords(g), "a": list(a.coeffs)}

        # source, target and inverse clauses: Tm(hor_g(a)) = lift_{m(g)}(Tm_H(a)),
        # lifted by hor0 at the units s(g), t(g) and by hor at g^-1
        for clause, m_G, m_H, lift_at in (("source", G.src, H.src, c.hor0),
                                          ("target", G.tgt, H.tgt, c.hor0),
                                          ("inverse", G.inv, H.inv, c.hor)):
            Tm_G = jacobian(m_G, g)
            Tm_H = jacobian(m_H, hg)
            rhs = lift_at(m_G(g), Tangent(m_H(hg), tuple(Tm_H @ np.asarray(a.coeffs))))
            lhs = Tm_G @ np.asarray(lift.coeffs)
            worst.record(clause, float(np.linalg.norm(lhs - np.asarray(rhs.coeffs))), w)

        # unit clause: hor_{u(x)}(Tu_H(w)) = Tu_G(hor0(x, w))
        x = G.object_sampler(rng)
        y = pi.object_map(x)
        dim_n = y.patch.dim
        wv = Tangent(y, tuple(rng.uniform(-1, 1, dim_n)))
        ux = G.unit(x)
        Tu_H = jacobian(H.unit, y)
        Tu_G = jacobian(G.unit, x)
        lhs_t = c.hor(ux, Tangent(H.unit(y), tuple(Tu_H @ np.asarray(wv.coeffs))))
        rhs_v = Tu_G @ np.asarray(c.hor0(x, wv).coeffs)
        worst.record(
            "unit", float(np.linalg.norm(np.asarray(lhs_t.coeffs) - rhs_v)), {"x": _coords(x)}
        )

        # base restriction: Hor_{u(x)} ∩ TM = Tu(Hor0_x)
        fr = c.lift_frame(ux)
        inter = intersect_columns(fr.matrix(), Tu_G, cfg)
        base_fr = c.base_lift_frame(x).matrix()
        if base_fr.shape[1] == 0:
            target_fr = np.zeros((Tu_G.shape[0], 0))
        else:
            target_fr = Tu_G @ base_fr
        resid = 0.0
        dim_target = rank(target_fr, cfg)
        if inter.shape[1] != dim_target:
            resid = 1.0
        else:
            for j in range(inter.shape[1]):
                resid = max(
                    resid,
                    subspace_residual(
                        inter[:, j], [target_fr[:, k] for k in range(target_fr.shape[1])], cfg
                    )
                    if target_fr.shape[1]
                    else float(np.linalg.norm(inter[:, j])),
                )
        worst.record("base_restriction", resid, {"x": _coords(x)})

        # product clause
        g1, h1 = G.pair_sample(rng)
        pair = _solve_composable_base_pair(H, pi.arrow_map(g1), pi.arrow_map(h1), rng)
        if pair is not None:
            a1, b1 = pair
            residual, produced, required = product_clause_residual(c, g1, h1, a1, b1)
            worst.record(
                "product",
                residual,
                {
                    "g": _coords(g1),
                    "h": _coords(h1),
                    "a": list(a1.coeffs),
                    "b": list(b1.coeffs),
                    "produced": list(produced),
                    "required": list(required),
                },
            )

    verdict = _banded_verdict(worst.max_residual, cfg.conn_tol_mult)
    return MultiplicativityReport(
        verdict=verdict,
        residuals=worst.clauses,
        witnesses={"worst": worst.witness} if worst.witness else {},
        max_residual=worst.max_residual,
        n_samples=n_samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# induced connection on the kernel


def kernel_connection(c: Connection, cfg: Config = DEFAULT) -> Connection:
    """Restrict the lift to the kernel family: hor_K(k, w) = hor(k, Tu_H(w)).

    The kernel presentation must be exposed by the catalog, and its embedding
    and H's unit must declare patch-constant Jacobians (a
    :class:`PatchJacobian`, as every catalog map does). The lift is a
    :class:`RowLift`: on each kernel patch the embedding is then affine, so a
    block of rows is embedded by its Jacobian and the offset read off at the
    first row seen there, lifted by ``c.hor`` on rows (through the per-row
    adapter when ``c.hor`` is not a RowLift), and pulled back through the
    pseudo-inverse of that Jacobian. The worst tangency residual of the
    pullback is recorded in the returned connection's metadata. The lift
    reads nothing from ``cfg``; the parameter keeps the call signature.
    """
    pi = c.morphism
    if pi.kernel is None:
        raise KernelNotExposed(f"{pi.name} does not expose a kernel presentation")
    K = pi.kernel.groupoid
    embed = pi.kernel.embed
    family = pi.kernel.family
    H = pi.base_grpd
    for m in (embed, H.unit):
        if not isinstance(m.jac, PatchJacobian):
            raise KernelEmbeddingNotPatchConstant(
                f"{pi.name}: {m.name} does not declare a PatchJacobian")
    worst_tangency = [0.0]
    lift = lift_rows(c.hor, pi.total.arrows, pi.arrow_map)
    per_patch: dict = {}

    def on_patch(p: int, C: np.ndarray):
        """Image patch, Jacobian, offset and pseudo-inverse of the embedding
        on kernel patch p, and H's unit Jacobian there."""
        if p not in per_patch:
            k = Point(K.arrows, p, tuple(C[0].tolist()))
            J = jacobian(embed, k)
            g = embed(k)
            offset = np.asarray(g.coords) - J @ np.asarray(k.coords)
            Tu_H = jacobian(H.unit, family.arrow_map(k))
            per_patch[p] = g.patch_index, J, offset, np.linalg.pinv(J), Tu_H
        return per_patch[p]

    @RowLift
    def hor_K(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
        q, J, offset, pull, Tu_H = on_patch(p, C)
        lifted = lift(q, apply_rows(J, C) + offset, apply_rows(Tu_H, W))
        coeffs = apply_rows(pull, lifted)
        resid = np.linalg.norm(apply_rows(J, coeffs) - lifted, axis=1)
        worst_tangency[0] = max(worst_tangency[0], float(np.max(resid, initial=0.0)))
        return coeffs

    return Connection(
        morphism=family,
        hor=hor_K,
        hor0=c.hor0,
        metadata={
            "provenance": f"kernel[{c.metadata.get('provenance', pi.name)}]",
            "claimed_multiplicative": c.metadata.get("claimed_multiplicative", False),
            "tangency_tracker": worst_tangency,
        },
    )


# ---------------------------------------------------------------------------
# action criterion


@dataclass
class Rejection:
    reason: str
    worst_residual: float
    witness: Optional[dict]
    probe_residuals: dict[str, float] = field(default_factory=dict)


def action_connection(
    am: GroupoidMorphism,
    hor0: Callable[[Point, Tangent], Tangent],
    n_samples: int = 50,
    seed: int = 0,
    cfg: Config = DEFAULT,
):
    """Candidate lift on an action morphism, accepted iff the base connection
    is invariant under the tangent action.

    The candidate is hor((h, x), a) = (a, hor0(x, Ts_H(a))). Invariance is
    checked at samples via the action differential (the target map of the
    action groupoid), including the infinitesimal clause on a basis of the
    vertical directions at units (the Lie algebra for group actions; empty
    for discrete groups). Returns the Connection on pass, else a Rejection
    with the worst residual and witness.
    """
    if not am.metadata.get("action_morphism"):
        raise NotAnActionMorphism(f"{am.name} is not a catalog action morphism")
    G, H = am.total, am.base_grpd
    act = G.tgt  # the action map (h, x) -> h·x on action-groupoid arrows
    Dpi = am.arrow_map
    dim_G = G.arrows.dim
    dim_H = H.arrows.dim

    worst = 0.0
    witness = None
    probe_residuals: dict[str, float] = {}

    def invariance_residual(g: Point, a_H: np.ndarray, w_coeffs: np.ndarray):
        """|| Ta(a_H, w) - hor0(h·x, Tt_H(a_H)) || at an action arrow g=(h,x)."""
        J_act = jacobian(act, g)
        J_pi = jacobian(Dpi, g)
        # assemble the total tangent with prescribed H-part and M-part
        total, resid = solve_least_squares(
            np.vstack([J_pi, jacobian(G.src, g)]),
            np.concatenate([a_H, w_coeffs]),
        )
        if resid > 1e-8:
            return None
        pushed = J_act @ total
        h_img = am.arrow_map(g)
        Tt_H = jacobian(H.tgt, h_img)
        expected = c_hor0_at(act(g), Tt_H @ a_H)
        return float(np.linalg.norm(pushed - expected))

    def c_hor0_at(x: Point, v: np.ndarray) -> np.ndarray:
        y = am.object_map(x)
        return np.asarray(hor0(x, Tangent(y, tuple(v))).coeffs)

    for i in range(n_samples):
        rng = rng_for(seed, 47, i)
        g = G.arrow_sampler(rng)
        h_img = am.arrow_map(g)
        a_H = np.asarray(rng.uniform(-1, 1, dim_H))
        Ts_H = jacobian(H.src, h_img)
        x = G.src(g)
        w = c_hor0_at(x, Ts_H @ a_H)
        r = invariance_residual(g, a_H, w)
        if r is not None and r > worst:
            worst = r
            witness = {"g": _coords(g), "a_H": list(a_H), "clause": "invariance"}

    # infinitesimal clause: vertical directions at units (empty when H discrete)
    probe_points = list(G.probe_objects) or [
        G.object_sampler(rng_for(seed, 53, j)) for j in range(4)
    ]
    for j, x in enumerate(probe_points):
        ux = G.unit(x)
        h_img = am.arrow_map(ux)
        Ts_H = jacobian(H.src, h_img)
        lie = nullspace(Ts_H, cfg)
        for k in range(lie.shape[1]):
            xi = lie[:, k]
            r = invariance_residual(ux, xi, np.zeros(x.patch.dim))
            if r is None:
                continue
            key = f"probe[{j}]"
            probe_residuals[key] = max(probe_residuals.get(key, 0.0), r)
            if r > worst:
                worst = r
                witness = {"x": _coords(x), "xi": list(xi), "clause": "infinitesimal"}

    if worst > cfg.conn_tol_mult:
        return Rejection(
            reason="base connection is not invariant under the action",
            worst_residual=worst,
            witness=witness,
            probe_residuals=probe_residuals,
        )

    def hor(g: Point, a: Tangent) -> Tangent:
        J_pi = jacobian(Dpi, g)
        Ts_H = jacobian(H.src, a.base)
        x = G.src(g)
        w = c_hor0_at(x, Ts_H @ np.asarray(a.coeffs))
        total, _ = solve_least_squares(
            np.vstack([J_pi, jacobian(G.src, g)]),
            np.concatenate([np.asarray(a.coeffs), w]),
        )
        return Tangent(g, tuple(total))

    return Connection(
        morphism=am,
        hor=hor,
        hor0=hor0,
        metadata={"provenance": "action_candidate", "claimed_multiplicative": True},
    )


# ---------------------------------------------------------------------------
# multiplicative vector-field machinery


def multiplicative_field_report(
    G: Groupoid,
    X_arrows: Callable[[Point], Tangent],
    X_objects: Callable[[Point], Tangent],
    n_samples: int,
    seed: int,
    cfg: Config = DEFAULT,
    name: str = "multiplicative_field",
) -> CheckReport:
    """Residuals of Ts∘X = X_M∘s, Tt∘X = X_M∘t, Tm(X, X) = X∘m at samples."""
    worst = _Worst()
    for i in range(n_samples):
        rng = rng_for(seed, 59, i)
        g = G.arrow_sampler(rng)
        Xg = np.asarray(X_arrows(g).coeffs)
        w = {"g": _coords(g)}
        Ts = jacobian(G.src, g)
        Tt = jacobian(G.tgt, g)
        worst.record(
            "source_projectable",
            float(np.linalg.norm(Ts @ Xg - np.asarray(X_objects(G.src(g)).coeffs))),
            w,
        )
        worst.record(
            "target_projectable",
            float(np.linalg.norm(Tt @ Xg - np.asarray(X_objects(G.tgt(g)).coeffs))),
            w,
        )
        g1, h1 = G.pair_sample(rng)
        lhs = tm_apply(G, g1, h1, X_arrows(g1), X_arrows(h1))
        rhs = np.asarray(X_arrows(G.compose(g1, h1)).coeffs)
        worst.record(
            "product", float(np.linalg.norm(lhs - rhs)), {"g": _coords(g1), "h": _coords(h1)}
        )
    return worst.report(name, cfg.conn_tol_mult, n_samples, seed)


def multiplicative_vf_lift(
    c: Connection,
    X: Callable[[Point], Tangent],
    n_samples: int,
    seed: int,
    cfg: Config = DEFAULT,
):
    """Lift a base vector field through a family connection and check that the
    lift is a multiplicative vector field. Returns (field, report)."""
    pi = c.morphism
    if not pi.metadata.get("family") and not pi.base_grpd.metadata.get("is_unit_groupoid"):
        raise NotAFamily(f"{pi.name} is not a family of groupoids")

    def X_G(g: Point) -> Tangent:
        return c.hor(g, X(pi.arrow_map(g)))

    def X_M(x: Point) -> Tangent:
        return c.hor0(x, X(pi.object_map(x)))

    report = multiplicative_field_report(
        pi.total, X_G, X_M, n_samples, seed, cfg, name=f"vf_lift[{pi.name}]"
    )
    return X_G, report
