"""Constructive existence results: canonical lifts and their certificates.

Covers the pullback (Morita) lift, gluing over trivializing atlases, fibre
averaging against normalized invariant quadratures on proper groupoids,
invariant exhaustion functions, the lexicographic level schedule, and the
complete-connection builder whose certificate is interval-verified.

Atlas scope: trivializing charts act on families over a one-dimensional base
whose fibre carries one line coordinate, by fibre shifts x -> x - sigma(y).
That covers every shipped scenario; richer chart classes would need their
own interval extensions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Config
from .errors import (
    AtlasMismatch,
    CertificateFailure,
    InvalidParams,
    NonProjectableInput,
    NotASubmersion,
    NotSourceProper,
    PartitionGap,
    QuadratureMissing,
    SupremumUnbounded,
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
from .connection import Connection, RowLift, lift_rows, multiplicative_field_report
from .intervals import Interval, fmt_bound
from .linalg import apply_rows
from .smoothmap import PatchJacobian, jacobian


# ---------------------------------------------------------------------------
# Morita (pullback) connections


def morita_connection(pi: GroupoidMorphism, hor0) -> Connection:
    """The unique lift on a pullback projection extending a base lift.

    For arrows (x, h, y) of the pullback groupoid the lift of a base tangent
    ``a`` is (hor0(x, Tt_H a), a, hor0(y, Ts_H a)), assembled in the pullback
    coordinates (h, f_t, f_s). The lift is a :class:`RowLift`: H's target and
    source must be coordinate cuts (as those of pair, unit and abelian
    groupoids are), which cut both the points and the tangents of a block.

    One column plan per arrow patch, built here, says which columns of a
    block hold each fibre leg's base point and tangent, and which columns of
    (tangents | leg lifts) make the lift. Legs over one patch of N x F are
    stacked as the rows of one ``hor0`` call (a row's lift depends on its own
    rows only, so its bits do not move); ``hor0`` lifts on rows (through the
    per-row adapter when it is not a RowLift).
    """
    if not pi.metadata.get("morita_fibration"):
        raise NotASubmersion(f"{pi.name} is not a pullback projection")
    H = pi.base_grpd
    if H.tgt.cut is None or H.src.cut is None:
        raise NotASubmersion(f"{pi.name}: the target and source of {H.name} are not "
                             "coordinate cuts")
    base_prod = pi.metadata["base_product"]
    arr = pi.total.metadata["arr_product"]
    fibre_pairs = pi.total.metadata["factors"][1].metadata["product_space"]
    base_rows = lift_rows(hor0, base_prod.space, pi.object_map)

    def index_row(start: int, width: int) -> np.ndarray:
        return np.arange(start, start + width)[None, :]

    def plan(p: int):
        """The hor0 calls of arrow patch p, each (patch of N x F, legs stacked,
        point width, tangent width, point columns of C, tangent columns of W),
        and the columns of (W | leg lifts) that make the lift."""
        (ih, i_f), dim = arr.unpack_index(p), arr.space.patches[p].dim
        (it, i_s), m = fibre_pairs.unpack_index(i_f), H.arrows.patches[ih].dim
        Hc, Fc = arr.split_rows(p, index_row(0, dim))
        legs = []
        for end, i_leg, Fl in zip((H.tgt, H.src), (it, i_s),
                                  fibre_pairs.split_rows(i_f, Fc)):
            q, ends = end.cut(ih, Hc)
            x = base_prod.pack_index(q, i_leg)
            legs.append((x, base_prod.join_rows(x, ends, Fl)[0].astype(np.intp),
                         end.cut(ih, index_row(0, m))[1][0]))
        (xt, ct, wt), (xs, cs, ws) = legs
        dt, ds = len(ct), len(cs)
        fibre = fibre_pairs.join_rows(i_f, base_prod.factor_rows(xt, index_row(m, dt), 1),
                                      base_prod.factor_rows(xs, index_row(m + dt, ds), 1))
        out = arr.join_rows(p, index_row(0, m), fibre)[0].astype(np.intp)
        if xt == xs:
            calls = [(xt, 2, dt, len(wt), np.concatenate((ct, cs)), np.concatenate((wt, ws)))]
        else:
            calls = [(x, 1, len(c), len(w), c, w) for x, c, w in legs]
        return calls, out

    plans = [plan(p) for p in range(len(arr.space.patches))]

    @RowLift
    def hor(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
        calls, out = plans[p]
        k = len(C)
        parts = [W]
        for x, n, d, mw, cols, wcols in calls:
            lifted = base_rows(x, C.take(cols, axis=1).reshape(n * k, d),
                               W.take(wcols, axis=1).reshape(n * k, mw))
            parts.append(lifted.reshape(k, n * d))
        return np.concatenate(parts, axis=1).take(out, axis=1)

    return Connection(
        morphism=pi,
        hor=hor,
        hor0=hor0,
        metadata={"provenance": "pullback_lift", "claimed_multiplicative": True},
    )


def morita_compare(c_formula: Connection, c_other: Connection, n_samples: int,
                   seed: int) -> float:
    """Worst deviation of another lift from the pullback formula at samples."""
    pi = c_formula.morphism
    G, H = pi.total, pi.base_grpd
    worst = 0.0
    for i in range(n_samples):
        rng = rng_for(seed, 73, i)
        g = G.arrow_sampler(rng)
        h = pi.arrow_map(g)
        a = Tangent(h, tuple(rng.uniform(-1, 1, h.patch.dim)))
        u = np.asarray(c_formula.hor(g, a).coeffs)
        v = np.asarray(c_other.hor(g, a).coeffs)
        worst = max(worst, float(np.linalg.norm(u - v)))
    return worst

# ---------------------------------------------------------------------------
# trivializing atlases (fibre-shift charts over a 1-d base)


def smoothstep(u: float) -> float:
    """C^2 ramp: 0 for u <= 0, 1 for u >= 1."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


@dataclass(frozen=True)
class SineShift:
    """The fibre shift sigma(y) = amp sin(y), declared once: its value, its
    derivative and its interval extension."""

    amp: float

    def value(self, y: float) -> float:
        return self.amp * math.sin(y)

    def deriv(self, y: float) -> float:
        return self.amp * math.cos(y)

    def interval(self, iv: Interval) -> Interval:
        return self.amp * iv.sin()


@dataclass
class AtlasWindow:
    """One trivializing chart: windows U ⊂⊂ V and a fibre shift sigma."""

    inner: tuple[float, float]               # U^alpha
    outer: tuple[float, float]               # V^alpha (precompact)
    shift: SineShift

    def margin(self) -> float:
        return min(self.inner[0] - self.outer[0], self.outer[1] - self.inner[1])

    def bump(self, y: float) -> float:
        """Smooth bump: 1 on the inner window, 0 outside the outer."""
        lo_m = self.inner[0] - self.outer[0]
        hi_m = self.outer[1] - self.inner[1]
        up = smoothstep((y - self.outer[0]) / lo_m) if lo_m > 0 else 1.0
        down = smoothstep((self.outer[1] - y) / hi_m) if hi_m > 0 else 1.0
        return up * down


@dataclass
class TrivializingAtlas:
    """Cover of a family by fibre-shift groupoid trivializations.

    The family must come from the catalog's constant-family construction
    over a 1-d base with a single fibre line coordinate; each chart is the
    groupoid isomorphism (y, x, ...) -> (y, x - sigma(y), ...) over its
    window, which visibly commutes with the fibrewise structure maps. Every
    window needs finite ends with outer[0] <= inner[0] < inner[1] <= outer[1].
    """

    family: GroupoidMorphism
    windows: list[AtlasWindow]

    def __post_init__(self):
        constant_family = (self.family.metadata.get("family")
                           and "arr_product" in self.family.total.metadata)
        if not constant_family or self.family.base_grpd.objects.dim != 1:
            raise AtlasMismatch("atlas requires a catalog constant family over a 1-d base")
        if self.fiber.objects.dim != 1 or self.fiber.objects.patches[0].circ_count:
            raise AtlasMismatch("atlas fibres must carry a single line coordinate")
        if not self.windows:
            raise AtlasMismatch("an atlas needs at least one window")
        for alpha, win in enumerate(self.windows):
            ends = (win.outer[0], *win.inner, win.outer[1])
            if not (all(map(math.isfinite, ends)) and ends[0] <= ends[1] < ends[2] <= ends[3]):
                raise AtlasMismatch(f"window {alpha}: inner {win.inner}, outer {win.outer}; need "
                                    "finite ends, outer[0] <= inner[0] < inner[1] <= outer[1]")

    @property
    def fiber(self) -> Groupoid:
        return self.family.total.metadata["factors"][1]

    def validate(self, n_samples: int, seed: int, cfg: Config = DEFAULT) -> CheckReport:
        """pr1∘psi = pi, chart multiplicativity, and window margins."""
        worst = _Worst()
        G = self.family.total
        for alpha, win in enumerate(self.windows):
            if win.margin() < cfg.constr_atlas_margin:
                worst.record("window_margin", 1.0, {"window": alpha})
            for i in range(n_samples):
                rng = rng_for(seed, 79, alpha, i)
                y = float(rng.uniform(win.outer[0], win.outer[1]))
                g, h = self._sample_pair_over(y, rng)
                worst.record("projection_compat", abs(g.coords[0] - y), {"window": alpha})
                # sigma(y) cancels, so this tests that composition keeps h's
                # fibre coordinate: the chart class of bundles of groups over
                # a line (a pair-groupoid fibre fails it)
                gh = G.compose(g, h)
                lhs = gh.coords[1] - win.shift.value(y)
                rhs = h.coords[1] - win.shift.value(y)
                worst.record("chart_multiplicative", abs(lhs - rhs), {"window": alpha})
        return worst.report("atlas", cfg.groupoid_tol_alg * 10, n_samples, seed)

    def _sample_pair_over(self, y: float, rng):
        G = self.family.total
        obj_prod = self.family.total.metadata["obj_product"]
        N = self.family.base_grpd.objects
        fib_obj = self.fiber.object_sampler(rng)
        x = obj_prod.join(Point.raw(N, 0, (y,)), fib_obj)
        g = G.sfiber_sampler(x, rng)
        h = G.tfiber_sampler(G.src(g), rng)
        return g, h

    def weights(self, y: float, x: float, slabs: Sequence[tuple] = (),
                margin: float = 1.0) -> list[float]:
        """The normalised window weights at the row (y, x), or [] where all
        are 0: window beta's bump times, over the slabs (alpha, win, branches)
        with alpha != beta, the smoothstep of the row's distance from each
        branch over ``margin``, a product that stops at its first 0. Without
        slabs they are a partition of unity on the inner windows."""
        rho = []
        for beta, win_beta in enumerate(self.windows):
            prod = 1.0
            for alpha, win, branches in slabs:
                if alpha == beta or prod == 0.0:
                    continue
                dy = max(0.0, win.inner[0] - y, y - win.inner[1])
                sigma = win.shift.value(y)
                for b in branches:
                    prod *= smoothstep(math.hypot(dy, x - sigma - b) / margin)
                    if prod == 0.0:
                        break
            rho.append(win_beta.bump(y) * prod)
        total = sum(rho)
        if total <= 0.0:
            return []
        return [r / total for r in rho]

    def slope(self, y: float, weights: list[float]) -> float:
        """The weighted sum of the windows' shift slopes at y (zero weights
        are skipped)."""
        total = 0.0
        for win, weight in zip(self.windows, weights):
            if weight:
                total += weight * win.shift.deriv(y)
        return total


_PARTITION_CHECKS = 64   # grid intervals on which a partition's sum is checked


def slope_lift(slope: Callable[[float, float], float]) -> RowLift:
    """The lift (w, slope(y, x) w, 0, ...) on the (y, x)-leading coordinates
    of a constant family: a partition-weighted sum of chart-flat lifts
    D(psi^alpha)^{-1}(w, 0), whose slopes are the shift derivatives."""

    @RowLift
    def hor(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
        out = np.zeros(C.shape)
        out[:, 0] = W[:, 0]
        out[:, 1] = np.fromiter(map(slope, C[:, 0].tolist(), C[:, 1].tolist()), float,
                                len(C)) * W[:, 0]
        return out

    return hor


def glue_local_trivial(atlas: TrivializingAtlas) -> Connection:
    """Glue the chart-flat lifts through the atlas's normalised bumps.

    The partition is pulled back through the family projection, which makes
    it invariant automatically; a partition failing to sum to 1 on the inner
    windows' hull (beyond 1e-10) raises PartitionGap. Outside every outer
    window the slope is 0. Objects and arrows share the (y, x) leading
    coordinates, so one slope lift serves both.
    """
    lo = min(w.inner[0] for w in atlas.windows)
    hi = max(w.inner[1] for w in atlas.windows)
    for k in range(_PARTITION_CHECKS + 1):
        y = lo + (hi - lo) * k / _PARTITION_CHECKS
        total = sum(atlas.weights(y, 0.0))
        if abs(total - 1.0) > 1e-10:
            raise PartitionGap(f"partition sums to {total!r} at y = {y!r}")

    hor = slope_lift(lambda y, x: atlas.slope(y, atlas.weights(y, x)))
    return Connection(
        morphism=atlas.family,
        hor=hor,
        hor0=hor,
        metadata={"provenance": "glued_local_trivial", "claimed_multiplicative": True},
    )


# ---------------------------------------------------------------------------
# Haar fibre quadratures and averaging


@dataclass
class HaarFiberQuadrature:
    """Normalized nodes/weights on target fibres, from catalog closed forms.

    ``node_count`` is the n handed to the groupoid's ``nodes`` kernel, which
    places the nodes of a whole block of objects at once; ``nodes_at(x)`` is
    its one-row call at the object x, ``(patch, slots, H, weights)`` blocks
    with ``H`` of shape ``(1, m, dim)``, whose slots give the node order.
    Points are built only where a caller needs them.
    """

    node_count: int
    nodes_at: Callable[[Point], list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]]

    @classmethod
    def from_groupoid(cls, G: Groupoid, node_count: int) -> "HaarFiberQuadrature":
        _require_count(node_count)
        _require_kernels(G)
        if not G.metadata.get("compact_tfibers"):
            raise QuadratureMissing(f"{G.name} has non-compact target fibres")
        return cls(node_count, lambda x: G.kernels.nodes(
            x.patch_index, np.array([x.coords], dtype=float).reshape(1, -1), node_count))

    def validate(self, G: Groupoid, n_samples: int, seed: int,
                 cfg: Config = DEFAULT) -> CheckReport:
        """Exact normalization plus sampled left-invariance on test functions."""
        worst = _Worst()

        def coord_fn(p: Point, i: int) -> float:
            # angle coordinates only enter through periodic functions
            return math.cos(p.coords[i]) if p.patch.is_circ(i) else p.coords[i]

        test_functions = [
            lambda p: coord_fn(p, 0) if p.coords else 1.0,
            lambda p: math.sin(p.coords[-1]) if (p.coords and p.patch.is_circ(p.patch.dim - 1))
            else (p.coords[-1] if p.coords else 1.0),
            lambda p: sum(coord_fn(p, i) ** 2 if not p.patch.is_circ(i) else coord_fn(p, i)
                          for i in range(p.patch.dim)),
        ]
        for i in range(n_samples):
            rng = rng_for(seed, 83, i)
            g = G.arrow_sampler(rng)
            g_row = np.array([g.coords])
            blocks_s = []
            for q, slots, H, w in self.nodes_at(G.src(g)):
                r, GH = G.kernels.mul(g.patch_index, g_row, q, H[0])
                blocks_s.append((r, slots, GH[None], w))
            composed, w_s = _node_points(G.arrows, blocks_s)
            nodes_t, w_t = _node_points(G.arrows, self.nodes_at(G.tgt(g)))
            worst.record("normalization", abs(sum(w_s) - 1.0), {"g": _coords(g)})
            for fi, f in enumerate(test_functions):
                left = sum(w * f(gh) for gh, w in zip(composed, w_s))
                right = sum(w * f(h) for h, w in zip(nodes_t, w_t))
                worst.record(f"left_invariance[{fi}]", abs(left - right), {"g": _coords(g)})
        return worst.report("haar_quadrature", cfg.constr_quad_tol * 10, n_samples, seed)


def _require_count(n) -> None:
    """Refuse a node or sample count that is not a positive integer."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParams(f"a count must be a positive integer, not {n!r}")


def _require_kernels(G: Groupoid) -> None:
    """Refuse a groupoid whose array kernels the average cannot use: it needs
    them (target-fibre nodes on object rows, row-aligned ``mul``, ``inv`` and
    ``src``), and ``mul`` partials declared patch-constant, to apply the
    partials taken at one row of a patch pair to every row of that pair."""
    if G.kernels is None:
        raise QuadratureMissing(f"{G.name} supplies no array kernels with target-fibre nodes")
    if not isinstance(G.mul.jac2, PatchJacobian):
        raise QuadratureMissing(f"{G.name}: mul partials are not declared a PatchJacobian")


def _node_points(space, blocks) -> tuple[list[Point], list[float]]:
    """Points and weights of one object's ``(patch, slots, H, weights)``
    node blocks, in slot order."""
    pts = [p for q, _, H, _ in blocks for p in points(space, q, H[0])]
    order = np.argsort(np.concatenate([slots for _, slots, _, _ in blocks]))
    return ([pts[i] for i in order.tolist()],
            np.concatenate([weights for *_, weights in blocks])[order].tolist())


def _require_projectable(G: Groupoid, X, n_samples: int, seed: int, cfg: Config) -> None:
    """Refuse a field that is not source-projectable, at the samples the
    average checks."""
    resid = s_projectability_residual(G, X, max(8, n_samples // 4), seed, cfg)
    if resid > cfg.groupoid_tol_alg * 100:
        raise NonProjectableInput(f"input field is not source-projectable (residual {resid:.3e})")


def s_projectability_residual(G: Groupoid, X, n_samples: int, seed: int,
                              cfg: Config = DEFAULT) -> float:
    worst = 0.0
    for i in range(n_samples):
        rng = rng_for(seed, 89, i)
        x = G.object_sampler(rng)
        g1 = G.sfiber_sampler(x, rng)
        g2 = G.sfiber_sampler(x, rng)
        v1 = jacobian(G.src, g1, cfg) @ np.asarray(X(g1).coeffs)
        v2 = jacobian(G.src, g2, cfg) @ np.asarray(X(g2).coeffs)
        worst = max(worst, float(np.linalg.norm(v1 - v2)))
    return worst


@dataclass(frozen=True)
class RowField:
    """A field on arrows given on blocks of coordinate rows.

    ``rows(patch, C)`` returns the coefficients at every row of a ``(k, dim)``
    block as a ``(k, dim)`` array; a row's coefficients depend on nothing but
    its own row. At a Point the field is a one-row call.
    """

    rows: Callable[[int, np.ndarray], np.ndarray]

    def __call__(self, g: Point) -> Tangent:
        return Tangent(g, tuple(self.rows(g.patch_index, np.array([g.coords]))[0].tolist()))


def field_rows(X, space: Space):
    """The row form of a field on ``space``: ``X.rows`` for a
    :class:`RowField`; any other field goes through this per-row adapter,
    which calls it at each row."""
    if isinstance(X, RowField):
        return X.rows

    def rows(p: int, C: np.ndarray) -> np.ndarray:
        return np.array([X(g).coeffs for g in points(space, p, C)],
                        dtype=float).reshape(C.shape)

    return rows


def haar_average(
    G: Groupoid,
    quad: HaarFiberQuadrature,
    X: Callable[[Point], Tangent],
    n_samples: int = 50,
    seed: int = 0,
    cfg: Config = DEFAULT,
    check: bool = True,
):
    """Average an s-projectable field into a multiplicative one.

    X_hat(g) = sum_j w_j Tm(X_{g h_j}, Ti(X_{h_j})) over nodes h_j in the
    target fibre of s(g). X_hat is a :class:`RowField` that averages a whole
    block of k arrows in one pass per node patch: G's ``src`` kernel takes the
    block to its sources and G's ``nodes`` kernel places the nodes of all of
    them at once, the m nodes of each row on a node patch q as a ``(k, m,
    dim)`` block with their slots in the row's node order. Per node patch,
    one row-aligned ``mul`` composes each arrow, repeated m times, with its
    nodes, one ``inv`` inverts the nodes with their Jacobians, and X (through
    ``field_rows``) is evaluated once on the stacked ``[H; GH]`` when the
    composites lie on q, as they do when ``mul`` keeps the node patch. G's
    ``mul`` partials, declared patch-constant, are taken at a node patch's
    first row for all its rows. The weighted terms are scattered by slot and
    each arrow's are summed in its own node order, so a row's average does
    not depend on the block it is in. Returns (X_hat, report); the report
    runs the multiplicative-field identities at samples.
    """
    _require_kernels(G)
    if check:
        _require_projectable(G, X, n_samples, seed, cfg)
    K, arrows = G.kernels, G.arrows
    X_rows = field_rows(X, arrows)

    def averaged(p: int, C: np.ndarray) -> np.ndarray:
        k, dim = C.shape
        if not k:
            return np.zeros(C.shape)
        blocks = K.nodes(*K.src(p, C), quad.node_count)
        terms = np.zeros((k, sum(len(slots) for _, slots, _, _ in blocks), dim))
        for q, slots, H, w in blocks:
            m = len(slots)
            H = H.reshape(k * m, dim)
            r, GH = K.mul(p, C.repeat(m, axis=0), q, H)
            q_inv, H_inv, Ti = K.inv(q, H)
            A, B = G.mul.partials(Point(arrows, r, tuple(GH[0].tolist())),
                                  Point(arrows, q_inv, tuple(H_inv[0].tolist())), cfg)
            if r == q:
                both = X_rows(q, np.concatenate((H, GH)))
                X_H, X_GH = both[:len(H)], both[len(H):]
            else:
                X_H, X_GH = X_rows(q, H), X_rows(r, GH)
            moved = np.matmul(Ti, X_H[..., None])
            lifted = np.matmul(A, X_GH[..., None]) + np.matmul(B, moved)
            terms[:, slots] = w[:, None] * lifted[..., 0].reshape(k, m, dim)
        # running sum in node order, as a loop would add; + 0.0 as from a zero start
        return terms.cumsum(axis=1)[:, -1] + 0.0

    X_hat = RowField(averaged)

    def V(x: Point) -> Tangent:
        ux = G.unit(x)
        Ts = jacobian(G.src, ux, cfg)
        return Tangent(x, tuple(Ts @ np.asarray(X_hat(ux).coeffs)))

    report = None
    if check:
        report = multiplicative_field_report(
            G, X_hat, V, n_samples, seed, cfg, name="haar_average"
        )
    return X_hat, report


def proper_family_connection(
    family: GroupoidMorphism,
    hor0,
    hor_s,
    quad: HaarFiberQuadrature,
    n_samples: int = 40,
    seed: int = 0,
    cfg: Config = DEFAULT,
) -> Connection:
    """Average the composite lift hor_s∘hor0 into a multiplicative connection.

    Each base coordinate field is lifted through hor_s∘hor0 (giving an
    s-projectable field) and averaged; the connection assembles the averaged
    basis fields by linearity, and its base lift reads off the averaged
    fields along the unit section. The family must be a product projection
    (``catalog.product_projection``, as ``trivial_family`` builds). On a
    block of node rows the composite field takes sources from the rows (G's
    ``src`` kernel). When ``hor0`` and ``hor_s`` are both :class:`RowLift`s
    it lifts the whole block in two row calls; otherwise it takes base arrows
    from the rows too (the family's arrow map, a coordinate cut) and
    calls ``hor0`` and ``hor_s`` once per row.

    ``hor`` and ``hor0`` are :class:`RowLift`s: ``hor`` sums the averaged
    basis rows weighted by the tangent's coefficients, and ``hor0`` takes
    the unit rows of its objects (G's ``unit`` kernel) and applies G's
    ``src`` Jacobian, which must be declared a ``PatchJacobian``, to those
    rows' basis rows. The averaged basis rows of the last block asked for
    are kept, so ``hor`` and ``hor0`` at one block average once.
    """
    G = family.total
    if not isinstance(G.src.jac, PatchJacobian):
        raise QuadratureMissing(f"{G.name}: src Jacobian is not declared a PatchJacobian")
    base_arrows = family.base_grpd.arrows
    dim_N = family.base_grpd.objects.dim

    if isinstance(hor0, RowLift) and isinstance(hor_s, RowLift):
        def composite(p: int, C: np.ndarray, e: tuple) -> np.ndarray:
            E = np.tile(e, (len(C), 1))
            return hor_s.rows(p, C, hor0.rows(*G.kernels.src(p, C), E))
    else:
        def composite(p: int, C: np.ndarray, e: tuple) -> np.ndarray:
            gs = points(G.arrows, p, C)
            xs = points(G.objects, *G.kernels.src(p, C))
            ys = points(base_arrows, *family.arrow_map.cut(p, C))
            return np.array([hor_s(g, hor0(x, Tangent(y, e))).coeffs
                             for g, x, y in zip(gs, xs, ys)], dtype=float).reshape(C.shape)

    averaged = []
    for j in range(dim_N):
        e = tuple(1.0 if i == j else 0.0 for i in range(dim_N))
        X_tilde = RowField(lambda p, C, e=e: composite(p, C, e))
        if j == 0:
            _require_projectable(G, X_tilde, n_samples, seed, cfg)
        X_hat, _ = haar_average(G, quad, X_tilde, n_samples, seed, cfg, check=False)
        averaged.append(field_rows(X_hat, G.arrows))

    last = [None, None]   # the last block asked for, and its averaged basis rows

    def basis_rows(p: int, C: np.ndarray) -> list[np.ndarray]:
        key = (p, C.shape, C.tobytes())
        if last[0] != key:
            last[:] = key, [X_rows(p, C) for X_rows in averaged]
        return last[1]

    @RowLift
    def hor(p: int, C: np.ndarray, W: np.ndarray) -> np.ndarray:
        acc = np.zeros(C.shape)
        for j, V in enumerate(basis_rows(p, C)):
            acc += W[:, j:j + 1] * V
        return acc

    @RowLift
    def hor0_out(p: int, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        if not len(X):
            return np.zeros(X.shape)
        u, U = G.kernels.unit(p, X)
        Ts = jacobian(G.src, Point(G.arrows, u, tuple(U[0].tolist())), cfg)
        acc = np.zeros(X.shape)
        for j, V in enumerate(basis_rows(u, U)):
            acc += W[:, j:j + 1] * apply_rows(Ts, V)
        return acc

    return Connection(
        morphism=family,
        hor=hor,
        hor0=hor0_out,
        metadata={"provenance": "proper_family_average", "claimed_multiplicative": True},
    )

# ---------------------------------------------------------------------------
# invariant exhaustion functions


@dataclass
class ExhaustionProfile:
    """Closed-form invariant exhaustion with rigorous level-set enclosures."""

    name: str
    value: Callable[[Point], float]
    interval_value: Callable[[Interval], Interval]
    preimage_points: Callable[[int], list[float]]
    preimage_enclosures: Callable[[int], list[Interval]]


def hyperbolic_profile() -> ExhaustionProfile:
    """f(x) = sqrt(x^2 + 1) on a line fibre coordinate."""

    def preimage_points(level: int) -> list[float]:
        if level < 1:
            return []
        r = math.sqrt(level * level - 1.0)
        return [-r, r] if r > 0 else [0.0]

    def preimage_enclosures(level: int) -> list[Interval]:
        if level < 1:
            return []
        sq = Interval.point(float(level)).sq() - 1.0
        r_iv = Interval.of(max(0.0, sq.lo), max(0.0, sq.hi)).sqrt()
        if level == 1:
            return [Interval.of(-r_iv.hi, r_iv.hi)]
        return [Interval.of(-r_iv.hi, -r_iv.lo), r_iv]

    return ExhaustionProfile(
        name="sqrt(x^2+1)",
        value=lambda p: math.sqrt(p.coords[0] ** 2 + 1.0),
        interval_value=lambda iv: (iv.sq() + 1.0).sqrt(),
        preimage_points=preimage_points,
        preimage_enclosures=preimage_enclosures,
    )


def constant_profile(c: float = 1.0) -> ExhaustionProfile:
    """Admissible on compact fibres; every level machinery degenerates."""
    return ExhaustionProfile(
        name=f"const({c})",
        value=lambda p: c,
        interval_value=lambda iv: Interval.point(c),
        preimage_points=lambda level: [],
        preimage_enclosures=lambda level: [],
    )


def invariant_exhaustion(
    fiber: Groupoid, n_samples: int = 64, seed: int = 0, cfg: Config = DEFAULT
) -> tuple[ExhaustionProfile, CheckReport]:
    """The catalog's invariant exhaustion for a source-proper fibre groupoid.

    Checks invariance s*f = t*f at samples and, on non-compact fibres, the
    desk-scale properness surrogate of monotone growth along rays.
    """
    if not fiber.metadata.get("compact_tfibers"):
        raise NotSourceProper(f"{fiber.name} is not flagged source-proper")
    compact = fiber.objects.patches[0].lin_count == 0
    profile = constant_profile() if compact else hyperbolic_profile()

    worst = _Worst()
    for i in range(n_samples):
        rng = rng_for(seed, 97, i)
        g = fiber.arrow_sampler(rng)
        worst.record(
            "invariance",
            abs(profile.value(fiber.src(g)) - profile.value(fiber.tgt(g))),
            {"g": _coords(g)},
        )
    if not compact:
        F = fiber.objects
        rs = [0.25 * k for k in range(1, 17)]
        for direction in (-1.0, 1.0):
            values = [
                profile.value(Point.raw(F, 0, (direction * r,) + (0.0,) * (F.dim - 1)))
                for r in rs
            ]
            drops = max(
                (values[k] - values[k + 1] for k in range(len(values) - 1)), default=0.0
            )
            worst.record("ray_monotone", max(0.0, drops), {"direction": direction})
            if values[-1] <= values[0]:
                worst.record("ray_growth", 1.0, {"direction": direction})
    report = worst.report("invariant_exhaustion", cfg.groupoid_tol_alg * 10, n_samples, seed)
    return profile, report


# ---------------------------------------------------------------------------
# lexicographic level schedules


@dataclass
class LevelSchedule:
    """Integer slab levels of an atlas under an exhaustion profile; the depth,
    the per-window levels, their radii and disjointness are read from these
    three fields, so an edited level is the one every reader sees."""

    atlas: TrivializingAtlas
    profile: ExhaustionProfile
    levels: dict[tuple[int, int], int]          # (i, alpha) -> integer level

    @property
    def truncation_depth(self) -> int:
        return 1 + max((i for i, _ in self.levels), default=-1)

    @property
    def disjoint_verified(self) -> bool:
        return verify_slab_disjointness(self)[0]

    def window_levels(self, alpha: int) -> list[int]:
        return [self.levels[(i, alpha)] for i in range(self.truncation_depth)]

    @property
    def per_window(self) -> list[list[int]]:
        return [self.window_levels(a) for a in range(len(self.atlas.windows))]

    def radius(self, alpha: int) -> Interval:
        """Enclosure of the largest |preimage| over window alpha's levels: the
        radius its slabs reach in the fibre (the first enclosure with the
        largest lower end wins)."""
        radius = Interval.point(0.0)
        for n in self.window_levels(alpha):
            for enc in self.profile.preimage_enclosures(n):
                r = enc.abs()
                if r.lo > radius.lo:
                    radius = r
        return radius


def _window_overlap(a: AtlasWindow, b: AtlasWindow) -> Optional[Interval]:
    lo = max(a.inner[0], b.inner[0])
    hi = min(a.inner[1], b.inner[1])
    if lo > hi:
        return None
    return Interval.of(lo, hi)


def level_schedule(
    atlas: TrivializingAtlas,
    profile: ExhaustionProfile,
    truncation_depth: int = 3,
) -> LevelSchedule:
    """Integer levels n(i, alpha) built by lexicographic induction.

    Each new level strictly dominates the rigorous interval bound of the
    exhaustion over every earlier slab that meets the window, so the closed
    slabs Z^{i,alpha} are pairwise disjoint; ``disjoint_verified`` re-verifies
    this by interval arithmetic (over-approximating the transition dependence,
    which is sound for the certificate).
    """
    windows = atlas.windows
    order = [(i, a) for i in range(truncation_depth) for a in range(len(windows))]
    levels: dict[tuple[int, int], int] = {}

    for (i, alpha) in order:
        bound = levels.get((i - 1, alpha), -1)
        win = windows[alpha]
        for (j, beta), n_jb in levels.items():
            if (j, beta) >= (i, alpha):
                continue
            overlap = _window_overlap(win, windows[beta])
            if overlap is None:
                continue
            shift_diff = windows[beta].shift.interval(overlap) - win.shift.interval(overlap)
            for branch in profile.preimage_enclosures(n_jb):
                value = profile.interval_value(branch + shift_diff)
                if math.isinf(value.hi):
                    raise SupremumUnbounded(
                        f"window {alpha} sees an unbounded slab bound from ({j},{beta})"
                    )
                bound = max(bound, int(math.floor(value.hi)))
        levels[(i, alpha)] = bound + 1
    return LevelSchedule(atlas, profile, levels)


def verify_slab_disjointness(schedule: LevelSchedule) -> tuple[bool, float, list[str]]:
    """Interval re-verification of pairwise slab disjointness.

    Returns (disjoint, gap lower bound in the global fibre coordinate, notes).
    """
    windows, profile, levels = schedule.atlas.windows, schedule.profile, schedule.levels
    notes: list[str] = []
    disjoint = True
    gap = math.inf
    keys = sorted(levels.keys())
    for a_idx in range(len(keys)):
        i, alpha = keys[a_idx]
        branches_a = profile.preimage_enclosures(levels[(i, alpha)])
        # the two ± branches of one slab must themselves be separated
        for u in range(len(branches_a)):
            for v in range(u + 1, len(branches_a)):
                d = _interval_separation(branches_a[u], branches_a[v])
                if d <= 0:
                    disjoint = False
                    notes.append(f"slab ({i},{alpha}) branches touch")
                else:
                    gap = min(gap, d)
        for b_idx in range(a_idx + 1, len(keys)):
            j, beta = keys[b_idx]
            branches_b = profile.preimage_enclosures(levels[(j, beta)])
            if alpha == beta:
                for ba in branches_a:
                    for bb in branches_b:
                        d = _interval_separation(ba, bb)
                        if d <= 0:
                            disjoint = False
                            notes.append(f"slabs ({i},{alpha})/({j},{beta}) overlap")
                        else:
                            gap = min(gap, d)
                continue
            overlap = _window_overlap(windows[alpha], windows[beta])
            if overlap is None:
                continue
            diff = windows[alpha].shift.interval(overlap) - windows[beta].shift.interval(overlap)
            for ba in branches_a:
                for bb in branches_b:
                    D = ba - bb + diff
                    if D.contains(0.0):
                        disjoint = False
                        notes.append(f"slabs ({i},{alpha})/({j},{beta}) may intersect")
                    else:
                        gap = min(gap, max(D.lo, -D.hi))
    return disjoint, (0.0 if math.isinf(gap) else gap), notes


def _interval_separation(a: Interval, b: Interval) -> float:
    if a.intersects(b):
        return 0.0
    return max(b.lo - a.hi, a.lo - b.hi)


# ---------------------------------------------------------------------------
# complete-connection builder


@dataclass
class WindowCertificate:
    window: int
    levels: list[int]
    flatness_residual: float
    precompact_bound: dict
    precompact_verified: bool


@dataclass
class CompletenessCertificate:
    verdict: str                       # "CertifiedComplete"
    fiber_box: float
    slab_gap: float
    windows: list[WindowCertificate]
    partition_sum_residual: float
    invariance_residual: float


def complete_connection_builder(
    family: GroupoidMorphism,
    atlas: TrivializingAtlas,
    schedule: LevelSchedule,
    profile: ExhaustionProfile,
    cfg: Config = DEFAULT,
    n_cert_samples: int = 24,
    seed: int = 0,
) -> tuple[Connection, CompletenessCertificate]:
    """Glue chart lifts through a slab-avoiding invariant partition and certify.

    The partition weight of window alpha vanishes identically on every slab
    of every other window, so the glued lift agrees exactly with the chart
    lift on each slab (flatness clause). The precompactness clause bounds,
    by interval arithmetic, every complement component meeting the
    configured fibre box by a scheduled level radius. Any failed clause
    raises CertificateFailure naming the clause; a family, atlas or profile
    other than the schedule's raises AtlasMismatch.
    """
    _require_count(n_cert_samples)
    if not (family is atlas.family and atlas is schedule.atlas and profile is schedule.profile):
        raise AtlasMismatch("the builder needs the family, atlas and profile of its schedule")
    windows = atlas.windows
    disjoint, gap, notes = verify_slab_disjointness(schedule)
    if not disjoint:
        raise CertificateFailure("slab_disjointness: " + "; ".join(notes[:3]))
    if gap <= 0.0:
        raise CertificateFailure("slab_disjointness: zero separation")
    margin = min(gap / 3.0, 0.25)

    slabs = [
        (alpha, windows[alpha], profile.preimage_points(n))
        for (i, alpha), n in sorted(schedule.levels.items())
    ]

    def weights(y: float, x: float) -> list[float]:
        w = atlas.weights(y, x, slabs, margin)
        if not w:
            raise CertificateFailure(
                f"partition_cover: no window weight at (y, x) = ({y!r}, {x!r})"
            )
        return w

    hor = slope_lift(lambda y, x: atlas.slope(y, weights(y, x)))
    connection = Connection(
        morphism=atlas.family,
        hor=hor,
        hor0=hor,  # objects and arrows share the (y, x) leading coordinates
        metadata={"provenance": "complete_builder", "claimed_multiplicative": True},
    )

    # --- certificate clauses -------------------------------------------------
    box = cfg.constr_box
    G = atlas.family.total
    window_certs = []
    partition_residual = 0.0
    invariance_residual = 0.0
    grid = [(k + 0.5) / n_cert_samples for k in range(n_cert_samples)]
    for alpha, win in enumerate(windows):
        levels = schedule.window_levels(alpha)
        ys = [win.inner[0] + (win.inner[1] - win.inner[0]) * u for u in grid]
        flat_worst = max(_chart_flat_deviation(connection, win, profile,
                                               {n: ys for n in levels}))
        if flat_worst >= 1e-9:
            raise CertificateFailure(
                f"flatness: window {alpha} deviates {flat_worst:.3e} on its slabs"
            )
        max_radius = schedule.radius(alpha)
        verified = max_radius.lo > box
        if not verified:
            raise CertificateFailure(
                f"precompactness: window {alpha} has no scheduled level beyond the fibre box"
            )
        window_certs.append(WindowCertificate(
            window=alpha, levels=levels, flatness_residual=flat_worst,
            precompact_bound=fmt_bound(max_radius), precompact_verified=verified))

    for k in range(64):
        rng = rng_for(seed, 101, k)
        y = float(rng.uniform(min(w.outer[0] for w in windows) + 0.01,
                              max(w.outer[1] for w in windows) - 0.01))
        x = float(rng.uniform(-box, box))
        partition_residual = max(partition_residual, abs(sum(weights(y, x)) - 1.0))
        g = G.arrow_sampler(rng)
        s_val = weights(*G.src(g).coords[:2])
        t_val = weights(*G.tgt(g).coords[:2])
        invariance_residual = max(invariance_residual,
                                  max(abs(a - b) for a, b in zip(s_val, t_val)))
    if partition_residual > 1e-10:
        raise CertificateFailure(f"partition_sum: residual {partition_residual:.3e}")
    if invariance_residual > cfg.groupoid_tol_alg * 10:
        raise CertificateFailure(f"partition_invariance: residual {invariance_residual:.3e}")

    certificate = CompletenessCertificate(
        verdict="CertifiedComplete",
        fiber_box=box,
        slab_gap=gap,
        windows=window_certs,
        partition_sum_residual=partition_residual,
        invariance_residual=invariance_residual,
    )
    return connection, certificate


def _chart_flat_deviation(c: Connection, win: AtlasWindow, profile: ExhaustionProfile,
                          ys_by_level: dict[int, list[float]]) -> tuple[float, float]:
    """Worst base and fibre deviation of c's lift of w = 1 from the chart-flat
    form (w, 0, ...) of window ``win``, pushed through the chart derivative,
    on every arrow patch at the slab points (y, sigma(y) + b) of each level n
    and each y in ``ys_by_level[n]``."""
    arrows = c.total.arrows
    worst_base = worst_fiber = 0.0
    for n, ys in ys_by_level.items():
        for b in profile.preimage_points(n):
            for y in ys:
                x = win.shift.value(y) + b
                for patch_index, patch in enumerate(arrows.patches):
                    g = Point.raw(arrows, patch_index, (y, x) + (0.0,) * (patch.dim - 2))
                    w = Tangent(c.morphism.arrow_map(g), (1.0,))
                    v = np.array(c.hor(g, w).coeffs, dtype=float)
                    v[1] -= win.shift.deriv(y) * v[0]
                    worst_base = max(worst_base, abs(v[0] - 1.0))
                    worst_fiber = max(worst_fiber, float(np.max(np.abs(v[1:]))))
    return worst_base, worst_fiber


# ---------------------------------------------------------------------------
# independent flatness/precompactness re-check


@dataclass
class FlatnessVerdict:
    verdict: str                        # "CertifiedComplete" | "NotCertified"
    worst_fiber_residual: float
    worst_base_residual: float
    precompact_bounds: list[dict]
    failed_clauses: list[str]
    n_samples: int
    seed: int


def flatness_certificate_check(
    c: Connection,
    schedule: LevelSchedule,
    n_samples: int,
    seed: int,
    cfg: Config = DEFAULT,
) -> FlatnessVerdict:
    """Re-derive the completeness certificate for an arbitrary connection.

    Samples U^alpha x S^alpha, pushes the lift through the chart derivative,
    and demands the chart-flat form (base part the identity, fibre part zero
    within 1e-8); precompactness of complement components meeting the fibre
    box is re-verified from the level enclosures.
    """
    _require_count(n_samples)
    atlas, profile = schedule.atlas, schedule.profile
    if c.total.arrows is not atlas.family.total.arrows:
        raise AtlasMismatch("connection and atlas live on different families")
    worst_fiber = 0.0
    worst_base = 0.0
    failed = []
    bounds = []
    box = cfg.constr_box
    for alpha, win in enumerate(atlas.windows):
        base, fiber = _chart_flat_deviation(c, win, profile, {
            n: [float(rng_for(seed, 103, alpha, n, k).uniform(win.inner[0], win.inner[1]))
                for k in range(n_samples)]
            for n in schedule.window_levels(alpha)})
        worst_base, worst_fiber = max(worst_base, base), max(worst_fiber, fiber)
        max_radius = schedule.radius(alpha)
        bounds.append(fmt_bound(max_radius))
        if not max_radius.lo > box:
            failed.append(f"precompactness[window {alpha}]")
    if worst_fiber >= 1e-8 or worst_base >= 1e-8:
        failed.append("chart_flat_form")
    verdict = "CertifiedComplete" if not failed else "NotCertified"
    return FlatnessVerdict(
        verdict=verdict,
        worst_fiber_residual=worst_fiber,
        worst_base_residual=worst_base,
        precompact_bounds=bounds,
        failed_clauses=failed,
        n_samples=n_samples,
        seed=seed,
    )
