"""Named catalog of groupoids and morphisms with closed-form samplers.

Every entry supplies analytic Jacobians for its structure maps, closed-form
source/target-fibre samplers (no rejection sampling), and, where transport
scenarios need them, closed-form path samplers and kernel presentations.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT
from .errors import InvalidParams
from .geometry import (
    Patch,
    Point,
    ProductSpace,
    Space,
    circle,
    finite,
    line,
    point_space,
    wrap_difference,
)
from .groupoid import (
    ArrayKernels,
    Groupoid,
    GroupoidMorphism,
    KernelData,
    TransportSamplers,
    points,
)
from .linalg import apply_rows
from .paths import BasePath, coordinate_path
from .smoothmap import PairMap, PatchJacobian, SmoothMap, identity_map, jacobian

BOX = 2.0   # half-width of the line-coordinate sample box
TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# generic sampling helpers


def sample_coords(patch: Patch, rng: np.random.Generator):
    coords = []
    for i in range(patch.dim):
        if patch.is_circ(i):
            coords.append(float(rng.uniform(0.0, TWO_PI)))
        else:
            coords.append(float(rng.uniform(-BOX, BOX)))
    coords = tuple(coords)
    # Closed-form shift away from excluded balls (no rejection loops); angle
    # offsets are taken the short way round.
    for center, radius in patch.excluded_points:
        delta = [a - b for a, b in zip(coords, center)]
        for i in range(patch.lin_count, patch.dim):
            delta[i] = wrap_difference(coords[i], center[i])
        norm = math.sqrt(sum(d * d for d in delta))
        if norm < 2.0 * radius:
            if norm == 0.0:
                delta = [2.0 * radius] + [0.0] * (patch.dim - 1)
            else:
                scale = (2.0 * radius + norm) / norm
                delta = [d * scale for d in delta]
            coords = patch._normalize(tuple(c + d for c, d in zip(center, delta)))
    return coords


def sample_point(space: Space, rng: np.random.Generator) -> Point:
    idx = int(rng.integers(len(space.patches)))
    return Point.raw(space, idx, sample_coords(space.patches[idx], rng))


# ---------------------------------------------------------------------------
# closed-form path samplers


def uniform(lo: float, hi: float):
    """The draw float(U(lo, hi)), as a start or slope sampler for sine_curve."""
    return lambda rng: float(rng.uniform(lo, hi))


ANY_ANGLE = uniform(0.0, TWO_PI)


def winding(rng) -> float:
    """Slope of an angle curve that winds -1, 0 or 1 times over [0, 1]."""
    return TWO_PI * float(rng.choice((-1, 0, 1)))


def sine_curve(rng: np.random.Generator, start, slope, amp: float):
    """One coordinate curve a + b t + A (sin(2 pi t + ph) - sin ph) and its
    derivative, as (f, df).

    Draws a = start(rng), b = slope(rng), then A ~ U(0, amp) and
    ph ~ U(0, 2 pi), in that order; with amp = 0 it draws neither A nor ph
    and the curve is a + b t.
    """
    a = start(rng)
    b = slope(rng)
    if amp == 0.0:
        return (lambda t: a + b * t), (lambda t: b)
    A = float(rng.uniform(0.0, amp))
    ph = float(rng.uniform(0.0, TWO_PI))
    return (lambda t: a + b * t + A * (math.sin(TWO_PI * t + ph) - math.sin(ph)),
            lambda t: b + A * TWO_PI * math.cos(TWO_PI * t + ph))


def curve_path(space: Space, patch_index: int, *curves) -> BasePath:
    """The path on one patch whose coordinates are the (f, df) curves, in order."""
    fs, dfs = [f for f, _ in curves], [df for _, df in curves]
    return coordinate_path(space, patch_index, lambda t: [f(t) for f in fs],
                           lambda t: [df(t) for df in dfs])


def composable_pair_paths(arrows: Space, curve, rng: np.random.Generator):
    """Pointwise-composable paths (a, b) and (b, c) in the arrows of a pair
    groupoid over a one-coordinate space, for curves a, b, c drawn in that
    order by ``curve(rng)``."""
    a, b, c = curve(rng), curve(rng), curve(rng)
    return curve_path(arrows, 0, a, b), curve_path(arrows, 0, b, c)


def random_smooth_path(space: Space, patch_index: int, rng: np.random.Generator) -> BasePath:
    """Random closed-form path: per coordinate an affine part and one sine
    mode; an angle starts anywhere and winds -1, 0 or 1 times."""
    patch = space.patches[patch_index]
    return curve_path(space, patch_index, *(
        sine_curve(rng, ANY_ANGLE, winding, 0.6) if patch.is_circ(i)
        else sine_curve(rng, uniform(-BOX / 2, BOX / 2), uniform(-1.0, 1.0), 0.6)
        for i in range(patch.dim)))


def random_segment(rng: np.random.Generator, dim: int):
    """End points a, b of a random segment in the line sample box, a drawn first."""
    a = tuple(float(rng.uniform(-BOX, BOX)) for _ in range(dim))
    return a, tuple(float(rng.uniform(-BOX, BOX)) for _ in range(dim))


def segment_path(space: Space, patch_index: int, start, end, label: str = "") -> BasePath:
    """Straight segment with a smooth (cubic) time profile, stationary at ends."""
    start = tuple(float(c) for c in start)
    end = tuple(float(c) for c in end)

    def profile(t):
        return t * t * (3.0 - 2.0 * t)

    def dprofile(t):
        return 6.0 * t * (1.0 - t)

    def coords(t: float):
        s = profile(t)
        return tuple(a + s * (b - a) for a, b in zip(start, end))

    def deriv(t: float):
        ds = dprofile(t)
        return tuple(ds * (b - a) for a, b in zip(start, end))

    return coordinate_path(space, patch_index, coords, deriv, label=label)


# ---------------------------------------------------------------------------
# factor projections and transport starts


def factor_projection(prod: ProductSpace, side: int, name: str) -> SmoothMap:
    """The projection of ``prod`` onto its left (side 0) or right (side 1)
    factor; its Jacobian is that factor's selector, one per packed patch, and
    it is a coordinate cut."""
    return SmoothMap(prod.space, (prod.left, prod.right)[side],
                     lambda p: prod.split(p)[side],
                     PatchJacobian(lambda p: prod.selectors(p.patch_index)[side]), name,
                     lambda p, C: (prod.unpack_index(p)[side], prod.factor_rows(p, C, side)))


def with_fibre_start(draw, sampler):
    """The sampler of (path, start) that draws the path by ``draw(rng)``,
    then its start by ``sampler(path.point(0.0), rng)``."""

    def sample(rng):
        gamma = draw(rng)
        return gamma, sampler(gamma.point(0.0), rng)

    return sample


def fibre_starts(pi: GroupoidMorphism, path, composable=None,
                 object_path=None) -> TransportSamplers:
    """Transport samplers that draw each start after its path, by pi's own
    fibre samplers at the path's start.

    ``path(rng)`` draws a path in H's arrows (its start by
    ``pi.fiber_sampler``), ``object_path(rng)`` one in N (its start by
    ``pi.object_fiber_sampler``); ``composable`` is passed on as it is.
    """
    return TransportSamplers(
        with_fibre_start(path, pi.fiber_sampler), composable,
        with_fibre_start(object_path, pi.object_fiber_sampler) if object_path else None)


# ---------------------------------------------------------------------------
# pair groupoid


def pair_groupoid(M: Space, name: str = "") -> Groupoid:
    """Pair groupoid M x M over M; an arrow (a, b) runs from b to a."""
    prod = ProductSpace(M, M)
    A = prod.space

    def unit_eval(x):
        return prod.join(x, x)

    def inv_eval(p):
        a, b = prod.split(p)
        return prod.join(b, a)

    def mul_eval(g, h):  # (a,b)·(b',c) = (a,c); snap ignores b'
        a, _ = prod.split(g)
        _, c = prod.split(h)
        return prod.join(a, c)

    def unit_jac(x):
        S_a, S_b = prod.selectors(prod.pack_index(x.patch_index, x.patch_index))
        return S_a.T + S_b.T

    def inv_jac(p):
        a_idx, b_idx = prod.unpack_index(p.patch_index)
        out_a, out_b = prod.selectors(prod.pack_index(b_idx, a_idx))
        S_a, S_b = prod.selectors(p.patch_index)
        return out_a.T @ S_b + out_b.T @ S_a

    def mul_jac(g, h):
        a_idx = prod.unpack_index(g.patch_index)[0]
        c_idx = prod.unpack_index(h.patch_index)[1]
        out_a, out_c = prod.selectors(prod.pack_index(a_idx, c_idx))
        A_part = out_a.T @ prod.selectors(g.patch_index)[0]
        B_part = out_c.T @ prod.selectors(h.patch_index)[1]
        return A_part, B_part

    def arrow_sampler(rng):
        return prod.join(sample_point(M, rng), sample_point(M, rng))

    def sfiber(x, rng):
        return prod.join(sample_point(M, rng), x)

    def tfiber(x, rng):
        return prod.join(x, sample_point(M, rng))

    return Groupoid(
        name=name or f"pair({M.name})",
        objects=M,
        arrows=A,
        src=factor_projection(prod, 1, "src"),   # (a, b) -> b
        tgt=factor_projection(prod, 0, "tgt"),
        unit=SmoothMap(M, A, unit_eval, PatchJacobian(unit_jac), "unit"),
        inv=SmoothMap(A, A, inv_eval, PatchJacobian(inv_jac), "inv"),
        mul=PairMap(A, A, A, mul_eval, PatchJacobian(mul_jac), "mul"),
        arrow_sampler=arrow_sampler,
        object_sampler=lambda rng: sample_point(M, rng),
        sfiber_sampler=sfiber,
        tfiber_sampler=tfiber,
        metadata={"product_space": prod, "source_connected": len(M.patches) == 1},
    )


# ---------------------------------------------------------------------------
# unit groupoid


def _constant_jacobians(J, C):
    """One constant Jacobian J for every row of C, as a (k, m, n) array."""
    return np.repeat(J[None], len(C), axis=0)


def unit_groupoid(M: Space, name: str = "") -> Groupoid:
    dim = M.dim
    ident = identity_map(M)
    eye = np.eye(dim)
    slot, weight = np.zeros(1, dtype=np.intp), np.ones(1)   # each object is its one node

    def mul_eval(g, h):
        return h

    def mul_jac(g, h):
        return np.zeros((dim, dim)), np.eye(dim)

    return Groupoid(
        name=name or f"unit({M.name})",
        objects=M,
        arrows=M,
        src=ident,
        tgt=ident,
        unit=ident,
        inv=ident,
        mul=PairMap(M, M, M, mul_eval, PatchJacobian(mul_jac), "mul"),
        arrow_sampler=lambda rng: sample_point(M, rng),
        object_sampler=lambda rng: sample_point(M, rng),
        sfiber_sampler=lambda x, rng: x,
        tfiber_sampler=lambda x, rng: x,
        sfiber_grid=lambda x, n: [x],
        metadata={"is_unit_groupoid": True,
                  "compact_tfibers": True,
                  "source_connected": True},
        kernels=ArrayKernels(
            nodes=lambda p, X, n: [(p, slot, X[:, None, :], weight)],
            mul=lambda p, G, q, H: (q, H),
            inv=lambda p, C: (p, C, _constant_jacobians(eye, C)),
            src=lambda p, C: (p, C),
            unit=lambda p, X: (p, X)),
    )


# ---------------------------------------------------------------------------
# product groupoids G1 x G2 and the projection onto the first factor


def product_map(f1: SmoothMap, f2: SmoothMap, domain: ProductSpace,
                codomain: ProductSpace, name: str) -> SmoothMap:
    """f1 x f2 in packed coordinates; its Jacobian is block-diagonal, and
    patch-constant when both factors' Jacobians are."""

    def ev(p):
        a, b = domain.split(p)
        return codomain.join(f1(a), f2(b))

    def jac(p):
        a, b = domain.split(p)
        out = codomain.pack_index(f1(a).patch_index, f2(b).patch_index)
        return codomain.factorwise_jacobian(out, jacobian(f1, a), jacobian(f2, b),
                                            domain, p.patch_index)

    if isinstance(f1.jac, PatchJacobian) and isinstance(f2.jac, PatchJacobian):
        jac = PatchJacobian(jac)
    return SmoothMap(domain.space, codomain.space, ev, jac, name)


def product_kernels(K1: ArrayKernels, K2: ArrayKernels, arr: ProductSpace,
                    obj: ProductSpace) -> ArrayKernels:
    """Kernels of G1 x G2 from those of its factors, by column placement.

    Target-fibre nodes run over G1's nodes, then G2's, as the product's
    points do: an object's G1 node in slot s1 with its G2 node in slot s2 is
    its node in slot ``s1 * n2 + s2``, n2 being its G2 node count, with
    weight ``w1 * w2``. Each pair of factor node patches makes one block,
    the outer product of their nodes.
    """

    def mul(p, G, q, H):
        (i1, i2), (j1, j2) = arr.unpack_index(p), arr.unpack_index(q)
        (g1, g2), (h1, h2) = arr.split_rows(p, G), arr.split_rows(q, H)
        (r1, R1), (r2, R2) = K1.mul(i1, g1, j1, h1), K2.mul(i2, g2, j2, h2)
        out = arr.pack_index(r1, r2)
        return out, arr.join_rows(out, R1, R2)

    def inv(p, C):
        (i1, i2), (c1, c2) = arr.unpack_index(p), arr.split_rows(p, C)
        (r1, R1, J1), (r2, R2, J2) = K1.inv(i1, c1), K2.inv(i2, c2)
        out = arr.pack_index(r1, r2)
        return out, arr.join_rows(out, R1, R2), arr.factorwise_jacobian(out, J1, J2, arr, p)

    def src(p, C):
        (i1, i2), (c1, c2) = arr.unpack_index(p), arr.split_rows(p, C)
        (r1, R1), (r2, R2) = K1.src(i1, c1), K2.src(i2, c2)
        out = obj.pack_index(r1, r2)
        return out, obj.join_rows(out, R1, R2)

    def unit(p, X):
        (i1, i2), (x1, x2) = obj.unpack_index(p), obj.split_rows(p, X)
        (r1, R1), (r2, R2) = K1.unit(i1, x1), K2.unit(i2, x2)
        out = arr.pack_index(r1, r2)
        return out, arr.join_rows(out, R1, R2)

    def nodes(p, X, n):
        (i1, i2), (x1, x2) = obj.unpack_index(p), obj.split_rows(p, X)
        second = K2.nodes(i2, x2, n)
        n2 = sum(len(s2) for _, s2, _, _ in second)
        k, blocks = len(X), []
        for p1, s1, H1, w1 in K1.nodes(i1, x1, n):
            for p2, s2, H2, w2 in second:
                q, m = arr.pack_index(p1, p2), len(s1) * len(s2)
                # node a * len(s2) + b of a row pairs its G1 node a with its G2 node b
                left = np.repeat(H1, len(s2), axis=1).reshape(k * m, H1.shape[2])
                right = np.tile(H2, (1, len(s1), 1)).reshape(k * m, H2.shape[2])
                H = arr.join_rows(q, left, right).reshape(k, m, H1.shape[2] + H2.shape[2])
                blocks.append((q, (s1[:, None] * n2 + s2).ravel(), H,
                               (w1[:, None] * w2).ravel()))
        return blocks

    return ArrayKernels(nodes=nodes, mul=mul, inv=inv, src=src, unit=unit)


def product_groupoid(G1: Groupoid, G2: Groupoid, name: str = "") -> Groupoid:
    """Product groupoid G1 x G2 over G1.objects x G2.objects.

    Structure maps act on each factor separately, so Jacobians and ``mul``
    partials are block-diagonal. Every sampler draws from G1 first, then from
    G2. Fibre grids, array kernels (with the target-fibre quadrature) and
    probe objects exist when the factors supply them (a factor without probe
    objects contributes its origin).
    """
    arr = ProductSpace(G1.arrows, G2.arrows)
    obj = ProductSpace(G1.objects, G2.objects)
    A = arr.space

    def mul_eval(g, h):
        g1, g2 = arr.split(g)
        h1, h2 = arr.split(h)
        return arr.join(G1.mul(g1, h1), G2.mul(g2, h2))

    def mul_jac(g, h):
        g1, g2 = arr.split(g)
        h1, h2 = arr.split(h)
        A1, B1 = G1.mul.partials(g1, h1)
        A2, B2 = G2.mul.partials(g2, h2)
        out = mul_eval(g, h).patch_index
        return (arr.factorwise_jacobian(out, A1, A2, arr, g.patch_index),
                arr.factorwise_jacobian(out, B1, B2, arr, h.patch_index))

    if isinstance(G1.mul.jac2, PatchJacobian) and isinstance(G2.mul.jac2, PatchJacobian):
        mul_jac = PatchJacobian(mul_jac)

    def fiber_sampler(sample1, sample2):
        def sample(x, rng):
            x1, x2 = obj.split(x)
            return arr.join(sample1(x1, rng), sample2(x2, rng))

        return sample

    def sfiber_grid(x, n):
        x1, x2 = obj.split(x)
        return [arr.join(a, b) for a in G1.sfiber_grid(x1, n) for b in G2.sfiber_grid(x2, n)]

    def origin(space):
        return Point.raw(space, 0, (0.0,) * space.dim)

    def both(key):
        return bool(G1.metadata.get(key)) and bool(G2.metadata.get(key))

    return Groupoid(
        name=name or f"{G1.name}x{G2.name}",
        objects=obj.space,
        arrows=A,
        src=product_map(G1.src, G2.src, arr, obj, "src"),
        tgt=product_map(G1.tgt, G2.tgt, arr, obj, "tgt"),
        unit=product_map(G1.unit, G2.unit, obj, arr, "unit"),
        inv=product_map(G1.inv, G2.inv, arr, arr, "inv"),
        mul=PairMap(A, A, A, mul_eval, mul_jac, "mul"),
        arrow_sampler=lambda rng: arr.join(G1.arrow_sampler(rng), G2.arrow_sampler(rng)),
        object_sampler=lambda rng: obj.join(G1.object_sampler(rng), G2.object_sampler(rng)),
        sfiber_sampler=fiber_sampler(G1.sfiber_sampler, G2.sfiber_sampler),
        tfiber_sampler=fiber_sampler(G1.tfiber_sampler, G2.tfiber_sampler),
        sfiber_grid=sfiber_grid if G1.sfiber_grid and G2.sfiber_grid else None,
        probe_objects=(
            tuple(obj.join(x, origin(G2.objects)) for x in G1.probe_objects)
            + tuple(obj.join(origin(G1.objects), x) for x in G2.probe_objects)
        ),
        metadata={
            "arr_product": arr,
            "obj_product": obj,
            "factors": (G1, G2),
            "compact_tfibers": both("compact_tfibers"),
            "source_connected": both("source_connected"),
        },
        kernels=(product_kernels(G1.kernels, G2.kernels, arr, obj)
                 if G1.kernels and G2.kernels else None),
    )


def product_projection(G: Groupoid, name: str, metadata: Optional[dict] = None,
                       **fields) -> GroupoidMorphism:
    """The projection pr1: G1 x G2 -> G1 of a product groupoid.

    Fibres are sampled with G2's samplers; ``fields`` (the kernel) are passed
    on to the morphism. Both maps are coordinate cuts.
    """
    G1, G2 = G.metadata["factors"]
    arr, obj = G.metadata["arr_product"], G.metadata["obj_product"]
    return GroupoidMorphism(
        name=name,
        total=G,
        base_grpd=G1,
        arrow_map=factor_projection(arr, 0, "pr1"),
        object_map=factor_projection(obj, 0, "pr1_0"),
        fiber_sampler=lambda h, rng: arr.join(h, G2.arrow_sampler(rng)),
        object_fiber_sampler=lambda y, rng: obj.join(y, G2.object_sampler(rng)),
        metadata=metadata or {},
        **fields,
    )


# ---------------------------------------------------------------------------
# abelian groups Z_n x R^a x T^b over a point, and bundles of them


def _to_point_cut(p: int, C: np.ndarray):
    """The map to a point as a coordinate cut: no columns."""
    return 0, C[:, :0]


def abelian_group(A: Space, name: str) -> Groupoid:
    """The abelian group Z_n x R^a x T^b on A as a groupoid over a point.

    Each of the n patches of A is one copy of R^a x T^b; patch indices add
    mod n and coordinates add. Compact groups (a = 0) carry array kernels
    with uniform target-fibre nodes, and source-fibre grids made of the same
    points: m equally spaced angles on each circle, so m^b points per patch
    for node count m.
    """
    shape = (A.patches[0].lin_count, A.patches[0].circ_count)
    if any((p.lin_count, p.circ_count) != shape or p.excluded_points for p in A.patches):
        raise InvalidParams(f"{name}: group patches must be equal and unpunctured")
    pt = point_space()
    order, dim = len(A.patches), A.dim
    origin = Point.raw(pt, 0, ())

    def mul_eval(g, h):
        return Point.raw(A, (g.patch_index + h.patch_index) % order,
                         tuple(a + b for a, b in zip(g.coords, h.coords)))

    def inv_eval(p):
        return Point.raw(A, (-p.patch_index) % order, tuple(-c for c in p.coords))

    plans = {}   # per node count: the angles on one patch, and each patch's slots and weights
    minus_eye = -np.eye(dim)

    def nodes(p, X, n):
        if n not in plans:
            angles = np.array(list(itertools.product([TWO_PI * j / n for j in range(n)],
                                                     repeat=dim))).reshape(n ** dim, dim)
            m = len(angles)
            w = np.full(m, 1.0 / (order * m))
            plans[n] = angles, [(q, q * m + np.arange(m), w) for q in range(order)]
        angles, per_patch = plans[n]
        H = np.broadcast_to(angles, (len(X),) + angles.shape)
        return [(q, slots, H, w) for q, slots, w in per_patch]

    compact = shape[0] == 0
    to_point = PatchJacobian(lambda p: np.zeros((0, dim)))   # src and tgt: the same on every patch
    return Groupoid(
        name=name,
        objects=pt,
        arrows=A,
        src=SmoothMap(A, pt, lambda p: origin, to_point, "src", _to_point_cut),
        tgt=SmoothMap(A, pt, lambda p: origin, to_point, "tgt", _to_point_cut),
        unit=SmoothMap(pt, A, lambda x: Point.raw(A, 0, (0.0,) * dim),
                       PatchJacobian(lambda x: np.zeros((dim, 0))), "unit"),
        inv=SmoothMap(A, A, inv_eval, PatchJacobian(lambda p: -np.eye(dim)), "inv"),
        mul=PairMap(A, A, A, mul_eval,
                    PatchJacobian(lambda g, h: (np.eye(dim), np.eye(dim))), "mul"),
        arrow_sampler=lambda rng: sample_point(A, rng),
        object_sampler=lambda rng: origin,
        sfiber_sampler=lambda x, rng: sample_point(A, rng),
        tfiber_sampler=lambda x, rng: sample_point(A, rng),
        sfiber_grid=(lambda x, n: [p for q, _, H, _ in nodes(0, np.zeros((1, 0)), n)
                                   for p in points(A, q, H[0])]) if compact else None,
        metadata={"source_connected": order == 1, "compact_tfibers": compact},
        kernels=ArrayKernels(
            nodes=nodes,
            mul=lambda p, G, q, H: ((p + q) % order, G + H),
            inv=lambda p, C: ((-p) % order, -C, _constant_jacobians(minus_eye, C)),
            src=lambda p, C: (0, np.zeros((len(C), 0))),
            unit=lambda p, X: (0, np.zeros((len(X), dim)))) if compact else None,
    )


def so2_group() -> Groupoid:
    return abelian_group(circle("SO2"), "SO(2)")


def finite_group_groupoid(order: int = 2) -> Groupoid:
    return abelian_group(finite(range(order), name=f"Z{order}"), f"Z{order}")


def group_bundle(
    M: Space,
    group: str,
    order: int = 2,
    punctured_at: Optional[tuple] = None,
    excl_radius: float = DEFAULT.numeric_excl_radius,
    name: str = "",
) -> Groupoid:
    """Bundle of groups M x Gamma with fiberwise group law.

    ``group`` is "finite" (cyclic of ``order``) or "circle"; the bundle is the
    product Unit(M) x Gamma. The punctured variant removes
    {x0} x (Gamma \\ {e}) for finite Gamma, realized as an exclusion ball on
    every nontrivial-element patch; it is not a product and is built directly
    over M. It carries no array kernels, so it has no Haar quadrature: it is
    not proper, since the arrows (1/n, g), g != e, have no limit in it.
    """
    if group == "finite":
        if order < 1:
            raise InvalidParams("finite group order must be >= 1")
        gamma, label = finite_group_groupoid(order), f"Z{order}"
    elif group == "circle":
        if punctured_at is not None:
            raise InvalidParams("punctured bundles require a finite group")
        gamma, label = so2_group(), "S1"
    else:
        raise InvalidParams(f"unknown group kind: {group}")
    if punctured_at is None:
        return product_groupoid(unit_groupoid(M), gamma,
                                name=name or f"bundle({M.name},{label})")
    if len(M.patches) != 1:
        raise InvalidParams("punctured bundles need a single-patch base")
    base = M.patches[0]
    ball = ((tuple(punctured_at), excl_radius),)
    A = Space(tuple(Patch(base.lin_count, base.circ_count, str(k), ball if k else ())
                    for k in range(order)), name=f"{M.name}xZ{order}*")
    dim = M.dim
    # one memo for the four maps: each returns the identity whatever the patch
    eye = PatchJacobian(lambda p: np.eye(dim))

    def src_eval(p):
        return Point.raw(M, 0, p.coords)

    def inv_eval(p):
        return Point.raw(A, (-p.patch_index) % order, p.coords)

    def mul_eval(g, h):
        return Point.raw(A, (g.patch_index + h.patch_index) % order, h.coords)

    def mul_jac(g, h):
        return np.zeros((dim, dim)), np.eye(dim)

    def arrow_sampler(rng):
        k = int(rng.integers(order))
        sample_point(M, rng)  # discarded, so that seeded samples stay as reported
        return Point.raw(A, k, sample_coords(A.patches[k], rng))

    def on_puncture(coords) -> bool:
        # patch -1 carries the ball whenever order > 1
        last = A.patches[-1]
        return any(last.coord_distance(coords, c) <= r for c, r in last.excluded_points)

    def elements_over(x: Point):
        # the identity alone survives over the puncture
        return [0] if on_puncture(x.coords) else list(range(order))

    def sfiber(x, rng):
        ks = elements_over(x)
        return Point.raw(A, ks[rng.integers(len(ks))], x.coords)

    def sfiber_grid(x, n):
        return [Point.raw(A, k, x.coords) for k in elements_over(x)]

    return Groupoid(
        name=name or f"bundle({M.name},Z{order}*)",
        objects=M,
        arrows=A,
        src=SmoothMap(A, M, src_eval, eye, "src"),
        tgt=SmoothMap(A, M, src_eval, eye, "tgt"),
        unit=SmoothMap(M, A, lambda x: Point.raw(A, 0, x.coords), eye, "unit"),
        inv=SmoothMap(A, A, inv_eval, eye, "inv"),
        mul=PairMap(A, A, A, mul_eval, PatchJacobian(mul_jac), "mul"),
        arrow_sampler=arrow_sampler,
        object_sampler=lambda rng: sample_point(M, rng),
        sfiber_sampler=sfiber,
        tfiber_sampler=sfiber,
        sfiber_grid=sfiber_grid,
        probe_objects=(Point.raw(M, 0, punctured_at),),
        metadata={
            "compact_tfibers": True,
            "group_order": order,
            "source_connected": order == 1,
        },
    )


# ---------------------------------------------------------------------------
# the rotation action of SO(2) on the plane and its action groupoid


def _rot(phi) -> np.ndarray:
    """Rotation matrices R(phi) for an array of angles, shape (k, 2, 2).

    The result is C-contiguous, so each product with it takes the same BLAS
    path as a single 2 x 2 matrix does.
    """
    c, s = np.cos(phi), np.sin(phi)
    R = np.empty((len(phi), 2, 2))
    R[:, 0, 0], R[:, 0, 1], R[:, 1, 0], R[:, 1, 1] = c, -s, s, c
    return R


def so2_action_groupoid(trivial: bool = False, name: str = "") -> Groupoid:
    """Action groupoid SO(2) x R^2 over R^2 (rotation or trivial action).

    The structure maps are written once, as array kernels on rows
    (v1, v2, phi); src, tgt, inv and mul on Points are one-row calls of them.
    """
    M = line(2, name="R2")
    circ = circle("SO2")   # the angle factor is SO(2)'s arrows
    prod = ProductSpace(M, circ)
    A = prod.space  # coords (v1, v2, phi)

    def acting(phi):
        return np.zeros_like(phi) if trivial else phi

    def fibre_rows(v, phi):
        """The arrows (R(-phi) v, phi) with target v, one row per angle."""
        rows = np.empty((len(phi), 3))
        rows[:, :2] = np.matmul(_rot(acting(-phi)), v)
        rows[:, 2] = phi
        return rows

    plans = {}   # per node count: the angles phi, R(-phi) as acting, slots and weights

    def nodes(p, X, n):
        """The arrows (R(-phi) v, phi) with target v, for every row v of X."""
        if n not in plans:
            phi = TWO_PI * np.arange(n) / n
            plans[n] = phi, _rot(acting(-phi)), np.arange(n), np.full(n, 1.0 / n)
        phi, R, slots, w = plans[n]
        H = np.empty((len(X), n, 3))
        # one 2 x 2 product per node, each as fibre_rows makes it
        H[:, :, :2] = np.matmul(R, X[:, None, :, None])[..., 0]
        H[:, :, 2] = phi
        return [(0, slots, H, w)]

    def mul(p, G, q, H):  # (v, phi)(w, psi) = (w, phi + psi)
        out = H.copy()
        out[:, 2] = G[:, 2] + H[:, 2]
        return 0, out

    def inv(p, C):  # (v, phi)^-1 = (R(phi) v, -phi)
        V, phi = C[:, :2], C[:, 2]
        R = _rot(acting(phi))
        out, J = np.empty((len(C), 3)), np.zeros((len(C), 3, 3))
        out[:, :2], out[:, 2] = apply_rows(R, V), -phi
        J[:, :2, :2], J[:, 2, 2] = R, -1.0
        if not trivial:
            J[:, :2, 2] = apply_rows(_rot(phi + math.pi / 2.0), V)
        return 0, out, J

    def src(p, C):
        return 0, C[:, :2]

    def unit(p, X):  # x -> (x, 0)
        out = np.zeros((len(X), 3))
        out[:, :2] = X
        return 0, out

    def row(p):
        return np.array([p.coords])

    def point(space, patch, rows):
        return Point(space, patch, tuple(rows[0].tolist()))

    S_v, S_phi = prod.selectors(0)

    def mul_jac(g, h):
        A_part = S_phi.T @ S_phi
        B_part = S_v.T @ S_v + S_phi.T @ S_phi
        return A_part, B_part

    def tfiber(x, rng):
        phi = float(rng.uniform(0, TWO_PI))
        return point(A, 0, fibre_rows(np.asarray(x.coords), np.array([phi])))

    # Ti and Tt (its top rows: t = s o inv) depend on phi unless the action is trivial
    declare = PatchJacobian if trivial else (lambda jac: jac)
    return Groupoid(
        name=name or ("SO(2)⋉R2(trivial)" if trivial else "SO(2)⋉R2"),
        objects=M,
        arrows=A,
        src=SmoothMap(A, M, lambda p: point(M, *src(0, row(p))), PatchJacobian(lambda p: S_v),
                      "src"),
        tgt=SmoothMap(A, M, lambda p: point(M, *src(*inv(0, row(p))[:2])),
                      declare(lambda p: inv(0, row(p))[2][0, :2]), "tgt"),
        unit=SmoothMap(M, A, lambda x: prod.join(x, Point.raw(circ, 0, (0.0,))),
                       PatchJacobian(lambda x: S_v.T), "unit"),
        inv=SmoothMap(A, A, lambda p: point(A, *inv(0, row(p))[:2]),
                      declare(lambda p: inv(0, row(p))[2][0]), "inv"),
        mul=PairMap(A, A, A, lambda g, h: point(A, *mul(0, row(g), 0, row(h))),
                    PatchJacobian(mul_jac), "mul"),
        arrow_sampler=lambda rng: sample_point(A, rng),
        object_sampler=lambda rng: sample_point(M, rng),
        sfiber_sampler=lambda x, rng: prod.join(
            x, Point.raw(circ, 0, (float(rng.uniform(0, TWO_PI)),))
        ),
        tfiber_sampler=tfiber,
        sfiber_grid=lambda x, n: [
            prod.join(x, Point.raw(circ, 0, (TWO_PI * j / n,))) for j in range(n)
        ],
        probe_objects=(Point.raw(M, 0, (1.0, 0.0)),),
        metadata={
            "compact_tfibers": True,
            "trivial_action": trivial,
            "source_connected": True,
            "product_space": prod,
        },
        kernels=ArrayKernels(nodes=nodes, mul=mul, inv=inv, src=src, unit=unit),
    )


def so2_action_morphism(trivial: bool = False) -> GroupoidMorphism:
    """Action morphism pr1: SO(2)⋉R^2 -> SO(2)."""
    G = so2_action_groupoid(trivial=trivial)
    H = so2_group()
    prod: ProductSpace = G.metadata["product_space"]
    return GroupoidMorphism(
        name=f"pr1[{G.name}]",
        total=G,
        base_grpd=H,
        arrow_map=factor_projection(prod, 1, "pr1"),
        object_map=SmoothMap(G.objects, H.objects, lambda x: Point.raw(H.objects, 0, ()),
                             PatchJacobian(lambda p: np.zeros((0, 2))), "pt"),
        fiber_sampler=lambda h, rng: prod.join(sample_point(G.objects, rng), h),
        object_fiber_sampler=lambda y, rng: sample_point(G.objects, rng),
        metadata={"action_morphism": True},
    )


# ---------------------------------------------------------------------------
# the R^2 -> S^1 group homomorphism (abelian-group counterexample carrier)


def plane_to_circle_morphism() -> GroupoidMorphism:
    """The abelian group R^2 over the circle group, (x, y) -> x mod 2pi."""
    pt = point_space()
    plane = line(2, name="R2grp")
    circ_arr = circle("S1grp")
    G = abelian_group(plane, "R2-group")
    H = abelian_group(circ_arr, "S1-group")

    def pi_eval(p):
        return Point.raw(circ_arr, 0, (p.coords[0],))

    def fiber_sampler(h, rng):
        k = int(rng.integers(-1, 2))
        return Point.raw(
            plane, 0, (h.coords[0] + TWO_PI * k, float(rng.uniform(-BOX, BOX)))
        )

    def path(rng):
        return random_smooth_path(circ_arr, 0, rng)

    def composable(rng):
        gamma, eta = path(rng), path(rng)
        return gamma, eta, fiber_sampler(gamma.point(0.0), rng), fiber_sampler(eta.point(0.0), rng)

    pi = GroupoidMorphism(
        name="R2->S1",
        total=G,
        base_grpd=H,
        arrow_map=SmoothMap(plane, circ_arr, pi_eval,
                            PatchJacobian(lambda p: np.array([[1.0, 0.0]])), "pi"),
        object_map=SmoothMap(pt, pt, lambda x: Point.raw(pt, 0, ()),
                             PatchJacobian(lambda p: np.zeros((0, 0))), "pi0"),
        fiber_sampler=fiber_sampler,
        object_fiber_sampler=lambda y, rng: y,
    )
    pi.transport = fibre_starts(pi, path, composable,
                                lambda rng: coordinate_path(pt, 0, lambda t: (), lambda t: ()))
    return pi

# ---------------------------------------------------------------------------
# pullback groupoid along a product projection pi0: N x F -> N


def pullback_of_projection(H: Groupoid, F: Space, name: str = "") -> GroupoidMorphism:
    """Pullback groupoid pi0*H for pi0 = pr1: M = N x F -> N, with the
    projection morphism onto H (a Morita fibration).

    The pullback is the product H x Pair(F): an arrow (h, f_t, f_s) is the
    triple (x, h, y) with x = (tgt(h), f_t), y = (src(h), f_s). Its kernel is
    Unit(N) x Pair(F), embedded by H.unit x id.
    """
    N = H.objects
    pair_F = pair_groupoid(F)
    fibre_pairs: ProductSpace = pair_F.metadata["product_space"]
    G = product_groupoid(H, pair_F, name=name or f"pullback({H.name})")
    arr: ProductSpace = G.metadata["arr_product"]

    def split3(p):
        h, f = arr.split(p)
        return (h, *fibre_pairs.split(f))

    def join3(h, ft, fs):
        return arr.join(h, fibre_pairs.join(ft, fs))

    ker_name = f"ker[{name or 'pullback'}]"
    K = product_groupoid(unit_groupoid(N), pair_F, name=ker_name)
    embed = product_map(H.unit, identity_map(pair_F.arrows), K.metadata["arr_product"], arr,
                        "ker_incl")
    kernel_family = product_projection(K, f"{ker_name}->N", metadata={"family": True})

    return product_projection(
        G,
        name or f"pr[{H.name}]",
        kernel=KernelData(K, embed, kernel_family),
        metadata={
            "morita_fibration": True,
            "declared_fibration": True,
            "triple": (split3, join3),
            "base_product": G.metadata["obj_product"],
        },
    )


# ---------------------------------------------------------------------------
# trivial family N x Fiber -> N (with its projection morphism)


def trivial_family(N: Space, fiber: Groupoid, name: str = "") -> GroupoidMorphism:
    """Constant family Unit(N) x fiber of groupoids over N with the projection
    morphism."""
    G = product_groupoid(unit_groupoid(N), fiber, name=name or f"{N.name}x{fiber.name}")
    arr = G.metadata["arr_product"]

    def path(rng):
        return random_smooth_path(N, 0, rng)

    def composable(rng):
        gamma = path(rng)
        y0 = gamma.point(0.0)
        qg, qh = fiber.pair_sample(rng)
        return gamma, gamma, arr.join(y0, qg), arr.join(y0, qh)

    pi = product_projection(G, name or f"family[{G.name}]",
                            metadata={"family": True, "declared_fibration": True})
    pi.transport = fibre_starts(pi, path, composable, path)
    return pi


# ---------------------------------------------------------------------------
# disjoint unions


@dataclass(frozen=True)
class UnionSpace:
    parts: tuple[Space, ...]
    space: Space

    @classmethod
    def of(cls, *parts: Space, name: str = "") -> "UnionSpace":
        patches = []
        for i, part in enumerate(parts):
            for p in part.patches:
                patches.append(
                    Patch(p.lin_count, p.circ_count, f"{i}|{p.component_label}", p.excluded_points)
                )
        return cls(tuple(parts), Space(tuple(patches), name=name or "⊔".join(p.name for p in parts)))

    def offset(self, part_index: int) -> int:
        return sum(len(p.patches) for p in self.parts[:part_index])

    def embed(self, part_index: int, p: Point) -> Point:
        return Point.raw(self.space, self.offset(part_index) + p.patch_index, p.coords)

    def split(self, p: Point) -> tuple[int, Point]:
        idx = p.patch_index
        for i, part in enumerate(self.parts):
            if idx < len(part.patches):
                return i, Point.raw(part, idx, p.coords)
            idx -= len(part.patches)
        raise IndexError(p.patch_index)


def disjoint_union(parts: list[Groupoid], name: str = "") -> Groupoid:
    """Disjoint union groupoid; all parts must share coordinate dimensions."""
    if len({g.arrows.dim for g in parts}) != 1 or len({g.objects.dim for g in parts}) != 1:
        raise InvalidParams("disjoint union requires equal patch dimensions")
    ua = UnionSpace.of(*(g.arrows for g in parts))
    uo = UnionSpace.of(*(g.objects for g in parts))
    def route(get_map, in_union, out_union, nm):
        def ev(p):
            i, q = in_union.split(p)
            return out_union.embed(i, get_map(parts[i])(q))

        def jac(p):
            i, q = in_union.split(p)
            return jacobian(get_map(parts[i]), q)

        if all(isinstance(get_map(g).jac, PatchJacobian) for g in parts):
            jac = PatchJacobian(jac)
        return SmoothMap(in_union.space, out_union.space, ev, jac, nm)

    def mul_eval(g, h):
        i, qg = ua.split(g)
        j, qh = ua.split(h)
        if i != j:
            raise InvalidParams("arrows of different union components are not composable")
        return ua.embed(i, parts[i].mul(qg, qh))

    def mul_jac(g, h):
        i, qg = ua.split(g)
        _, qh = ua.split(h)
        return parts[i].mul.partials(qg, qh)

    if all(isinstance(g.mul.jac2, PatchJacobian) for g in parts):
        mul_jac = PatchJacobian(mul_jac)

    def arrow_sampler(rng):
        i = int(rng.integers(len(parts)))
        return ua.embed(i, parts[i].arrow_sampler(rng))

    def object_sampler(rng):
        i = int(rng.integers(len(parts)))
        return uo.embed(i, parts[i].object_sampler(rng))

    def sfiber(x, rng):
        i, q = uo.split(x)
        return ua.embed(i, parts[i].sfiber_sampler(q, rng))

    def tfiber(x, rng):
        i, q = uo.split(x)
        return ua.embed(i, parts[i].tfiber_sampler(q, rng))

    def sfiber_grid(x, n):
        i, q = uo.split(x)
        return [ua.embed(i, a) for a in parts[i].sfiber_grid(q, n)]

    probes = tuple(
        uo.embed(i, q) for i, g in enumerate(parts) for q in g.probe_objects
    )

    return Groupoid(
        name=name or "⊔".join(g.name for g in parts),
        objects=uo.space,
        arrows=ua.space,
        src=route(lambda g: g.src, ua, uo, "src"),
        tgt=route(lambda g: g.tgt, ua, uo, "tgt"),
        unit=route(lambda g: g.unit, uo, ua, "unit"),
        inv=route(lambda g: g.inv, ua, ua, "inv"),
        mul=PairMap(ua.space, ua.space, ua.space, mul_eval, mul_jac, "mul"),
        arrow_sampler=arrow_sampler,
        object_sampler=object_sampler,
        sfiber_sampler=sfiber,
        tfiber_sampler=tfiber,
        sfiber_grid=sfiber_grid if all(g.sfiber_grid for g in parts) else None,
        probe_objects=probes,
        metadata={"union_arrows": ua, "union_objects": uo,
                  # a source fibre lies in one part
                  "source_connected": all(g.metadata.get("source_connected") for g in parts)},
    )

def covering_union_morphism(
    excl_radius: float = DEFAULT.numeric_excl_radius
) -> GroupoidMorphism:
    """Disjoint union (H ⊔ H*) -> H for H the constant bundle R x Z2 over R.

    H* removes {0} x (Z2 \\ {e}), as balls of radius ``excl_radius``.
    The morphism is the identity on the first copy and the inclusion on the
    second; it is a local diffeomorphism but not a fibration (the arrow
    (0, g), g != e, has no lift over the second copy of 0).
    """
    order = 2
    base = line(1, name="R")
    H = group_bundle(base, "finite", order=order, name="RxZ")
    H_star = group_bundle(base, "finite", order=order, punctured_at=(0.0,),
                          excl_radius=excl_radius, name="RxZ*")
    G = disjoint_union([H, H_star], name=f"{H.name}⊔{H_star.name}")
    ua: UnionSpace = G.metadata["union_arrows"]
    uo: UnionSpace = G.metadata["union_objects"]

    def pi_eval(p):
        i, q = ua.split(p)
        # component patches of H and H* enumerate group elements identically
        return Point.raw(H.arrows, q.patch_index, q.coords)

    def pi0_eval(x):
        # H's objects are M x pt, H*'s are M: the same coordinates
        return Point.raw(H.objects, 0, uo.split(x)[1].coords)

    # one memo for every map here: each returns the identity whatever the patch
    eye = PatchJacobian(lambda p: np.eye(1))

    def fiber_sampler(h, rng):
        i = int(rng.integers(2))
        if i == 0:
            return ua.embed(0, h)
        target = Point.raw(H_star.arrows, h.patch_index, h.coords)
        shortfall = H_star.arrows.patches[h.patch_index].exclusion_violation(h.coords)
        if shortfall is not None:
            return ua.embed(0, h)
        return ua.embed(1, target)

    def path(rng):
        k = int(rng.integers(order))
        return segment_path(H.arrows, k, *random_segment(rng, 1), label=f"seg[{k}]")

    def composable(rng):
        k1, k2 = int(rng.integers(order)), int(rng.integers(order))
        a, b = random_segment(rng, 1)
        gamma = segment_path(H.arrows, k1, a, b)
        eta = segment_path(H.arrows, k2, a, b)
        copy = int(rng.integers(2))
        if copy == 1:
            ok = all(H_star.arrows.patches[k].exclusion_violation(a) is None for k in (k1, k2))
            copy = 1 if ok else 0
        g = ua.embed(copy, Point.raw(ua.parts[copy], k1, a))
        k_arr = ua.embed(copy, Point.raw(ua.parts[copy], k2, a))
        return gamma, eta, g, k_arr

    def segment(space):
        return lambda rng: segment_path(space, 0, *random_segment(rng, 1))

    # kernel: the units of both copies, a covering of R by two sheets
    NU = unit_groupoid(base)
    K = disjoint_union([NU, NU], name="R⊔R")
    kua: UnionSpace = K.metadata["union_arrows"]

    def embed_eval(p):
        i, q = kua.split(p)
        # the unit-element patch of each copy is its patch 0
        return Point.raw(G.arrows, ua.offset(i), q.coords)

    def sheet(y, rng):
        return kua.embed(int(rng.integers(2)), y)

    kernel_family = GroupoidMorphism(
        name="cover_kernel",
        total=K,
        base_grpd=NU,
        arrow_map=SmoothMap(K.arrows, base, lambda p: kua.split(p)[1], eye, "pi_K"),
        object_map=SmoothMap(K.objects, base, lambda p: kua.split(p)[1], eye, "pi0"),
        fiber_sampler=sheet,
        object_fiber_sampler=sheet,
        metadata={"family": True},
    )
    kernel_family.transport = fibre_starts(kernel_family, segment(base))

    pi = GroupoidMorphism(
        name="disjoint_union_cover",
        total=G,
        base_grpd=H,
        arrow_map=SmoothMap(G.arrows, H.arrows, pi_eval, eye, "pi"),
        object_map=SmoothMap(G.objects, H.objects, pi0_eval, eye, "pi0"),
        fiber_sampler=fiber_sampler,
        object_fiber_sampler=lambda y, rng: uo.embed(int(rng.integers(2)), y),
        kernel=KernelData(K, SmoothMap(K.arrows, G.arrows, embed_eval, eye, "ker_incl"),
                          kernel_family),
        metadata={"declared_fibration": False},
    )
    pi.transport = fibre_starts(pi, path, composable, segment(H.objects))
    return pi


# ---------------------------------------------------------------------------
# product with a manifold: H x P -> H (a fibration that is not uniform)


def product_with_manifold(H: Groupoid, P: Space, name: str = "") -> GroupoidMorphism:
    """H x Unit(P) with the projection onto H."""
    G = product_groupoid(H, unit_groupoid(P), name=name or f"{H.name}xP")
    pi = product_projection(G, name or f"pr1[{G.name}]", metadata={"declared_fibration": True})
    pi.transport = fibre_starts(pi, lambda rng: random_smooth_path(
        H.arrows, int(rng.integers(len(H.arrows.patches))), rng))
    return pi


# ---------------------------------------------------------------------------
# pair-groupoid fibration Pair(M) -> Pair(S^1) for M a fibred circle product


def pair_fibration(punctured: bool = False, name: str = "") -> GroupoidMorphism:
    """Pair(M) -> Pair(S^1) over pi0 = angle projection, M = S^1 x F.

    F is R, or for the punctured variant R \\ {0} in logarithmic charts
    (x = ±exp(u)), so escape through the deleted point is a finite-time event
    for fibre-translating base lifts. The kernel is Unit(S^1) x Pair(F) and
    M is its object space: points (u, theta), kernel arrows (u1, u2, theta).
    """
    Ncirc = circle("S1")
    # fibre charts: plain R, or log charts x = +exp(u) on "pos", -exp(u) on "neg"
    F = (Space((Patch(1, 0, "pos"), Patch(1, 0, "neg")), name="R*") if punctured
         else line(1, name="R"))
    K = product_groupoid(unit_groupoid(Ncirc), pair_groupoid(F), name="ker[pair_fibration]")
    M, nM = K.objects, len(F.patches)
    G = pair_groupoid(M, name=f"pair({M.name})")
    H = pair_groupoid(Ncirc, name="pair(S1)")
    prodM: ProductSpace = G.metadata["product_space"]
    pi0 = factor_projection(K.metadata["obj_product"], 0, "pi0")

    def sample_M_over(theta: float, rng) -> Point:
        idx = int(rng.integers(nM))
        u = float(rng.uniform(-BOX, BOX)) if not punctured else float(rng.uniform(-1.0, 1.0))
        return Point.raw(M, idx, (u, theta))

    def fiber_sampler(h, rng):
        th1, th2 = h.coords
        return prodM.join(sample_M_over(th1, rng), sample_M_over(th2, rng))

    def embed(k):   # a kernel arrow k is the pair (tgt k, src k) of points of M
        return prodM.join(K.tgt(k), K.src(k))

    def embed_jac(k):
        S_t, S_s = prodM.selectors(embed(k).patch_index)
        return S_t.T @ jacobian(K.tgt, k) + S_s.T @ jacobian(K.src, k)

    # the fibre samplers keep their own draws, on which the punctured
    # variant's kernel witness index depends
    kernel_family = dataclasses.replace(
        product_projection(K, "ker[pair_fibration]->S1", metadata={"family": True}),
        fiber_sampler=lambda y, rng: Point.raw(
            K.arrows, nM * int(rng.integers(nM)) + int(rng.integers(nM)),
            (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)), y.coords[0]),
        ),
        object_fiber_sampler=lambda y, rng: sample_M_over(y.coords[0], rng),
    )

    def angle(rng):
        return sine_curve(rng, ANY_ANGLE, winding, 0.8)

    def composable(rng):
        gamma, eta = composable_pair_paths(H.arrows, angle, rng)
        (ta, tb), tc = gamma.point(0.0).coords, eta.point(0.0).coords[1]
        xa, xb, xc = (sample_M_over(t, rng) for t in (ta, tb, tc))
        return gamma, eta, prodM.join(xa, xb), prodM.join(xb, xc)

    pi = GroupoidMorphism(
        name=name or ("pair_fibration*" if punctured else "pair_fibration"),
        total=G,
        base_grpd=H,
        arrow_map=product_map(pi0, pi0, prodM, H.metadata["product_space"], "pi"),
        object_map=pi0,
        fiber_sampler=fiber_sampler,
        object_fiber_sampler=lambda y, rng: sample_M_over(y.coords[0], rng),
        kernel=KernelData(K, SmoothMap(K.arrows, G.arrows, embed, PatchJacobian(embed_jac),
                                       "ker_incl"), kernel_family),
        metadata={"declared_fibration": True, "product_space": prodM},
    )
    pi.transport = fibre_starts(pi, lambda rng: curve_path(H.arrows, 0, angle(rng), angle(rng)),
                                composable, lambda rng: curve_path(Ncirc, 0, angle(rng)))
    kernel_family.transport = fibre_starts(kernel_family,
                                           lambda rng: curve_path(Ncirc, 0, angle(rng)))
    return pi


# ---------------------------------------------------------------------------
# families built from bundles over their own base (pi = source)


def bundle_family_morphism(bundle: Groupoid, name: str = "") -> GroupoidMorphism:
    """A bundle of groups G over M seen as the family pi = pr1: G -> M.

    The kernel of a family is the whole groupoid; the kernel entry reuses the
    morphism itself.
    """
    M = bundle.objects

    def segment(rng):
        return segment_path(M, 0, *random_segment(rng, M.dim))

    def composable(rng):
        gamma = segment(rng)
        x0 = gamma.point(0.0)
        return gamma, gamma, bundle.sfiber_sampler(x0, rng), bundle.sfiber_sampler(x0, rng)

    pi = GroupoidMorphism(
        name=name or f"family[{bundle.name}]",
        total=bundle,
        base_grpd=unit_groupoid(M),
        arrow_map=bundle.src,
        object_map=identity_map(M),
        fiber_sampler=bundle.sfiber_sampler,
        object_fiber_sampler=lambda x, rng: x,
        metadata={
            "family": True,
            "declared_fibration": bundle.metadata.get("group_order", 0) == 1
            or not bundle.probe_objects,
        },
    )
    pi.transport = fibre_starts(pi, segment, composable, segment)
    pi.kernel = KernelData(bundle, identity_map(bundle.arrows), pi)
    return pi


def base_submersion_morphism(pi: GroupoidMorphism) -> GroupoidMorphism:
    """The base map pi0: M -> N as a morphism of unit groupoids."""
    return GroupoidMorphism(
        name=f"base[{pi.name}]",
        total=unit_groupoid(pi.total.objects),
        base_grpd=unit_groupoid(pi.base_grpd.objects),
        arrow_map=pi.object_map,
        object_map=pi.object_map,
        fiber_sampler=pi.object_fiber_sampler,
        object_fiber_sampler=pi.object_fiber_sampler,
        transport=TransportSamplers(pi.transport.object_path_with_start),
    )


# ---------------------------------------------------------------------------
# the reflection action of Z2 on R


def reflection_action_morphism() -> GroupoidMorphism:
    """Z_2 acting on R by reflection; the action morphism pr1 to Z_2."""
    M = line(1, name="R")
    A = Space((Patch(1, 0, "0"), Patch(1, 0, "1")), name="Z2⋉R")
    H = finite_group_groupoid(2)

    def sign(p):
        return 1.0 if p.patch_index == 0 else -1.0

    def tgt_eval(p):
        return Point.raw(M, 0, (sign(p) * p.coords[0],))

    def mul_eval(g, h):
        return Point.raw(A, (g.patch_index + h.patch_index) % 2, h.coords)

    eye = PatchJacobian(lambda p: np.eye(1))   # src and unit: the same on every patch
    signed = PatchJacobian(lambda p: np.array([[sign(p)]]))   # tgt and inv: one sign per patch
    G = Groupoid(
        name="Z2⋉R",
        objects=M,
        arrows=A,
        src=SmoothMap(A, M, lambda p: Point.raw(M, 0, p.coords), eye, "src"),
        tgt=SmoothMap(A, M, tgt_eval, signed, "tgt"),
        unit=SmoothMap(M, A, lambda x: Point.raw(A, 0, x.coords), eye, "unit"),
        inv=SmoothMap(A, A, lambda p: Point.raw(A, p.patch_index, (sign(p) * p.coords[0],)),
                      signed, "inv"),
        mul=PairMap(A, A, A, mul_eval, PatchJacobian(lambda g, h: (np.zeros((1, 1)), np.eye(1))),
                    "mul"),
        arrow_sampler=lambda rng: Point.raw(A, int(rng.integers(2)),
                                            (float(rng.uniform(-BOX, BOX)),)),
        object_sampler=lambda rng: sample_point(M, rng),
        sfiber_sampler=lambda x, rng: Point.raw(A, int(rng.integers(2)), x.coords),
        tfiber_sampler=lambda x, rng: _refl_tfiber(x, rng),
        sfiber_grid=lambda x, n: [Point.raw(A, k, x.coords) for k in range(2)],
        metadata={"source_connected": False},
    )

    def _refl_tfiber(x, rng):
        k = int(rng.integers(2))
        return Point.raw(A, k, ((1.0 if k == 0 else -1.0) * x.coords[0],))

    return GroupoidMorphism(
        name="pr1[Z2⋉R]",
        total=G,
        base_grpd=H,
        arrow_map=SmoothMap(A, H.arrows, lambda p: Point.raw(H.arrows, p.patch_index, ()),
                            PatchJacobian(lambda p: np.zeros((0, 1))), "pr1"),
        object_map=SmoothMap(M, H.objects, lambda x: Point.raw(H.objects, 0, ()),
                             PatchJacobian(lambda x: np.zeros((0, 1))), "pt"),
        fiber_sampler=lambda h, rng: Point.raw(A, h.patch_index,
                                               (float(rng.uniform(-BOX, BOX)),)),
        object_fiber_sampler=lambda y, rng: sample_point(M, rng),
        metadata={"action_morphism": True},
    )


def default_instances() -> list[tuple[str, Groupoid]]:
    """Every shipped groupoid, for whole-catalog verification runs."""
    entries: list[tuple[str, Groupoid]] = [
        ("pair(R)", pair_groupoid(line(1, name="R"))),
        ("pair(S1)", pair_groupoid(circle())),
        ("pair(S1xR)", pair_groupoid(Space((Patch(1, 1, "all"),), name="S1xR"))),
        ("SO(2)", so2_group()),
        ("SO(2)⋉R2", so2_action_groupoid()),
        ("SO(2)⋉R2(trivial)", so2_action_groupoid(trivial=True)),
        ("Z2⋉R", reflection_action_morphism().total),
        ("bundle(R,Z2)", group_bundle(line(1, name="R"), "finite", order=2)),
        ("bundle(R,Z3)", group_bundle(line(1, name="R"), "finite", order=3)),
        ("bundle(R,S1)", group_bundle(line(1, name="R"), "circle")),
        ("bundle(R,Z2)*", group_bundle(line(1, name="R"), "finite", order=2,
                                       punctured_at=(0.0,))),
        ("R2-group", plane_to_circle_morphism().total),
        ("S1-group", plane_to_circle_morphism().base_grpd),
        ("pullback(pair(R))", pullback_of_projection(
            pair_groupoid(line(1, name="R")), line(1, name="F")).total),
        ("family(R, bundle(R,Z2))", trivial_family(
            line(1, name="N"), group_bundle(line(1, name="F"), "finite", order=2)).total),
        ("family(R, SO(2)⋉R2)", trivial_family(line(1, name="N"), so2_action_groupoid()).total),
        ("cover union", covering_union_morphism().total),
        ("pair(R)xP", product_with_manifold(pair_groupoid(line(1, name="R")),
                                            line(1, name="P")).total),
        ("pair_fibration", pair_fibration().total),
        ("pair_fibration*", pair_fibration(punctured=True).total),
        ("ker[pair_fibration]", pair_fibration().kernel.groupoid),
        ("unit(R)", unit_groupoid(line(1, name="R"))),
    ]
    return entries
