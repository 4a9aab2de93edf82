"""Array kernels against the Point-level structure maps, bit for bit, and the
array-native Haar average against the per-node loop it replaced and against
its own one-row calls."""
import itertools
import math

import numpy as np
import pytest

import grpdconn.catalog as cat
from grpdconn.constructions import (
    HaarFiberQuadrature,
    RowField,
    haar_average,
    proper_family_connection,
)
from grpdconn.geometry import Point, Tangent, line
from grpdconn.groupoid import points, rng_for
from grpdconn.scenarios import (
    _rotating_base_lift,
    _skewed_source_lift,
    skewed_family_field,
    so2_family_setup,
)
from grpdconn.smoothmap import jacobian
from grpdconn.tangent import tm_apply

SAMPLES = 200

KERNEL_GROUPOIDS = [
    ("SO(2)", cat.so2_group()),
    ("Z2", cat.finite_group_groupoid(2)),
    ("Z3", cat.finite_group_groupoid(3)),
    ("SO(2)⋉R2", cat.so2_action_groupoid()),
    ("SO(2)⋉R2(trivial)", cat.so2_action_groupoid(trivial=True)),
    ("family(R, SO(2)⋉R2)", cat.trivial_family(line(1, name="N"),
                                                cat.so2_action_groupoid()).total),
    ("Unit(R)xZ2", cat.group_bundle(line(1, name="R"), "finite", order=2)),
    # nodes on both factors, and a bespoke bundle with a puncture
    ("SO(2)xZ2", cat.product_groupoid(cat.so2_group(), cat.finite_group_groupoid(2))),
    ("bundle(R,Z2)*", cat.group_bundle(line(1, name="R"), "finite", order=2,
                                       punctured_at=(0.0,))),
]


def _bits(a) -> tuple:
    a = np.ascontiguousarray(a, dtype=float)
    return a.shape, a.tobytes()


def _same_point(patch_index, row, p: Point) -> bool:
    return patch_index == p.patch_index and _bits(row) == _bits(p.coords)


def _same_one_row(block, p: Point) -> bool:
    patch_index, rows = block[:2]
    return len(rows) == 1 and _same_point(patch_index, rows[0], p)


def _rotation(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, -s], [s, c]])


def _reference_so2_inverse(G, g: Point) -> Point:
    """(v, phi)^-1 = (R(phi) v, -phi), one 2 x 2 product as Point-level code does."""
    v, phi = np.asarray(g.coords[:2]), g.coords[2]
    R = _rotation(0.0 if G.metadata["trivial_action"] else phi)
    return Point.raw(G.arrows, 0, (*(R @ v), -phi))


def _reference_nodes(G, x: Point, n: int):
    """Target-fibre nodes as Points, one closed-form list per primitive and all
    pairs of factor nodes (first factor outer) on a product."""
    if "factors" in G.metadata:
        G1, G2 = G.metadata["factors"]
        arr, obj = G.metadata["arr_product"], G.metadata["obj_product"]
        x1, x2 = obj.split(x)
        pts1, w1 = _reference_nodes(G1, x1, n)
        pts2, w2 = _reference_nodes(G2, x2, n)
        return ([arr.join(a, b) for a in pts1 for b in pts2],
                [u * v for u in w1 for v in w2])
    if G.metadata.get("is_unit_groupoid"):
        return [x], [1.0]
    if "group_order" in G.metadata:   # the punctured bundle: the elements over x
        pts = G.sfiber_grid(x, n)
        return pts, [1.0 / len(pts)] * len(pts)
    if "trivial_action" in G.metadata:
        v, pts = np.asarray(x.coords), []
        for j in range(n):
            phi = 2.0 * math.pi * j / n
            R = _rotation(0.0 if G.metadata["trivial_action"] else -phi)
            pts.append(Point.raw(G.arrows, 0, (*(R @ v), phi)))
        return pts, [1.0 / n] * n
    dim, order = G.arrows.dim, len(G.arrows.patches)
    angles = list(itertools.product([2.0 * math.pi * j / n for j in range(n)], repeat=dim))
    pts = [Point.raw(G.arrows, k, c) for k in range(order) for c in angles]
    return pts, [1.0 / len(pts)] * len(pts)


@pytest.mark.parametrize("name,G", KERNEL_GROUPOIDS, ids=[n for n, _ in KERNEL_GROUPOIDS])
def test_kernels_match_point_maps_bit_for_bit(name, G):
    K = G.kernels
    assert K is not None, name
    for i in range(SAMPLES):
        rng = rng_for(7, 211, i)
        g, h = G.pair_sample(rng)
        x = G.object_sampler(rng)
        g_row, h_row = np.array([g.coords]), np.array([h.coords])

        assert _same_one_row(K.src(g.patch_index, g_row), G.src(g)), (name, "src")
        inverted = K.inv(g.patch_index, g_row)
        assert _same_one_row(inverted, G.inv(g)), (name, "inv")
        if "trivial_action" in G.metadata:   # its Point maps are one-row kernel calls
            assert _same_one_row(inverted, _reference_so2_inverse(G, g)), (name, "inv ref")
        assert _bits(inverted[2][0]) == _bits(jacobian(G.inv, g)), (name, "inv jacobian")
        assert _same_one_row(K.mul(g.patch_index, g_row, h.patch_index, h_row),
                             G.compose(g, h)), (name, "mul")

        n = 1 + i % 6
        blocks = K.nodes(x, n)
        ref_pts, ref_w = _reference_nodes(G, x, n)
        got = [(q, r) for q, H, _ in blocks for r in H]
        assert len(got) == len(ref_pts), (name, "node count")
        assert all(_same_point(q, r, p) for (q, r), p in zip(got, ref_pts)), (name, "nodes")
        assert _bits(np.concatenate([w for *_, w in blocks])) == _bits(ref_w), (name, "weights")

        # one arrow against a block of rows, as the average composes them
        y = G.src(g)
        for q, H, _ in K.nodes(y, n):
            r, GH = K.mul(g.patch_index, g_row, q, H)
            for row, node in zip(GH, points(G.arrows, q, H)):
                assert _same_point(r, row, G.compose(g, node)), (name, "mul block")
            q_inv, H_inv, Ti = K.inv(q, H)
            for row, J_row, node in zip(H_inv, Ti, points(G.arrows, q, H)):
                assert _same_point(q_inv, row, G.inv(node)), (name, "inv block")
                assert _bits(J_row) == _bits(jacobian(G.inv, node)), (name, "inv jac block")


@pytest.mark.parametrize("name,G", KERNEL_GROUPOIDS, ids=[n for n, _ in KERNEL_GROUPOIDS])
def test_unit_kernel_matches_point_unit_bit_for_bit(name, G):
    K = G.kernels
    xs = [G.object_sampler(rng_for(7, 213, i)) for i in range(SAMPLES)]
    for x in xs:
        row = np.array([x.coords], dtype=float).reshape(1, -1)
        assert _same_one_row(K.unit(x.patch_index, row), G.unit(x)), (name, x)
    # a block of objects gives each row its one-row unit
    for patch in sorted({x.patch_index for x in xs}):
        on = [x for x in xs if x.patch_index == patch]
        u, U = K.unit(patch, np.array([x.coords for x in on], dtype=float).reshape(len(on), -1))
        assert all(_same_point(u, row, G.unit(x)) for row, x in zip(U, on)), (name, patch)


def _loop_average(G, quad, X):
    """The per-node averaging loop: one compose, inverse, Jacobian and tm_apply
    per node, summed in node order."""

    def X_hat(g):
        acc = np.zeros(g.patch.dim)
        for q, H, weights in quad.nodes_at(G.src(g)):
            for h, w in zip(points(G.arrows, q, H), weights.tolist()):
                gh = G.compose(g, h)
                Ti = jacobian(G.inv, h)
                acc += w * tm_apply(G, gh, G.inv(h), X(gh), Ti @ np.asarray(X(h).coeffs))
        return acc

    return X_hat


@pytest.mark.parametrize("nodes", [8, 256, 1024])
def test_array_average_matches_node_loop(nodes):
    fam, quad = so2_family_setup(nodes=nodes)
    G = fam.total
    X = skewed_family_field(fam)
    X_hat, _ = haar_average(G, quad, X, check=False)
    reference = _loop_average(G, quad, X)

    # the averaged connection feeds the composite field to the average by rows
    conn = proper_family_connection(fam, _rotating_base_lift, _skewed_source_lift, quad, 8)

    def composite(g):
        w = _rotating_base_lift(G.src(g), Tangent(fam.arrow_map(g), (1.0,)))
        return _skewed_source_lift(g, w)

    composite_reference = _loop_average(G, quad, composite)
    worst = 0.0
    for i in range(6):
        g = G.arrow_sampler(rng_for(7, 223, i))
        lift = conn.hor(g, Tangent(fam.arrow_map(g), (1.0,)))
        worst = max(worst,
                    float(np.max(np.abs(np.asarray(X_hat(g).coeffs) - reference(g)))),
                    float(np.max(np.abs(np.asarray(lift.coeffs) - composite_reference(g)))))
    assert worst <= 1e-15


@pytest.mark.parametrize("lift, space_of, base_of", [
    (_skewed_source_lift, lambda fam: fam.total.arrows, lambda fam: fam.total.src),
    (_rotating_base_lift, lambda fam: fam.total.objects, lambda fam: fam.object_map),
], ids=["skewed_source", "rotating_base"])
def test_row_lift_rows_match_one_row_calls(lift, space_of, base_of):
    fam, _ = so2_family_setup(nodes=8)
    space, base = space_of(fam), base_of(fam)
    rng = np.random.default_rng(17)
    C = rng.uniform(-3.0, 3.0, (SAMPLES, space.dim))
    W = rng.uniform(-1.0, 1.0, (SAMPLES, base.codomain.dim))
    rows = lift.rows(0, C, W)
    assert rows.shape == C.shape
    for c, w, row in zip(C, W, rows):
        p = Point(space, 0, tuple(c.tolist()))
        one = lift(p, Tangent(base(p), tuple(w.tolist())))
        assert one.base is p and _bits(one.coeffs) == _bits(row)


@pytest.mark.parametrize("nodes", [8, 256])
def test_row_lift_connection_matches_point_adapter(nodes):
    fam, quad = so2_family_setup(nodes=nodes)
    G = fam.total
    rows = proper_family_connection(fam, _rotating_base_lift, _skewed_source_lift, quad, 2)
    # the same formulas as plain callables go through the per-row adapter
    adapter = proper_family_connection(fam, lambda x, w: _rotating_base_lift(x, w),
                                       lambda g, w: _skewed_source_lift(g, w), quad, 2)
    for i in range(4):
        g = G.arrow_sampler(rng_for(7, 227, i))
        a = Tangent(fam.arrow_map(g), (0.7 - 0.4 * i,))
        assert _bits(rows.hor(g, a).coeffs) == _bits(adapter.hor(g, a).coeffs)
        x = G.src(g)
        w = Tangent(fam.object_map(x), (1.3,))
        assert _bits(rows.hor0(x, w).coeffs) == _bits(adapter.hor0(x, w).coeffs)


def test_punctured_bundle_average_mixes_node_layouts_in_a_block():
    # over the ball the punctured bundle has one target-fibre node, elsewhere
    # two: a block with rows on and off the ball averages each row as alone
    G = cat.group_bundle(line(1, name="R"), "finite", order=2, punctured_at=(0.0,))
    quad = HaarFiberQuadrature.from_groupoid(G, 4)
    radius = G.arrows.patches[1].excluded_points[0][1]

    @RowField
    def X(p, C):
        return np.sin(3.0 * C) + 0.5 * p

    X_hat, _ = haar_average(G, quad, X, check=False)
    reference = _loop_average(G, quad, X)
    for patch, ys in ((0, np.linspace(-3.0 * radius, 3.0 * radius, 64)),
                      (1, np.linspace(1.5 * radius, 1.0, 64))):
        C = ys[:, None]
        layouts = {len(quad.nodes_at(Point(G.objects, 0, (y,)))) for y in ys.tolist()}
        assert layouts == ({1, 2} if patch == 0 else {2})
        block = X_hat.rows(patch, C)
        for y, row in zip(ys.tolist(), block):
            g = Point(G.arrows, patch, (y,))
            assert _bits(row) == _bits(X_hat(g).coeffs), (patch, y)
            assert float(np.max(np.abs(row - reference(g)))) <= 1e-15, (patch, y)
