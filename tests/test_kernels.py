"""Array kernels against the Point-level structure maps, bit for bit, and the
array-native Haar average against the per-node loop it replaced and against
its own one-row calls."""
import collections
import dataclasses
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
from grpdconn.errors import InvalidParams, QuadratureMissing
from grpdconn.geometry import Point, Tangent, line
from grpdconn.groupoid import ArrayKernels, points, rng_for
from grpdconn.scenarios import (
    _rotating_base_lift,
    _skewed_source_lift,
    skewed_family_field,
    so2_family_setup,
)
from grpdconn.smoothmap import PairMap, jacobian
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
    # nodes on both factors
    ("SO(2)xZ2", cat.product_groupoid(cat.so2_group(), cat.finite_group_groupoid(2))),
    # left factors with several nodes or node patches per object, paired
    # with a right factor whose nodes differ from object to object
    ("SO(2)xSO(2)⋉R2", cat.product_groupoid(cat.so2_group(), cat.so2_action_groupoid())),
    ("Z2xSO(2)⋉R2", cat.product_groupoid(cat.finite_group_groupoid(2),
                                          cat.so2_action_groupoid())),
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


def _row(x: Point) -> np.ndarray:
    return np.array([x.coords], dtype=float).reshape(1, -1)


def _slot_order(blocks, row: int):
    """One object row's nodes, ``(patch, node row)`` pairs, and their weights,
    read from ``(patch, slots, H, weights)`` blocks in slot order; the slots
    must run 0, 1, ... without a gap or a repeat."""
    mine = sorted(((s, q, r, w) for q, slots, H, weights in blocks
                   for s, r, w in zip(slots.tolist(), H[row], weights.tolist())),
                  key=lambda t: t[0])
    assert [t[0] for t in mine] == list(range(len(mine))), "slots"
    return [(q, r) for _, q, r, _ in mine], np.array([w for *_, w in mine])


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
        got, weights = _slot_order(K.nodes(x.patch_index, _row(x), n), 0)
        ref_pts, ref_w = _reference_nodes(G, x, n)
        assert len(got) == len(ref_pts), (name, "node count")
        assert all(_same_point(q, r, p) for (q, r), p in zip(got, ref_pts)), (name, "nodes")
        assert _bits(weights) == _bits(ref_w), (name, "weights")

        # one arrow against a block of rows, as the average composes them
        y = G.src(g)
        for q, _, H, _ in K.nodes(y.patch_index, _row(y), n):
            H = H[0]
            r, GH = K.mul(g.patch_index, g_row, q, H)
            for row, node in zip(GH, points(G.arrows, q, H)):
                assert _same_point(r, row, G.compose(g, node)), (name, "mul block")
            q_inv, H_inv, Ti = K.inv(q, H)
            for row, J_row, node in zip(H_inv, Ti, points(G.arrows, q, H)):
                assert _same_point(q_inv, row, G.inv(node)), (name, "inv block")
                assert _bits(J_row) == _bits(jacobian(G.inv, node)), (name, "inv jac block")


def _by_patch(items, patch_of):
    groups = collections.defaultdict(list)
    for item in items:
        groups[patch_of(item)].append(item)
    return groups.items()


def _rows(pts) -> np.ndarray:
    return np.array([p.coords for p in pts], dtype=float).reshape(len(pts), -1)


@pytest.mark.parametrize("name,G", KERNEL_GROUPOIDS, ids=[n for n, _ in KERNEL_GROUPOIDS])
def test_nodes_on_object_rows_match_reference_row_by_row(name, G):
    # the probe objects sit among the samples
    samples = [G.object_sampler(rng_for(7, 229, i)) for i in range(64)]
    xs = samples[:2] + list(G.probe_objects) + samples[2:]
    for k in (1, 2, 5, 17, 64):
        for patch, on in _by_patch(xs[:k], lambda x: x.patch_index):
            for n in range(1, 7):
                blocks = G.kernels.nodes(patch, _rows(on), n)
                for _, slots, H, weights in blocks:   # m nodes for every object row
                    assert H.shape[:2] == (len(on), len(slots)) == (len(on), len(weights))
                for i, x in enumerate(on):
                    got, weights = _slot_order(blocks, i)
                    ref_pts, ref_w = _reference_nodes(G, x, n)
                    assert len(got) == len(ref_pts), (name, k, n, "node count")
                    assert all(_same_point(q, r, p) for (q, r), p in zip(got, ref_pts)), \
                        (name, k, n, "nodes")
                    assert _bits(weights) == _bits(ref_w), (name, k, n, "weights")


@pytest.mark.parametrize("name,G", KERNEL_GROUPOIDS, ids=[n for n, _ in KERNEL_GROUPOIDS])
def test_row_aligned_mul_matches_compose_per_row(name, G):
    pairs = [G.pair_sample(rng_for(7, 233, i)) for i in range(64)]
    for (pg, ph), on in _by_patch(pairs, lambda gh: (gh[0].patch_index, gh[1].patch_index)):
        r, GH = G.kernels.mul(pg, _rows([g for g, _ in on]), ph, _rows([h for _, h in on]))
        assert len(GH) == len(on), name
        for row, (g, h) in zip(GH, on):
            assert _same_point(r, row, G.compose(g, h)), (name, "row-aligned mul")


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
        nodes, weights = _slot_order(quad.nodes_at(G.src(g)), 0)
        for (q, row), w in zip(nodes, weights.tolist()):
            h = Point(G.arrows, q, tuple(row.tolist()))
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


def test_punctured_bundle_quadrature_is_refused():
    # the punctured bundle is not proper (the arrows (1/n, g), g != e, have no
    # limit in it), so it carries no kernels and no Haar quadrature
    G = cat.group_bundle(line(1, name="R"), "finite", order=2, punctured_at=(0.0,))
    assert G.kernels is None and G.metadata["compact_tfibers"]
    with pytest.raises(QuadratureMissing):
        HaarFiberQuadrature.from_groupoid(G, 4)


def test_skewed_family_field_rows_keep_the_point_formula_bits():
    fam, _ = so2_family_setup(nodes=8)
    X = skewed_family_field(fam)
    rng = np.random.default_rng(41)
    C = np.column_stack((rng.uniform(-3.0, 3.0, (SAMPLES, 3)),
                         rng.uniform(0.0, 2 * math.pi, SAMPLES)))
    rows = X.rows(0, C)
    for c, row in zip(C.tolist(), rows):
        y, v1, v2, phi = c
        point_formula = (1.0, 0.2 * v2 + 0.1 * math.sin(y), -0.1 * v1,
                         0.3 + 0.25 * math.sin(phi) + 0.1 * v1)
        assert _bits(row) == _bits(point_formula), c
        assert _bits(X(Point(fam.total.arrows, 0, tuple(c))).coeffs) == _bits(row), c


def _average_case(name: str, nodes: int):
    """(G, quadrature, field, patch, 64 arrow rows) for a block-average test."""
    rng = np.random.default_rng(31)
    if name == "SO(2) family":
        fam, quad = so2_family_setup(nodes=nodes)
        C = np.column_stack((rng.uniform(-2.0, 2.0, (64, 3)), rng.uniform(0.0, 2 * math.pi, 64)))
        return fam.total, quad, skewed_family_field(fam), 0, C
    X = RowField(lambda p, C: np.sin(3.0 * C) + 0.5 * p)
    G = cat.product_groupoid(cat.so2_group(), cat.finite_group_groupoid(2))
    # arrows off the identity component: the composites leave the node patch
    C = rng.uniform(0.0, 2 * math.pi, (64, 1))
    return G, HaarFiberQuadrature.from_groupoid(G, nodes), X, 1, C


@pytest.mark.parametrize("nodes", [8, 256])
@pytest.mark.parametrize("name", ["SO(2) family", "SO(2)xZ2"])
def test_averaged_blocks_match_one_row_calls_and_node_loop(name, nodes):
    G, quad, X, patch, C = _average_case(name, nodes)
    X_hat, _ = haar_average(G, quad, X, check=False)
    reference = _loop_average(G, quad, X)
    for k in (1, 3, 5, 64):
        block = X_hat.rows(patch, C[:k])
        assert block.shape == (k, C.shape[1])
        for i in range(k):
            assert _bits(block[i]) == _bits(X_hat.rows(patch, C[i:i + 1])[0]), (name, k, i)
        for i in range(0, k, 1 if k < 64 else 9):
            g = Point(G.arrows, patch, tuple(C[i].tolist()))
            assert float(np.max(np.abs(block[i] - reference(g)))) <= 1e-15, (name, k, i)


def _counted(G):
    """G with kernels and ``mul`` partials that count their calls."""
    calls = collections.Counter()

    def counting(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    class CountedMul(PairMap):
        def partials(self, *args):
            calls["partials"] += 1
            return super().partials(*args)

    K = G.kernels
    kernels = ArrayKernels(**{f.name: counting(f.name, getattr(K, f.name))
                              for f in dataclasses.fields(K)})
    mul = CountedMul(**{f.name: getattr(G.mul, f.name) for f in dataclasses.fields(G.mul)})
    return dataclasses.replace(G, kernels=kernels, mul=mul), calls


@pytest.mark.parametrize("k", [1, 5, 64])
def test_averaged_block_makes_one_pass_per_node_patch(k):
    fam, _ = so2_family_setup(nodes=8)
    bundle = cat.group_bundle(line(1, name="R"), "finite", order=2)
    rng = np.random.default_rng(37)
    # the rotation family has one node patch, the Z2 bundle two; on patch 0
    # every composite stays on its node's patch
    for G, node_patches in ((fam.total, 1), (bundle, 2)):
        G, calls = _counted(G)
        field_calls = []
        X = RowField(lambda p, C: field_calls.append(len(C)) or np.cos(C))
        X_hat, _ = haar_average(G, HaarFiberQuadrature.from_groupoid(G, 8), X, check=False)
        C = rng.uniform(-2.0, 2.0, (k, G.arrows.dim))
        for repeat in range(2):
            calls.clear()
            field_calls.clear()
            X_hat.rows(0, C + repeat)
            assert calls["src"] == calls["nodes"] == 1, (G.name, dict(calls))
            assert calls["mul"] == calls["inv"] == len(field_calls) == node_patches, \
                (G.name, dict(calls), field_calls)
            assert calls["partials"] == node_patches, (G.name, dict(calls))


@pytest.mark.parametrize("count", [0, -3, 2.5, "8", True, None])
def test_quadrature_refuses_a_node_count_that_is_not_a_positive_integer(count):
    with pytest.raises(InvalidParams):
        HaarFiberQuadrature.from_groupoid(cat.so2_group(), count)


def test_so2_family_setup_refuses_a_negative_node_count():
    with pytest.raises(InvalidParams):
        so2_family_setup(nodes=-3)
    assert so2_family_setup(nodes=np.int64(4))[1].node_count == 4
