import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import grpdconn.catalog as cat
from grpdconn.errors import EvaluationOutsideDomain
from grpdconn.geometry import (
    Patch,
    Point,
    ProductSpace,
    Space,
    Tangent,
    circle,
    distance,
    line,
    normalize_angle,
)
from grpdconn.groupoid import Groupoid


@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_angle_normalization_idempotent(theta):
    once = normalize_angle(theta)
    assert 0.0 <= once < 2.0 * math.pi
    assert normalize_angle(once) == once


def test_point_normalizes_angles():
    p = Point.make(circle(), 0, (7.0,))
    assert 0.0 <= p.coords[0] < 2.0 * math.pi


def test_excluded_ball_rejects_points():
    space = line(1, excluded=(((0.0,), 1e-3),))
    with pytest.raises(EvaluationOutsideDomain):
        Point.make(space, 0, (5e-4,))
    Point.make(space, 0, (2e-3,))  # outside the ball is fine


def test_distance_wraps_angles():
    s = circle()
    a = Point.make(s, 0, (0.1,))
    b = Point.make(s, 0, (2.0 * math.pi - 0.1,))
    assert distance(a, b) == pytest.approx(0.2, abs=1e-12)


def test_distance_across_patches_is_infinite():
    s = Space((Patch(1, 0, "a"), Patch(1, 0, "b")))
    assert math.isinf(distance(Point.make(s, 0, (0.0,)), Point.make(s, 1, (0.0,))))


def _torus_line(lin: int, circ: int) -> Space:
    return Space((Patch(lin, circ, ""),), name=f"R{lin}xT{circ}")


def test_product_roundtrip():
    M = _torus_line(1, 1)
    prod = ProductSpace(M, M)
    a = Point.make(M, 0, (0.5, 1.0))
    b = Point.make(M, 0, (-0.25, 4.0))
    joined = prod.join(a, b)
    a2, b2 = prod.split(joined)
    assert a2.coords == a.coords and b2.coords == b.coords


@pytest.mark.parametrize("F", [line(1, name="F"), circle(),
                               Space((Patch(1, 0, "pos"), Patch(1, 0, "neg")), name="F*")])
def test_product_packing_is_associative(F):
    # (H x F) x F and H x (F x F) pack patches, labels and coordinates alike
    H = ProductSpace(_torus_line(1, 1), _torus_line(1, 1)).space
    inner_left, inner_right = ProductSpace(H, F), ProductSpace(F, F)
    nested_left = ProductSpace(inner_left.space, F)
    nested_right = ProductSpace(H, inner_right.space)
    assert nested_left.space == nested_right.space
    h = Point.raw(H, 0, (0.1, 0.2, 0.3, 0.4))
    ft = Point.raw(F, len(F.patches) - 1, (0.5,))
    fs = Point.raw(F, 0, (0.6,))
    assert (nested_left.join(inner_left.join(h, ft), fs)
            == nested_right.join(h, inner_right.join(ft, fs)))


def test_tangent_dimension_checked():
    p = Point.make(line(2), 0, (0.0, 0.0))
    with pytest.raises(ValueError):
        Tangent(p, (1.0,))


def _product_spaces():
    """Every ProductSpace reachable from the catalog's default instances,
    through groupoid metadata, factors and union parts."""
    found = {}

    def walk(obj):
        if isinstance(obj, ProductSpace):
            found.setdefault(obj.space.name + repr(obj.space.patches), obj)
        elif isinstance(obj, Groupoid):
            walk(list(obj.metadata.values()))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif isinstance(obj, dict):
            walk(list(obj.values()))

    walk([grpd for _, grpd in cat.default_instances()])
    return list(found.values())


PRODUCT_SPACES = _product_spaces()


def _packed_reference(pa: Patch, pb: Patch, a, b):
    """(linA, linB, circA, circB) from each factor patch's coordinate kinds."""
    lin_a = [c for i, c in enumerate(a) if not pa.is_circ(i)]
    circ_a = [c for i, c in enumerate(a) if pa.is_circ(i)]
    lin_b = [c for i, c in enumerate(b) if not pb.is_circ(i)]
    circ_b = [c for i, c in enumerate(b) if pb.is_circ(i)]
    return tuple(lin_a + lin_b + circ_a + circ_b)


def test_product_spaces_cover_mixed_and_multi_patch_factors():
    factors = [(prod.left, prod.right) for prod in PRODUCT_SPACES]
    assert any(min(p.lin_count for p in s.patches) and min(p.circ_count for p in s.patches)
               for pair in factors for s in pair)
    assert any(len(s.patches) > 1 and s.dim for pair in factors for s in pair)


@pytest.mark.parametrize("prod", PRODUCT_SPACES, ids=lambda p: p.space.name)
def test_product_packing_matches_factor_patch_counts(prod):
    rng = np.random.default_rng(11)
    nb = len(prod.right.patches)
    for ia, pa in enumerate(prod.left.patches):
        for ib, pb in enumerate(prod.right.patches):
            for _ in range(5):
                a = tuple(rng.uniform(-3.0, 3.0, pa.dim).tolist())
                b = tuple(rng.uniform(-3.0, 3.0, pb.dim).tolist())
                packed = _packed_reference(pa, pb, a, b)
                p = prod.join(Point(prod.left, ia, a), Point(prod.right, ib, b))
                assert (p.space, p.patch_index, p.coords) == (prod.space, ia * nb + ib, packed)
                pa_, pb_ = prod.split(Point(prod.space, ia * nb + ib, packed))
                assert (pa_.space, pa_.patch_index, pa_.coords) == (prod.left, ia, a)
                assert (pb_.space, pb_.patch_index, pb_.coords) == (prod.right, ib, b)


def _factor_columns(pa: Patch, pb: Patch):
    """Each factor's packed columns, (linA, linB, circA, circB) by kinds."""
    la, lb, ca = pa.lin_count, pb.lin_count, pa.circ_count
    cut = la + lb + ca
    return ([*range(la), *range(la + lb, cut)],
            [*range(la, la + lb), *range(cut, pa.dim + pb.dim)])


@pytest.mark.parametrize("prod", PRODUCT_SPACES + [ProductSpace(line(1), _torus_line(2, 1))],
                         ids=lambda p: p.space.name)
def test_factor_columns_are_one_slice_where_contiguous(prod):
    # touching ranges, such as the right factor's 1:3 and 3:4 of
    # R x (R^2 x S^1), are one slice: factor_rows is then a view
    rng = np.random.default_rng(5)
    for p, packed in enumerate(prod.space.patches):
        ia, ib = prod.unpack_index(p)
        R = rng.uniform(-3.0, 3.0, (4, packed.dim))
        parts = prod.split_rows(p, R)
        for side, want in enumerate(_factor_columns(prod.left.patches[ia],
                                                    prod.right.patches[ib])):
            cols = prod._columns[p][side]
            contiguous = not want or want == list(range(want[0], want[-1] + 1))
            assert (type(cols) is slice) == contiguous
            assert np.array_equal(parts[side], R[:, want])
            if contiguous and want:
                assert np.shares_memory(parts[side], R)
        assert np.array_equal(prod.join_rows(p, *parts), R)
        again = prod.split_rows(p, prod.join_rows(p, *parts))
        assert all(np.array_equal(a, b) for a, b in zip(again, parts))
    if prod.right.name == "R2xT1":
        assert prod._columns[0] == (slice(0, 1), slice(1, 4))
