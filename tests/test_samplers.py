"""Closed-form transport samplers and the sampling helpers they rest on.

Every shipped ``TransportSamplers``, and those the scenarios attach, must
draw paths whose velocity is the derivative of their point map, start arrows
in the fibre over the path's initial point, and pointwise-composable pairs of
paths with composable start arrows.
"""
import math

import numpy as np
import pytest

import grpdconn.catalog as cat
import grpdconn.scenarios as S
from grpdconn.config import DEFAULT
from grpdconn.geometry import Patch, Point, Space, distance, line
from grpdconn.groupoid import rng_for

TIMES = (0.0, 0.13, 0.5, 0.77, 1.0)
FD_STEP = 1e-5
DRAWS = 12


def _morphisms():
    bundle_family = S.punctured_bundle_setup()[0].morphism
    cover = S.cover_setup()[0].morphism
    pair = cat.pair_fibration()
    yield "plane_to_circle", cat.plane_to_circle_morphism()
    yield "trivial_family(Z2)", cat.trivial_family(
        line(1, name="N"), cat.group_bundle(line(1, name="F"), "finite", order=2))
    yield "trivial_family(SO(2)⋉R2)", cat.trivial_family(line(1, name="N"),
                                                          cat.so2_action_groupoid())
    yield "cover", cover
    yield "cover_kernel", cover.kernel.family
    yield "product_with_manifold", cat.product_with_manifold(
        cat.pair_groupoid(line(1, name="R")), line(1, name="P"))
    yield "pair_fibration", pair
    yield "pair_fibration*", cat.pair_fibration(punctured=True)
    yield "bundle_family", bundle_family
    yield "base[bundle_family]", cat.base_submersion_morphism(bundle_family)
    yield "base[pair_fibration]", cat.base_submersion_morphism(pair)
    yield "morita_pullback", S.morita_setup()[0].morphism
    yield "morita_pullback_punctured", S.morita_punctured_setup()[0].morphism
    yield "product_not_uniform", S.product_not_uniform_setup()[0].morphism


MORPHISMS = list(_morphisms())


def _samplers(kind):
    for name, pi in MORPHISMS:
        sampler = getattr(pi.transport, kind)
        if sampler is not None:
            yield pytest.param(pi, sampler, id=name)


def _assert_velocity_matches_points(gamma):
    for t in TIMES:
        lo, hi = gamma.point(t - FD_STEP), gamma.point(t + FD_STEP)
        assert lo.patch_index == hi.patch_index == gamma.point(t).patch_index
        fd = (np.asarray(hi.coords) - np.asarray(lo.coords)) / (2 * FD_STEP)
        v = gamma.velocity(t)
        assert v.base == gamma.point(t)
        assert np.allclose(v.coeffs, fd, rtol=1e-6, atol=1e-6), (t, v.coeffs, fd)


def _assert_over(image: Point, point: Point):
    assert distance(image, point) < 1e-12, (image, point)


@pytest.mark.parametrize("pi,sampler", _samplers("path_with_start"))
def test_path_with_start(pi, sampler):
    for i in range(DRAWS):
        gamma, g = sampler(rng_for(7, 211, i))
        _assert_velocity_matches_points(gamma)
        _assert_over(pi.arrow_map(g), gamma.point(0.0))


@pytest.mark.parametrize("pi,sampler", _samplers("object_path_with_start"))
def test_object_path_with_start(pi, sampler):
    for i in range(DRAWS):
        delta, x = sampler(rng_for(7, 223, i))
        _assert_velocity_matches_points(delta)
        _assert_over(pi.object_map(x), delta.point(0.0))


@pytest.mark.parametrize("pi,sampler", _samplers("composable"))
def test_composable(pi, sampler):
    G, H = pi.total, pi.base_grpd
    for i in range(DRAWS):
        gamma, eta, g, k = sampler(rng_for(7, 227, i))
        for path in (gamma, eta):
            _assert_velocity_matches_points(path)
        for t in TIMES:
            _assert_over(H.src(gamma.point(t)), H.tgt(eta.point(t)))
        _assert_over(G.src(g), G.tgt(k))
        _assert_over(pi.arrow_map(g), gamma.point(0.0))
        _assert_over(pi.arrow_map(k), eta.point(0.0))


def test_sproper_paths():
    fam = S.sproper_setup()[0]
    paths = S.sproper_paths(fam, DEFAULT)
    for i in range(DRAWS):
        gamma, g = paths(rng_for(7, 229, i))
        _assert_velocity_matches_points(gamma)
        _assert_over(fam.arrow_map(g), gamma.point(0.0))


def test_sine_curve_draw_order_and_flat_case():
    f, df = cat.sine_curve(rng_for(1, 2), cat.uniform(-1.0, 1.0), cat.winding, 0.5)
    rng = rng_for(1, 2)
    a = float(rng.uniform(-1.0, 1.0))
    b = 2 * math.pi * float(rng.choice((-1, 0, 1)))
    A = float(rng.uniform(0.0, 0.5))
    ph = float(rng.uniform(0.0, 2 * math.pi))
    for t in TIMES:
        assert f(t) == a + b * t + A * (math.sin(2 * math.pi * t + ph) - math.sin(ph))
        assert df(t) == b + A * 2 * math.pi * math.cos(2 * math.pi * t + ph)
    # amp = 0 draws only the start and the slope
    rng, ref = rng_for(1, 3), rng_for(1, 3)
    f, df = cat.sine_curve(rng, cat.uniform(-1.0, 1.0), cat.uniform(-1.0, 1.0), 0.0)
    a, b = float(ref.uniform(-1.0, 1.0)), float(ref.uniform(-1.0, 1.0))
    assert (f(0.5), df(0.5)) == (a + b * 0.5, b)
    assert rng.uniform() == ref.uniform()


def test_sample_coords_clears_balls_on_angle_coordinates():
    # the ball at 6.2 reaches past 2 pi, so samples near 0 lie inside it
    space = Space((Patch(0, 1, "", (((6.2,), 0.1),)),), name="S1*")
    patch = space.patches[0]
    center, radius = patch.excluded_points[0]
    rng = np.random.default_rng(11)
    for _ in range(2000):
        coords = cat.sample_coords(patch, rng)
        assert 0.0 <= coords[0] < 2 * math.pi
        assert patch.coord_distance(coords, center) >= radius
        Point.make(space, 0, coords)


def test_sample_coords_keeps_line_draws():
    patch = Patch(1, 0, "", (((0.0,), 0.5),))
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        x = float(ref.uniform(-cat.BOX, cat.BOX))
        norm = math.sqrt(x * x)
        if norm < 1.0:
            x = 0.0 + x * ((1.0 + norm) / norm)
        assert cat.sample_coords(patch, rng) == (x,)


def test_excl_radius_override_reaches_the_balls():
    cfg = DEFAULT.with_overrides({"numeric.excl_radius": 0.25})
    bundle = S.punctured_bundle_setup(cfg=cfg)[0].total
    cover = S.cover_setup(cfg=cfg)[0].total
    for G in (bundle, cover):
        radii = {r for p in G.arrows.patches for _, r in p.excluded_points}
        assert radii == {0.25}, (G.name, radii)
