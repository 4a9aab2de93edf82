import math

import numpy as np
import pytest

from grpdconn.config import DEFAULT
from grpdconn.catalog import (
    abelian_group,
    default_instances,
    finite_group_groupoid,
    pair_groupoid,
    product_groupoid,
    reflection_action_morphism,
    so2_action_groupoid,
    so2_action_morphism,
)
from grpdconn.geometry import Patch, Point, Space, circle, line
from grpdconn.groupoid import rng_for
from grpdconn.smoothmap import PairMap, PatchJacobian, SmoothMap, fd_jacobian, jacobian

import test_samplers


def test_linear_map_exact():
    A = np.array([[2.0, -1.0], [0.5, 3.0]])
    f = SmoothMap(line(2), line(2), lambda p: Point.make(line(2), 0, tuple(A @ p.coords)))
    J = jacobian(f, Point.make(line(2), 0, (0.3, -0.7)))
    assert np.max(np.abs(J - A)) < 1e-9


def test_sine_derivative():
    f = SmoothMap(line(1), line(1),
                  lambda p: Point.make(line(1), 0, (math.sin(p.coords[0]),)))
    J = jacobian(f, Point.make(line(1), 0, (0.0,)))
    assert abs(J[0, 0] - 1.0) < DEFAULT.numeric_tol_fd


def test_angle_doubling_wraps():
    # theta -> 2 theta crosses the 2 pi seam at theta = 3 pi / 2
    s = circle()
    f = SmoothMap(s, s, lambda p: Point.make(s, 0, (2.0 * p.coords[0],)))
    J = jacobian(f, Point.make(s, 0, (1.5 * math.pi,)))
    assert abs(J[0, 0] - 2.0) < DEFAULT.numeric_tol_fd


# a product of two non-unit factors and two abelian groups, kept out of
# default_instances()
EXTRA_INSTANCES = [
    ("pair(S1)xSO(2)⋉R2", product_groupoid(pair_groupoid(circle()), so2_action_groupoid())),
    ("Z3", finite_group_groupoid(3)),
    ("Z2xRxT", abelian_group(Space((Patch(1, 1, "0"), Patch(1, 1, "1")), name="Z2xRxT"),
                             "Z2xRxT")),
]


@pytest.mark.parametrize("name,G", default_instances() + EXTRA_INSTANCES)
def test_analytic_jacobians_match_finite_differences(name, G):
    # read through jacobian(), which goes through a PatchJacobian's memo: a
    # point-dependent Jacobian declared patch-constant fails on its second
    # sample in a patch
    fd_mul = PairMap(G.mul.left, G.mul.right, G.mul.codomain, G.mul.eval2)
    for i in range(100):
        rng = rng_for(101, i)
        g = G.arrow_sampler(rng)
        for m in (G.src, G.tgt, G.inv):
            if m.jac is None or g.patch.dim == 0:
                continue
            analytic = jacobian(m, g)
            if analytic.size == 0:
                continue
            fd = fd_jacobian(m, g, DEFAULT.numeric_fd_step)
            assert np.max(np.abs(analytic - fd)) < DEFAULT.numeric_tol_fd, (name, m.name)
        x = G.object_sampler(rng)
        if G.unit.jac is not None and x.patch.dim > 0:
            analytic = jacobian(G.unit, x)
            fd = fd_jacobian(G.unit, x, DEFAULT.numeric_fd_step)
            assert np.max(np.abs(analytic - fd)) < DEFAULT.numeric_tol_fd, (name, "unit")
        g, h = G.pair_sample(rng_for(103, i))
        for analytic, fd in zip(G.mul.partials(g, h), fd_mul.partials(g, h)):
            if analytic.size:
                assert np.max(np.abs(analytic - fd)) < DEFAULT.numeric_tol_fd, (name, "mul")


MORPHISMS = test_samplers.MORPHISMS + [
    ("so2_action", so2_action_morphism()),
    ("so2_action(trivial)", so2_action_morphism(trivial=True)),
    ("reflection_action", reflection_action_morphism()),
]


def _morphism_maps():
    """Each map of a morphism, its kernel embedding and its kernel family's
    maps, with a sampler of the map's domain."""
    for name, pi in MORPHISMS:
        G = pi.total
        yield f"{name}.arrow_map", pi.arrow_map, G.arrow_sampler
        yield f"{name}.object_map", pi.object_map, G.object_sampler
        if pi.kernel is not None:
            K, family = pi.kernel.groupoid, pi.kernel.family
            yield f"{name}.kernel.embed", pi.kernel.embed, K.arrow_sampler
            yield f"{name}.kernel.family.arrow_map", family.arrow_map, K.arrow_sampler
            yield f"{name}.kernel.family.object_map", family.object_map, K.object_sampler


@pytest.mark.parametrize("name,m,sample", [pytest.param(*entry, id=entry[0])
                                           for entry in _morphism_maps()])
def test_morphism_jacobians_match_finite_differences(name, m, sample):
    # read through jacobian(), as in the groupoid test above
    for i in range(60):
        p = sample(rng_for(107, i))
        if p.patch.dim == 0:
            continue
        analytic = jacobian(m, p)
        fd = fd_jacobian(m, p, DEFAULT.numeric_fd_step)
        assert analytic.shape == fd.shape, (name, analytic.shape, fd.shape)
        assert np.max(np.abs(analytic - fd), initial=0.0) < DEFAULT.numeric_tol_fd, (name, p)


def test_patch_jacobian_memo_is_per_patch_and_read_only():
    S = Space((Patch(1, 0, "a"), Patch(1, 0, "b")), name="two")
    a, a_far, b = Point.raw(S, 0, (0.1,)), Point.raw(S, 0, (2.0,)), Point.raw(S, 1, (0.1,))
    calls = []

    def count(*args):
        calls.append(tuple(p.patch_index for p in args))
        return np.full((1, 1), float(len(calls)))

    J = PatchJacobian(count)
    assert J(a) is J(a_far) and J(b) is not J(a)
    assert (J(a)[0, 0], J(b)[0, 0]) == (1.0, 2.0) and calls == [(0,), (1,)]
    with pytest.raises(ValueError):
        J(a)[0, 0] = 5.0

    shared = np.eye(1)
    partials = PatchJacobian(lambda g, h: (shared, count(g, h)))
    A, B = partials(a, b)
    assert partials(a_far, b)[1] is B and partials(b, a)[1] is not B
    assert calls == [(0,), (1,), (0, 1), (1, 0)]
    assert not A.flags.writeable and not B.flags.writeable
    assert shared.flags.writeable   # the memo freezes its own copy
