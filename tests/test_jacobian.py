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
    so2_action_groupoid,
)
from grpdconn.geometry import Patch, Point, Space, circle, line
from grpdconn.groupoid import rng_for
from grpdconn.smoothmap import SmoothMap, fd_jacobian, jacobian


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
    for i in range(100):
        rng = rng_for(101, i)
        g = G.arrow_sampler(rng)
        for m in (G.src, G.tgt, G.inv):
            if m.jac is None or g.patch.dim == 0:
                continue
            analytic = np.asarray(m.jac(g), dtype=float)
            if analytic.size == 0:
                continue
            fd = fd_jacobian(m, g, DEFAULT.numeric_fd_step)
            assert np.max(np.abs(analytic - fd)) < DEFAULT.numeric_tol_fd, (name, m.name)
        x = G.object_sampler(rng)
        if G.unit.jac is not None and x.patch.dim > 0:
            analytic = np.asarray(G.unit.jac(x), dtype=float)
            fd = fd_jacobian(G.unit, x, DEFAULT.numeric_fd_step)
            assert np.max(np.abs(analytic - fd)) < DEFAULT.numeric_tol_fd, (name, "unit")
