import numpy as np
import pytest

import grpdconn.catalog as cat
from grpdconn.errors import NotASplitting
from grpdconn.geometry import Point, Tangent, line
from grpdconn.scenarios import luca_setup
from grpdconn.tangent import (
    SubbundleFrame,
    VBFiberData,
    core_side_decomposition,
    full_tangent_frames,
    kernel_frames,
    splitting_correspondence,
    tangent_structure_maps,
    tm_apply,
    vb_subgroupoid_check,
)


def test_pair_groupoid_tm():
    # differentiate (a, b)*(b, c) = (a, c): Tm((u1, u2), (u2, u3)) = (u1, u3)
    G = cat.pair_groupoid(line(1))
    prod = G.metadata["product_space"]
    g = prod.join(Point.make(line(1), 0, (1.0,)), Point.make(line(1), 0, (2.0,)))
    h = prod.join(Point.make(line(1), 0, (2.0,)), Point.make(line(1), 0, (3.0,)))
    out = tm_apply(G, g, h, np.array([5.0, 7.0]), np.array([7.0, 11.0]))
    assert np.allclose(out, [5.0, 11.0])


def test_unit_tangents_fixed_by_tu_ts():
    G = cat.so2_action_groupoid()
    x = Point.make(G.objects, 0, (0.3, -0.8))
    ux = G.unit(x)
    maps = tangent_structure_maps(G, ux)
    P = maps.Tu_src @ maps.Ts
    assert np.max(np.abs(P @ maps.Tu_src - maps.Tu_src)) < 1e-9


def test_abelian_group_tm_is_addition():
    G = cat.plane_to_circle_morphism().total
    g = Point.make(G.arrows, 0, (1.0, 2.0))
    out = tm_apply(G, g, g, np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert np.allclose(out, [4.0, 6.0])


def test_tm_restricted_to_composable_subspace():
    G = cat.pair_groupoid(line(1))
    prod = G.metadata["product_space"]
    g = prod.join(Point.make(line(1), 0, (0.0,)), Point.make(line(1), 0, (1.0,)))
    h = prod.join(Point.make(line(1), 0, (1.0,)), Point.make(line(1), 0, (2.0,)))
    maps = tangent_structure_maps(G, (g, h))
    # composable pairs in T(pair) x T(pair): u2 = v1 constraint leaves rank 3
    assert len(maps.pair_basis) == 3
    assert maps.Tm.shape == (2, 3)


def test_kernel_frames_form_subgroupoid():
    pi = cat.pair_fibration()
    verdict = vb_subgroupoid_check(pi.total, kernel_frames(pi.arrow_map), 25, seed=3)
    assert verdict.passed, verdict.witness


def test_full_tangent_frames_pass():
    G = cat.so2_action_groupoid()
    verdict = vb_subgroupoid_check(G, full_tangent_frames(G), 20, seed=3)
    assert verdict.passed


def test_skewed_horizontal_frames_fail_multiplication():
    c, _ = luca_setup()
    verdict = vb_subgroupoid_check(c.total, c.lift_frame, 40, seed=3)
    assert not verdict.passed
    assert verdict.witness["clause"] == "multiplication"
    assert verdict.clauses["multiplication"] > 10 * 1e-6


def test_core_side_on_pair_groupoid():
    # at a unit of the pair groupoid the core is ker Ts = first-axis tangents
    # and the side part is the diagonal (the unit section)
    G = cat.pair_groupoid(line(1))
    x = Point.make(line(1), 0, (0.5,))
    ux = G.unit(x)
    frame = SubbundleFrame(ux, [Tangent(ux, (1.0, 0.0)), Tangent(ux, (0.0, 1.0))])
    core, side, resid = core_side_decomposition(G, x, frame)
    assert resid < 1e-9
    assert core.rank == 1 and side.rank == 1
    core_vec = np.asarray(core.basis[0].coeffs)
    side_vec = np.asarray(side.basis[0].coeffs)
    assert abs(core_vec[1]) < 1e-12          # ker Ts: second slot vanishes
    assert abs(side_vec[0] - side_vec[1]) < 1e-12  # diagonal


def test_core_side_with_unit_frame_only():
    G = cat.pair_groupoid(line(1))
    x = Point.make(line(1), 0, (0.0,))
    ux = G.unit(x)
    frame = SubbundleFrame(ux, [Tangent(ux, (1.0, 1.0))])  # the unit section
    core, side, resid = core_side_decomposition(G, x, frame)
    assert core.rank == 0 and side.rank == 1 and resid < 1e-12


def test_core_side_on_bundle_kernel():
    # ker T(pi) at a unit of a circle bundle: core = isotropy directions,
    # side = ker T(pi_0) = 0 for the identity base map
    G = cat.group_bundle(line(1), "circle")
    pi_map = G.src  # the bundle projection of the extension
    x = Point.make(line(1), 0, (0.2,))
    ux = G.unit(x)
    frame = kernel_frames(pi_map)(ux)
    core, side, resid = core_side_decomposition(G, x, frame)
    assert core.rank == 1 and side.rank == 0 and resid < 1e-9


# ---------------------------------------------------------------------------
# splitting correspondences


def test_canonical_direct_sum():
    iota = np.array([[1.0], [0.0], [0.0]])
    pi = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    h = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d = splitting_correspondence(VBFiberData(iota, pi, h=h), "h")
    assert max(d.residuals.values()) == 0.0
    assert np.allclose(d.p, [[1.0, 0.0, 0.0]])


def test_splitting_involution_and_recovery():
    rng = np.random.default_rng(11)
    for _ in range(20):
        k, q = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        Q, _ = np.linalg.qr(rng.normal(size=(k + q, k + q)))
        iota, pi = Q[:, :k], Q[:, k:].T
        h = np.linalg.lstsq(pi, np.eye(q), rcond=None)[0] + iota @ rng.normal(size=(k, q))
        d = splitting_correspondence(VBFiberData(iota, pi, h=h), "h")
        assert max(d.residuals.values()) < 1e-12
        again = splitting_correspondence(VBFiberData(iota, pi, p=d.p), "p")
        assert np.max(np.abs(again.h - h)) < 1e-11
        from_c = splitting_correspondence(VBFiberData(iota, pi, C=d.C), "C")
        assert np.max(np.abs(from_c.h - h)) < 1e-11


def test_not_a_splitting_raises():
    iota = np.array([[1.0], [0.0]])
    pi = np.array([[0.0, 1.0]])
    with pytest.raises(NotASplitting):
        splitting_correspondence(
            VBFiberData(iota, pi, h=np.array([[1.0], [0.0]])), "h"
        )  # pi h = 0 != id
    with pytest.raises(NotASplitting):
        splitting_correspondence(
            VBFiberData(iota, np.array([[1.0, 0.0]]), h=np.array([[1.0], [0.0]])), "h"
        )  # pi iota != 0


def test_accepted_lift_frames_close_under_structure_maps():
    # frames of an accepted multiplicative lift form a subgroupoid of the
    # tangent groupoid at samples
    from grpdconn.scenarios import morita_setup
    import grpdconn.catalog as cat2
    from grpdconn.connection import Connection

    c, _ = morita_setup()
    verdict = vb_subgroupoid_check(c.total, c.lift_frame, 25, seed=5)
    assert verdict.passed, verdict.witness

    fiber = cat2.group_bundle(line(1, name="F"), "finite", order=2)
    fam = cat2.trivial_family(line(1, name="N"), fiber)
    flat = Connection(fam, lambda g, w: Tangent(g, (w.coeffs[0], 0.0)),
                      lambda x, w: Tangent(x, (w.coeffs[0], 0.0)), {})
    verdict2 = vb_subgroupoid_check(fam.total, flat.lift_frame, 25, seed=5)
    assert verdict2.passed


def test_tm_analytic_matches_directional_finite_differences():
    # central differences along composable tangent directions (snapped
    # multiplication keeps the probes valid) agree with the analytic partials
    from grpdconn.groupoid import rng_for
    from grpdconn.tangent import composable_tangent_basis

    for G in (cat.pair_groupoid(line(1)), cat.so2_action_groupoid(),
              cat.group_bundle(line(1), "circle"),
              cat.pullback_of_projection(cat.pair_groupoid(line(1)),
                                         line(1, name="F")).total):
        for i in range(10):
            g, h = G.pair_sample(rng_for(83, i))
            basis = composable_tangent_basis(G, g, h)
            dim_g = g.patch.dim
            step = 1e-6
            for j in range(basis.shape[1]):
                u, v = basis[:dim_g, j], basis[dim_g:, j]
                analytic = tm_apply(G, g, h, u, v)
                plus = G.compose(
                    Point.raw(g.space, g.patch_index,
                              tuple(c + step * d for c, d in zip(g.coords, u))),
                    Point.raw(h.space, h.patch_index,
                              tuple(c + step * d for c, d in zip(h.coords, v))))
                minus = G.compose(
                    Point.raw(g.space, g.patch_index,
                              tuple(c - step * d for c, d in zip(g.coords, u))),
                    Point.raw(h.space, h.patch_index,
                              tuple(c - step * d for c, d in zip(h.coords, v))))
                from grpdconn.geometry import wrap_difference

                patch = plus.patch
                fd = [
                    (wrap_difference(p, m) if patch.is_circ(k) else p - m) / (2 * step)
                    for k, (p, m) in enumerate(zip(plus.coords, minus.coords))
                ]
                assert np.max(np.abs(analytic - np.asarray(fd))) < 1e-5, G.name


def test_unit_rank_identity_core_plus_side():
    # rank(S ∩ core) + rank(S ∩ side) = rank(S) at sampled units
    from grpdconn.groupoid import rng_for
    from grpdconn.linalg import rank as mat_rank

    G = cat.pair_groupoid(line(1))
    for i in range(10):
        x = G.object_sampler(rng_for(87, i))
        ux = G.unit(x)
        frame = SubbundleFrame(ux, [Tangent(ux, (1.0, 0.0)), Tangent(ux, (0.0, 1.0))])
        core, side, resid = core_side_decomposition(G, x, frame)
        assert core.rank + side.rank == mat_rank(frame.matrix())
        assert resid < 1e-9
