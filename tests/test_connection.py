import dataclasses

import numpy as np
import pytest

import grpdconn.catalog as cat
from grpdconn.connection import (
    Connection,
    MULTIPLICATIVE,
    NOT_MULTIPLICATIVE,
    Rejection,
    action_connection,
    complement_check,
    kernel_connection,
    multiplicativity_check_pointwise,
    multiplicative_vf_lift,
    product_clause_residual,
)
from grpdconn.errors import (
    KernelEmbeddingNotPatchConstant,
    KernelNotExposed,
    NotAFamily,
    NotAnActionMorphism,
)
from grpdconn.geometry import Point, Tangent, line
from grpdconn.groupoid import rng_for
from grpdconn.scenarios import (
    cover_setup,
    luca_setup,
    morita_setup,
    pair_fibration_setup,
    punctured_bundle_setup,
)
from grpdconn.smoothmap import jacobian


def flat_family_connection(order: int = 2):
    fiber = cat.group_bundle(line(1, name="F"), "finite", order=order)
    fam = cat.trivial_family(line(1, name="N"), fiber)

    def hor(g, w):
        return Tangent(g, (w.coeffs[0],) + (0.0,) * (g.patch.dim - 1))

    return Connection(fam, hor, hor, {"provenance": "flat_product",
                                      "claimed_multiplicative": True})


def test_complement_check_flat():
    c = flat_family_connection()
    rep = complement_check(c, 40, seed=2)
    assert rep.passed and rep.max_residual < 1e-12


def test_complement_check_luca_passes():
    # the skewed lift is a genuine fibrewise complement
    c, _ = luca_setup()
    assert complement_check(c, 40, seed=2).passed


def test_partially_vertical_lift_still_complements():
    # adding vertical components keeps T pi ∘ hor = id, hence a complement
    c, _ = luca_setup()

    def tilted(g, a):
        base = c.hor(g, a)
        return Tangent(g, (base.coeffs[0], base.coeffs[1] + 0.7 * a.coeffs[0]))

    tilted_conn = Connection(c.morphism, tilted, c.hor0, {})
    assert complement_check(tilted_conn, 40, seed=2).passed


def test_luca_product_clause_witness_values():
    c, _ = luca_setup()
    g = Point.make(c.total.arrows, 0, (1.0, 0.0))
    a = Tangent(c.morphism.arrow_map(g), (1.0,))
    resid, produced, required = product_clause_residual(c, g, g, a, a)
    assert produced == (2.0, 2.0)
    assert required == (2.0, 8.0)
    assert abs(resid - 6.0) < 1e-12


def test_flat_family_is_multiplicative():
    rep = multiplicativity_check_pointwise(flat_family_connection(), 60, seed=2)
    assert rep.verdict == MULTIPLICATIVE
    assert rep.max_residual < 1e-10


def test_luca_not_multiplicative_pointwise():
    c, _ = luca_setup()
    rep = multiplicativity_check_pointwise(c, 80, seed=2)
    assert rep.verdict == NOT_MULTIPLICATIVE
    assert rep.residuals["product"] > 1e-2
    for clause in ("source", "target", "unit", "inverse", "base_restriction"):
        assert rep.residuals[clause] < 1e-9


def test_verdict_bands_give_inconclusive():
    c = flat_family_connection()

    def near_tol(g, w):
        base = c.hor(g, w)
        return Tangent(g, (base.coeffs[0], base.coeffs[1] + 3e-6 * w.coeffs[0])
                       + base.coeffs[2:])

    rep = multiplicativity_check_pointwise(
        Connection(c.morphism, near_tol, c.hor0, {}), 40, seed=2)
    assert rep.verdict == "Inconclusive"


def test_kernel_connection_of_family_is_itself():
    c, _ = punctured_bundle_setup()
    kc = kernel_connection(c)
    rng = rng_for(5, 0)
    g = c.total.arrow_sampler(rng)
    w = Tangent(c.morphism.arrow_map(g), (0.3,))
    assert kc.hor(g, w).coeffs == c.hor(g, w).coeffs


def test_kernel_connection_requires_kernel_data():
    c, _ = luca_setup()
    with pytest.raises(KernelNotExposed):
        kernel_connection(c)


def test_kernel_connection_refuses_undeclared_embedding():
    # the same embedding with its Jacobian as a plain function
    c, _ = pair_fibration_setup()
    kernel = c.morphism.kernel
    embed = dataclasses.replace(kernel.embed, jac=lambda k: jacobian(kernel.embed, k))
    pi = dataclasses.replace(c.morphism, kernel=dataclasses.replace(kernel, embed=embed))
    with pytest.raises(KernelEmbeddingNotPatchConstant):
        kernel_connection(Connection(pi, c.hor, c.hor0, c.metadata))


def test_kernel_connection_pair_fibration_tangency():
    c, _ = pair_fibration_setup()
    kc = kernel_connection(c)
    K = kc.total
    rng = rng_for(9, 0)
    for i in range(20):
        k = K.arrow_sampler(rng_for(9, i))
        y = kc.morphism.arrow_map(k)
        w = Tangent(y, (0.7,))
        v = kc.hor(k, w)
        # the lift projects onto w under the kernel family map
        J = jacobian(kc.morphism.arrow_map, k)
        assert abs((J @ np.asarray(v.coeffs))[0] - 0.7) < 1e-9
    assert kc.metadata["tangency_tracker"][0] < 1e-9


# ---------------------------------------------------------------------------
# action criterion


def zero_lift(x, w):
    return Tangent(x, (0.0,) * x.patch.dim)


def test_rotation_action_rejected_with_unit_residual_at_probe():
    am = cat.so2_action_morphism(trivial=False)
    result = action_connection(am, zero_lift, 30, seed=1)
    assert isinstance(result, Rejection)
    assert abs(result.probe_residuals["probe[0]"] - 1.0) < 1e-6
    assert result.worst_residual >= 0.9


def test_trivial_action_accepted_and_multiplicative():
    am = cat.so2_action_morphism(trivial=True)
    result = action_connection(am, zero_lift, 30, seed=1)
    assert isinstance(result, Connection)
    rep = multiplicativity_check_pointwise(result, 50, seed=1)
    assert rep.verdict == MULTIPLICATIVE and rep.max_residual < 1e-9


def test_finite_action_always_returns_candidate():
    am = cat.reflection_action_morphism()
    result = action_connection(am, zero_lift, 30, seed=1)
    assert isinstance(result, Connection)


def test_action_connection_requires_action_morphism():
    c, _ = luca_setup()
    with pytest.raises(NotAnActionMorphism):
        action_connection(c.morphism, zero_lift)


# ---------------------------------------------------------------------------
# multiplicative vector-field lifting


def test_zero_field_lifts_multiplicatively():
    c = flat_family_connection()
    X = lambda y: Tangent(y, (0.0,))
    _, rep = multiplicative_vf_lift(c, X, 30, seed=1)
    assert rep.passed and rep.max_residual == 0.0


def test_flat_lift_of_coordinate_field_is_multiplicative():
    c = flat_family_connection()
    X = lambda y: Tangent(y, (1.0,))
    X_G, rep = multiplicative_vf_lift(c, X, 30, seed=1)
    assert rep.passed


def test_skewed_family_lift_fails_product_identity():
    # quadratic-skew defect transplanted to a circle-bundle family, where the
    # fibrewise group law mixes the two slots of Tm
    fiber = cat.group_bundle(line(1, name="F"), "circle")
    fam = cat.trivial_family(line(1, name="N"), fiber)

    def skewed(g, w):
        y = g.coords[0]
        return Tangent(g, (w.coeffs[0], 0.0, y * y * w.coeffs[0]))

    def hor0(x, w):
        return Tangent(x, (w.coeffs[0], 0.0))

    bad = Connection(fam, skewed, hor0, {})
    X = lambda y: Tangent(y, (1.0,))
    _, rep = multiplicative_vf_lift(bad, X, 40, seed=1)
    assert not rep.passed
    assert rep.clauses["product"] > 1e-3
    assert rep.clauses["source_projectable"] < 1e-10


def test_vf_lift_requires_family():
    c, _ = luca_setup()
    with pytest.raises(NotAFamily):
        multiplicative_vf_lift(c, lambda y: Tangent(y, (0.0,)), 5, seed=1)


def test_hor_right_inverse_property_at_samples():
    # definitional invariant on a few shipped connections
    for c in (flat_family_connection(), luca_setup()[0], morita_setup()[0],
              cover_setup()[0]):
        pi = c.morphism
        for i in range(50):
            g = pi.total.arrow_sampler(rng_for(21, i))
            h = pi.arrow_map(g)
            if h.patch.dim == 0:
                continue
            a = Tangent(h, tuple(rng_for(22, i).uniform(-1, 1, h.patch.dim)))
            J = jacobian(pi.arrow_map, g)
            back = J @ np.asarray(c.hor(g, a).coeffs)
            assert np.max(np.abs(back - np.asarray(a.coeffs))) < 1e-9


def test_action_lift_shape_is_unique():
    # any accepted lift on an action morphism matches the candidate formula
    am = cat.so2_action_morphism(trivial=True)
    candidate = action_connection(am, zero_lift, 30, seed=1)
    assert isinstance(candidate, Connection)

    def user_supplied(g, a):
        # the flat lift in the global coordinates (v, phi)
        return Tangent(g, (0.0, 0.0, a.coeffs[0]))

    for i in range(40):
        g = am.total.arrow_sampler(rng_for(77, i))
        a = Tangent(am.arrow_map(g), tuple(rng_for(78, i).uniform(-1, 1, 1)))
        gap = np.asarray(candidate.hor(g, a).coeffs) - np.asarray(user_supplied(g, a).coeffs)
        assert np.max(np.abs(gap)) < 1e-9


def test_uniform_fibration_factors_through_pullback():
    # the angle-pair fibration factors as (comparison map to the pullback
    # groupoid) followed by the pullback projection; composing the identity
    # lift on the comparison iso with the pullback lift reproduces the flat
    # product connection
    from grpdconn.constructions import morita_connection
    from grpdconn.geometry import circle
    from grpdconn.groupoid import GroupoidMorphism
    from grpdconn.scenarios import pair_fibration_setup
    from grpdconn.smoothmap import SmoothMap

    flat, _ = pair_fibration_setup(punctured=False)
    G = flat.total                       # Pair(S^1 x R)
    pr = cat.pullback_of_projection(cat.pair_groupoid(circle()), line(1, name="x"))
    P = pr.total                          # the pullback groupoid

    # both arrow spaces pack as (x1, x2, theta1, theta2): the comparison map
    # is the coordinate identity
    def to_P(p):
        return Point.raw(P.arrows, 0, p.coords)

    def to_P_obj(x):
        return Point.raw(P.objects, 0, x.coords)

    star = GroupoidMorphism(
        "comparison", G, P,
        SmoothMap(G.arrows, P.arrows, to_P, lambda p: np.eye(4), "star"),
        SmoothMap(G.objects, P.objects, to_P_obj, lambda x: np.eye(2), "star0"),
    )
    c_star = Connection(
        star,
        lambda g, a: Tangent(g, a.coeffs),
        lambda x, w: Tangent(x, w.coeffs),
        {"provenance": "comparison_identity", "claimed_multiplicative": True},
    )

    base_prod = pr.metadata["base_product"]

    def hor0(x, w):
        packed = base_prod.join_rows(x.patch_index, np.array([w.coeffs]), np.zeros((1, 1)))
        return Tangent(x, tuple(packed[0].tolist()))

    c_pr = morita_connection(pr, hor0)

    # the composite pr o star, with the lift hor_star(g, hor_pr(star(g), a))
    def after_star(outer, inner, name):
        return SmoothMap(inner.domain, outer.codomain, lambda p: outer(inner(p)),
                         lambda p: jacobian(outer, inner(p)) @ jacobian(inner, p), name)

    composed = Connection(
        GroupoidMorphism("pr∘comparison", G, pr.base_grpd,
                         after_star(pr.arrow_map, star.arrow_map, "pr∘star"),
                         after_star(pr.object_map, star.object_map, "pr0∘star0")),
        lambda g, a: c_star.hor(g, c_pr.hor(star.arrow_map(g), a)),
        lambda x, w: c_star.hor0(x, c_pr.hor0(star.object_map(x), w)),
        {"provenance": "comparison_then_pullback", "claimed_multiplicative": True},
    )

    assert multiplicativity_check_pointwise(composed, 20, seed=0).verdict == MULTIPLICATIVE
    assert complement_check(composed, 30, seed=4).passed
    for i in range(30):
        g = G.arrow_sampler(rng_for(91, i))
        a = Tangent(flat.morphism.arrow_map(g), tuple(rng_for(92, i).uniform(-1, 1, 2)))
        gap = np.asarray(composed.hor(g, a).coeffs) - np.asarray(flat.hor(g, a).coeffs)
        assert np.max(np.abs(gap)) < 1e-12
