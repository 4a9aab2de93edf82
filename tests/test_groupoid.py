import pytest

import grpdconn.catalog as cat
from grpdconn.config import DEFAULT
from grpdconn.geometry import Patch, Point, Space, circle, distance, line
from grpdconn.groupoid import check_axioms, morphism_check, rng_for
from grpdconn.smoothmap import PairMap


# a product of two non-unit factors and two abelian groups, kept out of
# default_instances()
EXTRA_INSTANCES = [
    ("pair(S1)xSO(2)⋉R2", cat.product_groupoid(cat.pair_groupoid(circle()),
                                                cat.so2_action_groupoid())),
    ("Z3", cat.finite_group_groupoid(3)),
    ("Z2xRxT", cat.abelian_group(Space((Patch(1, 1, "0"), Patch(1, 1, "1")), name="Z2xRxT"),
                                 "Z2xRxT")),
]


@pytest.mark.parametrize("name,G", cat.default_instances() + EXTRA_INSTANCES)
def test_catalog_axioms(name, G):
    rep = check_axioms(G, 50, seed=7)
    assert rep.passed, (name, rep.max_residual, rep.witness)


def test_corrupted_multiplication_detected():
    G = cat.pair_groupoid(line(1))

    def bad_mul(g, h):
        out = G.mul(g, h)
        return Point.raw(out.space, out.patch_index,
                         (out.coords[0] + 1e-3,) + out.coords[1:])

    corrupted = cat.pair_groupoid(line(1))
    corrupted.mul = PairMap(G.arrows, G.arrows, G.arrows, bad_mul, None, "bad_mul")
    rep = check_axioms(corrupted, 50, seed=7)
    assert not rep.passed
    assert 5e-4 < rep.max_residual < 5e-3


def test_pair_sampler_exactly_composable():
    G = cat.so2_action_groupoid()
    for i in range(50):
        g, h = G.pair_sample(rng_for(3, i))
        assert distance(G.src(g), G.tgt(h)) <= DEFAULT.groupoid_tol_compose


def test_pair_groupoid_multiplication_law():
    G = cat.pair_groupoid(line(1))
    prod = G.metadata["product_space"]
    a = Point.make(line(1), 0, (1.0,))
    b = Point.make(line(1), 0, (2.0,))
    c = Point.make(line(1), 0, (3.0,))
    out = G.compose(prod.join(a, b), prod.join(b, c))
    assert prod.split(out)[0].coords == a.coords
    assert prod.split(out)[1].coords == c.coords


def test_group_bundle_adds_mod_2():
    G = cat.group_bundle(line(1), "finite", order=2)
    x = Point.make(line(1), 0, (0.4,))
    g = G.sfiber_grid(x, 2)[1]   # the nontrivial element over x
    gg = G.compose(g, g)
    assert gg.patch_index % 2 == 0  # back to the identity component


def test_product_rejects_a_puncture_it_cannot_carry():
    # {0} x (Z2 \ {e}) x R is a line, not a ball: the product must refuse it
    punctured = cat.group_bundle(line(1), "finite", order=2, punctured_at=(0.0,))
    with pytest.raises(ValueError):
        cat.product_groupoid(punctured, cat.unit_groupoid(line(1)))
    # against a point the ball carries over
    G = cat.product_groupoid(punctured, cat.finite_group_groupoid(1))
    assert [p.excluded_points for p in G.arrows.patches] == [
        p.excluded_points for p in punctured.arrows.patches]


def test_pullback_of_circle_group_over_line():
    # pullback of the circle group (over a point) along R -> pt is
    # R x S^1 x R with mul((x, h, y), (y, h', z)) = (x, h + h', z)
    H = cat.so2_group()
    pi = cat.pullback_of_projection(H, line(1, name="F"))
    split3, join3 = pi.metadata["triple"]
    S1 = H.arrows
    F = line(1, name="F")
    g = join3(Point.make(S1, 0, (1.0,)), Point.make(F, 0, (2.0,)), Point.make(F, 0, (3.0,)))
    k = join3(Point.make(S1, 0, (0.5,)), Point.make(F, 0, (3.0,)), Point.make(F, 0, (4.0,)))
    out = pi.total.compose(g, k)
    h, ft, fs = split3(out)
    assert h.coords[0] == pytest.approx(1.5)
    assert ft.coords[0] == 2.0 and fs.coords[0] == 4.0


def test_morphism_checks():
    pi = cat.so2_action_morphism()
    assert morphism_check(pi, 50, seed=7).passed

    # corrupt the object map: no longer commutes with units
    bad = cat.covering_union_morphism()
    good_map = bad.object_map

    def shifted(x):
        out = good_map(x)
        return Point.raw(out.space, out.patch_index, (out.coords[0] + 1e-3,))

    from grpdconn.smoothmap import SmoothMap

    bad.object_map = SmoothMap(good_map.domain, good_map.codomain, shifted,
                               good_map.jac, "bad_pi0")
    rep = morphism_check(bad, 30, seed=7)
    assert not rep.passed


def test_identity_morphism_passes():
    from grpdconn.groupoid import GroupoidMorphism
    from grpdconn.smoothmap import identity_map

    G = cat.pair_groupoid(line(1))
    ident = GroupoidMorphism("id", G, G, identity_map(G.arrows), identity_map(G.objects))
    rep = morphism_check(ident, 40, seed=1)
    assert rep.passed and rep.max_residual == 0.0


def test_disjoint_union_is_source_connected_when_every_part_is():
    # the cover's kernel Unit(R) ⊔ Unit(R) is; the cover, with its Z2 bundles, is not
    pi = cat.covering_union_morphism()
    assert pi.kernel.groupoid.metadata["source_connected"] is True
    assert pi.total.metadata["source_connected"] is False


@pytest.mark.parametrize("punctured", [False, True])
def test_pair_fibration_kernel_is_unit_circle_times_pair_of_fibres(punctured):
    pi = cat.pair_fibration(punctured=punctured)
    K = pi.kernel.groupoid
    U, P = K.metadata["factors"]
    assert U.metadata["is_unit_groupoid"] and U.objects.name == "S1"
    assert P.objects.dim == 1 and len(P.objects.patches) == (2 if punctured else 1)
    assert K.objects is pi.total.objects
    assert K.metadata["source_connected"] is (not punctured)
    # kernel arrows (u1, u2, theta) embed as the pair ((u1, theta), (u2, theta))
    for i in range(20):
        k = K.arrow_sampler(rng_for(5, i))
        a, b = pi.total.metadata["product_space"].split(pi.kernel.embed(k))
        assert a == K.tgt(k) and b == K.src(k)
        assert a.coords == (k.coords[0], k.coords[2]) and b.coords == (k.coords[1], k.coords[2])
