import dataclasses
import math

import numpy as np
import pytest

import grpdconn.catalog as cat
from grpdconn.config import DEFAULT
import grpdconn.constructions as constructions
from grpdconn.connection import (
    Connection,
    MULTIPLICATIVE,
    RowLift,
    complement_check,
    multiplicativity_check_pointwise,
)
from grpdconn.constructions import (
    AtlasWindow,
    HaarFiberQuadrature,
    LevelSchedule,
    SineShift,
    TrivializingAtlas,
    complete_connection_builder,
    constant_profile,
    flatness_certificate_check,
    glue_local_trivial,
    haar_average,
    invariant_exhaustion,
    level_schedule,
    morita_compare,
    morita_connection,
    proper_family_connection,
    slope_lift,
    verify_slab_disjointness,
)
from grpdconn.errors import (
    AtlasMismatch,
    CertificateFailure,
    InvalidParams,
    NonProjectableInput,
    NotSourceProper,
    PartitionGap,
    QuadratureMissing,
)
from grpdconn.geometry import Patch, Point, Space, Tangent, line
from grpdconn.groupoid import rng_for
from grpdconn.scenarios import (
    _rotating_base_lift,
    _skewed_source_lift,
    morita_punctured_setup,
    morita_setup,
    proper_average_connection,
    skewed_family_field,
    so2_family_setup,
    sproper_paths,
    sproper_setup,
)
from grpdconn.smoothmap import jacobian
from grpdconn.transport import completeness_probe


# ---------------------------------------------------------------------------
# Morita lifts


def test_morita_point_base_lift_is_flat():
    # circle group over a point, base map R -> pt: lift = (0, a, 0)
    H = cat.so2_group()
    pi = cat.pullback_of_projection(H, line(1, name="F"))

    def hor0(x, w):
        return Tangent(x, (0.0,) * x.patch.dim)

    c = morita_connection(pi, hor0)
    split3, join3 = pi.metadata["triple"]
    g = join3(Point.make(H.arrows, 0, (1.0,)),
              Point.make(line(1, name="F"), 0, (2.0,)),
              Point.make(line(1, name="F"), 0, (3.0,)))
    a = Tangent(pi.arrow_map(g), (1.0,))
    # packed coordinates are (f_t, f_s, theta)
    assert c.hor(g, a).coeffs == (0.0, 0.0, 1.0)


def test_morita_uniqueness_comparison():
    c, _ = morita_setup()
    # a user-supplied lift built from the same base connection matches
    again, _ = morita_setup()
    assert morita_compare(c, again, 30, seed=5) < 1e-12
    # a vertically perturbed lift deviates
    def perturbed(g, a):
        base = c.hor(g, a)
        coeffs = list(base.coeffs)
        coeffs[2] += 1e-3 * a.coeffs[0]
        return Tangent(g, tuple(coeffs))

    c2 = Connection(c.morphism, perturbed, c.hor0, {})
    dev = morita_compare(c, c2, 30, seed=5)
    assert 1e-4 < dev < 1e-2


def test_pullback_kernel_source_connected_follows_fibre():
    # the kernel Unit(N) x Pair(F) has source fibres F: R is connected, the
    # two-chart R \ {0} is not
    for setup, connected in ((morita_setup, True), (morita_punctured_setup, False)):
        assert setup()[0].morphism.kernel.groupoid.metadata["source_connected"] is connected


def test_circle_group_pullback_loop_transport_returns():
    # transport along the full circle loop ends where it started
    from grpdconn.paths import coordinate_path
    from grpdconn.transport import parallel_transport

    H = cat.so2_group()
    pi = cat.pullback_of_projection(H, line(1, name="F"))

    def hor0(x, w):
        return Tangent(x, (0.0,) * x.patch.dim)

    c = morita_connection(pi, hor0)
    split3, join3 = pi.metadata["triple"]
    F = line(1, name="F")
    g = join3(Point.make(H.arrows, 0, (0.0,)), Point.make(F, 0, (1.5,)),
              Point.make(F, 0, (-0.5,)))
    loop = coordinate_path(H.arrows, 0, lambda t: (2 * math.pi * t,),
                           lambda t: (2 * math.pi,), is_loop=True)
    out = parallel_transport(c, loop, g, 1.0)
    assert out.completed
    from grpdconn.geometry import distance

    assert distance(out.end, g) < 1e-8


def _circle_group_pullback():
    """The pullback of SO(2) over a point: H's objects have no coordinates,
    so the legs' tangent blocks have zero columns."""
    pi = cat.pullback_of_projection(cat.so2_group(), line(1, name="F"))
    return morita_connection(pi, lambda x, w: Tangent(x, (0.0,) * x.patch.dim))


def _morita_reference(c: Connection, g: Point, a: Tangent) -> tuple:
    """(hor0(x, Tt a), a, hor0(y, Ts a)) at g, one Point and Tangent at a
    time; Tt a and Ts a by H's Jacobians, which are 0/1 column picks."""
    pi = c.morphism
    H, base_prod = pi.base_grpd, pi.metadata["base_product"]
    split3, join3 = pi.metadata["triple"]
    h, ft, fs = split3(g)
    legs = []
    for end, f in ((H.tgt, ft), (H.src, fs)):
        w = Tangent(end(h), tuple((jacobian(end, h) @ np.array(a.coeffs)).tolist()))
        x = base_prod.join(end(h), f)
        lifted = np.array([c.hor0(x, w).coeffs])
        fibre = base_prod.factor_rows(x.patch_index, lifted, 1)[0].tolist()
        legs.append(Point.raw(f.space, f.patch_index, fibre))
    return join3(Point.raw(H.arrows, h.patch_index, a.coeffs), *legs).coords


@pytest.mark.parametrize("setup", [lambda: morita_setup()[0],
                                   lambda: morita_punctured_setup()[0],
                                   _circle_group_pullback],
                         ids=["morita", "punctured", "circle_group"])
def test_morita_rows_match_point_reference(setup):
    # every arrow patch: on the punctured pullback the legs of the same-sign
    # patches share a patch of N x F (one hor0 call), the others do not
    c = setup()
    arrows, H = c.total.arrows, c.base.arrows
    for p, patch in enumerate(arrows.patches):
        rng = rng_for(29, p)
        C = rng.uniform(-2.0, 2.0, (200, patch.dim))
        ih = c.morphism.arrow_map(Point.raw(arrows, p, C[0])).patch_index
        W = rng.uniform(-1.0, 1.0, (200, H.patches[ih].dim))
        got = c.hor.rows(p, C, W)
        for row, g_row, w_row in zip(got, C.tolist(), W.tolist()):
            g = Point.raw(arrows, p, g_row)
            want = _morita_reference(c, g, Tangent(c.morphism.arrow_map(g), tuple(w_row)))
            assert np.array(want).tobytes() == row.tobytes()


# ---------------------------------------------------------------------------
# gluing


def test_single_window_glue_is_flat():
    fam, atlas, profile, schedule = sproper_setup()
    single = TrivializingAtlas(fam, [AtlasWindow((-2.8, 2.8), (-3.2, 3.2), SineShift(0.0))])
    c = glue_local_trivial(single)
    g = fam.total.arrow_sampler(rng_for(3, 0))
    w = Tangent(fam.arrow_map(g), (1.0,))
    assert c.hor(g, w).coeffs == (1.0, 0.0)
    rep = multiplicativity_check_pointwise(c, 30, seed=3)
    assert rep.verdict == MULTIPLICATIVE


def test_two_window_glue_multiplicative():
    fam, atlas, profile, schedule = sproper_setup()
    c = glue_local_trivial(atlas)
    rep = multiplicativity_check_pointwise(c, 40, seed=3)
    assert rep.verdict == MULTIPLICATIVE
    v = completeness_probe(c, lambda rng: _box_path(fam, rng), 40, seed=3)
    assert v.kind == "NoCounterexampleFound"


def test_two_window_glue_is_not_slab_flat():
    # one slope lift serves objects and arrows, so its base part is exactly w;
    # on the slabs where the windows overlap the partition mixes two shift
    # slopes, which the chart-flat clause rejects (the builder's slab-avoiding
    # partition passes it: test_builder_and_recheck)
    fam, atlas, profile, sched = sproper_setup()
    c = glue_local_trivial(atlas)
    assert c.hor is c.hor0
    fv = flatness_certificate_check(c, sched, 6, 2)
    assert fv.worst_base_residual == 0.0
    assert fv.worst_fiber_residual > 1e-2
    assert "chart_flat_form" in fv.failed_clauses


def _box_path(fam, rng):
    a = float(rng.uniform(-2, 2))
    b = float(rng.uniform(-2, 2))
    gamma = cat.segment_path(fam.base_grpd.objects, 0, (a,), (b,))
    return gamma, fam.fiber_sampler(gamma.point(0.0), rng)


def _apart_windows() -> list[AtlasWindow]:
    # two windows that leave (-1.5, 1.5) uncovered
    return [AtlasWindow((-2.8, -1.6), (-3.0, -1.5), SineShift(0.0)),
            AtlasWindow((1.6, 2.8), (1.5, 3.0), SineShift(0.0))]


def test_partition_gap_detected():
    fam, atlas, profile, schedule = sproper_setup()
    gappy = TrivializingAtlas(fam, _apart_windows())
    with pytest.raises(PartitionGap):
        glue_local_trivial(gappy)


def test_glued_slope_is_zero_outside_every_outer_window():
    fam, atlas, profile, schedule = sproper_setup()
    c = glue_local_trivial(atlas)
    C = np.array([[-4.0, 0.5], [3.5, -1.0], [0.0, 0.0]])
    got = c.hor.rows(0, C, np.ones((3, 1)))
    assert got[:2, 1].tolist() == [0.0, 0.0]
    assert got[2, 1] == atlas.slope(0.0, atlas.weights(0.0, 0.0)) != 0.0


# ---------------------------------------------------------------------------
# Haar averaging


def test_quadrature_normalization_and_invariance():
    fam, quad = so2_family_setup(nodes=32)
    rep = quad.validate(fam.total, 15, seed=2)
    assert rep.passed, rep.witness


@pytest.mark.parametrize("G", [
    cat.so2_group(),
    cat.finite_group_groupoid(3),
    cat.abelian_group(Space((Patch(0, 2, "0"), Patch(0, 2, "1")), name="Z2xT2"), "Z2xT2"),
], ids=lambda G: G.name)
def test_abelian_group_quadrature_is_haar(G):
    rep = HaarFiberQuadrature.from_groupoid(G, 16).validate(G, 20, seed=3)
    assert rep.passed, rep.witness


def test_quadrature_missing():
    G = cat.pair_groupoid(line(1))
    with pytest.raises(QuadratureMissing):
        HaarFiberQuadrature.from_groupoid(G, 16)


def test_average_refuses_undeclared_mul_partials():
    # the same partials as a plain function: the average applies a block's
    # first-row partials to every row, which only a declaration allows
    fam, quad = so2_family_setup(nodes=8)
    G = fam.total
    mul = dataclasses.replace(G.mul, jac2=lambda g, h: G.mul.partials(g, h))
    undeclared = dataclasses.replace(G, mul=mul)
    with pytest.raises(QuadratureMissing):
        HaarFiberQuadrature.from_groupoid(undeclared, 8)
    with pytest.raises(QuadratureMissing):
        haar_average(undeclared, quad, skewed_family_field(fam), check=False)


def test_proper_family_connection_refuses_undeclared_src_jacobian():
    # the averaged base lift applies the src Jacobian at a block's first
    # unit row to every row, which only a declaration allows
    fam, quad = so2_family_setup(nodes=8)
    G = fam.total
    src = dataclasses.replace(G.src, jac=lambda p: G.src.jac(p))
    undeclared = dataclasses.replace(fam, total=dataclasses.replace(G, src=src))
    with pytest.raises(QuadratureMissing):
        proper_family_connection(undeclared, _rotating_base_lift, _skewed_source_lift, quad, 2)


def test_average_fixed_point_and_idempotence():
    fam, quad = so2_family_setup(nodes=32)
    G = fam.total
    X = skewed_family_field(fam)
    X_hat, rep = haar_average(G, quad, X, 20, seed=2)
    assert rep.passed
    # averaging its own output changes nothing
    X_hat2, _ = haar_average(G, quad, X_hat, 5, seed=2, check=False)
    worst = 0.0
    for i in range(20):
        g = G.arrow_sampler(rng_for(61, i))
        worst = max(worst, float(np.linalg.norm(
            np.asarray(X_hat2(g).coeffs) - np.asarray(X_hat(g).coeffs))))
    assert worst < 1e-9


def test_averaged_field_recomputes_at_each_call():
    fam, quad = so2_family_setup(nodes=8)
    G = fam.total
    X = skewed_family_field(fam)
    calls = [0]

    def counted(g):
        calls[0] += 1
        return X(g)

    X_hat, _ = haar_average(G, quad, counted, check=False)
    g = G.arrow_sampler(rng_for(71, 0))
    first = X_hat(g)
    once = calls[0]
    assert once > 0
    assert X_hat(g).coeffs == first.coeffs
    assert calls[0] == 2 * once


def test_average_projects_to_base_field():
    fam, quad = so2_family_setup(nodes=32)
    G = fam.total
    X = skewed_family_field(fam)
    X_hat, _ = haar_average(G, quad, X, 10, seed=2)
    from grpdconn.smoothmap import jacobian

    for i in range(20):
        g = G.arrow_sampler(rng_for(67, i))
        pushed = jacobian(fam.arrow_map, g) @ np.asarray(X_hat(g).coeffs)
        assert abs(pushed[0] - 1.0) < 1e-10


def test_finite_group_average_is_exact_sum():
    fiber = cat.group_bundle(line(1, name="F"), "finite", order=3)
    fam = cat.trivial_family(line(1, name="N"), fiber)
    quad = HaarFiberQuadrature.from_groupoid(fam.total, 3)

    def X(g):
        return Tangent(g, (1.0, 0.1 * math.sin(g.coords[1])))

    X_hat, rep = haar_average(fam.total, quad, X, 20, seed=2)
    assert rep.passed and rep.max_residual < 1e-12


def test_non_projectable_input_rejected():
    fam, quad = so2_family_setup(nodes=16)

    def bad(g):
        # source projection depends on the fibre angle: not s-projectable
        return Tangent(g, (1.0, math.cos(g.coords[3]), 0.0, 0.0))

    with pytest.raises(NonProjectableInput):
        haar_average(fam.total, quad, bad, 20, seed=2)


def test_averaged_connection_averages_once_per_arrow(monkeypatch):
    asked = []
    average = constructions.haar_average

    def counting_average(*args, **kwargs):
        X_hat, report = average(*args, **kwargs)

        def counted(g):
            asked.append((g.patch_index, g.coords))
            return X_hat(g)

        return counted, report

    monkeypatch.setattr(constructions, "haar_average", counting_average)
    conn = proper_average_connection(DEFAULT)
    asked.clear()
    # four lifts at the sampled arrow, one base lift at a unit arrow
    assert complement_check(conn, 1, seed=7).passed
    assert len(asked) == len(set(asked)) == 2

    g = conn.total.arrow_sampler(rng_for(73, 0))
    a = Tangent(conn.morphism.arrow_map(g), (1.0,))
    first = conn.hor(g, a)
    assert len(asked) == 3
    assert conn.hor(g, a).coeffs == first.coeffs and len(asked) == 3
    conn.hor(conn.total.arrow_sampler(rng_for(73, 1)), a)
    conn.hor(g, a)   # one slot: the first arrow was displaced
    assert len(asked) == 5


def test_proper_family_connection_builds_no_field_report(monkeypatch):
    # the averaged basis fields become a connection: only the projectability
    # guard runs on them, and no multiplicative-field report is made
    reports = []
    report = constructions.multiplicative_field_report
    monkeypatch.setattr(constructions, "multiplicative_field_report",
                        lambda *args, **kwargs: reports.append(args) or report(*args, **kwargs))
    fam, quad = so2_family_setup(nodes=8)
    proper_family_connection(fam, _rotating_base_lift, _skewed_source_lift, quad, 12)
    assert reports == []


def test_proper_family_connection_refuses_a_non_projectable_source_lift():
    fam, quad = so2_family_setup(nodes=8)

    @RowLift
    def twisted(p, C, W):
        # the source projection turns with the fibre angle: not s-projectable
        return np.column_stack((W[:, 0], W[:, 1] + np.sin(C[:, 3]), W[:, 2], np.zeros(len(C))))

    with pytest.raises(NonProjectableInput):
        proper_family_connection(fam, _rotating_base_lift, twisted, quad, 12)


def test_proper_family_connection_fixes_flat_input():
    fam, quad = so2_family_setup(nodes=16)

    def hor_s(g, w):
        return Tangent(g, (w.coeffs[0], w.coeffs[1], w.coeffs[2], 0.0))

    def hor0(x, w):
        return Tangent(x, (w.coeffs[0], 0.0, 0.0))

    c = proper_family_connection(fam, hor0, hor_s, quad, 10, seed=2)
    g = fam.total.arrow_sampler(rng_for(71, 0))
    a = Tangent(fam.arrow_map(g), (1.0,))
    assert np.allclose(c.hor(g, a).coeffs, (1.0, 0.0, 0.0, 0.0), atol=1e-12)


# ---------------------------------------------------------------------------
# exhaustions, schedules, certificates


def test_invariant_exhaustion_unit_groupoid():
    fiber = cat.group_bundle(line(1, name="F"), "finite", order=1)
    profile, rep = invariant_exhaustion(fiber, 30, seed=2)
    assert rep.passed
    p = Point.make(line(1, name="F"), 0, (0.0,))
    assert profile.value(p) == 1.0


def test_invariant_exhaustion_z2_bundle():
    fiber = cat.group_bundle(line(1, name="F"), "finite", order=2)
    profile, rep = invariant_exhaustion(fiber, 30, seed=2)
    assert rep.passed and rep.clauses["invariance"] == 0.0


def test_invariant_exhaustion_compact_fiber_constant():
    fiber = cat.so2_group()
    profile, rep = invariant_exhaustion(fiber, 10, seed=2)
    assert profile.value(fiber.object_sampler(rng_for(2, 0))) == 1.0
    assert profile.preimage_points(3) == []
    assert rep.passed


def test_not_source_proper_rejected():
    G = cat.pair_groupoid(line(1))
    with pytest.raises(NotSourceProper):
        invariant_exhaustion(G)


def test_single_window_schedule():
    fam, atlas, profile, _ = sproper_setup()
    single = TrivializingAtlas(fam, [atlas.windows[0]])
    sched = level_schedule(single, profile, truncation_depth=4)
    levels = sched.per_window[0]
    assert levels == sorted(levels) and len(set(levels)) == 4
    assert sched.disjoint_verified


def test_two_window_schedule_interleaves_and_separates():
    fam, atlas, profile, sched = sproper_setup()
    assert sched.disjoint_verified
    ok, gap, notes = verify_slab_disjointness(sched)
    assert ok and gap > 0.0


def test_edited_level_is_the_one_disjointness_verifies():
    fam, atlas, profile, _ = sproper_setup()
    bad = level_schedule(atlas, profile, 3)
    assert bad.disjoint_verified and bad.truncation_depth == 3
    bad.levels[(1, 1)] = bad.levels[(1, 0)]
    ok, _, notes = verify_slab_disjointness(bad)
    assert not ok and notes == ["slabs (1,0)/(1,1) may intersect"]
    assert not bad.disjoint_verified


@pytest.mark.parametrize("levels", [{(0, 0): 4}, {(0, 5): 4}, {}],
                         ids=["missing-window", "foreign-window", "empty"])
def test_schedule_refuses_keys_other_than_depth_by_windows(levels):
    fam, atlas, profile, _ = sproper_setup()
    with pytest.raises(AtlasMismatch):
        LevelSchedule(atlas, profile, levels)


def test_schedule_stores_its_atlas_profile_and_levels_only():
    fam, atlas, profile, sched = sproper_setup()
    assert [f.name for f in dataclasses.fields(sched)] == ["atlas", "profile", "levels"]
    assert sched.atlas is atlas and sched.profile is profile
    assert sched.truncation_depth == 3
    assert all(sched.radius(a).lo > DEFAULT.constr_box for a in range(2))


def test_disjoint_windows_schedule_independent():
    fam, atlas, profile, _ = sproper_setup()
    apart = TrivializingAtlas(fam, _apart_windows())
    sched = level_schedule(apart, profile, truncation_depth=3)
    # no overlap constraints: both windows use the same independent ladder
    assert sched.per_window[0] == sched.per_window[1]


def test_builder_and_recheck():
    fam, atlas, profile, sched = sproper_setup()
    conn, cert = complete_connection_builder(fam, atlas, sched, profile,
                                             n_cert_samples=8, seed=2)
    assert cert.verdict == "CertifiedComplete"
    for w in cert.windows:
        assert float(w.precompact_bound["lo"]) > DEFAULT.constr_box
    fv = flatness_certificate_check(conn, sched, 6, 2)
    assert fv.verdict == "CertifiedComplete"


def test_flat_connection_certifies_with_any_levels():
    fam, atlas, profile, sched = sproper_setup()
    single = TrivializingAtlas(fam, [AtlasWindow((-2.8, 2.8), (-3.2, 3.2), SineShift(0.0))])

    def hor(g, w):
        return Tangent(g, (w.coeffs[0], 0.0))

    flat = Connection(fam, hor, hor, {})
    fv = flatness_certificate_check(flat, LevelSchedule(single, profile, {(0, 0): 4}), 6, 2)
    assert fv.verdict == "CertifiedComplete"


def test_recheck_refuses_a_constant_profile_on_an_atlas():
    # dx/dt = x^2 dy/dt escapes in finite time; a constant profile has no
    # slabs, so only the precompactness clause can refuse the lift, and an
    # atlas fibre (one line coordinate) is never compact
    fam, atlas, _, _ = sproper_setup()
    lift = slope_lift(lambda y, x: x * x)
    c = Connection(fam, lift, lift, {})
    v = completeness_probe(c, sproper_paths(fam, DEFAULT), 10, 0)
    assert v.found_witness and v.witness["reason"] == "StepCollapse"
    fv = flatness_certificate_check(c, level_schedule(atlas, constant_profile()), 6, 0)
    assert fv.verdict == "NotCertified"
    assert fv.failed_clauses == ["precompactness[window 0]", "precompactness[window 1]"]


def test_builder_refuses_a_constant_profile_on_an_atlas():
    fam, atlas, _, _ = sproper_setup()
    profile = constant_profile()
    sched = level_schedule(atlas, profile)
    with pytest.raises(CertificateFailure, match="^precompactness"):
        complete_connection_builder(fam, atlas, sched, profile, n_cert_samples=4, seed=2)


def _order3_family():
    return cat.trivial_family(line(1, name="N"),
                              cat.group_bundle(line(1, name="F"), "finite", order=3))


@pytest.mark.parametrize("stranger", ["family", "atlas", "profile"])
def test_builder_refuses_inputs_other_than_the_schedules(stranger):
    fam, atlas, profile, sched = sproper_setup()
    args = {"family": fam, "atlas": atlas, "profile": profile}
    args[stranger] = {"family": _order3_family,
                      "atlas": lambda: TrivializingAtlas(fam, atlas.windows),
                      "profile": lambda: invariant_exhaustion(atlas.fiber, 4, 0)[0]}[stranger]()
    with pytest.raises(AtlasMismatch):
        complete_connection_builder(args["family"], args["atlas"], sched, args["profile"],
                                    n_cert_samples=4, seed=2)


def test_skewed_connection_fails_flatness_clause():
    fam, atlas, profile, _ = sproper_setup()
    single = TrivializingAtlas(fam, [AtlasWindow((-2.8, 2.8), (-3.2, 3.2), SineShift(0.0))])

    def skewed(g, w):
        return Tangent(g, (w.coeffs[0], 0.3 * w.coeffs[0]))

    c = Connection(fam, skewed, skewed, {})
    fv = flatness_certificate_check(c, LevelSchedule(single, profile, {(0, 0): 4}), 6, 2)
    assert fv.verdict == "NotCertified"
    assert "chart_flat_form" in fv.failed_clauses


def test_builder_refuses_a_gap_in_the_cover():
    fam, atlas, profile, _ = sproper_setup()
    gappy = TrivializingAtlas(fam, _apart_windows())
    sched = level_schedule(gappy, profile, truncation_depth=4)
    with pytest.raises(CertificateFailure, match="^partition_cover"):
        complete_connection_builder(fam, gappy, sched, profile, n_cert_samples=4, seed=2)


def test_raised_level_moves_the_window_levels():
    # a level raised after scheduling keeps the slabs disjoint; the builder
    # must check flatness at the raised level, not at a stale copy
    fam, atlas, profile, sched = sproper_setup()
    sched.levels[(2, 1)] += 2
    assert sched.window_levels(1) == [0, 2, 6] == sched.per_window[1]
    conn, cert = complete_connection_builder(fam, atlas, sched, profile,
                                             n_cert_samples=8, seed=2)
    assert cert.verdict == "CertifiedComplete"
    assert [w.levels for w in cert.windows] == sched.per_window


@pytest.mark.parametrize("n", [0, -3, 2.5, True, "6", None])
def test_sample_counts_must_be_positive_integers(n):
    fam, atlas, profile, sched = sproper_setup()
    c = glue_local_trivial(atlas)
    with pytest.raises(InvalidParams):
        flatness_certificate_check(c, sched, n, 1)
    with pytest.raises(InvalidParams):
        complete_connection_builder(fam, atlas, sched, profile, n_cert_samples=n, seed=2)


@pytest.mark.parametrize("inner, outer", [
    ((2.8, -0.8), (3.2, -1.2)),             # reversed ends
    ((-0.8, 2.8), (-0.5, 3.2)),             # inner starts before outer
    ((-0.8, 3.4), (-1.2, 3.2)),             # inner ends after outer
    ((1.0, 1.0), (0.5, 1.5)),               # empty inner window
    ((-0.8, 2.8), (-math.inf, 3.2)),        # infinite end
    ((-0.8, math.nan), (-1.2, 3.2)),        # NaN end
])
def test_atlas_refuses_malformed_windows(inner, outer):
    fam, atlas, _, _ = sproper_setup()
    with pytest.raises(AtlasMismatch):
        TrivializingAtlas(fam, [AtlasWindow(inner, outer, SineShift(0.0))])


def test_atlas_chart_multiplicativity_refuses_a_pair_fibre():
    # sigma(y) cancels in the clause: it tests that composition keeps h's
    # fibre coordinate, which bundles of groups do and pair groupoids do not
    fam, atlas, _, _ = sproper_setup()
    assert atlas.validate(20, 7).clauses["chart_multiplicative"] == 0.0
    pair_family = cat.trivial_family(line(1, name="N"), cat.pair_groupoid(line(1, name="F")))
    rep = TrivializingAtlas(pair_family, atlas.windows).validate(20, 7)
    assert not rep.passed and rep.clauses["chart_multiplicative"] > 1.0


def test_atlas_needs_a_window_and_reads_its_fibre_from_the_family():
    fam, atlas, _, _ = sproper_setup()
    with pytest.raises(AtlasMismatch):
        TrivializingAtlas(fam, [])
    # zero margins are legal
    flush = TrivializingAtlas(fam, [AtlasWindow((-1.0, 1.0), (-1.0, 1.0), SineShift(0.0))])
    assert flush.windows[0].bump(-1.0) == flush.windows[0].bump(1.0) == 1.0
    assert atlas.fiber is fam.total.metadata["factors"][1]


def test_injected_overlap_fails():
    fam, atlas, profile, sched = sproper_setup()
    sched.levels[(2, 1)] = sched.levels[(2, 0)]
    with pytest.raises(CertificateFailure):
        complete_connection_builder(fam, atlas, sched, profile, n_cert_samples=4, seed=2)


def test_unbounded_supremum_rejected():
    from grpdconn.errors import SupremumUnbounded

    fam, atlas, profile, _ = sproper_setup()
    # the interval extension of 1e308 sin overflows to an infinite bound
    wild = AtlasWindow((-2.8, 0.8), (-3.2, 1.2), SineShift(1e308))
    overlapping = AtlasWindow((-0.8, 2.8), (-1.2, 3.2), SineShift(0.0))
    bad_atlas = TrivializingAtlas(fam, [wild, overlapping])
    with pytest.raises(SupremumUnbounded):
        level_schedule(bad_atlas, profile, truncation_depth=2)


def test_atlas_mismatch_rejected():
    from grpdconn.errors import AtlasMismatch

    fam, atlas, profile, sched = sproper_setup()
    other_fiber = cat.group_bundle(line(1, name="F"), "finite", order=3)
    other = cat.trivial_family(line(1, name="N"), other_fiber)
    stranger = Connection(other, lambda g, w: Tangent(g, (w.coeffs[0], 0.0)),
                          lambda x, w: Tangent(x, (w.coeffs[0], 0.0)), {})
    with pytest.raises(AtlasMismatch):
        flatness_certificate_check(stranger, sched, 4, 1)
