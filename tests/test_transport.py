import math

import numpy as np
import pytest

import grpdconn.catalog as cat
import grpdconn.transport as transport
from grpdconn.config import DEFAULT
from grpdconn.connection import Connection, MULTIPLICATIVE, NOT_MULTIPLICATIVE, RowLift
from grpdconn.errors import InvalidParams, NotALoop, StartFiberMismatch
from grpdconn.geometry import Point, Tangent, distance, line
from grpdconn.groupoid import TransportSamplers, rng_for
from grpdconn.integrate import integrate
from grpdconn.paths import BasePath, constant_path, coordinate_path, subpath
from grpdconn.scenarios import (
    cover_setup,
    luca_setup,
    morita_closed_form_end,
    morita_setup,
    pair_fibration_setup,
    proper_average_connection,
    punctured_bundle_setup,
)
from grpdconn.transport import (
    completeness_probe,
    current_groupoid_check,
    holonomy,
    parallel_transport,
    parallel_transport_rows,
    theorem_crosscheck_kernel,
    transport_multiplicativity_check,
)


def flat_family_connection():
    fiber = cat.group_bundle(line(1, name="F"), "finite", order=2)
    fam = cat.trivial_family(line(1, name="N"), fiber)

    def hor(g, w):
        return Tangent(g, (w.coeffs[0],) + (0.0,) * (g.patch.dim - 1))

    return Connection(fam, hor, hor, {"provenance": "flat_product",
                                      "claimed_multiplicative": True})


def test_unit_path_transport_is_identity():
    c = flat_family_connection()
    g = c.total.arrow_sampler(rng_for(1, 0))
    gamma = constant_path(c.morphism.arrow_map(g))
    out = parallel_transport(c, gamma, g, 1.0)
    assert out.completed
    assert distance(out.end, g) == 0.0
    assert out.drift == 0.0


def test_start_fiber_mismatch_raises():
    c = flat_family_connection()
    g = c.total.arrow_sampler(rng_for(1, 1))
    far = Point.make(c.base.arrows, 0, (c.morphism.arrow_map(g).coords[0] + 1.0,))
    with pytest.raises(StartFiberMismatch):
        parallel_transport(c, constant_path(far), g, 1.0)


def test_morita_transport_matches_closed_form():
    c, extras = morita_setup()
    kappa = extras["kappa"]
    worst = 0.0
    for i in range(20):
        gamma, g = c.morphism.transport.path_with_start(rng_for(31, i))
        out = parallel_transport(c, gamma, g, 1.0)
        assert out.completed and out.drift < DEFAULT.transport_drift_tol
        worst = max(worst, distance(out.end, morita_closed_form_end(c, gamma, g, kappa)))
    assert worst < 1e-6


def test_transport_rows_refuse_unequal_path_and_start_counts():
    c, _ = morita_setup()
    pairs = [c.morphism.transport.path_with_start(rng_for(31, i)) for i in range(2)]
    paths, starts = [gamma for gamma, _ in pairs], [g for _, g in pairs]
    with pytest.raises(InvalidParams):
        parallel_transport_rows(c, paths, starts[:1], 1.0, h=2e-2)
    with pytest.raises(InvalidParams):
        parallel_transport_rows(c, paths[:1], starts, 1.0, h=2e-2)


def test_transport_evaluates_velocity_once_per_distinct_time():
    c, _ = morita_setup()
    gamma, g = c.morphism.transport.path_with_start(rng_for(31, 0))
    asked = []

    def velocity_coeffs(t):
        asked.append(t)
        return gamma.velocity_coeffs(t)

    out = parallel_transport(c, BasePath(gamma.space, gamma.point, velocity_coeffs), g, 1.0,
                             h=0.02)
    field_times = []

    def field(t, p):
        field_times.append(t)
        return c.hor(p, gamma.velocity(t))

    reference = integrate(field, g, 1.0, h=0.02)
    assert len(field_times) == 11 * 50                 # 50 steps, none subdivided
    assert sorted(asked) == sorted(set(field_times))   # each distinct time once
    assert out.completed and len(asked) < len(field_times) / 2
    assert ([(t, np.array(p.coords).tobytes()) for t, p in out.trajectory.samples]
            == [(t, np.array(p.coords).tobytes()) for t, p in reference.samples])


def test_punctured_bundle_escapes_through_exclusion():
    c, _ = punctured_bundle_setup()
    G = c.total
    gamma = cat.segment_path(c.base.arrows, 0, (-1.0,), (1.0,))
    start = Point.make(G.arrows, 1, (-1.0,))  # nontrivial group element
    out = parallel_transport(c, gamma, start, 1.0)
    assert not out.completed
    assert out.trajectory.escape_reason == "ExcludedPoint"
    assert out.trajectory.escape_time < 1.0
    # the identity component passes straight through
    safe = parallel_transport(c, gamma, Point.make(G.arrows, 0, (-1.0,)), 1.0)
    assert safe.completed


def test_holonomy_unit_loop_and_flat_loop():
    c = flat_family_connection()
    N = c.base.arrows
    x0 = Point.make(N, 0, (0.25,))
    samples = [c.morphism.fiber_sampler(x0, rng_for(41, i)) for i in range(4)]
    unit_loop = constant_path(x0)
    res = holonomy(c, unit_loop, samples)
    assert res.passed and res.worst_roundtrip == 0.0

    loop = coordinate_path(
        N, 0,
        lambda t: (0.25 + math.sin(2 * math.pi * t),),
        lambda t: (2 * math.pi * math.cos(2 * math.pi * t),),
        is_loop=True,
    )
    res2 = holonomy(c, loop, samples)
    assert res2.passed and res2.worst_roundtrip < 1e-8
    for g, image in res2.images:
        assert distance(image, g) < 1e-8  # flat transport is trivial


def test_holonomy_rejects_open_paths():
    c = flat_family_connection()
    open_path = cat.segment_path(c.base.arrows, 0, (0.0,), (1.0,))
    with pytest.raises(NotALoop):
        holonomy(c, open_path, [])


def test_reverse_transport_inverts():
    c, extras = morita_setup()
    for i in range(5):
        gamma, g = c.morphism.transport.path_with_start(rng_for(43, i))
        fwd = parallel_transport(c, gamma, g, 1.0)
        back = parallel_transport(c, gamma.reversed(), fwd.end, 1.0)
        assert back.completed
        assert distance(back.end, g) < DEFAULT.transport_hol_tol


def test_reversed_path_keeps_velocity_coeffs():
    # the reverse leg reads velocity_coeffs without building Points; it must
    # give velocity(t).coeffs, bit for bit
    rng = rng_for(47, 0)
    curve = cat.sine_curve(rng, cat.uniform(-1.5, 1.5), cat.uniform(-1.0, 1.0), 0.5)
    plane = line(2)
    paths = [coordinate_path(plane, 0, lambda t: (t, t * t), lambda t: (1.0, 2.0 * t)),
             cat.curve_path(plane, 0, curve, curve)]
    for gamma in paths:
        rev = gamma.reversed()
        assert rev.velocity_coeffs is not None
        for t in rng.uniform(0.0, 1.0, 50).tolist() + [0.0, 1.0]:
            assert np.array(rev.velocity_coeffs(t)).tobytes() == \
                np.array(rev.velocity(t).coeffs).tobytes()


def test_inverted_path_transports_inverses():
    # transport along the pointwise-inverted base path carries g^{-1} to the
    # inverse of the transported arrow (multiplicative connections)
    from grpdconn.transport import pushed_path

    c, extras = morita_setup()
    G, H = c.total, c.base
    for i in range(5):
        gamma, g = c.morphism.transport.path_with_start(rng_for(47, i))
        fwd = parallel_transport(c, gamma, g, 1.0)
        inv = parallel_transport(c, pushed_path(H.inv, gamma), G.inv(g), 1.0)
        assert distance(G.inv(fwd.end), inv.end) < 1e-6


def test_cocycle_property_under_concatenation():
    c, extras = morita_setup()
    gamma, g = c.morphism.transport.path_with_start(rng_for(53, 2))
    whole = parallel_transport(c, gamma, g, 1.0)
    first = parallel_transport(c, subpath(gamma, 0.0, 0.4), g, 1.0)
    second = parallel_transport(c, subpath(gamma, 0.4, 1.0), first.end, 1.0)
    assert distance(second.end, whole.end) < 1e-6


def test_completeness_probe_flat_finds_nothing():
    c = flat_family_connection()
    v = completeness_probe(c, c.morphism.transport.path_with_start, 60, seed=3)
    assert v.kind == "NoCounterexampleFound"
    assert v.budget == 60


def test_completeness_probe_punctured_finds_witness():
    c, _ = punctured_bundle_setup()
    v = completeness_probe(c, c.morphism.transport.path_with_start, 200, seed=3)
    assert v.found_witness
    assert v.witness["reason"] == "ExcludedPoint"
    assert v.witness["escape_time"] < 1.0


def test_transport_multiplicativity_flat_and_luca():
    c = flat_family_connection()
    rep = transport_multiplicativity_check(c, 10, seed=3)
    assert rep.verdict == MULTIPLICATIVE
    assert rep.max_residual < 1e-7

    luca, _ = luca_setup()
    rep2 = transport_multiplicativity_check(luca, 10, seed=3)
    assert rep2.verdict == NOT_MULTIPLICATIVE
    assert rep2.residuals["product"] > 0.5


def test_luca_unit_speed_loop_oracle():
    # transport of (1, 0) along theta(t) = 1 + 2 pi t follows
    # x(t) = 1 + 2 pi t, y(t) = (x^3 - 1)/3
    c, _ = luca_setup()
    H = c.base
    gamma = coordinate_path(H.arrows, 0, lambda t: (1.0 + 2 * math.pi * t,),
                            lambda t: (2 * math.pi,), is_loop=True)
    out = parallel_transport(c, gamma, Point.make(c.total.arrows, 0, (1.0, 0.0)), 1.0)
    xe = 1.0 + 2.0 * math.pi
    assert abs(out.end.coords[0] - xe) < 1e-9
    assert abs(out.end.coords[1] - (xe ** 3 - 1.0) / 3.0) < 1e-8


def test_current_groupoid_complete_and_incomplete():
    c, _ = morita_setup()
    rep = current_groupoid_check(c, 8, seed=3)
    assert rep.passed
    assert rep.bijection_residual < DEFAULT.transport_drift_tol
    assert rep.surjectivity == "checked"

    cp, _ = punctured_bundle_setup()
    rep2 = current_groupoid_check(cp, 20, seed=3)
    assert rep2.surjectivity == "NotApplicable"
    assert rep2.injectivity_min_separation is None or rep2.injectivity_min_separation > 1e-9
    assert rep2.passed


def test_crosscheck_triples():
    # complete pair fibration: all clean, consistent
    c, _ = pair_fibration_setup(punctured=False)
    rep = theorem_crosscheck_kernel(c, 40, seed=3)
    assert rep.consistent
    assert not rep.total_verdict.found_witness

    # punctured variant: witnesses everywhere, still consistent
    cp, _ = pair_fibration_setup(punctured=True)
    rep_p = theorem_crosscheck_kernel(cp, 60, seed=3)
    assert rep_p.consistent
    assert rep_p.total_verdict.found_witness and rep_p.kernel_verdict.found_witness

    # cover: kernel clean + total witness is consistent only because the
    # fibration precondition fails, and the report says so
    cc, _ = cover_setup()
    rep_c = theorem_crosscheck_kernel(cc, 80, seed=3)
    assert rep_c.consistent
    assert rep_c.fibration_note == "fibration precondition fails"
    assert rep_c.total_verdict.found_witness and not rep_c.kernel_verdict.found_witness
    kernel_impl = [s for s in rep_c.implications
                   if s.name == "kernel_complete_implies_total_complete"][0]
    assert kernel_impl.status == "not-applicable"


def test_crosscheck_flags_budget_tension_when_forced():
    # force the fibration flag on the cover: the theorem implication would be
    # violated, and the report must say so
    cc, _ = cover_setup()
    rep = theorem_crosscheck_kernel(cc, 80, seed=3, fibration_ok=True)
    assert not rep.consistent


# ---------------------------------------------------------------------------
# the path check's unit legs

# composable segments in the punctured bundle's base, each transported from
# the punctured sheet: pairs 1 and 3 cross the puncture, so they escape and
# are Inconclusive, pairs 0 and 2 complete
_PAIR_SEGMENTS = [(0.5, 1.5), (-1.5, 0.3), (-1.9, -0.4), (-1.0, 1.0)]


def _handed_out_pair_check(unit_fails=(), hor=None, hor0=None):
    """The punctured bundle's path check on the pairs of ``_PAIR_SEGMENTS``,
    in order, with unit paths on [2 + i, 2.5 + i] for pair i. The unit-path
    sampler raises at the pairs in ``unit_fails``; it finds a pair's index
    from the generator the pair's draw was given."""
    c = punctured_bundle_setup()[0]
    pi = c.morphism
    M, A = pi.total.objects, pi.total.arrows
    index, drawn = {}, []

    def composable(rng):
        # generators may reuse the ids of freed ones: count the draws
        i = index[id(rng)] = len(drawn)
        drawn.append(i)
        a, b = _PAIR_SEGMENTS[i]
        gamma = cat.segment_path(M, 0, (a,), (b,))
        return gamma, gamma, Point.raw(A, 1, (a,)), Point.raw(A, 0, (a,))

    def unit_path(rng):
        i = index[id(rng)]
        if i in unit_fails:
            raise RuntimeError(f"unit draw {i}")
        return cat.segment_path(M, 0, (2.0 + i,), (2.5 + i,)), Point.raw(M, 0, (2.0 + i,))

    pi.transport = TransportSamplers(pi.transport.path_with_start, composable, unit_path)
    c = Connection(pi, hor or c.hor, hor0 or c.hor0, {})
    return transport_multiplicativity_check(c, len(_PAIR_SEGMENTS), seed=7)


def test_path_check_unit_draws_of_inconclusive_pairs_do_not_surface():
    rep = _handed_out_pair_check()
    assert rep.verdict == MULTIPLICATIVE and rep.inconclusive_samples == 2
    assert "unit" in rep.residuals
    rep = _handed_out_pair_check(unit_fails=(1, 3))
    assert rep.verdict == MULTIPLICATIVE and rep.inconclusive_samples == 2
    with pytest.raises(RuntimeError, match="unit draw 2"):
        _handed_out_pair_check(unit_fails=(1, 2))


def _one_row_transports(monkeypatch):
    """The legs transported one at a time from here on (the blocks' fallback)."""
    legs = []
    one_row = transport.parallel_transport

    def counted(conn, path, start, *args, **kwargs):
        legs.append(start)
        return one_row(conn, path, start, *args, **kwargs)

    monkeypatch.setattr(transport, "parallel_transport", counted)
    return legs


def test_path_check_unit_draw_errors_keep_the_blocks(monkeypatch):
    # the failed unit draws of Inconclusive pairs leave every leg in its block
    one_row = _one_row_transports(monkeypatch)
    rep = _handed_out_pair_check(unit_fails=(1, 3))
    assert rep.inconclusive_samples == 2 and one_row == []


def _failing_above(threshold, message, sign=1.0):
    """The identity lift, raising on blocks with a row beyond ``threshold``
    (above it for sign 1, below it for sign -1)."""

    @RowLift
    def lift(p, C, W):
        if (sign * C[:, 0] > sign * threshold).any():
            raise RuntimeError(message)
        return W

    return lift


def test_path_check_unit_leg_error_surfaces_in_pair_order():
    # pair 0's unit leg fails in the base lift (its unit path runs above 2),
    # pair 2's own legs fail in the lift (they start at -1.9): a pair-by-pair
    # loop meets pair 0's unit leg first
    with pytest.raises(RuntimeError, match="unit leg"):
        _handed_out_pair_check(hor=_failing_above(-1.7, "pair 2", sign=-1.0),
                               hor0=_failing_above(1.95, "unit leg"))


def test_path_check_transports_a_pair_in_one_block_per_connection(monkeypatch):
    c = proper_average_connection(DEFAULT)
    blocks = []
    rows = transport.parallel_transport_rows

    def counted(conn, paths, *args, **kwargs):
        blocks.append(len(paths))
        return rows(conn, paths, *args, **kwargs)

    monkeypatch.setattr(transport, "parallel_transport_rows", counted)
    rep = transport_multiplicativity_check(c, 1, seed=7)
    assert rep.inconclusive_samples == 0 and "unit" in rep.residuals
    # four legs and the unit leg on the averaged lift, two legs and the unit
    # path on its base lift
    assert sorted(blocks) == [3, 5]
