"""Block transport: row lifts, block integration and the probe's witness order.

Every row lift must give, row for row, the bits of its one-row call, whatever
block a row is in; a block transport must give each row the samples, status,
escape time and reason of its one-row transport.
"""
import math

import numpy as np
import pytest

import grpdconn.catalog as cat
import grpdconn.transport as transport
from grpdconn.config import DEFAULT
from grpdconn.connection import Connection, RowLift, kernel_connection
from grpdconn.constructions import glue_local_trivial
from grpdconn.errors import StartFiberMismatch
from grpdconn.geometry import Point, Tangent, line
from grpdconn.groupoid import rng_for
from grpdconn.integrate import (
    EXCLUDED_POINT,
    NORM_BLOWUP,
    STEP_COLLAPSE,
    integrate,
    integrate_rows,
)
from grpdconn.scenarios import (
    cover_setup,
    luca_setup,
    morita_punctured_setup,
    morita_setup,
    pair_fibration_setup,
    product_not_uniform_setup,
    proper_average_connection,
    punctured_bundle_setup,
    sproper_connection,
    sproper_paths,
    sproper_setup,
)
from grpdconn.transport import (
    base_connection,
    completeness_probe,
    parallel_transport,
    parallel_transport_rows,
)

SAMPLES = 200
PAIRS = 64
H_PROBE = DEFAULT.transport_probe_h_ode


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).ravel().tolist()


def _glued_sproper():
    return glue_local_trivial(sproper_setup()[1])


CONNECTIONS = {
    "luca": lambda: luca_setup()[0],
    "punctured_bundle": lambda: punctured_bundle_setup()[0],
    "cover": lambda: cover_setup()[0],
    "cover.kernel": lambda: kernel_connection(cover_setup()[0]),
    "morita": lambda: morita_setup()[0],
    "morita.kernel": lambda: kernel_connection(morita_setup()[0]),
    "morita_punctured": lambda: morita_punctured_setup()[0],
    "pair": lambda: pair_fibration_setup(punctured=False)[0],
    "pair.kernel": lambda: kernel_connection(pair_fibration_setup(punctured=False)[0]),
    "pair_punctured": lambda: pair_fibration_setup(punctured=True)[0],
    "product_not_uniform": lambda: product_not_uniform_setup()[0],
    "proper_average": lambda: proper_average_connection(DEFAULT),
    "sproper": lambda: sproper_connection(DEFAULT),
    "sproper.glued": _glued_sproper,
}


def _lift_cases():
    for name in CONNECTIONS:
        yield pytest.param(name, "hor", id=f"{name}.hor")
        yield pytest.param(name, "hor0", id=f"{name}.hor0")


@pytest.mark.parametrize("name, which", list(_lift_cases()))
def test_row_lift_blocks_match_one_row_calls(name, which):
    c = CONNECTIONS[name]()
    pi = c.morphism
    lift = getattr(c, which)
    assert isinstance(lift, RowLift)
    if which == "hor":
        sample, base_map = c.total.arrow_sampler, pi.arrow_map
    else:
        sample, base_map = c.total.object_sampler, pi.object_map
    points = [sample(rng_for(31, i)) for i in range(SAMPLES)]
    rng = np.random.default_rng(37)
    tangents = [Tangent(base_map(p), tuple(rng.uniform(-1.0, 1.0, base_map(p).patch.dim)))
                for p in points]
    one_row = [lift(p, w) for p, w in zip(points, tangents)]
    for patch in sorted({p.patch_index for p in points}):
        idx = [i for i, p in enumerate(points) if p.patch_index == patch]
        C = np.array([points[i].coords for i in idx], dtype=float).reshape(len(idx), -1)
        W = np.array([tangents[i].coeffs for i in idx], dtype=float).reshape(len(idx), -1)
        for size in (1, 64):
            rows = np.concatenate([lift.rows(patch, C[a:a + size], W[a:a + size])
                                   for a in range(0, len(idx), size)])
            assert rows.shape == C.shape
            for i, row in zip(idx, rows):
                assert _bits(row) == _bits(one_row[i].coeffs), (name, which, size, i)


def _transport_cases():
    for name in CONNECTIONS:
        yield pytest.param(name, id=name)
    yield pytest.param("punctured_bundle.base", id="punctured_bundle.base")


def _connection_and_sampler(name):
    """A connection and its (path, start) sampler; the pullback kernel's
    family has no samplers of its own, so it draws a path in the base
    objects and a kernel start over it."""
    if name == "punctured_bundle.base":
        c = base_connection(punctured_bundle_setup()[0])
        return c, c.morphism.transport.path_with_start
    c = CONNECTIONS[name]()
    if name.startswith("sproper"):
        return c, sproper_paths(c.morphism, DEFAULT)
    if c.morphism.transport is not None:
        return c, c.morphism.transport.path_with_start
    outer = CONNECTIONS[name.split(".")[0]]().morphism

    def draw(rng):
        delta, _ = outer.transport.object_path_with_start(rng)
        return delta, c.morphism.fiber_sampler(delta.point(0.0), rng)

    return c, draw


def _assert_same_trajectory(block, single):
    assert block.status == single.status
    assert block.escape_reason == single.escape_reason
    assert _bits([block.escape_time or 0.0]) == _bits([single.escape_time or 0.0])
    assert [t for t, _ in block.samples] == [t for t, _ in single.samples]
    assert [p.patch_index for _, p in block.samples] == [p.patch_index for _, p in single.samples]
    assert _bits([p.coords for _, p in block.samples]) == \
        _bits([p.coords for _, p in single.samples])


def _assert_same_outcome(block, single):
    assert block.status == single.status
    _assert_same_trajectory(block.trajectory, single.trajectory)
    assert _bits([block.drift]) == _bits([single.drift])


# the escapes each connection's samples must include, next to completed rows;
# a StepCollapse row has subdivided down to the last level
ESCAPES = {"punctured_bundle": EXCLUDED_POINT, "cover": EXCLUDED_POINT,
           "morita_punctured": STEP_COLLAPSE, "pair_punctured": STEP_COLLAPSE}


@pytest.mark.parametrize("name", list(_transport_cases()))
def test_block_transport_matches_one_row_transports(name):
    c, draw = _connection_and_sampler(name)
    pairs = [draw(rng_for(41, i)) for i in range(PAIRS)]
    paths, starts = [p for p, _ in pairs], [g for _, g in pairs]
    block = parallel_transport_rows(c, paths, starts, 1.0, DEFAULT, h=H_PROBE)
    for (gamma, g), out in zip(pairs, block):
        _assert_same_outcome(out, parallel_transport(c, gamma, g, 1.0, DEFAULT, h=H_PROBE))
    if name in ESCAPES:
        reasons = [out.trajectory.escape_reason for out in block]
        assert ESCAPES[name] in reasons and None in reasons


def _stiff_rows(lams):
    """x' = -lam x per row, and each row's evaluation count."""
    counts = [0] * len(lams)
    lam = np.asarray(lams)

    def field(t, rows, Y):
        for r in rows.tolist():
            counts[r] += 1
        return -lam[rows][:, None] * Y

    return field, counts


def test_block_rows_subdivide_as_a_subset():
    # the stiff rows subdivide, the others do not; each row keeps the bits
    # and the evaluation count it has alone
    lams = [0.5, 60.0, 1.0, 90.0, 0.1, 75.0]
    starts = [Point.make(line(1), 0, (1.0 + 0.1 * i,)) for i in range(len(lams))]
    field, counts = _stiff_rows(lams)
    block = integrate_rows(field, starts, 1.0, h=0.1, ode_tol=1e-9)
    for r, (lam, start) in enumerate(zip(lams, starts)):
        one, alone = _stiff_rows([lam])
        single = integrate_rows(one, [start], 1.0, h=0.1, ode_tol=1e-9)[0]
        assert block[r].status == single.status
        assert _bits([p.coords for _, p in block[r].samples]) == \
            _bits([p.coords for _, p in single.samples])
        assert [t for t, _ in block[r].samples] == [t for t, _ in single.samples]
        assert counts[r] == alone[0]
    assert min(counts) == 11 * 10 < max(counts)   # 10 steps, 11 evaluations each


def test_subdivision_reuses_the_half_step():
    # x' = 1 on [0, 0.45), x' = 0 after: only the step across t = 0.45 (the
    # fifth of ten) disagrees with its halves, and with this tolerance it
    # subdivides once. Its first half reuses the parent's half step as its
    # full step, which saves three of the 21 evaluations a subdivision took
    # (131 in all before).
    calls = []

    def field(t, p):
        calls.append(t)
        return Tangent(p, (1.0 if t < 0.45 else 0.0,))

    out = integrate(field, Point.make(line(1), 0, (0.0,)), 1.0, h=0.1, ode_tol=0.01)
    assert out.completed and len(out.samples) == 11
    assert len(calls) == 11 * 10 + 18


# one block, every way a row can end: x' per kind, and each kind's start on a
# line with a ball around 3
MIXED = {
    "completes": (lambda t, x: 0.5, -3.0),
    "subdivides": (lambda t, x: -60.0 * x, 1.0),
    "excluded": (lambda t, x: 1.0, 2.0),
    "blowup": (lambda t, x: 100.0, DEFAULT.numeric_blowup_bound - 5.0),
}
MIXED_LINE = line(1, excluded=(((3.0,), 0.2),))


def _mixed_rows(kinds):
    """A field whose row r follows ``MIXED[kinds[r]]``, the rows' starts and
    each row's evaluation count."""
    counts = [0] * len(kinds)

    def field(t, rows, Y):
        for r in rows.tolist():
            counts[r] += 1
        return np.array([[MIXED[kinds[r]][0](t, y[0])] for r, y in zip(rows.tolist(), Y)])

    starts = [Point.make(MIXED_LINE, 0, (MIXED[k][1],)) for k in kinds]
    return field, starts, counts


@pytest.mark.parametrize("first_escape", [False, True])
@pytest.mark.parametrize("kinds", [
    ("completes", "subdivides", "excluded", "blowup", "completes"),
    ("blowup", "subdivides", "completes", "excluded"),
])
def test_mixed_block_matches_one_row_calls(kinds, first_escape):
    # the blowup row escapes in the first step, the excluded row at t = 0.9;
    # with first_escape every row after the lowest escaped one is None, even
    # one that escaped before it
    field, starts, counts = _mixed_rows(kinds)
    block = integrate_rows(field, starts, 2.0, h=0.1, ode_tol=1e-6, first_escape=first_escape)
    singles, evaluations = [], []
    for kind, start in zip(kinds, starts):
        one, _, alone = _mixed_rows((kind,))
        singles.append(integrate_rows(one, [start], 2.0, h=0.1, ode_tol=1e-6)[0])
        evaluations += alone
    # 20 steps: a row that does not subdivide makes at most 11 evaluations in each
    assert [n > 11 * 20 for n in evaluations] == [k == "subdivides" for k in kinds]
    if not first_escape:
        assert counts == evaluations
    assert [s.escape_reason for s in singles] == \
        [{"excluded": EXCLUDED_POINT, "blowup": NORM_BLOWUP}.get(k) for k in kinds]
    witness = min(r for r, s in enumerate(singles) if not s.completed)
    for r, (out, single) in enumerate(zip(block, singles)):
        if first_escape and r > witness:
            assert out is None
        else:
            _assert_same_trajectory(out, single)


# ---------------------------------------------------------------------------
# the probe's witness: the lowest escaping index


def _bundle_pairs():
    """Segment paths in the punctured bundle's base with starts on the
    punctured sheet: a segment across 0 escapes where its cubic profile
    crosses 0, the others complete."""
    c = punctured_bundle_setup()[0]
    M, A = c.total.objects, c.total.arrows

    def pair(a, b):
        return cat.segment_path(M, 0, (a,), (b,)), Point.raw(A, 1, (a,))

    segments = [(0.5, 1.5), (-1.5, -0.5), (-1.5, 0.3), (0.2, 1.0), (-0.1, 1.5),
                (1.0, 1.8), (-1.9, -0.4), (0.3, 0.9)]
    return c, [pair(a, b) for a, b in segments]


def _handing_out(pairs, failure=None):
    """A sampler that hands out ``pairs`` in order, then raises ``failure``."""
    drawn = []

    def draw(rng):
        if len(drawn) == len(pairs):
            raise failure
        drawn.append(pairs[len(drawn)])
        return drawn[-1]

    return draw


def test_probe_witness_is_the_lowest_escaping_index():
    c, pairs = _bundle_pairs()
    late = parallel_transport(c, *pairs[2], 1.0, DEFAULT, h=H_PROBE).trajectory
    early = parallel_transport(c, *pairs[4], 1.0, DEFAULT, h=H_PROBE).trajectory
    assert early.escape_time < late.escape_time   # a higher row escapes earlier
    v = completeness_probe(c, _handing_out(pairs), 8, 7)
    assert v.witness["sample_index"] == 2
    assert v.witness["escape_time"] == late.escape_time
    assert v.witness["reason"] == late.escape_reason


def test_probe_failures_after_the_witness_do_not_surface(monkeypatch):
    c, pairs = _bundle_pairs()
    # a sampler that fails at index 5, after the escape at index 2; the
    # samples drawn before it are transported as one block
    one_row = []
    monkeypatch.setattr(transport, "parallel_transport",
                        lambda *a, **k: one_row.append(a) or parallel_transport(*a, **k))
    v = completeness_probe(c, _handing_out(pairs[:5], RuntimeError("sampler")), 8, 7)
    assert v.witness["sample_index"] == 2 and one_row == []
    # a start off its path's fibre at index 6
    gamma, g = pairs[6]
    mismatched = pairs[:6] + [(gamma, Point.raw(g.space, 1, (g.coords[0] + 0.5,)))] + pairs[7:]
    v = completeness_probe(c, _handing_out(mismatched), 8, 7)
    assert v.witness["sample_index"] == 2


def test_probe_failures_before_any_escape_surface():
    c, pairs = _bundle_pairs()
    with pytest.raises(RuntimeError, match="sampler"):
        completeness_probe(c, _handing_out(pairs[:2], RuntimeError("sampler")), 8, 7)
    gamma, g = pairs[1]
    mismatched = pairs[:1] + [(gamma, Point.raw(g.space, 1, (g.coords[0] + 0.5,)))] + pairs[2:]
    with pytest.raises(StartFiberMismatch):
        completeness_probe(c, _handing_out(mismatched), 8, 7)


def test_probe_error_inside_a_block_surfaces_where_the_loop_meets_it():
    # a lift that fails on rows in (0.15, 0.25): index 3 starts there, so the
    # first block raises at once, and the probe transports the rows again one
    # at a time, meeting the escape at index 2 before the failing row
    c, pairs = _bundle_pairs()

    @RowLift
    def failing(p, C, W):
        if ((C[:, 0] > 0.15) & (C[:, 0] < 0.25)).any():
            raise ValueError("lift failed")
        return W

    c = Connection(c.morphism, failing, c.hor0, {})
    v = completeness_probe(c, _handing_out(pairs), 8, 7)
    assert v.witness["sample_index"] == 2
    with pytest.raises(ValueError, match="lift failed"):
        completeness_probe(c, _handing_out(pairs[3:]), 3, 7)


def test_probe_chunks_plain_lifts_like_row_lifts():
    # a lift that is not a RowLift is drawn in the same chunks and transported
    # one row at a time: it gives the RowLift's verdict, and a draw that fails
    # after the witness, inside the first chunk, does not surface
    c, pairs = _bundle_pairs()
    plain = Connection(c.morphism, lambda g, w: c.hor(g, w), c.hor0, {})
    v = completeness_probe(c, _handing_out(pairs), 8, 7)
    assert v.witness["sample_index"] == 2
    draws, hand_out = [], _handing_out(pairs)
    assert completeness_probe(plain, lambda rng: draws.append(rng) or hand_out(rng), 8, 7) == v
    assert len(draws) == 8   # the whole first chunk, past the witness
    draw = _handing_out(pairs[:3], RuntimeError("drew past the witness"))
    assert completeness_probe(plain, draw, 8, 7) == v


@pytest.mark.parametrize("seed", [3, 11])
def test_first_escape_blocks_match_the_sequential_witness(seed):
    # punctured pair fibration: rows above the witness often escape earlier,
    # with deep subdivision; the witness is the one sample-by-sample order finds
    c = pair_fibration_setup(punctured=True)[0]
    v = completeness_probe(c, c.morphism.transport.path_with_start, 40, seed)
    for i in range(v.witness["sample_index"] + 1):
        gamma, g = c.morphism.transport.path_with_start(rng_for(seed, 61, i))
        out = parallel_transport(c, gamma, g, DEFAULT.transport_horizon, DEFAULT, h=H_PROBE)
        assert out.completed == (i < v.witness["sample_index"])
    assert math.isfinite(v.witness["escape_time"])
    assert v.witness["escape_time"] == out.trajectory.escape_time
    assert v.witness["reason"] == out.trajectory.escape_reason
