"""Span tracing of grpdconn from outside the program.

``Tracer.install`` replaces public functions with wrappers at the points where
the calling modules look them up (module attributes, ``Connection`` lifts,
the quadrature's ``validate`` method). Each wrapper records a span (name,
start, end, parent) in flat in-memory arrays; ``dump`` writes them out once,
at the end. A span's self time is its duration minus the durations of its
child spans, and a layer's self time is the sum over its spans.

Per-layer figures describe one traced setup plus one average round: amounts
recorded during setup count once, amounts recorded during rounds are divided
by the number of rounds. Time inside the benchmark's own root spans that no
recorded span covers is reported as ``trace.untraced_s``; with the layers'
self times it sums to ``trace.wall_s``.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from grpdconn.config import DEFAULT

LAYERS = ("integrate", "transport", "connection", "constructions", "smoothmap",
          "tangent", "groupoid")
ROOTS = ("bench.setup", "bench.round")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extra: dict[int, tuple] = {}   # span index -> per-span attributes
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(idx, args, kwargs, result)`` may
        record attributes and returns the result handed to the caller."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            return result if after is None else after(idx, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        from grpdconn import catalog, connection, constructions, groupoid, scenarios
        from grpdconn import smoothmap, tangent, transport

        modules = (transport, connection, constructions, groupoid, tangent, smoothmap,
                   scenarios, catalog)

        def patch(owner, attr: str, wrapper) -> None:
            fn = getattr(owner, attr)
            for m in modules:
                if getattr(m, attr, None) is fn:
                    setattr(m, attr, wrapper)

        def arg(args, kwargs, pos, key, default=None):
            return kwargs[key] if key in kwargs else (
                args[pos] if len(args) > pos else default)

        def attrs(getter):
            def after(idx, args, kwargs, result):
                self.extra[idx] = getter(args, kwargs, result)
                return result
            return after

        integrate_fn = transport.integrate
        integrate_id = self._id("integrate.integrate")

        def traced_integrate(field, *args, **kwargs):
            evals = [0]

            def counted(t, p):
                evals[0] += 1
                return field(t, p)

            idx = self._open(integrate_id)
            try:
                out = integrate_fn(counted, *args, **kwargs)
            finally:
                self._close(idx)
            self.extra[idx] = (len(out.samples) - 1, evals[0])
            return out

        transport.integrate = traced_integrate

        def transport_attrs(args, kwargs, out):
            cfg = arg(args, kwargs, 4, "cfg", DEFAULT)
            h = arg(args, kwargs, 5, "h")
            return (cfg.numeric_h_ode if h is None else h, not out.completed)

        def probe_attrs(args, kwargs, v):
            return (v.witness["sample_index"] + 1 if v.found_witness else v.budget,)

        def wrap_average(idx, args, kwargs, result):
            X_hat, report = result
            return self.wrap("constructions.averaged_field", X_hat), report

        for owner, attr, name, after in [
            (transport, "parallel_transport", "transport.parallel_transport",
             attrs(transport_attrs)),
            (transport, "completeness_probe", "transport.probe", attrs(probe_attrs)),
            (transport, "holonomy", "transport.holonomy",
             attrs(lambda a, k, r: (len(arg(a, k, 2, "fiber_samples")),))),
            (transport, "transport_multiplicativity_check", "transport.pathcheck",
             attrs(lambda a, k, r: (arg(a, k, 1, "n_pairs"),))),
            (transport, "current_groupoid_check", "transport.pathcheck",
             attrs(lambda a, k, r: (arg(a, k, 1, "n_samples"),))),
            (transport, "theorem_crosscheck_kernel", "transport.crosscheck", None),
            (connection, "multiplicativity_check_pointwise", "connection.pointwise",
             attrs(lambda a, k, r: (arg(a, k, 1, "n_samples"),))),
            (connection, "complement_check", "connection.complement",
             attrs(lambda a, k, r: (arg(a, k, 1, "n_samples"),))),
            (connection, "kernel_connection", "connection.kernel_connection", None),
            (groupoid, "check_axioms", "groupoid.axioms",
             attrs(lambda a, k, r: (arg(a, k, 1, "n_samples"),))),
            (constructions, "haar_average", "constructions.haar_average", wrap_average),
            (constructions, "proper_family_connection",
             "constructions.proper_family_connection", None),
            (constructions, "complete_connection_builder", "constructions.builder", None),
            (smoothmap, "jacobian", "smoothmap.jacobian", None),
            (tangent, "tm_apply", "tangent.tm_apply", None),
        ]:
            patch(owner, attr, self.wrap(name, getattr(owner, attr), after))

        quad = constructions.HaarFiberQuadrature
        quad.validate = self.wrap("constructions.quadrature.validate", quad.validate)

        # every lift, including those of connections built inside grpdconn
        init = connection.Connection.__init__
        wrap = self.wrap

        def traced_init(conn, *args, **kwargs):
            init(conn, *args, **kwargs)
            conn.hor = wrap("connection.hor", conn.hor)
            conn.hor0 = wrap("connection.hor", conn.hor0)

        connection.Connection.__init__ = traced_init

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, np.int32),
                            parent=np.frombuffer(self.parent, np.int32),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))

    def metrics(self) -> dict[str, float]:
        """Per-layer figures for one setup plus one average round."""
        name = np.frombuffer(self.name, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        n = len(dur)
        nested = parent >= 0
        self_t = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)

        roots = np.flatnonzero(~nested)
        if any(self.names[name[r]] not in ROOTS for r in roots):
            raise RuntimeError("a traced call ran outside the benchmark's setup and rounds")
        is_round = name[roots] == self._ids["bench.round"]
        root_w = np.where(is_round, 1.0 / is_round.sum(), 1.0)
        # spans are appended in start order, so each span belongs to the last
        # root opened at or before it
        w = root_w[np.searchsorted(roots, np.arange(n), side="right") - 1]

        def sel(span_name):
            return name == self._ids.get(span_name, -1)

        def outer(span_name):
            """Spans not nested directly in a span of the same name."""
            parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
            return sel(span_name) & (parent_name != self._ids.get(span_name, -1))

        def extra(mask, k):
            return np.array([self.extra[i][k] for i in np.flatnonzero(mask)], dtype=float)

        def total(mask, values=None):
            return float(np.sum(w[mask] * (dur[mask] if values is None else values)))

        def count(mask):
            return float(np.sum(w[mask]))

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        m: dict[str, float] = {}
        integ = sel("integrate.integrate")
        steps = total(integ, extra(integ, 0))
        evals = total(integ, extra(integ, 1))
        m["integrate.calls"] = count(integ)
        m["integrate.steps"] = steps
        m["integrate.us_per_step"] = per(total(integ), steps, 1e6)
        m["integrate.field_evals"] = evals
        m["integrate.field_evals_per_step"] = per(evals, steps)

        pt = sel("transport.parallel_transport")
        h = extra(pt, 0)
        m["transport.calls"] = count(pt)
        m["transport.escaped"] = total(pt, extra(pt, 1))
        for label, h_ref in (("probe_h", DEFAULT.transport_probe_h_ode),
                             ("nominal_h", DEFAULT.numeric_h_ode)):
            at = pt.copy()
            at[pt] = h == h_ref
            m[f"transport.{label}.ms_per_call"] = per(total(at), count(at), 1e3)
        hol = sel("transport.holonomy")
        m["transport.holonomy.ms_per_loop"] = per(total(hol), total(hol, extra(hol, 0)), 1e3)
        probe = sel("transport.probe")
        in_probe = pt & nested & np.isin(parent, np.flatnonzero(probe))
        needed = total(probe, extra(probe, 0))
        m["transport.probe.paths_needed"] = needed
        m["transport.probe.useful_ratio"] = per(needed, count(in_probe))
        m["transport.probe.ms_per_path"] = per(total(probe), count(in_probe), 1e3)
        pc = sel("transport.pathcheck")
        m["transport.pathcheck.ms_per_pair"] = per(total(pc), total(pc, extra(pc, 0)), 1e3)

        hor = outer("connection.hor")
        m["connection.hor.calls"] = count(hor)
        m["connection.hor.us_per_call"] = per(total(hor), count(hor), 1e6)
        for span_name in ("connection.pointwise", "connection.complement", "groupoid.axioms"):
            s = sel(span_name)
            m[f"{span_name}.ms_per_sample"] = per(total(s), total(s, extra(s, 0)), 1e3)
        jac = outer("smoothmap.jacobian")
        m["smoothmap.jacobian.calls"] = count(jac)
        m["smoothmap.jacobian.us_per_call"] = per(total(jac), count(jac), 1e6)
        tm = sel("tangent.tm_apply")
        m["tangent.tm_apply.us_per_call"] = per(total(tm), count(tm), 1e6)
        m["constructions.haar_average.s"] = total(sel("constructions.haar_average"))
        af = sel("constructions.averaged_field")
        m["constructions.averaged_field.us_per_call"] = per(total(af), count(af), 1e6)
        m["constructions.quadrature.validate_s"] = total(sel("constructions.quadrature.validate"))
        m["constructions.builder.s"] = total(sel("constructions.builder"))

        layer_of = np.array([nm.split(".", 1)[0] for nm in self.names])[name]
        for layer in LAYERS:
            mask = layer_of == layer
            m[f"{layer}.self_s"] = total(mask, self_t[mask])
        is_root = ~nested
        m["trace.wall_s"] = total(is_root)
        m["trace.untraced_s"] = total(is_root, self_t[is_root])
        accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["trace.untraced_s"]
        if abs(accounted - m["trace.wall_s"]) > 1e-6 * m["trace.wall_s"]:
            raise RuntimeError(f"layer self times sum to {accounted}, wall {m['trace.wall_s']}")
        m["trace.spans"] = count(np.ones(n, dtype=bool))
        return m
