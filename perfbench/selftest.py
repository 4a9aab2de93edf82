"""Self-test of the benchmark.

Every correctness check must reject a corrupted output, and every workload
must run clean at a tiny size, traced and untraced. Run from the repository
root; it lists every problem it finds and then exits non-zero:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import grpdconn  # noqa: E402
from grpdconn import connection as C  # noqa: E402
from grpdconn import transport as T  # noqa: E402
from grpdconn.config import DEFAULT  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


class Expect:
    def __init__(self):
        self.problems: list[str] = []

    def accepts(self, what: str, reason):
        if reason is not None:
            self.problems.append(f"{what}: rejected a correct output ({reason})")

    def rejects(self, what: str, reason):
        if reason is None:
            self.problems.append(f"{what}: accepted a corrupted output")


def _shifted(p, delta: float):
    return grpdconn.Point.raw(p.space, p.patch_index, tuple(c + delta for c in p.coords))


def corrupted_outputs(x: Expect) -> None:
    cfg = DEFAULT
    h = cfg.transport_probe_h_ode

    # a transport end moved by 1e-5
    st = W.setup_long_transport(7, "tiny")
    gamma, start, want = st["transports"][0]
    out = T.parallel_transport(st["morita"], gamma, start, 1.0, cfg, h=st["h"])
    x.accepts("morita transport", checks.transport_end(out, want, W.END_TOL,
                                                       cfg.transport_drift_tol))
    x.rejects("transport end moved by 1e-5", checks.transport_end(
        dataclasses.replace(out, end=_shifted(out.end, 1e-5)), want, W.END_TOL,
        cfg.transport_drift_tol))
    loop, loop_start = st["loops"][0]
    hol = T.holonomy(st["morita"], loop, [loop_start], cfg, h=st["h"])
    x.accepts("holonomy", checks.round_trips(hol, [loop_start], W.END_TOL,
                                             cfg.transport_hol_tol))
    x.rejects("loop image moved by 1e-5", checks.round_trips(
        dataclasses.replace(hol, images=[(g, _shifted(e, 1e-5)) for g, e in hol.images]),
        [loop_start], W.END_TOL, cfg.transport_hol_tol))

    # flipped probe verdicts
    ps = W.setup_probe_sweep(7, "tiny")
    name, conn, family, budget, seed = ps["complete"][2]
    clean = T.completeness_probe(conn, family, budget, seed, cfg)
    x.accepts(f"probe[{name}]", checks.no_counterexample(clean, budget))
    x.rejects("complete probe flipped to a witness", checks.no_counterexample(
        dataclasses.replace(clean, kind=checks.WITNESS, witness={"sample_index": 0}), budget))

    for name, conn, seed, pairs, (at_h, at_half_h) in ps["witness"]:
        draw, drawn = W._recording(pairs, conn.morphism.transport.path_with_start)
        v = T.completeness_probe(conn, draw, W.WITNESS_BUDGET, seed, cfg)

        def witness_check(verdict):
            return (checks.first_witness(verdict, drawn, W.WITNESS_INDEX)
                    or checks.time_matches(verdict.witness["escape_time"], *at_h))

        x.accepts(f"witness[{name}]", witness_check(v))
        x.rejects(f"witness[{name}] flipped to no counterexample", witness_check(
            dataclasses.replace(v, kind=checks.NO_COUNTEREXAMPLE)))
        moved = dict(v.witness, escape_time=v.witness["escape_time"] + 0.1)
        x.rejects(f"witness[{name}] escape time moved by 0.1",
                  witness_check(dataclasses.replace(v, witness=moved)))
        half = T.parallel_transport(conn, *pairs[-1], 1.0, cfg, h=0.5 * h)
        x.accepts(f"half_step[{name}]", checks.escape_matches(half, *at_half_h))
        late = dataclasses.replace(half, trajectory=dataclasses.replace(
            half.trajectory, escape_time=half.trajectory.escape_time + 0.1))
        x.rejects(f"half_step[{name}] escape time moved by 0.1",
                  checks.escape_matches(late, *at_half_h))

    # a vertically skewed lift presented as multiplicative: the Morita lift
    # plus 1e-3 times the base velocity in the two fibre slots
    morita = W.S.morita_setup(cfg)[0]

    def skewed(g, a):
        coeffs = list(morita.hor(g, a).coeffs)
        coeffs[2] += 1e-3 * a.coeffs[0]
        coeffs[3] += 1e-3 * a.coeffs[1]
        return grpdconn.Tangent(g, tuple(coeffs))

    skew = C.Connection(morita.morphism, skewed, morita.hor0, {"provenance": "skewed"})
    x.accepts("pointwise[morita]", checks.verdict_is(
        C.multiplicativity_check_pointwise(morita, 5, 7, cfg), W.MULT))
    x.rejects("skewed lift, pointwise", checks.verdict_is(
        C.multiplicativity_check_pointwise(skew, 5, 7, cfg), W.MULT))
    x.rejects("skewed lift, path-based", checks.verdict_is(
        T.transport_multiplicativity_check(skew, 1, 7, cfg), W.MULT))


def smoke_runs(x: Expect) -> None:
    """Each workload at the tiny size in its own worker process."""
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", "7", "--size", "tiny", "--trace", str(trace)],
                capture_output=True, text=True, timeout=170)
            what = f"smoke[{workload}, trace {trace}]"
            if proc.returncode != 0:
                x.problems.append(f"{what}: exit {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if res["attempted"] < 1 or res["failed"] or res["n_wrong"]:
                x.problems.append(f"{what}: {res['errors'] + res['wrong']}")
            declared = {m["name"] for m in json.loads(run.SPEC.read_text())["per_layer"]}
            if trace and set(res["layers"]) != declared - {"trace.overhead_s"}:
                x.problems.append(f"{what}: layer metrics {sorted(res['layers'])}")


def workload_names(x: Expect) -> None:
    """BENCHMARK.json names the workloads run.py accepts."""
    spec = json.loads(run.SPEC.read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        x.problems.append("workload names differ between BENCHMARK.json and run.py")


def main() -> int:
    x = Expect()
    workload_names(x)
    corrupted_outputs(x)
    smoke_runs(x)
    for line in x.problems:
        print(f"selftest: {line}", file=sys.stderr)
    print("selftest: " + ("FAILED" if x.problems else "all checks reject corrupted "
                          "outputs; every workload runs clean at the tiny size"))
    return 1 if x.problems else 0


if __name__ == "__main__":
    sys.exit(main())
