"""Benchmark of grpdconn: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload probe_sweep --seed 7 --seconds 30 --trace 0

With ``--trace 0`` it measures set-up time in fresh processes and runs the
workload's rounds for ``--seconds`` in one single-threaded worker process;
it prints ``setup_s``, ``wall_s`` (median round time) and ``peak_rss_mb``.
With ``--trace 1`` it runs one untraced and one traced worker for half the
time each and prints the per-layer metrics of the traced one. The last line
of standard output is the result JSON; a copy, with every round time and
set-up sample, is written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("probe_sweep", "long_transport", "fibre_average")
SETUP_SAMPLES = 5    # fresh processes timed from spawn to end of set-up
DEADLINE_S = 170.0   # a run must end within 180 s

SPEC = ROOT / "BENCHMARK.json"   # names and units of the metrics printed


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py to completion; returns its JSON and its set-up time."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} did not finish before the deadline")
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{stderr[-3000:]}")
    result = json.loads(stdout.strip().splitlines()[-1])
    return result, result["ready_at"] - spawned


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        setups = [_worker(common + ["--setup-only"], deadline)[1]
                  for _ in range(SETUP_SAMPLES - 1)]
        res, setup = _worker(common + ["--seconds", str(seconds)], deadline)
        setups.append(setup)
        workers = [res]
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(res["rounds"]),
                   "peak_rss_mb": res["peak_rss_mb"]}
        detail = {"setup_samples": setups}
    else:
        trace_file = OUT / f"trace-{workload}-seed{seed}.npz"
        base, _ = _worker(common + ["--seconds", str(seconds / 2)], deadline)
        traced, _ = _worker(common + ["--seconds", str(seconds / 2), "--trace", "1",
                                      "--trace-file", str(trace_file)], deadline)
        workers = [base, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_s"] = (statistics.median(traced["rounds"])
                                       - statistics.median(base["rounds"]))
        detail = {"trace_file": str(trace_file.relative_to(ROOT))}
    declared = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not produced: {sorted(missing)}")
    result = {
        "correct": all(w["n_wrong"] == 0 for w in workers),
        "attempted": sum(w["attempted"] for w in workers),
        "failed": sum(w["failed"] for w in workers),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    detail.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  workers=[{k: v for k, v in w.items() if k != "layers"} for w in workers])
    return result, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "grpdconn" / "__init__.py").is_file():
        print(f"perfbench: no grpdconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for w in detail["workers"]:
        for line in w["errors"] + w["wrong"]:
            print(f"perfbench: {line}", file=sys.stderr)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**detail, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
