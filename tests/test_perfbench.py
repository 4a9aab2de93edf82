"""The benchmark's workloads run against the library and check every output.

Each workload's worker runs one tiny round in a subprocess, so a library
change that breaks a call the benchmark makes, or a result it checks, fails
here rather than only in ``perfbench/selftest.py``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["probe_sweep", "long_transport", "fibre_average"])
def test_workload_runs_a_tiny_round_without_failures(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "7", "--size", "tiny", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["attempted"] >= 1
    assert out["failed"] == 0 and out["errors"] == [], out["errors"]
    assert out["n_wrong"] == 0, out["wrong"]


@pytest.mark.parametrize("workload", ["probe_sweep", "long_transport", "fibre_average"])
def test_workload_runs_a_traced_round_with_every_layer(workload):
    # the tracer wraps library functions by name, so a renamed or re-signed
    # function shows here as a failed operation or a missing layer figure
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload", workload,
         "--seed", "7", "--size", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert out["failed"] == 0 and out["errors"] == [], out["errors"]
    assert out["n_wrong"] == 0, out["wrong"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # run.py adds trace.overhead_s from an untraced run beside this one
    missing = [m["name"] for m in declared
               if m["name"] != "trace.overhead_s" and m["name"] not in out["layers"]]
    assert missing == []
