"""The benchmark's span tracer installs on grpdconn and counts its work.

``Tracer.install`` patches names in grpdconn's modules for the whole process,
so it runs in a subprocess. A change that removes a name the tracer patches
fails here.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_PROBE = """
import tracing
from grpdconn import scenarios, transport

tracer = tracing.Tracer()
tracer.install()
c = scenarios.morita_setup()[0]
with tracer.span("bench.round"):
    v = transport.completeness_probe(c, c.morphism.transport.path_with_start, 2, 7)
assert v.kind == "NoCounterexampleFound", v
m = tracer.metrics()
# traced lifts are plain functions: each sample is one integrate call
assert m["integrate.calls"] == 2 and m["connection.hor.calls"] > 0, m
"""


def test_tracer_installs_and_traces_a_probe():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                      str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", TRACED_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
