"""One workload in one process: set up, then run whole rounds for a while.

Started by run.py, never by hand. Prints one JSON line on standard output:
the monotonic time at which setup finished (for the parent's setup_s), and,
unless ``--setup-only``, the round times, operation counts, peak resident
memory and, with ``--trace 1``, the per-layer figures.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-file", default="")
    args = ap.parse_args()

    import grpdconn  # noqa: F401  (import cost belongs to setup)
    import workloads

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    setup, round_ = workloads.WORKLOADS[args.workload]
    with span("bench.setup"):
        state = setup(args.seed, args.size)
    ready_at = time.monotonic()
    out = {"ready_at": ready_at}
    if not args.setup_only:
        ops = workloads.Ops()
        rounds = []
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            with span("bench.round"):
                round_(state, ops)
            rounds.append(time.perf_counter() - t0)
            if len(rounds) == 1:
                # the peak over setup and one round: later rounds repeat the
                # same work, and the peak should not depend on how many fit
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if time.perf_counter() - begin >= args.seconds:
                break
        out.update(
            rounds=rounds, attempted=ops.attempted, failed=ops.failed,
            wrong=ops.wrong[:20], n_wrong=len(ops.wrong), errors=ops.errors[:20],
            op_seconds=ops.seconds, peak_rss_mb=peak_kib / 1024.0)
        if tracer:
            out["layers"] = tracer.metrics()
            if args.trace_file:
                tracer.dump(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
