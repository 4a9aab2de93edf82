"""Alternating parent/change benchmark pairs, summarised as a BENCH_<pr>.json.

Runs ``perfbench/run.py`` in a checkout of the parent commit and in one of
the change, alternately (the parent first in even pairs), and writes the
medians, quartiles (inclusive method), wins and gaps of the end-to-end
metrics declared in the change's ``BENCHMARK.json``. A file that already
exists gains the workloads and seeds of this run, so each workload can be
measured in its own invocation:

    python3 tools/bench_pairs.py --parent ../parent --change . --workload probe_sweep \\
        --seed 7 --seed 11 --pairs 10 --out BENCH_11.json --parent-commit 7f44702 \\
        --describe "what the change does" --claim "probe_sweep wall_s improves"

Each side runs with its own working directory, so a relative ``--parent`` or
``--change`` is taken from where this script is started.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0"
METHOD = ("alternating parent/change pairs (parent first in even pairs), each side in its "
          "own checkout; medians and quartiles (inclusive method) over the pairs")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; the last line of its output is its result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"bench_pairs: {checkout}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarise(runs: list[tuple[dict, dict]], spec: list[dict]) -> dict:
    """The BENCH entry of one workload and seed from its (parent, change) pairs."""
    sides = ("parent", "change")
    out = {
        "pairs": len(runs),
        "operations_attempted": {s: sum(r[i]["attempted"] for r in runs)
                                 for i, s in enumerate(sides)},
        "operations_failed": {s: sum(r[i]["failed"] for r in runs) for i, s in enumerate(sides)},
        "all_checks_correct": {s: all(r[i]["correct"] for r in runs)
                               for i, s in enumerate(sides)},
        "metrics": {},
    }
    for metric in spec:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        values = [[r[i]["metrics"][name]["value"] for r in runs] for i in range(2)]
        parent, change = quartiles(values[0]), quartiles(values[1])
        wins = sum(sign * (p - c) > 0 for p, c in zip(*values))
        out["metrics"][name] = {
            "unit": metric["unit"],
            "parent": parent,
            "change": change,
            "change_wins": f"{wins}/{len(runs)}",
            "parent_iqr": round(parent["q3"] - parent["q1"], 4),
            "median_gap": round(sign * (parent["median"] - change["median"]), 4),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--parent-commit", default="")
    ap.add_argument("--describe", default="", help="one line on what the change does")
    ap.add_argument("--claim", default="", help="the gain the change claims, if any")
    ap.add_argument("--host", default="")
    args = ap.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    for key, value in (("change", args.describe), ("parent_commit", args.parent_commit),
                       ("host", args.host), ("claim", args.claim)):
        if value or key not in doc:
            doc[key] = value
    doc.update(command=COMMAND.replace("<n>", f"{args.seconds:g}"), method=METHOD)
    for seed in args.seed:
        runs = []
        for i in range(args.pairs):
            first, second = (run_once(side, args.workload, seed, args.seconds)
                             for side in ((args.parent, args.change) if i % 2 == 0
                                          else (args.change, args.parent)))
            runs.append((first, second) if i % 2 == 0 else (second, first))
            walls = [r["metrics"]["wall_s"]["value"] for r in runs[-1]]
            print(f"{args.workload} seed {seed} pair {i + 1}: wall_s parent {walls[0]:.3f} "
                  f"change {walls[1]:.3f}", file=sys.stderr)
        entry = doc.setdefault("end_to_end", {}).setdefault(args.workload, {})
        entry[f"seed {seed}"] = summarise(runs, spec)
        args.out.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
