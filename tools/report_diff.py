"""Compare the seed-7 JSON reports of two checkouts byte for byte.

Runs ``python -m grpdconn --seed 7 --format json --output-dir <tmp> all`` in
each checkout (with that checkout's ``src`` on ``PYTHONPATH``), then compares
every report file. For each report that differs it prints the scenario and
the first JSON path whose values differ. It exits 1 on any difference, or
when a run exits non-zero (a failed verdict or an error), and 0 when every
report is byte-identical and both runs pass:

    python3 tools/report_diff.py --parent ../parent --change .

Both runs start together, each in its own process.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 7


def start(checkout: Path, out_dir: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"))
    return subprocess.Popen(
        [sys.executable, "-m", "grpdconn", "--seed", str(SEED), "--format", "json",
         "--output-dir", str(out_dir), "all"],
        cwd=checkout, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)


def first_difference(a, b, path: str = "$"):
    """The first JSON path at which a and b differ, or None."""
    if type(a) is not type(b):
        return path
    if isinstance(a, dict):
        for key in list(a) + [k for k in b if k not in a]:
            if key not in a or key not in b:
                return f"{path}.{key}"
            found = first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else path


def compare(parent_dir: Path, change_dir: Path) -> list[str]:
    """One line per report that is missing on a side or differs."""
    problems = []
    names = sorted({p.name for p in parent_dir.glob("*.json")}
                   | {p.name for p in change_dir.glob("*.json")})
    for name in names:
        a, b = parent_dir / name, change_dir / name
        scenario = name[:-len(".json")]
        if not (a.exists() and b.exists()):
            problems.append(f"{scenario}: only in {'parent' if a.exists() else 'change'}")
        elif a.read_bytes() != b.read_bytes():
            where = first_difference(json.loads(a.read_text()), json.loads(b.read_text()))
            problems.append(f"{scenario}: differs at {where or 'formatting only'}")
    if not names:
        problems.append("no reports written")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="report_diff_") as tmp:
        dirs = {side: Path(tmp) / side for side in ("parent", "change")}
        procs = {side: start(getattr(args, side), dirs[side]) for side in dirs}
        failed = []
        for side, proc in procs.items():
            _, err = proc.communicate()
            if proc.returncode != 0:
                failed.append(f"{side} run exited {proc.returncode}\n{err[-2000:]}")
        problems = compare(dirs["parent"], dirs["change"]) + failed
        count = len(list(dirs["change"].glob("*.json")))
    for line in problems:
        print(line)
    if not problems:
        print(f"{count} reports byte-identical")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
