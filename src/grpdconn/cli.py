"""Command-line interface: list, run, all, replay."""
from __future__ import annotations

import argparse
import json
import os
import sys

from .config import DEFAULT, parse_config_file
from .errors import UnknownScenario
from .groupoid import rng_for
from .scenarios import REGISTRY, SCHEMA_VERSION, emit_report, list_scenarios, run_scenario


def _load_config(path):
    return parse_config_file(path) if path else DEFAULT


def _write_output(doc, args, text):
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
        path = os.path.join(args.output_dir, f"{doc.scenario}.{args.format}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _dump_trajectories(name, seed, cfg, out_dir, count=3):
    from .integrate import dump_trajectory
    from .transport import parallel_transport

    scenario = REGISTRY[name]
    if scenario.connection_factory is None:
        return
    conn, _ = scenario.connection_factory(cfg)
    transport = conn.morphism.transport
    if transport is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    for i in range(count):
        gamma, g = transport.path_with_start(rng_for(seed, 151, i))
        outcome = parallel_transport(conn, gamma, g, 1.0, cfg,
                                     h=cfg.transport_probe_h_ode)
        path = os.path.join(out_dir, f"{name}.trajectory{i}.txt")
        dump_trajectory(outcome.trajectory, path)
        print(f"wrote {path} ({outcome.status})")


def _run_one(name, args, cfg) -> bool:
    doc = run_scenario(name, seed=args.seed, budget_scale=args.budget_scale, cfg=cfg)
    _write_output(doc, args, emit_report(doc, args.format))
    if args.dump_trajectories:
        _dump_trajectories(name, args.seed, cfg, args.output_dir or ".")
    return doc.overall_pass


def _budget_scale(text: str) -> float:
    if not 0.0 < float(text) < float("inf"):
        raise argparse.ArgumentTypeError(f"not a finite positive number: {text!r}")
    return float(text)


def _load_report(path: str) -> dict:
    """A saved report that replay can re-run, or ValueError saying why not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    version = saved.get("schema_version") if isinstance(saved, dict) else None
    if version != SCHEMA_VERSION:
        raise ValueError(f"unknown schema_version {version!r}, expected {SCHEMA_VERSION!r}")
    name, seed, checks = saved.get("scenario"), saved.get("seed"), saved.get("checks")
    if not (isinstance(name, str) and name in REGISTRY):
        raise ValueError(f"unknown scenario {name!r}")
    if not (type(seed) is int and isinstance(checks, list)
            and all(isinstance(c, dict) and isinstance(c.get("name"), str) for c in checks)):
        raise ValueError("a report needs an integer seed and a list of named checks")
    return saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grpdconn",
        description="Groupoid connections: scenario checks, probes, certificates",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--budget-scale", type=_budget_scale, default=1.0,
                        help="multiply sampling budgets (default 1.0)")
    parser.add_argument("--output-dir", help="write reports here instead of stdout")
    parser.add_argument("--dump-trajectories", action="store_true",
                        help="dump sampled transport trajectories as (t, coords...) lines")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered scenarios")
    run_p = sub.add_parser("run", help="run one scenario")
    run_p.add_argument("name")
    sub.add_parser("all", help="run every scenario")
    replay_p = sub.add_parser("replay", help="re-run a saved report and compare")
    replay_p.add_argument("report", help="path to a JSON report")

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"grpdconn: bad --config: {exc}", file=sys.stderr)
        return 2

    if args.command == "list":
        for name, description, note in list_scenarios():
            print(f"{name:28s} {description}")
            print(f"{'':28s}  [{note}]")
        return 0

    if args.command == "run":
        try:
            ok = _run_one(args.name, args, cfg)
        except UnknownScenario:
            print(f"unknown scenario: {args.name}", file=sys.stderr)
            return 2
        return 0 if ok else 1

    if args.command == "all":
        ok = True
        for name in REGISTRY:
            ok = _run_one(name, args, cfg) and ok
        return 0 if ok else 1

    if args.command == "replay":
        try:
            saved = _load_report(args.report)
        except ValueError as exc:
            print(f"replay: {exc}", file=sys.stderr)
            return 2
        doc = run_scenario(saved["scenario"], seed=saved["seed"],
                           budget_scale=args.budget_scale, cfg=cfg)
        fresh = doc.to_json_obj()
        fresh_checks = {c["name"]: c for c in fresh["checks"]}
        paired = set()
        mismatches = []
        for old in saved["checks"]:
            new = fresh_checks.get(old["name"])
            if new is None or old["name"] in paired:
                mismatches.append(old["name"])
                print(f"[EXTRA] {old['name']}: not produced by the re-run")
                continue
            paired.add(old["name"])
            if old != new:
                mismatches.append(old["name"])
            status = "match" if old == new else "DIFFERS"
            resid = new.get("worst_residual")
            print(f"[{status}] {new['name']}: {new['verdict']}"
                  + (f" residual={resid}" if resid is not None else ""))
            if old != new and old.get("witness"):
                print(f"    saved witness: {old['witness']}")
        for check in fresh_checks:
            if check not in paired:
                mismatches.append(check)
                print(f"[MISSING] {check}: absent from the saved report")
        if saved.get("config") != fresh.get("config"):
            mismatches.append("config")
            print("[DIFFERS] config snapshot")
        print("replay:", "identical" if not mismatches else f"differs in {mismatches}")
        return 0 if not mismatches else 1

    return 2


if __name__ == "__main__":
    sys.exit(main())
