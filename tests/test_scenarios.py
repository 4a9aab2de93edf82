import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import grpdconn
from grpdconn.cli import main
from grpdconn.config import DEFAULT, parse_config_file
from grpdconn.connection import RowLift
from grpdconn.errors import UnknownScenario
from grpdconn.scenarios import (
    REGISTRY,
    emit_report,
    list_scenarios,
    run_scenario,
)


def test_registry_contains_required_scenarios():
    names = [name for name, _, _ in list_scenarios()]
    for required in ("luca_r2_s1", "so2_action_no_mec", "sproper_complete_family",
                     "punctured_group_bundle", "disjoint_union_cover",
                     "morita_pullback", "pair_fibration_kernel_thm",
                     "proper_average", "product_not_uniform", "splitting_fixture"):
        assert required in names
    assert len(names) == 10
    # stable ordering
    assert names == [name for name, _, _ in list_scenarios()]
    for _, description, note in list_scenarios():
        assert description and note


def test_unknown_scenario_raises():
    with pytest.raises(UnknownScenario):
        run_scenario("missing")


def test_json_report_schema_and_determinism():
    doc1 = run_scenario("splitting_fixture", seed=11)
    doc2 = run_scenario("splitting_fixture", seed=11)
    j1 = emit_report(doc1, "json")
    j2 = emit_report(doc2, "json")
    assert j1 == j2  # byte-identical
    parsed = json.loads(j1)
    assert parsed["schema_version"].startswith("grpdconn-report")
    assert parsed["scenario"] == "splitting_fixture"
    assert parsed["seed"] == 11
    assert parsed["overall_pass"] is True
    assert "config" in parsed and "transport.drift_tol" in parsed["config"]
    for check in parsed["checks"]:
        assert {"name", "verdict", "expected", "matched"} <= set(check)
    # residuals serialize as decimal strings
    resid = parsed["checks"][0]["worst_residual"]
    assert isinstance(resid, str)
    float(resid)


def test_emit_same_doc_twice_is_identical():
    doc = run_scenario("product_not_uniform", seed=3, budget_scale=0.3)
    assert emit_report(doc, "json") == emit_report(doc, "json")
    text = emit_report(doc, "text")
    assert "product_not_uniform" in text and "PASS" in text


def test_unicode_descriptions_preserved():
    doc = run_scenario("so2_action_no_mec", seed=3, budget_scale=0.3)
    payload = emit_report(doc, "json")
    assert "SO(2)⋉R²" in payload
    assert json.loads(payload)["description"] == doc.description


def test_budget_scale_shrinks_samples():
    doc = run_scenario("luca_r2_s1", seed=3, budget_scale=0.1)
    pointwise = [c for c in doc.checks if c.name == "multiplicativity_pointwise"][0]
    assert pointwise.n_samples == 10
    assert doc.overall_pass


def test_config_file_parsing(tmp_path, capsys):
    path = tmp_path / "conf.cfg"
    path.write_text("""
# comment line
transport.drift_tol = 1e-5
numeric.h_ode = 0.002
constr.node_count = 64
""")
    cfg = parse_config_file(str(path))
    assert cfg.transport_drift_tol == 1e-5
    assert cfg.numeric_h_ode == 0.002
    assert cfg.constr_node_count == 64
    with pytest.raises(KeyError):
        DEFAULT.with_overrides({"bogus.key": 1.0})

    # bad lines fail at load time with file, line and key, and the CLI exits 2
    for bad in ("constr.node_count = 256.9", "numeric.h_ode = 0", "numeric.h_ode = -1e-3",
                "numeric.ode_tol = nan", "constr.box = inf", "numeric.h_ode = fast",
                "bogus.key = 1"):
        key = bad.partition(" ")[0]
        path.write_text(f"# comment\ntransport.drift_tol = 1e-5\n{bad}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: .*{re.escape(key)}"):
            parse_config_file(str(path))
        assert main(["--config", str(path), "list"]) == 2
        assert f"{path}:3: " in capsys.readouterr().err


def test_sample_box_is_not_a_config_key(tmp_path, capsys):
    # the line sample box is a catalog constant: an override of it used to
    # load, show in the report's config and never reach a sampler
    path = tmp_path / "box.cfg"
    path.write_text("groupoid.sample_box = 7.5\n")
    with pytest.raises(ValueError, match="unknown configuration key: groupoid.sample_box"):
        parse_config_file(str(path))
    assert main(["--config", str(path), "list"]) == 2
    assert "groupoid.sample_box" not in DEFAULT.snapshot()


def test_cli_list_and_run(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "luca_r2_s1" in out

    rc = main(["--seed", "3", "--budget-scale", "0.2", "--format", "json",
               "--output-dir", str(tmp_path), "run", "splitting_fixture"])
    assert rc == 0
    path = tmp_path / "splitting_fixture.json"
    assert path.exists()
    parsed = json.loads(path.read_text())
    assert parsed["overall_pass"] is True

    assert main(["run", "not_a_scenario"]) == 2


def test_python_dash_m_runs_the_cli():
    # the package directory's parent is what a user puts on PYTHONPATH
    root = os.path.dirname(os.path.dirname(os.path.abspath(grpdconn.__file__)))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "grpdconn", "list"], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    assert "luca_r2_s1" in done.stdout


def test_cli_replay_round_trip(tmp_path, capsys):
    rc = main(["--seed", "5", "--budget-scale", "0.2", "--format", "json",
               "--output-dir", str(tmp_path), "run", "product_not_uniform"])
    assert rc == 0
    report = tmp_path / "product_not_uniform.json"
    rc = main(["--budget-scale", "0.2", "replay", str(report)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "identical" in out


# replay's exit code for each alteration of a saved report: 1 when the re-run
# differs, 2 when the report cannot be replayed
REPLAY_EXIT = {"duplicate_check": 1, "missing_check": 1, "unknown_schema": 2,
               "not_json": 2, "missing_seed": 2, "unknown_scenario": 2}


@pytest.mark.parametrize("alteration", list(REPLAY_EXIT))
def test_cli_replay_rejects_altered_report(tmp_path, capsys, alteration):
    rc = main(["--seed", "5", "--budget-scale", "0.2", "--format", "json",
               "--output-dir", str(tmp_path), "run", "splitting_fixture"])
    assert rc == 0
    report = tmp_path / "splitting_fixture.json"
    saved = json.loads(report.read_text())
    if alteration == "duplicate_check":
        saved["checks"].append(saved["checks"][0])
    elif alteration == "missing_check":
        saved["checks"].pop()
    elif alteration == "unknown_schema":
        saved["schema_version"] = "bogus"
    elif alteration == "missing_seed":
        del saved["seed"]
    elif alteration == "unknown_scenario":
        saved["scenario"] = "nope"
    text = json.dumps(saved)
    report.write_text(text[:len(text) // 2] if alteration == "not_json" else text)
    capsys.readouterr()
    rc = main(["--budget-scale", "0.2", "replay", str(report)])
    out, err = capsys.readouterr()
    assert rc == REPLAY_EXIT[alteration]
    assert "identical" not in out
    if rc == 2:
        assert err.startswith("replay: ") and out == ""


@pytest.mark.parametrize("scale", ["nan", "inf", "-inf", "-3", "0", "x"])
def test_cli_rejects_budget_scale_that_is_not_finite_and_positive(scale, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--budget-scale", scale, "list"])
    assert exc.value.code == 2
    assert "--budget-scale" in capsys.readouterr().err


def test_scenario_connections_lift_on_rows():
    for name, scenario in REGISTRY.items():
        if scenario.connection_factory is not None:
            conn, _ = scenario.connection_factory(DEFAULT)
            assert isinstance(conn.hor, RowLift), name
            assert isinstance(conn.hor0, RowLift), name


def test_scenario_connections_lift_empty_blocks():
    # RowLift's contract allows k = 0: a (0, dim) block lifts to (0, dim)
    for name, scenario in REGISTRY.items():
        if scenario.connection_factory is not None:
            conn, _ = scenario.connection_factory(DEFAULT)
            arrows, objects = conn.total.arrows, conn.total.objects
            base = conn.morphism.base_grpd
            lifted = conn.hor.rows(0, np.zeros((0, arrows.dim)), np.zeros((0, base.arrows.dim)))
            assert lifted.shape == (0, arrows.dim), (name, "hor", lifted.shape)
            lifted0 = conn.hor0.rows(0, np.zeros((0, objects.dim)),
                                     np.zeros((0, base.objects.dim)))
            assert lifted0.shape == (0, objects.dim), (name, "hor0", lifted0.shape)


def test_trajectory_dump(tmp_path):
    rc = main(["--seed", "3", "--budget-scale", "0.1", "--format", "json",
               "--output-dir", str(tmp_path), "--dump-trajectories",
               "run", "punctured_group_bundle"])
    assert rc == 0
    dumps = [p for p in os.listdir(tmp_path) if "trajectory" in p]
    assert dumps
    first = (tmp_path / dumps[0]).read_text().splitlines()
    assert len(first) > 2
    t0, *coords = first[0].split()
    assert float(t0) == 0.0 and coords


def test_all_shipped_scenarios_pass_at_reduced_budget():
    # the registry's expected verdicts hold end to end (reduced budgets keep
    # this affordable; the acceptance suite pins the full ones)
    for name in REGISTRY:
        doc = run_scenario(name, seed=7, budget_scale=0.2)
        failures = [c.name for c in doc.checks if not c.matched]
        assert doc.overall_pass, (name, failures)


def test_check_times_are_positive_and_add_up_to_the_run():
    start = time.perf_counter()
    doc = run_scenario("splitting_fixture")
    elapsed = time.perf_counter() - start
    times = [c.wall_time for c in doc.checks]
    assert times and all(t > 0 for t in times)
    assert sum(times) <= elapsed
