"""End-to-end pipeline runs and the command-line interface."""

import csv
import hashlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adjudicate_simulated, make_schema, rec
from oracles import bootstrap_ci, rescoring_oracle

import rwdval
from rwdval import (
    AdjudicationError,
    ReferenceMode,
    Source,
    adjudicate_from_oracle,
    default_suite_path,
    load_schema,
    load_suite,
    metrics,
    save_schema,
    write_labels,
)
from rwdval import pipeline as pipeline_mod
from rwdval import refstd as refstd_mod
from rwdval import yamlspec
from rwdval.checks import engine as checks_engine
from rwdval.cli import main
from rwdval.pipeline import (
    ConfigError,
    DistributionSpec,
    RunConfig,
    SurvivalBenchmarkSpec,
    _collect_issues,
    _load_dataset,
    _load_schema,
    _summary_lines,
    assemble_reference,
    config_hash,
    disagreement_cases,
    emit_report,
    load_run_config,
    run_pipeline,
)

SEED = "7"


def text(result):
    out = result.output
    try:
        out += result.stderr
    except Exception:
        pass
    return out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A simulated validation workspace plus its run config."""
    ws = tmp_path_factory.mktemp("ws")
    runner = CliRunner()
    result = runner.invoke(
        main, ["--out", str(ws), "--seed", SEED, "simulate", "--n", "240"]
    )
    assert result.exit_code == 0, text(result)
    return ws


def test_simulate_writes_a_complete_workspace(workspace):
    for name in (
        "schema.yaml",
        "attributes.csv",
        "labels_llm.csv",
        "labels_abstractor_1.csv",
        "labels_abstractor_2.csv",
        "run.yaml",
    ):
        assert (workspace / name).exists(), name


def test_ingest_reports_shape(workspace):
    runner = CliRunner()
    result = runner.invoke(
        main,
        [
            "ingest",
            str(workspace / "labels_llm.csv"),
            "--schema",
            str(workspace / "schema.yaml"),
            "--source",
            "llm",
        ],
    )
    assert result.exit_code == 0, text(result)
    assert result.output.startswith("ok: ")
    assert "patients" in result.output


def test_ingest_rejects_malformed_input(workspace, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("who,what\n1,2\n")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["ingest", str(bad), "--schema", str(workspace / "schema.yaml"), "--source", "llm"],
    )
    assert result.exit_code == 2
    assert "error" in text(result)


def test_full_run_emits_deterministic_bundle(workspace):
    runner = CliRunner()
    args = ["--config", str(workspace / "run.yaml"), "run"]
    first = runner.invoke(main, args)
    assert first.exit_code in (0, 1), text(first)
    results_dir = workspace / "results"
    report_path = results_dir / "report.json"
    assert report_path.exists()
    assert (results_dir / "summary.txt").exists()
    assert (results_dir / "findings.csv").exists()
    first_bytes = report_path.read_bytes()
    report = json.loads(first_bytes)
    assert report["exit_code"] == first.exit_code
    assert set(report["metrics"]["variables"]) == {"surgery", "metastatic_dx", "hr_status"}
    assert "tnbc" in report["metrics"]["derived"]
    assert report["checks"]["n_findings"] == len(report["findings"])
    assert {a["kind"] for a in report["replication"]["analyses"]} == {
        "survival_benchmark",
        "distribution_vs_reference",
        "trend",
        "equity",
    }
    # byte-identical on rerun: no timestamps, no ordering drift
    second = runner.invoke(main, args)
    assert second.exit_code == first.exit_code
    assert report_path.read_bytes() == first_bytes


def test_run_exports_survival_curves(workspace):
    curve_dir = workspace / "results" / "curves"
    names = sorted(p.name for p in curve_dir.glob("*.csv"))
    assert any(n.startswith("os_by_arm_A_llm") for n in names)
    assert any(n.startswith("os_by_arm_A_reference") for n in names)
    header = (curve_dir / names[0]).read_text().splitlines()[0]
    assert header == "t,n_at_risk,d,S,se"


_PILLARS = ("metrics", "checks", "replication")


def _only(workspace, pillar: str) -> str:
    """The workspace's run config with ``pillar`` the one pillar enabled."""
    doc = yaml.safe_load((workspace / "run.yaml").read_text())
    doc["pillars"] = {name: name == pillar for name in _PILLARS}
    path = workspace / f"run_only_{pillar}.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


@pytest.mark.parametrize("pillar", _PILLARS)
def test_single_pillar_configs_scope_the_report(workspace, tmp_path, pillar):
    args = ["--config", _only(workspace, pillar), "--out", str(tmp_path), "--format", "json", "run"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1), text(result)
    report = json.loads(result.output)
    assert pillar in report and not (set(_PILLARS) - {pillar}) & report.keys()
    assert (tmp_path / "report.json").read_text() == result.output


def test_a_pillars_limited_run_has_its_own_hash_and_report_reprints_it(workspace, tmp_path):
    runner = CliRunner()
    ran = runner.invoke(main, ["--config", _only(workspace, "checks"), "--out", str(tmp_path), "run"])
    assert ran.exit_code in (0, 1), text(ran)
    limited = json.loads((tmp_path / "report.json").read_text())["config_hash"]
    assert limited != config_hash(load_run_config(workspace / "run.yaml"))
    reprinted = runner.invoke(main, ["--out", str(tmp_path), "report"])
    assert reprinted.exit_code == ran.exit_code
    assert reprinted.stdout_bytes == (tmp_path / "summary.txt").read_bytes()


@pytest.mark.parametrize("command", ["metrics", "checks", "replicate"])
def test_a_pillar_subcommand_is_a_usage_error(workspace, command):
    """``pillars:`` in the config is the one way to pick pillars."""
    result = CliRunner().invoke(main, ["--config", str(workspace / "run.yaml"), command])
    assert result.exit_code == 2, text(result)
    assert "Usage:" in text(result)
    assert f"No such command '{command}'" in text(result)
    assert "Traceback" not in text(result)


def test_report_command_reprints_a_finished_run(workspace):
    runner = CliRunner()
    stored = json.loads((workspace / "results" / "report.json").read_text())
    result = runner.invoke(
        main, ["--out", str(workspace / "results"), "--format", "json", "report"]
    )
    assert result.exit_code == stored["exit_code"]
    assert json.loads(result.output) == stored
    missing = runner.invoke(main, ["--out", str(workspace / "nowhere"), "report"])
    assert missing.exit_code == 2


def test_refstd_duplicate_mode_prints_summary(workspace):
    runner = CliRunner()
    result = runner.invoke(main, ["--config", str(workspace / "run.yaml"), "refstd"])
    assert result.exit_code == 0, text(result)
    assert "mode: duplicate_abstraction" in result.output
    assert "n_labels:" in result.output


def test_refstd_blocked_emits_worklist_and_exit_1(workspace, tmp_path):
    runner = CliRunner()
    worklist = tmp_path / "worklist.csv"
    result = runner.invoke(
        main,
        [
            "--config",
            str(workspace / "run.yaml"),
            "refstd",
            "--mode",
            "double_adjudication",
            "--emit-worklist",
            str(worklist),
        ],
    )
    assert result.exit_code == 1, text(result)
    assert "blocked" in text(result)
    lines = worklist.read_text().splitlines()
    assert len(lines) > 1  # header plus at least one open case
    # double adjudication compares the extraction with abstractor 1 only,
    # and the worklist holds exactly the unresolved keys
    rows = list(csv.DictReader(lines))
    assert {row["pair"] for row in rows} == {"llm_vs_abstractor_1"}
    unresolved = int(re.search(r"(\d+) unresolved disagreement", text(result)).group(1))
    assert len({(row["patient_id"], row["variable"]) for row in rows}) == unresolved


def test_simulated_refresh_snapshot_runs(tmp_path):
    runner = CliRunner()
    ws = tmp_path / "ws"
    result = runner.invoke(
        main, ["--out", str(ws), "--seed", SEED, "simulate", "--n", "240", "--with-refresh"]
    )
    assert result.exit_code == 0, text(result)
    result = runner.invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exit_code in (0, 1), text(result)
    assert "refresh_id" not in text(result)


def test_bootstrap_run_brackets_every_point_and_is_deterministic(workspace):
    doc = yaml.safe_load((workspace / "run.yaml").read_text())
    doc["metrics"]["bootstrap"] = True
    doc["tolerances"]["bootstrap_replicates"] = 50
    doc["output_dir"] = "results_bootstrap"
    config = workspace / "run_bootstrap.yaml"
    config.write_text(yaml.safe_dump(doc))
    runner = CliRunner()
    args = ["--config", str(config), "run"]
    first = runner.invoke(main, args)
    assert first.exit_code in (0, 1), text(first)
    report_path = workspace / "results_bootstrap" / "report.json"
    first_bytes = report_path.read_bytes()
    variables = json.loads(first_bytes)["metrics"]["variables"]
    assert set(variables) == {"surgery", "metastatic_dx", "hr_status"}
    for entry in variables.values():
        llm = entry["llm"]
        assert llm["ci"], llm
        for metric, (lo, hi) in llm["ci"].items():
            assert lo <= llm[metric] <= hi, (metric, lo, llm[metric], hi)
    second = runner.invoke(main, args)
    assert second.exit_code == first.exit_code
    assert report_path.read_bytes() == first_bytes


def _bootstrap_config(workspace):
    doc = yaml.safe_load((workspace / "run.yaml").read_text())
    doc["metrics"]["bootstrap"] = True
    doc["tolerances"]["bootstrap_replicates"] = 50
    config = workspace / "run_bootstrap_oracle.yaml"
    config.write_text(yaml.safe_dump(doc))
    return load_run_config(config)


def test_metrics_pillar_equals_the_public_oracles(workspace):
    """Point metrics and every stratum re-score the labels of their patients
    with ``variable_metrics``; the intervals re-score each resample."""
    config = _bootstrap_config(workspace)
    # each attribute has a stratum of 113 patients, suppressed, and one of 127
    config = replace(config, tolerances=replace(config.tolerances, min_stratum_n=120))
    dataset = _load_dataset(config, _load_schema(config))
    reference = assemble_reference(config, dataset)
    llm, a1 = dataset.labels(Source.LLM), dataset.labels(Source.ABSTRACTOR_1)
    cohort = sorted(dataset.patients)
    tol = config.tolerances
    days = {"tolerance_days": tol.date_tolerance_days}

    def scored(args, pids):
        llm_report = metrics.variable_metrics(llm, *args, patients=pids, **days)
        a1_report = metrics.variable_metrics(a1, *args, patients=pids, **days)
        return {
            "llm": llm_report.to_dict(),
            "abstraction": a1_report.to_dict(),
            "relative": [asdict(r) for r in metrics.relative_difference(llm_report, a1_report)],
        }

    expected = {}
    for target in config.metrics.variables:
        args = (reference, target.variable, target.positive_class)
        entry = {"positive_class": target.positive_class, **scored(args, cohort)}
        ci = bootstrap_ci(
            rescoring_oracle(llm, *args, **days), cohort, n_replicates=tol.bootstrap_replicates, seed=tol.seed
        )
        entry["llm"]["ci"] = {name: list(interval) for name, interval in ci.items()}
        entry["stratified"] = {
            attr: {
                name: {"n": len(pids), "suppressed": True, "llm": None, "abstraction": None, "relative": None}
                if len(pids) < tol.min_stratum_n
                else {"n": len(pids), "suppressed": False, **scored(args, pids)}
                for name, pids in dataset.strata(attr).items()
            }
            for attr in config.strata
        }
        expected[target.variable] = entry
    got = run_pipeline(config).report["metrics"]["variables"]
    assert all(entry["llm"]["ci"] for entry in got.values())
    shown = {s["suppressed"] for entry in got.values() for per in entry["stratified"].values() for s in per.values()}
    assert shown == {False, True}
    assert got == expected


def test_each_side_of_each_target_is_scored_once_per_run(workspace, monkeypatch):
    config = _bootstrap_config(workspace)
    built = []
    patient_rows = metrics.patient_rows

    def counted(*args, **kwargs):
        built.append(args[2])
        return patient_rows(*args, **kwargs)

    monkeypatch.setattr(metrics, "patient_rows", counted)
    run_pipeline(config)
    targets = [t.variable for t in config.metrics.variables]
    assert sorted(built) == sorted(targets * 2)


def test_each_suite_expression_compiles_once_per_run(workspace, monkeypatch):
    config = load_run_config(workspace / "run.yaml")
    compiled = []
    compile_check = checks_engine.compile_check

    def counted(expr, schema):
        compiled.append(expr)
        return compile_check(expr, schema)

    monkeypatch.setattr(checks_engine, "compile_check", counted)
    run_pipeline(config)
    suite = load_suite(default_suite_path(), load_schema(config.schema))
    assert compiled == [check.expr for check in suite if check.expr is not None]


def test_an_adjudicated_run_with_a_refresh_makes_no_label_set_get_call(tmp_path, monkeypatch):
    made = CliRunner().invoke(
        main, ["--out", str(tmp_path), "--seed", "3", "simulate", "--n", "60", "--with-refresh"]
    )
    assert made.exit_code == 0, text(made)
    cfg_path = tmp_path / "run.yaml"
    doc = yaml.safe_load(cfg_path.read_text())
    adjudicate_simulated(tmp_path, doc, "triple_adjudication")
    cfg_path.write_text(yaml.safe_dump(doc))
    calls = []
    get = rwdval.LabelSet.get

    def counted(self, patient_id, variable):
        calls.append((patient_id, variable))
        return get(self, patient_id, variable)

    monkeypatch.setattr(rwdval.LabelSet, "get", counted)
    report = run_pipeline(load_run_config(cfg_path)).report
    assert calls == []
    # the run did assemble an adjudicated reference and compare the refreshes
    assert report["reference"]["disagreements"]["total"] > 0
    assert report["checks"]["checks"]["metastatic_refresh_stable"]["n_evaluated"] > 0


def test_equity_too_thin_is_not_applicable_and_the_run_goes_on(tmp_path):
    runner = CliRunner()
    ws = tmp_path / "ws"
    result = runner.invoke(main, ["--out", str(ws), "--seed", "4", "simulate", "--n", "40"])
    assert result.exit_code == 0, text(result)
    result = runner.invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exit_code in (0, 1), text(result)
    report = json.loads((ws / "results" / "report.json").read_text())
    assert set(report["metrics"]["variables"]) == {"surgery", "metastatic_dx", "hr_status"}
    (equity,) = [a for a in report["replication"]["analyses"] if a["kind"] == "equity"]
    assert equity["status"] == "not_applicable"
    assert equity["reason"] == "all 2 strata fall below min_stratum_n=20"
    assert not any("os_equity" in issue for issue in report["issues"])


@pytest.fixture(scope="module")
def seed3_workspace(tmp_path_factory):
    """``simulate --n 200 --seed 3``: race_ethnicity groupA has 38 survival
    subjects and groupB 31; its users copy it before changing it."""
    ws = tmp_path_factory.mktemp("seed3") / "ws"
    made = CliRunner().invoke(main, ["--out", str(ws), "--seed", "3", "simulate", "--n", "200"])
    assert made.exit_code == 0, text(made)
    return ws


@pytest.mark.parametrize("lower, min_stratum_n", [("groupZ", 20), ("groupB", 33)])
def test_equity_benchmark_naming_an_absent_or_suppressed_stratum_is_discordant(
    seed3_workspace, tmp_path, lower, min_stratum_n
):
    # groupZ does not exist; groupB (31 subjects) falls below min_stratum_n=33
    ws = tmp_path / "ws"
    shutil.copytree(seed3_workspace, ws)
    doc = yaml.safe_load((ws / "run.yaml").read_text())
    (equity,) = [a for a in doc["analyses"] if a["kind"] == "equity"]
    equity["benchmark"] = {"name": "gap", "type": "direction", "higher": "groupA", "lower": lower}
    doc["tolerances"]["min_stratum_n"] = min_stratum_n
    (ws / "run.yaml").write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code == 1, text(result)
    report = json.loads((ws / "results" / "report.json").read_text())
    (got,) = [a for a in report["replication"]["analyses"] if a["kind"] == "equity"]
    reason = f"median undefined for {lower}; direction cannot be established"
    assert got["llm"]["concordance"]["reason"] == reason
    assert got["llm"]["concordance"]["observed"][lower] is None
    assert f"os_equity: discordant with benchmark ({reason})" in report["issues"]


def test_a_slash_in_a_stratum_value_is_encoded_in_the_curve_file_name(seed3_workspace, tmp_path):
    ws = tmp_path / "ws"
    shutil.copytree(seed3_workspace, ws)
    attributes = ws / "attributes.csv"
    attributes.write_text(attributes.read_text().replace("groupA", "Black/African American"))
    result = CliRunner().invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exit_code in (0, 1), text(result)
    curves = sorted(p.name for p in (ws / "results" / "curves").iterdir())
    assert "os_equity_Black%2FAfrican American_llm.csv" in curves
    assert "os_equity_Black%2FAfrican American_reference.csv" in curves
    assert "os_by_arm_A_llm.csv" in curves  # names without "/" or "%" keep their bytes
    assert (ws / "results" / "summary.txt").exists()


def test_emit_report_percent_encodes_only_slash_nul_and_percent(tmp_path):
    curve = rwdval.km_estimate([10, 20, 30], [True, False, True])
    names = ["a/b", "50%", "nul\0byte", "plain group-1 (x)"]
    report = {
        "config_hash": "0" * 64, "reference_mode": "duplicate_abstraction",
        "cohort": {"n_patients": 0}, "issues": [], "exit_code": 0,
    }
    written = pipeline_mod.emit_report(
        pipeline_mod.PipelineResult(report=report, curves=dict.fromkeys(names, curve)), tmp_path
    )
    got = {name: written[f"curve:{name}"].name for name in names}
    assert got == {
        "a/b": "a%2Fb.csv",
        "50%": "50%25.csv",
        "nul\0byte": "nul%00byte.csv",
        "plain group-1 (x)": "plain group-1 (x).csv",
    }
    assert sorted(p.name for p in (tmp_path / "curves").iterdir()) == sorted(got.values())


def test_an_internal_error_exits_2_with_its_traceback_on_stderr(seed3_workspace, tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("replication fault")

    monkeypatch.setattr(pipeline_mod, "equity_replication", broken)
    result = CliRunner().invoke(main, ["--config", str(seed3_workspace / "run.yaml"), "--out", str(tmp_path), "run"])
    assert result.exit_code == 2, text(result)
    assert isinstance(result.exception, SystemExit)
    assert "Traceback (most recent call last)" in result.stderr
    assert "RuntimeError: replication fault" in result.stderr


def test_survival_benchmark_and_equity_share_per_group_curves(workspace, tmp_path):
    """Grouped by the same attribute with a floor no larger than the smallest
    group, a survival benchmark and an equity analysis give each side the
    same medians and byte-equal curve exports."""
    ws = tmp_path / "ws"
    shutil.copytree(workspace, ws)
    doc = yaml.safe_load((ws / "run.yaml").read_text())
    (survival,) = [a for a in doc["analyses"] if a["kind"] == "survival_benchmark"]
    assert survival["group_by"] == "treatment_arm"
    equity = {
        "kind": "equity", "name": "arm_equity", "stratum_attribute": "treatment_arm",
        **{k: survival[k] for k in ("index_variable", "event_variable", "censor_variable")},
    }
    doc["analyses"] = [survival, equity]
    (ws / "run.yaml").write_text(yaml.safe_dump(doc))
    config = load_run_config(ws / "run.yaml")
    sizes = run_pipeline(config).report["replication"]["analyses"][1]["llm"]["group_sizes"]
    assert sorted(sizes) == ["A", "B"]
    config = replace(config, tolerances=replace(config.tolerances, min_stratum_n=min(sizes.values())))
    result = run_pipeline(config)
    got_survival, got_equity = result.report["replication"]["analyses"]
    assert got_equity["llm"]["suppressed"] == []
    for side in ("llm", "reference"):
        survival_medians = {g: entry[f"{side}_median"] for g, entry in got_survival["groups"].items()}
        assert got_equity[side]["medians"] == survival_medians
    pipeline_mod.emit_report(result, tmp_path / "out")
    for side in ("llm", "reference"):
        for group in sizes:
            a = (tmp_path / "out" / "curves" / f"os_by_arm_{group}_{side}.csv").read_bytes()
            b = (tmp_path / "out" / "curves" / f"arm_equity_{group}_{side}.csv").read_bytes()
            assert a == b, (side, group)


@pytest.mark.parametrize("seed", ["1", "2", "3"])
@pytest.mark.parametrize("n", ["1", "2", "3"])
def test_tiny_cohorts_never_stop_the_run(tmp_path, seed, n):
    # between them these nine workspaces hold a month series shorter than
    # the monthly check's window, no dated metastatic_dx at all, no known
    # first_line_regimen, and no patient in the benchmark's arm B
    runner = CliRunner()
    ws = tmp_path / "ws"
    result = runner.invoke(main, ["--out", str(ws), "--seed", seed, "simulate", "--n", n])
    assert result.exit_code == 0, text(result)
    result = runner.invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1), text(result)
    assert "error:" not in text(result)


def _reject_constant(name):
    raise ValueError(f"report.json holds the non-JSON constant {name}")


def test_one_category_distribution_writes_strict_json(workspace, tmp_path):
    doc = yaml.safe_load((workspace / "run.yaml").read_text())
    doc["pillars"] = {"metrics": False, "checks": False}
    doc["analyses"] = [
        {"kind": "distribution_vs_reference", "variable": "initial_dx", "reference": {"yes": 1.0}}
    ]
    config = workspace / "run_one_category.yaml"
    config.write_text(yaml.safe_dump(doc))
    emit_report(run_pipeline(load_run_config(config)), tmp_path / "out")
    report = json.loads(
        (tmp_path / "out" / "report.json").read_text(), parse_constant=_reject_constant
    )
    (analysis,) = report["replication"]["analyses"]
    assert analysis["observed_counts"].keys() == {"yes"}
    comparison = analysis["comparison"]
    assert comparison["chi2_applicable"] is False
    assert comparison["chi2_reason"] == "one category leaves no degrees of freedom"
    assert comparison["chi2_pvalue"] is None


_RUN_AND_LIST_MODULES = """
import sys
from rwdval.cli import main
try:
    main(["--config", sys.argv[1], "run"])
except SystemExit as exc:
    print("exit", exc.code)
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print("numpy.ma loaded:", "numpy.ma" in sys.modules)
"""


def _run_in_a_child(config: Path) -> list[str]:
    """``rwdval run`` in a fresh interpreter; its last two lines list the
    scipy modules and whether numpy.ma was loaded."""
    src = str(Path(rwdval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, str(config)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-3] in ("exit 0", "exit 1"), proc.stdout + proc.stderr
    return lines[-2:]


def test_run_never_imports_scipy(tmp_path):
    """The chi-square p-value comes from the pure-Python ``chdtrc`` port, and
    KM bands are not on the run path; importing scipy.special costs about
    0.3 s and scipy.stats about a second, so a run must load no scipy module."""
    ws = tmp_path / "ws"
    result = CliRunner().invoke(main, ["--out", str(ws), "--seed", SEED, "simulate", "--n", "120"])
    assert result.exit_code == 0, text(result)
    assert _run_in_a_child(ws / "run.yaml")[0] == "scipy modules: []"
    report = json.loads((ws / "results" / "report.json").read_text())
    analyses = report["replication"]["analyses"]
    (dist,) = [a for a in analyses if a["kind"] == "distribution_vs_reference"]
    assert dist["comparison"]["chi2_applicable"]  # the chi-square path ran


def test_bootstrap_run_never_imports_numpy_ma(tmp_path):
    """The bootstrap takes its percentiles without ``np.percentile``, whose
    ``np.unique`` call imports numpy.ma (about 1 MB and 12 ms); nothing
    else in a run loads it."""
    ws = tmp_path / "ws"
    result = CliRunner().invoke(main, ["--out", str(ws), "--seed", SEED, "simulate", "--n", "120"])
    assert result.exit_code == 0, text(result)
    doc = yaml.safe_load((ws / "run.yaml").read_text())
    doc["metrics"]["bootstrap"] = True
    doc["tolerances"]["bootstrap_replicates"] = 200
    (ws / "run.yaml").write_text(yaml.safe_dump(doc))
    assert _run_in_a_child(ws / "run.yaml")[1] == "numpy.ma loaded: False"
    report = json.loads((ws / "results" / "report.json").read_text())
    assert all(entry["llm"]["ci"] for entry in report["metrics"]["variables"].values())


def test_refstd_oracle_resolves_the_block(workspace, tmp_path):
    # an oracle file whose rows say reference
    from rwdval import load_schema, read_labels

    schema = load_schema(workspace / "schema.yaml")
    truth = read_labels(
        workspace / "labels_abstractor_2.csv", schema, Source.ABSTRACTOR_2
    )
    oracle_path = tmp_path / "oracle.csv"
    write_labels(truth.relabel(Source.REFERENCE), oracle_path)
    runner = CliRunner()
    out = tmp_path / "ref_out"
    result = runner.invoke(
        main,
        [
            "--config",
            str(workspace / "run.yaml"),
            "--out",
            str(out),
            "refstd",
            "--mode",
            "double_adjudication",
            "--oracle",
            str(oracle_path),
        ],
    )
    assert result.exit_code == 0, text(result)
    assert (out / "reference_labels.csv").exists()


def test_refstd_oracle_is_read_as_the_source_its_rows_name(tmp_path):
    """A ``simulate`` workspace's abstractor 2 file, whose rows say
    ``abstractor_2``, serves as the oracle as it is; a file whose rows name
    two sources still exits 2, naming each row that differs from the first."""
    ws = tmp_path / "ws"
    runner = CliRunner()
    made = runner.invoke(main, ["--out", str(ws), "--seed", "3", "simulate", "--n", "200", "--with-refresh"])
    assert made.exit_code == 0, text(made)
    oracle = ws / "labels_abstractor_2.csv"
    args = ["--config", str(ws / "run.yaml"), "--out", str(tmp_path / "ref"), "refstd"]
    args += ["--mode", "triple_adjudication", "--oracle"]
    result = runner.invoke(main, [*args, str(oracle)])
    assert result.exit_code == 0, text(result)
    assert (tmp_path / "ref" / "disagreements.csv").exists()

    lines = oracle.read_text().splitlines()
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("\n".join([*lines[:3], lines[3].replace(",abstractor_2,", ",reference,")]) + "\n")
    result = runner.invoke(main, [*args, str(mixed)])
    assert result.exit_code == 2, text(result)
    assert "row 4: source 'reference' does not match declared 'abstractor_2'" in text(result)
    assert "row 3:" not in text(result)


@pytest.fixture(scope="module")
def refresh_workspace(tmp_path_factory):
    """``simulate --n 200 --seed 3 --with-refresh``, left unchanged by its users."""
    ws = tmp_path_factory.mktemp("refresh") / "ws"
    made = CliRunner().invoke(main, ["--out", str(ws), "--seed", "3", "simulate", "--n", "200", "--with-refresh"])
    assert made.exit_code == 0, text(made)
    return ws


def _restamp(source: Path, target: Path, refresh_ids) -> Path:
    """``source`` written to ``target`` with each data row's refresh_id
    cell taken in turn from the cycle ``refresh_ids``."""
    with open(source, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    at = header.index("refresh_id")
    with open(target, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, row in enumerate(rows):
            writer.writerow([*row[:at], refresh_ids[i % len(refresh_ids)], *row[at + 1:]])
    return target


def test_refresh_ids_that_cannot_be_compared_stop_the_run_before_any_pillar(refresh_workspace, tmp_path, monkeypatch):
    """With a refresh check in the suite, ``run`` exits 2 at load, with no
    traceback, naming each label file whose rows do not carry exactly one
    refresh id, or both files and both ids when they are out of order."""
    ws = shutil.copytree(refresh_workspace, tmp_path / "ws")
    assembled = []
    monkeypatch.setattr(pipeline_mod, "assemble_reference", lambda *args, **kwargs: assembled.append(args))
    doc = yaml.safe_load((ws / "run.yaml").read_text())
    prior, current = ws / "labels_prev.csv", ws / "labels_llm_restamped.csv"

    def run(prior_ids, current_ids=("2",)):
        _restamp(ws / "labels_llm_refresh1.csv", prior, prior_ids)
        _restamp(ws / "labels_llm.csv", current, current_ids)
        (ws / "run.yaml").write_text(
            yaml.safe_dump({**doc, "previous_labels": prior.name, "labels": {**doc["labels"], "llm": current.name}})
        )
        result = CliRunner().invoke(main, ["--config", str(ws / "run.yaml"), "run"])
        assert result.exit_code == 2, text(result)
        assert "Traceback" not in text(result)
        return text(result)

    need = "its rows must carry exactly one refresh_id to compare refreshes"
    out = run([""])  # a copy of an extraction with no refresh id, as simulate writes without --with-refresh
    assert f"error: {prior}: {need}" in out
    assert str(current) not in out
    out = run(["1", "0"], [""])
    assert f"{prior}: {need}" in out
    assert f"{current}: {need}" in out
    out = run(["2"])
    assert f"error: refresh ids must be strictly increasing, got '2' in {prior} then '2' in {current}" in out
    assert assembled == []


def test_a_suite_with_no_refresh_check_runs_on_a_prior_without_refresh_ids(refresh_workspace, tmp_path):
    ws = shutil.copytree(refresh_workspace, tmp_path / "ws")
    _restamp(ws / "labels_llm_refresh1.csv", ws / "labels_llm_refresh1.csv", [""])
    (ws / "suite.yaml").write_text("checks:\n  - id: staged\n    expr: exists(stage)\n")
    doc = yaml.safe_load((ws / "run.yaml").read_text())
    (ws / "run.yaml").write_text(yaml.safe_dump({**doc, "check_suite": "suite.yaml"}))
    result = CliRunner().invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exit_code in (0, 1), text(result)
    assert "staged: flagged" in text(result)


def test_a_prior_snapshot_is_read_only_when_a_refresh_check_compares_it(refresh_workspace, tmp_path):
    """A bad row in ``previous_labels`` stops a run whose suite has a
    refresh check, naming the file, and none whose suite has none: that
    suite leaves the prior file unread."""
    ws = shutil.copytree(refresh_workspace, tmp_path / "ws")
    prior = ws / "labels_llm_refresh1.csv"
    header, first, *rest = prior.read_text().splitlines(keepends=True)
    assert first.startswith("P000000,adjuvant_start,no,")
    prior.write_text(header + first.replace(",no,", ",not_a_value,", 1) + "".join(rest))
    runner = CliRunner()
    result = runner.invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exit_code == 2, text(result)
    assert str(prior) in text(result) and "Traceback" not in text(result)
    (ws / "suite.yaml").write_text("checks:\n  - id: staged\n    expr: exists(stage)\n")
    doc = yaml.safe_load((ws / "run.yaml").read_text())
    (ws / "run.yaml").write_text(yaml.safe_dump({**doc, "check_suite": "suite.yaml"}))
    result = runner.invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exit_code in (0, 1), text(result)
    assert "staged: flagged" in text(result)


def test_a_blocked_refstd_out_holds_only_its_open_cases(refresh_workspace, tmp_path):
    """A blocked ``refstd --out DIR`` leaves in DIR the open cases, as
    ``--emit-worklist`` writes them, and no reference an earlier assembly
    wrote there."""
    out, worklist = tmp_path / "ref", tmp_path / "worklist.csv"
    args = ["--config", str(refresh_workspace / "run.yaml"), "--out", str(out), "refstd"]
    args += ["--mode", "triple_adjudication"]
    runner = CliRunner()
    resolved = runner.invoke(main, [*args, "--oracle", str(refresh_workspace / "labels_abstractor_2.csv")])
    assert resolved.exit_code == 0, text(resolved)
    assert sorted(p.name for p in out.iterdir()) == ["disagreements.csv", "reference_labels.csv"]
    blocked = runner.invoke(main, [*args, "--emit-worklist", str(worklist)])
    assert blocked.exit_code == 1, text(blocked)
    assert "reference standard blocked" in text(blocked)
    assert [p.name for p in out.iterdir()] == ["disagreements.csv"]
    assert (out / "disagreements.csv").read_bytes() == worklist.read_bytes()


def _shuffled_with_crlf(path: Path, rng: random.Random) -> None:
    """Rewrite the CSV file ``path`` with its data rows in ``rng``'s order
    and CRLF line ends."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    rng.shuffle(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerows([header, *rows])


@pytest.mark.parametrize("mode", ["duplicate_abstraction", "triple_adjudication"])
def test_a_run_does_not_depend_on_csv_row_order_or_line_ends(tmp_path, mode):
    """Every input CSV with its data rows shuffled and CRLF line ends gives
    the bundle and stdout of the files as written, but for the config hash."""
    ws = tmp_path / "ws"
    made = CliRunner().invoke(main, ["--out", str(ws), "--seed", "3", "simulate", "--n", "120", "--with-refresh"])
    assert made.exit_code == 0, text(made)
    if mode == "triple_adjudication":  # the simulated truth adjudicates every case
        config = replace(load_run_config(ws / "run.yaml"), reference_mode=ReferenceMode(mode))
        dataset = _load_dataset(config, _load_schema(config))
        adjudications = adjudicate_from_oracle(disagreement_cases(config, dataset), dataset.labels(Source.ABSTRACTOR_2))
        write_labels(adjudications, ws / "labels_adjudicator.csv")
        doc = yaml.safe_load((ws / "run.yaml").read_text())
        labels = {**doc["labels"], "adjudicator": "labels_adjudicator.csv"}
        (ws / "run.yaml").write_text(yaml.safe_dump({**doc, "reference_mode": mode, "labels": labels}))
    shuffled = shutil.copytree(ws, tmp_path / "shuffled")
    rng = random.Random(0)
    for path in sorted(shuffled.glob("*.csv")):
        _shuffled_with_crlf(path, rng)

    def bundle(root: Path) -> dict[str, str]:
        result = CliRunner().invoke(main, ["--config", str(root / "run.yaml"), "run"])
        assert result.exit_code in (0, 1), text(result)
        out = root / "results"
        files = {p.relative_to(out).as_posix(): p.read_text() for p in sorted(out.rglob("*")) if p.is_file()}
        files["stdout"] = result.output
        digest = json.loads(files["report.json"])["config_hash"]
        return {name: body.replace(digest, "<config_hash>") for name, body in files.items()}

    expected = bundle(ws)
    assert {"findings.csv", "summary.txt", "curves/os_by_arm_A_llm.csv"} <= expected.keys()
    assert ("disagreements.csv" in expected) == (mode == "triple_adjudication")
    assert bundle(shuffled) == expected


# what `refstd --mode MODE --oracle labels_abstractor_2.csv` writes on the
# refresh workspace: the SHA-256 of reference_labels.csv and of
# disagreements.csv, and the summary it prints as sorted dotted-key lines
_ORACLE_REFSTD = {
    "triple_adjudication": (
        "34e35e2d1765c2650862f380cc9914feb7e6392d7fe83c71562c9be5d444350d",
        "46550667ef611349297a35f63a60a48d27efdcdde3b250f97aa53757ea9e72b6",
        [
            "disagreements.by_pair.abstractor_1_vs_abstractor_2: 69",
            "disagreements.by_pair.llm_vs_abstractor_1: 272",
            "disagreements.by_pair.llm_vs_abstractor_2: 214",
            "disagreements.total: 555",
            "mode: triple_adjudication",
            "n_labels: 2800",
            "n_patients: 200",
            "provenance.adjudicated: 276",
            "provenance.agreed: 2450",
        ],
    ),
    "double_adjudication": (
        "ab3a0bcce1630041930b2759557dd8414f9540ddbe137bf51bb1de6fdc6cbc5b",
        "c093f5bdaf77c95aaccf287af6a5eef349312b5b7f570eafd1076b9615457d64",
        [
            "disagreements.by_pair.llm_vs_abstractor_1: 272",
            "disagreements.total: 272",
            "mode: double_adjudication",
            "n_labels: 2799",
            "n_patients: 200",
            "provenance.adjudicated: 272",
            "provenance.agreed: 2453",
        ],
    ),
}


@pytest.mark.parametrize("mode", sorted(_ORACLE_REFSTD))
def test_refstd_oracle_walks_the_disagreements_once(refresh_workspace, tmp_path, monkeypatch, mode):
    """The oracle adjudicates the cases of one walk, and the assembly takes
    those cases rather than walking the keys again."""
    walk = refstd_mod.find_disagreements
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return walk(*args, **kwargs)

    # every name the function is reached through
    monkeypatch.setattr(refstd_mod, "find_disagreements", counted)
    monkeypatch.setattr(pipeline_mod, "find_disagreements", counted)
    ws, out = refresh_workspace, tmp_path / "ref"
    args = ["--config", str(ws / "run.yaml"), "--out", str(out), "refstd", "--mode", mode]
    result = CliRunner().invoke(main, [*args, "--oracle", str(ws / "labels_abstractor_2.csv")])
    assert result.exit_code == 0, text(result)
    assert len(calls) == 1
    labels_digest, cases_digest, summary = _ORACLE_REFSTD[mode]
    digest = lambda name: hashlib.sha256((out / name).read_bytes()).hexdigest()
    assert (digest("reference_labels.csv"), digest("disagreements.csv")) == (labels_digest, cases_digest)
    assert result.stdout.splitlines() == [f"reference labels written to {out / 'reference_labels.csv'}", *summary]


@pytest.mark.parametrize("mode", ["double_adjudication", "triple_adjudication"])
def test_found_cases_assemble_the_reference_the_default_walk_does(refresh_workspace, mode):
    config = replace(load_run_config(refresh_workspace / "run.yaml"), reference_mode=ReferenceMode(mode))
    dataset = _load_dataset(config, _load_schema(config))
    cases = disagreement_cases(config, dataset)
    oracle = dataset.labels(Source.ABSTRACTOR_2)
    adjudications = adjudicate_from_oracle(cases, oracle)
    ref = assemble_reference(config, dataset, adjudications, cases=cases)
    assert ref == assemble_reference(config, dataset, adjudications)
    assert ref.cases == tuple(cases) and len(cases) > 0
    # an incomplete adjudication blocks alike, with the same open cases
    partial = adjudicate_from_oracle(cases[: len(cases) // 2], oracle)
    blocked = []
    for given in (cases, None):
        with pytest.raises(AdjudicationError) as err:
            assemble_reference(config, dataset, partial, cases=given)
        blocked.append((err.value.worklist, err.value.uncovered, err.value.stale, str(err.value)))
    assert blocked[0] == blocked[1]
    assert blocked[0][0] == [c for c in cases if c.key not in partial.keys()]


def test_duplicate_abstraction_has_no_cases_to_find(refresh_workspace, monkeypatch):
    monkeypatch.setattr(pipeline_mod, "find_disagreements", None)  # never called
    config = load_run_config(refresh_workspace / "run.yaml")
    assert config.reference_mode == ReferenceMode.DUPLICATE_ABSTRACTION
    assert disagreement_cases(config, _load_dataset(config, _load_schema(config))) == []


def test_refstd_refuses_adjudications_beside_oracle(refresh_workspace, tmp_path):
    """``--oracle`` makes the adjudications, so a file given beside it would be
    dropped unread: a stale key that blocks on its own must not pass."""
    ws = refresh_workspace
    stale = tmp_path / "adjudications.csv"
    stale.write_text(
        "patient_id,variable,value,event_date,source,refresh_id\nP999999,stage,IV,,adjudicator,\n"
    )
    runner = CliRunner()
    args = ["--config", str(ws / "run.yaml"), "--out", str(tmp_path / "ref"), "refstd"]
    args += ["--mode", "triple_adjudication", "--adjudications", str(stale)]
    alone = runner.invoke(main, args)
    assert alone.exit_code == 1, text(alone)
    assert "1 adjudication(s) for keys that are not disagreements: P999999/stage" in text(alone)
    open_cases = (tmp_path / "ref" / "disagreements.csv").read_bytes()
    both = runner.invoke(main, [*args, "--oracle", str(ws / "labels_abstractor_2.csv")])
    assert both.exit_code == 2, text(both)
    assert "--adjudications" in text(both) and "--oracle" in text(both)
    assert "Traceback" not in text(both)
    # the blocked assembly left its open cases in DIR; the refused command wrote nothing
    assert [p.name for p in (tmp_path / "ref").iterdir()] == ["disagreements.csv"]
    assert (tmp_path / "ref" / "disagreements.csv").read_bytes() == open_cases


def test_refstd_without_out_leaves_the_run_bundle_as_run_wrote_it(refresh_workspace, tmp_path):
    """The configured output_dir holds what ``run`` wrote and nothing else:
    ``refstd`` writes its files only under ``--out``."""
    ws = shutil.copytree(refresh_workspace, tmp_path / "ws")
    results = ws / "results"

    def bundle():
        return {p.relative_to(results).as_posix(): p.read_bytes() for p in results.rglob("*") if p.is_file()}

    runner = CliRunner()
    ran = runner.invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert ran.exit_code in (0, 1), text(ran)
    written = bundle()
    args = ["--config", str(ws / "run.yaml"), "refstd", "--mode", "triple_adjudication"]
    result = runner.invoke(main, [*args, "--oracle", str(ws / "labels_abstractor_2.csv")])
    assert result.exit_code == 0, text(result)
    assert result.stdout.splitlines() == _ORACLE_REFSTD["triple_adjudication"][2]
    assert bundle() == written


_REPRS = ("datetime.", "{'", "('")


@pytest.mark.parametrize("mode", ["duplicate_abstraction", "double_adjudication", "triple_adjudication"])
def test_printed_values_are_label_text_and_report_reprints_the_run(refresh_workspace, tmp_path, mode):
    """Findings, summaries and the refstd summary print label text and
    dotted-key lines, never a Python repr, and ``report`` reprints the run's
    ``summary.txt`` and ``report.json`` byte for byte."""
    ws = tmp_path / "ws"
    shutil.copytree(refresh_workspace, ws)
    doc = yaml.safe_load((ws / "run.yaml").read_text())
    if mode != "duplicate_abstraction":
        adjudicate_simulated(ws, doc, mode)  # the simulated truth is the oracle
    (ws / "run.yaml").write_text(yaml.safe_dump(doc))
    runner = CliRunner()
    config = ["--config", str(ws / "run.yaml")]
    ran = runner.invoke(main, [*config, "run"])
    assert ran.exit_code == 1, text(ran)
    results = ws / "results"
    summary = (results / "summary.txt").read_text()
    assert ran.output == summary
    assert runner.invoke(main, [*config, "report"]).output == summary
    as_json = runner.invoke(main, [*config, "--format", "json", "report"])
    assert as_json.output == (results / "report.json").read_text()
    refstd = runner.invoke(main, [*config, "--out", str(tmp_path / "ref"), "refstd"])
    assert refstd.exit_code == 0, text(refstd)
    assert f"mode: {mode}" in refstd.output.splitlines()
    findings = (results / "findings.csv").read_text()
    assert "=yes@" in findings  # a dated value as the label file writes it
    for shown in (findings, summary, refstd.output):
        assert not [r for r in _REPRS if r in shown], shown


def test_a_run_removes_the_worklist_and_curves_an_earlier_run_left(seed3_workspace, tmp_path):
    """A run into a used output directory leaves exactly the files a run
    into an empty one writes, and so does ``refstd`` with its worklist."""
    ws = tmp_path / "ws"
    shutil.copytree(seed3_workspace, ws)
    doc = yaml.safe_load((ws / "run.yaml").read_text())
    runner = CliRunner()

    def run(name: str, out: Path, command: str = "run", **change):
        (ws / name).write_text(yaml.safe_dump({**doc, **change}))
        return runner.invoke(main, ["--config", str(ws / name), "--out", str(out), command])

    def files(out: Path) -> dict[str, bytes]:
        return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    used, fresh = tmp_path / "used", tmp_path / "fresh"
    blocked = run("blocked.yaml", used, reference_mode="triple_adjudication")
    assert blocked.exit_code == 1, text(blocked)
    assert (used / "disagreements.csv").exists() and (used / "curves" / "os_equity_groupA_llm.csv").exists()
    no_equity = [a for a in doc["analyses"] if a["kind"] != "equity"]
    for out in (used, fresh):
        assert run("no_equity.yaml", out, analyses=no_equity).exit_code == 1
    assert files(used) == files(fresh)
    assert not (used / "disagreements.csv").exists()
    oracle = ["refstd", "--mode", "triple_adjudication", "--oracle", str(ws / "labels_abstractor_2.csv")]
    assert runner.invoke(main, ["--config", str(ws / "run.yaml"), "--out", str(used), *oracle]).exit_code == 0
    assert (used / "disagreements.csv").exists()
    assert run("run.yaml", used, "refstd").exit_code == 0
    assert not (used / "disagreements.csv").exists() and (used / "reference_labels.csv").exists()


def test_missing_config_is_a_run_failure():
    runner = CliRunner()
    result = runner.invoke(main, ["run"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["--config", "/nonexistent.yaml", "run"])
    assert result.exit_code == 2


@pytest.mark.parametrize("command", ["run", "refstd", "report"])
def test_malformed_config_is_a_run_failure_for_every_command(tmp_path, command):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump({"schema": "schema.yaml", "labels": {"abstractor_1": "a.csv"}}))
    result = CliRunner().invoke(main, ["--config", str(cfg_path), command])
    assert result.exit_code == 2, text(result)
    assert isinstance(result.exception, SystemExit)
    assert "error:" in text(result)
    assert "Traceback" not in text(result)


def test_run_honours_configured_pillars(workspace, tmp_path):
    doc = yaml.safe_load((workspace / "run.yaml").read_text())
    doc["pillars"] = {"metrics": False}
    cfg_path = workspace / "run_no_metrics.yaml"
    cfg_path.write_text(yaml.safe_dump(doc))
    runner = CliRunner()
    result = runner.invoke(main, ["--config", str(cfg_path), "--out", str(tmp_path / "run"), "run"])
    assert result.exit_code in (0, 1), text(result)
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert "metrics" not in report
    assert {"checks", "replication"} <= report.keys()
    # a metrics-only config runs only its own pillar
    result = runner.invoke(main, ["--config", _only(workspace, "metrics"), "--out", str(tmp_path / "m"), "run"])
    assert result.exit_code in (0, 1), text(result)
    report = json.loads((tmp_path / "m" / "report.json").read_text())
    assert "metrics" in report
    assert not {"checks", "replication"} & report.keys()


def test_config_hash_tracks_input_content(workspace):
    config = load_run_config(workspace / "run.yaml")
    before = config_hash(config)
    assert before == config_hash(load_run_config(workspace / "run.yaml"))
    labels_path = workspace / "labels_llm.csv"
    original = labels_path.read_text()
    try:
        labels_path.write_text(original + "\n")
        assert config_hash(load_run_config(workspace / "run.yaml")) != before
    finally:
        labels_path.write_text(original)


def test_config_hash_covers_a_seed_override(seed3_workspace, tmp_path):
    """``--seed`` changes the bootstrap draws, so it changes the hash: a run
    with ``--seed 1`` hashes as a config stating ``seed: 1`` does, and a run
    without ``--seed``, or with the stated seed, keeps the stated hash."""

    def reported_hash(config, *seed):
        args = ["--format", "json", "--config", str(config), "--out", str(tmp_path / "out"), *seed, "run"]
        result = CliRunner().invoke(main, args)
        assert result.exit_code in (0, 1), text(result)
        return json.loads(result.output)["config_hash"]

    ws = shutil.copytree(seed3_workspace, tmp_path / "ws")
    run_yaml = ws / "run.yaml"  # one pillar keeps the five runs short
    run_yaml.write_text(run_yaml.read_text() + "pillars: {checks: false, replication: false}\n")
    stated = config_hash(load_run_config(run_yaml))
    assert reported_hash(run_yaml) == stated
    assert reported_hash(run_yaml, "--seed", "3") == stated
    one = reported_hash(run_yaml, "--seed", "1")
    two = reported_hash(run_yaml, "--seed", "2")
    assert len({stated, one, two}) == 3
    seed1_yaml = ws / "run_seed1.yaml"
    seed1_yaml.write_text(run_yaml.read_text().replace("  seed: 3\n", "  seed: 1\n"))
    assert reported_hash(seed1_yaml) == one


# --- pipeline behavior on a hand-built workspace ---


def small_workspace(tmp_path, *, with_adjudicator=False, positive_class="II"):
    schema = make_schema()
    save_schema(schema, tmp_path / "schema.yaml")
    llm = [
        rec("p1", "stage", "II"),
        rec("p2", "stage", "I"),
    ]
    a1 = [
        rec("p1", "stage", "II", source=Source.ABSTRACTOR_1),
        rec("p2", "stage", "III", source=Source.ABSTRACTOR_1),
    ]
    from conftest import label_set

    write_labels(label_set(schema, Source.LLM, llm), tmp_path / "llm.csv")
    write_labels(label_set(schema, Source.ABSTRACTOR_1, a1), tmp_path / "a1.csv")
    doc = {
        "schema": "schema.yaml",
        "labels": {"llm": "llm.csv", "abstractor_1": "a1.csv"},
        "reference_mode": "double_adjudication",
        "pillars": {"checks": False, "replication": False},
        "metrics": {"variables": [{"variable": "stage", "positive_class": positive_class}]},
    }
    if with_adjudicator:
        adj = [rec("p2", "stage", "III", source=Source.ADJUDICATOR)]
        write_labels(label_set(schema, Source.ADJUDICATOR, adj), tmp_path / "adj.csv")
        doc["labels"]["adjudicator"] = "adj.csv"
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(doc))
    return tmp_path / "run.yaml"


def test_unresolved_adjudication_blocks_only_metrics(tmp_path):
    cfg_path = small_workspace(tmp_path)
    result = run_pipeline(load_run_config(cfg_path))
    assert result.exit_code == 1
    assert result.report["metrics"]["status"] == "blocked"
    assert result.report["reference"]["status"] == "blocked"
    assert [c.key for c in result.worklist] == [("p2", "stage")]
    assert any("blocked" in issue for issue in result.report["issues"])


def test_adjudicated_run_computes_metrics(tmp_path):
    cfg_path = small_workspace(tmp_path, with_adjudicator=True)
    result = run_pipeline(load_run_config(cfg_path))
    emit_report(result, tmp_path / "out")
    assert result.exit_code == 0
    stage = result.report["metrics"]["variables"]["stage"]
    # llm got p2 wrong, so accuracy-style recall over classes is hit
    assert stage["llm"]["n_patients"] == 2
    assert (tmp_path / "out" / "report.json").exists()


def test_threshold_breach_drives_exit_code(tmp_path):
    # llm missed the only stage-III patient, so recall for III is 0
    cfg_path = small_workspace(tmp_path, with_adjudicator=True, positive_class="III")
    doc = yaml.safe_load(cfg_path.read_text())
    doc["thresholds"] = {"recall": 0.99}
    cfg_path.write_text(yaml.safe_dump(doc))
    result = run_pipeline(load_run_config(cfg_path))
    assert result.exit_code == 1
    assert result.report["metrics"]["threshold_breaches"]
    assert any("below threshold" in i for i in result.report["issues"])


def test_config_validation_errors(tmp_path):
    (tmp_path / "no_llm.yaml").write_text(
        yaml.safe_dump({"schema": "schema.yaml", "labels": {"abstractor_1": "a.csv"}})
    )
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "no_llm.yaml")
    (tmp_path / "bad_role.yaml").write_text(
        yaml.safe_dump({"schema": "s.yaml", "labels": {"llm": "l.csv", "oracle": "o.csv"}})
    )
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "bad_role.yaml")
    (tmp_path / "not_map.yaml").write_text("- just\n- a list\n")
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "not_map.yaml")

@pytest.mark.parametrize(
    "section, value, key",
    [("metrics", {"bootstrap": "no"}, "metrics.bootstrap"), ("pillars", {"metrics": "no"}, "pillars.metrics")],
)
def test_switches_must_be_yaml_booleans(tmp_path, section, value, key):
    # bool("no") is True: a quoted "no" used to switch the bootstrap on
    cfg_path = small_workspace(tmp_path)
    doc = yaml.safe_load(cfg_path.read_text())
    doc[section] = {**doc.get(section, {}), **value}
    cfg_path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_run_config(cfg_path)


def test_unknown_threshold_metric_rejected(tmp_path):
    cfg_path = small_workspace(tmp_path, with_adjudicator=True)
    doc = yaml.safe_load(cfg_path.read_text())
    doc["thresholds"] = {"recal": 0.999}
    cfg_path.write_text(yaml.safe_dump(doc))
    with pytest.raises(ConfigError, match="'recal'"):
        load_run_config(cfg_path)


def test_yaml_syntax_error_is_a_run_failure(tmp_path):
    cfg_path = small_workspace(tmp_path)
    cfg_path.write_text(cfg_path.read_text() + "thresholds: {recall: [0.9\n")
    result = CliRunner().invoke(main, ["--config", str(cfg_path), "run"])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "error: while parsing" in text(result)


def test_libyaml_and_python_parsers_read_equal_documents(tmp_path):
    """``load_yaml`` parses through libyaml when PyYAML has it; the run config,
    the schema and the packaged suite read the same either way."""
    made = CliRunner().invoke(main, ["--out", str(tmp_path), "--seed", "3", "simulate", "--n", "5"])
    assert made.exit_code == 0, text(made)
    assert yamlspec._LOADER is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)
    loaders = [yaml.SafeLoader, *([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])]
    for path in (tmp_path / "run.yaml", tmp_path / "schema.yaml", default_suite_path()):
        content = path.read_text()
        docs = [yaml.load(content, Loader=loader) for loader in loaders]
        assert all(doc == docs[0] for doc in docs), path
        assert yamlspec.load_yaml(path) == docs[0]
        assert docs[0]
    # a syntax error names the file and line through either parser
    bad = tmp_path / "bad.yaml"
    bad.write_text("thresholds: {recall: [0.9\n")
    for loader in loaders:
        with open(bad) as fh, pytest.raises(yaml.YAMLError, match=r'while parsing .*\n  in ".*bad.yaml", line 1'):
            yaml.load(fh, Loader=loader)


def test_thin_derived_variable_prints_why_it_has_no_metrics(tmp_path):
    """One patient gives the derived variable no defined recall, precision or
    f1; its summary line says so rather than ending empty."""
    runner = CliRunner()
    made = runner.invoke(main, ["--out", str(tmp_path), "--seed", "3", "simulate", "--n", "1"])
    assert made.exit_code == 0, text(made)
    result = runner.invoke(main, ["--config", str(tmp_path / "run.yaml"), "run"])
    assert result.exit_code == 1, text(result)
    line = "  derived tnbc: not applicable: no defined recall, precision or f1"
    assert line in result.stdout.splitlines()
    assert line in (tmp_path / "results" / "summary.txt").read_text().splitlines()


# a survival analysis over the small workspace's one date variable
_SURVIVAL = {
    "kind": "survival_benchmark",
    "index_variable": "surgery",
    "event_variable": "surgery",
    "censor_variable": "surgery",
}
_EQUITY = {**_SURVIVAL, "kind": "equity", "stratum_attribute": "arm"}
# a derived rule over the small workspace's date and event-list variables
_RULE = {
    "name": "r",
    "index_variable": "surgery",
    "components": [{"variable": "er_result", "required": "negative"}],
}
_BOGUS_REQUIRED = {"variable": "er_result", "required": "bogus"}
_DISTRIBUTION = {"kind": "distribution_vs_reference", "variable": "stage", "reference": {"I": 1.0}}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"strata": 5}, "strata: must be a list of strings"),
        ({"analyses": {"kind": "trend", "variable": "stage"}}, "analyses: must be a list of mappings"),
        (
            {
                "analyses": [
                    {"kind": "survival_benchmark", "event_variable": "surgery", "censor_variable": "surgery"}
                ]
            },
            "analyses[0].index_variable: required",
        ),
        ({"metricz": {"variables": []}}, "metricz: unknown key"),
        # the replication pillar is off, so only the loader can catch the kind
        ({"analyses": [{"kind": "trnd", "variable": "stage"}]}, "analyses[0].kind: must be one of"),
        (
            {"pillars": {"checks": False, "replication": False, "metricz": True}},
            "pillars.metricz: unknown key",
        ),
        ({"tolerances": {"min_stratum": 5}}, "tolerances.min_stratum: unknown key"),
        ({"labels": "llm.csv"}, "labels: must be a mapping"),
        ({"metrics": {"variables": [], "bootstrp": True}}, "metrics.bootstrp: unknown key"),
        ({"metrics": {"variables": ["stage"]}}, "metrics.variables[0]: must be a mapping"),
        (
            {"metrics": {"variables": [{"positive_class": "II"}]}},
            "metrics.variables[0].variable: required",
        ),
        ({"metrics": {"derived": ["tnbc"]}}, "metrics.derived[0]: must be a mapping"),
        (
            {"metrics": {"derived": [{"index_variable": "stage"}]}},
            "metrics.derived[0].name: required",
        ),
        *(
            (
                {"metrics": {"derived": [{"name": "r", "index_variable": "stage", "window_days": w}]}},
                "metrics.derived[0].window_days: must be a list of two integers",
            )
            for w in (60, [60], [-60, 60, 90], [-60.0, 60], [-60, "60"], "-60, 60", [False, 60])
        ),
        (
            {"analyses": [{**_SURVIVAL, "benchmark": {"type": "tolerance", "group": "A", "tolerance": 30}}]},
            "analyses[0].benchmark.expected_median: required",
        ),
        ({"thresholds": 5}, "thresholds: must be a mapping, got 5"),
        ({"tolerances": {"seed": [1]}}, "tolerances.seed: must be an integer, got [1]"),
        ({"analyses": [{**_SURVIVAL, "at_times": 365}]}, "analyses[0].at_times: must be a list of finite numbers"),
        ({"analyses": [{**_SURVIVAL, "benchmark": ["A", "B"]}]}, "analyses[0].benchmark: must be a mapping"),
        (
            {
                "metrics": {
                    "derived": [
                        {
                            "name": "r",
                            "index_variable": "surgery",
                            "components": [{"variable": "er_result", "required": "negative"}],
                            "window_days": [60, -60],
                        }
                    ]
                }
            },
            "metrics.derived[0].window_days: lo must be <= hi",
        ),
        ({"tolerances": {"min_stratum_n": True}}, "tolerances.min_stratum_n: must be an integer, got True"),
        (
            {"tolerances": {"date_tolerance_days": 30.7}},
            "tolerances.date_tolerance_days: must be an integer, got 30.7",
        ),
        ({"tolerances": {"seed": "abc"}}, "tolerances.seed: must be an integer, got 'abc'"),
        ({"analyses": [{**_SURVIVAL, "at_times": "x"}]}, "analyses[0].at_times: must be a list of finite numbers"),
        ({"analyses": [{**_SURVIVAL, "at_tims": [365]}]}, "analyses[0].at_tims: unknown key"),
        (
            {"analyses": [{"kind": "distribution_vs_reference", "variable": "stage", "reference": {"I": "x"}}]},
            "analyses[0].reference.I: must be a finite number, got 'x'",
        ),
        (
            {"analyses": [{"kind": "distribution_vs_reference", "variable": "stage", "reference": {}}]},
            "analyses[0].reference: needs non-negative masses summing above 0",
        ),
        ({"thresholds": {"recall": "high"}}, "thresholds.recall: must be a finite number, got 'high'"),
        ({"thresholds": {"recall": float("nan")}}, "thresholds.recall: must be a finite number, got nan"),
        (
            {"analyses": [{**_SURVIVAL, "at_times": [10**400]}]},
            "analyses[0].at_times[0]: must be a finite number",
        ),
        ({"analyses": [{"kind": "trend", "variable": "stage", "nam": "x"}]}, "analyses[0].nam: unknown key"),
        (
            {"analyses": [{**_SURVIVAL, "max_followup_days": 1.5}]},
            "analyses[0].max_followup_days: must be an integer, got 1.5",
        ),
        ({"analyses": [{**_SURVIVAL, "name": ["a", "b"]}]}, "analyses[0].name: must be a string"),
        (
            {"analyses": [{**_SURVIVAL, "group_by": "arm"}]},
            "analyses[0].group_by: 'arm' is not declared under strata",
        ),
        ({"analyses": [_EQUITY]}, "analyses[0].stratum_attribute: 'arm' is not declared under strata"),
        (
            {"metrics": {"variables": [{"variable": "surgeryx"}]}},
            "metrics.variables[0].variable: unknown variable 'surgeryx'",
        ),
        (
            {"metrics": {"variables": [{"variable": "stage", "positive_class": "IV"}]}},
            "metrics.variables[0].positive_class: stage has no known value 'IV'",
        ),
        (
            {"metrics": {"derived": [{**_RULE, "index_positive": "bogus"}]}},
            "metrics.derived[0].index_positive: surgery has no known value 'bogus'",
        ),
        (
            {"metrics": {"derived": [{**_RULE, "components": [_BOGUS_REQUIRED]}]}},
            "metrics.derived[0].components[0].required: er_result has no known value 'bogus'",
        ),
        (
            {"analyses": [{**_SURVIVAL, "event_positive": "bogus"}]},
            "analyses[0].event_positive: surgery has no known value 'bogus'",
        ),
        (
            {"tolerances": {"bootstrap_replicates": 0}},
            "tolerances.bootstrap_replicates: must be >= 1, got 0",
        ),
        ({"tolerances": {"seed": -1}}, "tolerances.seed: must be >= 0, got -1"),
        (
            {"tolerances": {"date_tolerance_days": -5}},
            "tolerances.date_tolerance_days: must be >= 0, got -5",
        ),
        ({"tolerances": {"min_stratum_n": -5}}, "tolerances.min_stratum_n: must be >= 0, got -5"),
        (
            {"analyses": [{**_SURVIVAL, "max_followup_days": -5}]},
            "analyses[0].max_followup_days: must be >= 0, got -5",
        ),
        (
            {"analyses": [{"kind": "trend", "variable": "stage"}]},
            "analyses[0].variable: stage is a categorical variable, which carries no date",
        ),
        (
            {"analyses": [{**_SURVIVAL, "censor_variable": "stage"}]},
            "analyses[0].censor_variable: stage is a categorical variable, which carries no date",
        ),
        (
            {"strata": ["arm"], "analyses": [{**_EQUITY, "index_variable": "tumor_size_mm"}]},
            "analyses[0].index_variable: tumor_size_mm is a numeric variable, which carries no date",
        ),
        (
            {"analyses": [{**_DISTRIBUTION, "variable": "er_result"}]},
            "analyses[0].variable: er_result is an event_list variable, which holds many values per patient",
        ),
        (
            {"labels": {"llm": "llm.csv", "abstractor_1": "a1.csv", "reference": "a1.csv"}},
            "labels.reference: not accepted; the reference standard comes from reference_mode",
        ),
    ],
    ids=[
        "strata_not_a_list",
        "analyses_a_mapping",
        "analysis_key_missing",
        "unknown_top_level_key",
        "unknown_analysis_kind",
        "unknown_pillar",
        "unknown_tolerance",
        "labels_not_a_mapping",
        "unknown_metrics_key",
        "metric_target_not_a_mapping",
        "metric_target_without_variable",
        "derived_rule_not_a_mapping",
        "derived_rule_without_name",
        "derived_window_an_integer",
        "derived_window_one_item",
        "derived_window_three_items",
        "derived_window_a_float",
        "derived_window_a_string_item",
        "derived_window_a_string",
        "derived_window_a_boolean_item",
        "tolerance_benchmark_without_expected_median",
        "thresholds_not_a_mapping",
        "tolerance_seed_a_list",
        "at_times_a_number",
        "benchmark_a_list",
        "derived_window_reversed",
        "min_stratum_n_a_boolean",
        "date_tolerance_days_a_float",
        "tolerance_seed_a_string",
        "at_times_a_string",
        "unknown_analysis_key",
        "distribution_reference_mass_a_string",
        "distribution_reference_empty",
        "threshold_not_a_number",
        "threshold_nan",
        "at_times_beyond_a_float",
        "unknown_trend_key",
        "max_followup_days_a_float",
        "analysis_name_a_list",
        "group_by_not_a_stratum",
        "stratum_attribute_not_a_stratum",
        "unknown_metric_variable",
        "positive_class_not_a_known_value",
        "index_positive_not_a_known_value",
        "component_required_not_a_known_value",
        "event_positive_not_a_known_value",
        "bootstrap_replicates_zero",
        "seed_negative",
        "date_tolerance_days_negative",
        "min_stratum_n_negative",
        "max_followup_days_negative",
        "trend_on_an_undated_variable",
        "survival_censor_on_an_undated_variable",
        "equity_index_on_an_undated_variable",
        "distribution_on_an_event_list",
        "labels_reference",
    ],
)
def test_malformed_run_yaml_exits_2_naming_the_yaml_path(tmp_path, change, message):
    cfg_path = small_workspace(tmp_path)
    doc = {**yaml.safe_load(cfg_path.read_text()), **change}
    cfg_path.write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["--config", str(cfg_path), "run"])
    assert result.exit_code == 2, text(result)
    assert isinstance(result.exception, SystemExit)
    assert f"error: {message}" in text(result)
    assert "Traceback" not in text(result)


@pytest.mark.parametrize(
    "change, messages",
    [
        (
            {
                "tolerances": {"seed": "abc"},
                "thresholds": {"recall": "high"},
                "analyses": [{**_SURVIVAL, "at_tims": [365]}],
            },
            [
                "tolerances.seed: must be an integer",
                "thresholds.recall: must be a finite number",
                "analyses[0].at_tims: unknown key",
            ],
        ),
        (
            {
                "metrics": {
                    "variables": [{"variable": "stagex"}],
                    "derived": [
                        {
                            "name": "r",
                            "index_variable": "surgeryx",
                            "components": [{"variable": "er_resultx", "required": "negative"}],
                        }
                    ],
                }
            },
            [
                "metrics.variables[0].variable: unknown variable 'stagex'",
                "metrics.derived[0].index_variable: unknown variable 'surgeryx'",
                "metrics.derived[0].components[0].variable: unknown variable 'er_resultx'",
            ],
        ),
        (
            {
                "metrics": {
                    "variables": [{"variable": "stage", "positive_class": "IV"}],
                    "derived": [{**_RULE, "components": [_BOGUS_REQUIRED]}],
                },
                "analyses": [{**_SURVIVAL, "event_positive": "bogus"}],
            },
            [
                "metrics.variables[0].positive_class: stage has no known value 'IV'",
                "metrics.derived[0].components[0].required: er_result has no known value 'bogus'",
                "analyses[0].event_positive: surgery has no known value 'bogus'",
            ],
        ),
        (
            # an event_list target is scored per event and takes none
            {
                "metrics": {
                    "variables": [
                        {"variable": "surgery"},
                        {"variable": "stage"},
                        {"variable": "er_result"},
                        {"variable": "tumor_size_mm"},
                    ]
                }
            },
            [
                "metrics.variables[0].positive_class: required for surgery, a date variable",
                "metrics.variables[1].positive_class: required for stage, a categorical variable",
                "metrics.variables[3].positive_class: required for tumor_size_mm, a numeric variable",
            ],
        ),
        (
            {
                "analyses": [
                    {"kind": "trend", "variable": "tumor_size_mm"},
                    {**_SURVIVAL, "event_variable": "stage", "event_positive": "I"},
                    {**_DISTRIBUTION, "variable": "er_result"},
                ]
            },
            [
                "analyses[0].variable: tumor_size_mm is a numeric variable, which carries no date",
                "analyses[1].event_variable: stage is a categorical variable, which carries no date",
                "analyses[2].variable: er_result is an event_list variable, which holds many values per patient",
            ],
        ),
    ],
    ids=["malformed_keys", "unknown_variables", "unknown_tokens", "missing_positive_class", "wrong_kinds"],
)
def test_every_config_problem_is_listed_before_any_label_file_is_read(tmp_path, change, messages):
    cfg_path = small_workspace(tmp_path)
    doc = {**yaml.safe_load(cfg_path.read_text()), **change}
    doc["labels"] = {"llm": "missing_llm.csv", "abstractor_1": "missing_a1.csv"}
    cfg_path.write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["--config", str(cfg_path), "run"])
    assert result.exit_code == 2, text(result)
    assert "error: 3 problems:" in text(result)
    for message in messages:
        assert f"\n  {message}" in text(result)
    assert "missing_" not in text(result)
    assert "Traceback" not in text(result)


_NEEDS_REFERENCE = "required when pillars.metrics or pillars.replication is on"


@pytest.mark.parametrize(
    "pillars, mode, messages",
    [
        (
            {"checks": False, "replication": False},
            "triple_adjudication",
            [
                f"labels.abstractor_1: {_NEEDS_REFERENCE}",
                f"labels.abstractor_2: {_NEEDS_REFERENCE} and reference_mode is triple_adjudication",
            ],
        ),
        ({"metrics": False, "checks": False}, "double_adjudication", [f"labels.abstractor_1: {_NEEDS_REFERENCE}"]),
    ],
    ids=["metrics", "replication"],
)
def test_a_missing_abstraction_the_pillars_need_is_listed_before_any_label_file_is_read(
    tmp_path, pillars, mode, messages
):
    cfg_path = small_workspace(tmp_path)
    doc = yaml.safe_load(cfg_path.read_text())
    doc.update(pillars=pillars, reference_mode=mode, thresholds={"recal": 0.9})
    doc["labels"] = {"llm": "missing_llm.csv"}
    cfg_path.write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["--config", str(cfg_path), "run"])
    assert result.exit_code == 2, text(result)
    assert f"error: {len(messages) + 1} problems:" in text(result)
    for message in [*messages, "thresholds: unknown metric(s) ['recal']"]:
        assert f"\n  {message}" in text(result)
    assert "missing_" not in text(result)
    assert "Traceback" not in text(result)


def test_a_checks_only_config_runs_over_the_extraction_alone(seed3_workspace, tmp_path):
    """The checks need no human abstraction: a config naming only the
    extraction runs them."""
    ws = seed3_workspace
    config = {
        "schema": str(ws / "schema.yaml"),
        "labels": {"llm": str(ws / "labels_llm.csv")},
        "pillars": {"metrics": False, "replication": False},
        "output_dir": "results",
    }
    (tmp_path / "checks.yaml").write_text(yaml.safe_dump(config))
    result = CliRunner().invoke(main, ["--config", str(tmp_path / "checks.yaml"), "--format", "json", "run"])
    assert result.exit_code in (0, 1), text(result)
    report = json.loads(result.output)
    assert report["checks"]["n_findings"] == len(report["findings"])
    assert not {"metrics", "reference", "replication"} & report.keys()
    assert sorted(p.name for p in (tmp_path / "results").iterdir()) == ["findings.csv", "report.json", "summary.txt"]


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"expr": "value(stagex) = 'IV'"}, "checks[0].expr: unknown variable 'stagex'"),
        ({"expr": "value(stage) = 'IV'"}, "checks[0].expr: stage: literal 'IV' is not an allowed value"),
        ({"expr": "value(stage) ="}, "checks[0].expr: expected an operand, found 'end' (at position 14)"),
        (
            {"cohort": {"kind": "monthly_count_stability", "variable": "surgeryx"}},
            "checks[0].cohort.variable: unknown variable 'surgeryx'",
        ),
        (
            {
                "cohort": {
                    "kind": "distribution_range",
                    "variable": "stage",
                    "expected": {"I": [0.1, 0.9]},
                    "filter": "known(surgeryx)",
                }
            },
            "checks[0].cohort.filter: unknown variable 'surgeryx'",
        ),
        (
            {"cohort": {"kind": "distribution_range", "variable": "er_result", "expected": {"positive": [0.1, 0.9]}}},
            "checks[0].cohort.variable: er_result is an event_list variable, which holds many values per patient",
        ),
        (
            {
                "cohort": {
                    "kind": "stratified_rate_range",
                    "variable": "er_result",
                    "positive_value": "positive",
                    "by": {"attribute": "race"},
                    "expected": {"groupA": [0.1, 0.9]},
                }
            },
            "checks[0].cohort.variable: er_result is an event_list variable, which holds many values per patient",
        ),
        (
            {
                "cohort": {
                    "kind": "stratified_rate_range",
                    "variable": "surgery",
                    "positive_value": "yes",
                    "by": {"variable": "er_result"},
                    "expected": {"positive": [0.1, 0.9]},
                }
            },
            "checks[0].cohort.by.variable: er_result is an event_list variable, which holds many values per patient",
        ),
    ],
    ids=[
        "expr_unknown_variable",
        "expr_literal_not_allowed",
        "expr_syntax",
        "cohort_unknown_variable",
        "filter_unknown_variable",
        "distribution_on_event_list",
        "rate_on_event_list",
        "rate_by_event_list",
    ],
)
def test_malformed_check_suite_exits_2_before_any_label_file_is_read(tmp_path, entry, message):
    cfg_path = small_workspace(tmp_path)
    (tmp_path / "suite.yaml").write_text(yaml.safe_dump({"checks": [{"id": "c1", **entry}]}))
    doc = yaml.safe_load(cfg_path.read_text())
    doc["pillars"]["checks"] = True
    doc["check_suite"] = "suite.yaml"
    doc["labels"] = {"llm": "missing_llm.csv", "abstractor_1": "missing_a1.csv"}
    cfg_path.write_text(yaml.safe_dump(doc))
    result = CliRunner().invoke(main, ["--config", str(cfg_path), "run"])
    assert result.exit_code == 2, text(result)
    assert f"error: {(tmp_path / 'suite.yaml').resolve()}: {message}" in text(result)
    assert "missing_" not in text(result)
    assert "Traceback" not in text(result)


_REGIMEN_RANGES = {
    "anthracycline_taxane": [0.30, 0.40],
    "taxane_platinum": [0.20, 0.30],
    "cdk46_inhibitor_ai": [0.20, 0.30],
}
_DROP = object()


@pytest.mark.parametrize(
    "target, changes, message",
    [
        ("suite", {("checks", 10, "cohort", "positive_value"): _DROP}, "checks[10].cohort.positive_value: required"),
        ("suite", {("checks", 0): "de_novo_stage_iv"}, "checks[0]: must be a mapping, got 'de_novo_stage_iv'"),
        (
            "suite",
            {("checks",): {"id": "de_novo_stage_iv"}},
            "checks: must be a list of mappings, got {'id': 'de_novo_stage_iv'}",
        ),
        ("suite", {("checks", 8, "cohort"): 5}, "checks[8].cohort: must be a mapping, got 5"),
        (
            "suite",
            {("checks", 0, "expr"): 5},
            "checks[0].expr: expected a comparison operator, found 'end' (at position 1)",
        ),
        ("suite", {("checks", 10, "cohort", "by"): "stage"}, "checks[10].cohort.by: must be a mapping, got 'stage'"),
        ("suite", {("checks", 9, "cohort", "expected"): [1, 2]}, "checks[9].cohort.expected: must be a mapping, got [1, 2]"),
        (
            "suite",
            {("checks", 0, "severty"): "error"},
            "checks[0].severty: unknown key; checks[0] takes id, category, level, severity, description, expr, cohort",
        ),
        (
            "suite",
            {("checks", 8, "cohort", "tolerence_days"): 30},
            "checks[8].cohort.tolerence_days: unknown key; checks[8].cohort takes variable, tolerance_days",
        ),
        (
            "suite",
            {("checks", 11, "cohort", "window_months"): 2.7},
            "checks[11].cohort.window_months: must be an integer, got 2.7",
        ),
        (
            "suite",
            {("checks", 10, "cohort", "positive_value"): "yess"},
            "checks[10].cohort.positive_value: surgery has no known value 'yess'; known: ['no', 'yes']",
        ),
        (
            "suite",
            {("checks", 9, "cohort", "expected"): {**_REGIMEN_RANGES, "capecitabin": [0.10, 0.20]}},
            "checks[9].cohort.expected.capecitabin: first_line_regimen has no known value 'capecitabin'; "
            "known: ['anthracycline_taxane', 'capecitabine', 'cdk46_inhibitor_ai', 'taxane_platinum']",
        ),
        ("suite", {("checks", 11, "cohort", "window_months"): 1}, "checks[11].cohort.window_months: must be >= 2, got 1"),
        ("suite", {("checks", 11, "cohort", "mad_k"): -1}, "checks[11].cohort.mad_k: must be > 0, got -1.0"),
        (
            "suite",
            {("checks", 8, "cohort", "tolerance_days"): -1},
            "checks[8].cohort.tolerance_days: must be >= 0, got -1",
        ),
        (
            "suite",
            {("checks", 11, "cohort", "variable"): "stage"},
            "checks[11].cohort.variable: stage is a categorical variable, which carries no date",
        ),
        (
            "suite",
            {
                ("checks", 10, "cohort", "expected", "III"): _DROP,
                ("checks", 10, "cohort", "expected", "IIII"): [0.72, 0.88],
            },
            "checks[10].cohort.expected.IIII: stage has no known value 'IIII'; "
            "known: ['I', 'II', 'III', 'IV', 'missing']",
        ),
        ("schema", {("variables",): 5}, "variables: must be a list of mappings, got 5"),
        ("schema", {("variables", 1): 1}, "variables[1]: must be a mapping, got 1"),
        (
            "schema",
            {("variables", 0, "date_tolerance_days"): "abc"},
            "variables[0].date_tolerance_days: must be an integer, got 'abc'",
        ),
        (
            "schema",
            {("variables", 0, "unknown_token"): _DROP, ("variables", 0, "unknown_tokn"): "unknown"},
            "variables[0].unknown_tokn: unknown key; "
            "variables[0] takes name, kind, allowed_values, unknown_token, date_tolerance_days",
        ),
        (
            "schema",
            {("variables", 0, "date_tolerance_days"): True},
            "variables[0].date_tolerance_days: must be an integer, got True",
        ),
        (
            "schema",
            {("variables", 0, "kind"): "numeric", ("variables", 0, "allowed_values"): _DROP},
            "variables[0].unknown_token: initial_dx is numeric and takes none",
        ),
        (
            "schema",
            {("variables", 0, "unknown_token"): ""},
            "variables[0].unknown_token: must be non-empty for initial_dx",
        ),
    ],
    ids=[
        "suite_positive_value_missing",
        "suite_check_a_string",
        "suite_checks_a_mapping",
        "suite_cohort_a_number",
        "suite_expr_a_number",
        "suite_by_a_string",
        "suite_expected_a_list",
        "suite_unknown_check_key",
        "suite_unknown_cohort_key",
        "suite_window_months_a_float",
        "suite_positive_value_typo",
        "suite_expected_token_typo",
        "suite_window_months_below_two",
        "suite_mad_k_negative",
        "suite_tolerance_days_negative",
        "suite_monthly_variable_without_dates",
        "suite_by_variable_stratum_typo",
        "schema_variables_a_number",
        "schema_variable_a_number",
        "schema_date_tolerance_days_a_string",
        "schema_unknown_variable_key",
        "schema_date_tolerance_days_a_boolean",
        "schema_numeric_unknown_token",
        "schema_empty_unknown_token",
    ],
)
def test_malformed_schema_or_suite_exits_2_naming_file_and_yaml_path(workspace, tmp_path, target, changes, message):
    source = workspace / "schema.yaml" if target == "schema" else default_suite_path()
    doc = yaml.safe_load(source.read_text())
    for path, value in changes.items():
        if value is _DROP:
            del _at(doc, path[:-1])[path[-1]]
        else:
            _at(doc, path[:-1])[path[-1]] = value
    malformed = tmp_path / f"{target}.yaml"
    malformed.write_text(yaml.safe_dump(doc, sort_keys=False))
    run = yaml.safe_load((workspace / "run.yaml").read_text())
    run["schema"] = str(workspace / "schema.yaml")
    run["schema" if target == "schema" else "check_suite"] = str(malformed)
    run["labels"] = {"llm": "missing_llm.csv", "abstractor_1": "missing_a1.csv", "abstractor_2": "missing_a2.csv"}
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump({**run, "output_dir": str(tmp_path)}, sort_keys=False))
    result = CliRunner().invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 2, text(result)
    assert isinstance(result.exception, SystemExit)
    assert f"error: {malformed}: {message}\n" in text(result)
    assert "missing_" not in text(result)
    assert "Traceback" not in text(result)


@pytest.mark.parametrize("command", [["run"], ["simulate", "--n", "5"]])
def test_negative_seed_on_the_command_line_exits_2(workspace, tmp_path, command):
    config = str(workspace / "run.yaml")
    args = ["--config", config, "--out", str(tmp_path), "--seed", "-1", *command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, text(result)
    assert "'--seed': -1 is not in the range x>=0" in text(result)
    assert "Traceback" not in text(result)


def test_shipped_run_configs_load(workspace):
    simulated = load_run_config(workspace / "run.yaml")
    assert [type(a) for a in simulated.analyses][:2] == [SurvivalBenchmarkSpec, DistributionSpec]
    assert simulated.analyses[0].benchmark.higher == "A"
    assert [tuple(c) for c in simulated.metrics.derived[0].components][0] == ("er_result", "negative")
    demo = (Path(__file__).parents[1] / "demos" / "06_full_validation_run.py").read_text()
    run_yaml = re.search(r'write_text\("""\\\n(.*?)"""\)', demo, re.S).group(1)
    (workspace / "run_demo.yaml").write_text(run_yaml)
    config = load_run_config(workspace / "run_demo.yaml")
    assert config.thresholds == {"recall": 0.80}
    assert config.tolerances.seed == 5


_YAML_SCALARS = st.none() | st.booleans() | st.integers() | st.text(max_size=6)
_YAML_VALUES = st.recursive(
    _YAML_SCALARS | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_YAML_SCALARS, inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """Every path into a YAML document: mapping keys and list indices."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*path, key))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutated(doc, data):
    """``doc`` after one to three drawn mutations: a key dropped, renamed or
    added, or any node swapped for a drawn YAML value."""
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        op = data.draw(st.sampled_from(["drop", "rename", "add", "swap"]), label="op")
        if op == "swap":
            path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
            value = data.draw(_YAML_VALUES, label="value")
            if path:
                _at(doc, path[:-1])[path[-1]] = value
            else:
                doc = value
            continue
        mappings = [p for p in _paths(doc) if isinstance(_at(doc, p), dict) and (op == "add" or _at(doc, p))]
        if not mappings:
            continue
        node = _at(doc, data.draw(st.sampled_from(mappings), label="mapping"))
        if op == "add":
            node[data.draw(_YAML_SCALARS, label="key")] = data.draw(_YAML_VALUES, label="value")
            continue
        key = data.draw(st.sampled_from(list(node)), label="key")
        value = node.pop(key)
        if op == "rename":
            node[data.draw(_YAML_SCALARS, label="new key")] = value
    return doc


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_loader_returns_a_config_or_raises_config_error(workspace, data):
    doc = _mutated(yaml.safe_load((workspace / "run.yaml").read_text()), data)
    cfg_path = workspace / "run_fuzzed.yaml"
    cfg_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    try:
        config = load_run_config(cfg_path)
    except ConfigError as exc:
        assert exc.problems and all(isinstance(p, str) for p in exc.problems)
    else:
        assert isinstance(config, RunConfig)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_schema_and_suite_loaders_raise_only_their_error_types(workspace, data):
    schema_doc = _mutated(yaml.safe_load((workspace / "schema.yaml").read_text()), data)
    schema_path = workspace / "schema_fuzzed.yaml"
    schema_path.write_text(yaml.safe_dump(schema_doc, sort_keys=False))
    try:
        load_schema(schema_path)
    except rwdval.SchemaError as exc:
        lines = str(exc).split("\n  ")
        assert all(line.startswith(f"{schema_path}: ") for line in lines[len(lines) > 1:])
    schema = load_schema(workspace / "schema.yaml")
    suite_doc = _mutated(yaml.safe_load(default_suite_path().read_text()), data)
    try:
        suite = checks_engine.suite_from_dict(suite_doc, schema)
    except ConfigError as exc:
        assert exc.problems and all(isinstance(p, str) for p in exc.problems)
    else:
        assert len(suite) >= 1


@pytest.fixture(scope="module")
def tiny_workspace(tmp_path_factory):
    ws = tmp_path_factory.mktemp("tiny")
    result = CliRunner().invoke(main, ["--out", str(ws), "--seed", "3", "simulate", "--n", "20"])
    assert result.exit_code == 0, text(result)
    return ws


@pytest.mark.parametrize("target", ["schema", "suite"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_a_fuzzed_schema_or_suite_runs_or_exits_2_without_a_traceback(tiny_workspace, target, data):
    source = tiny_workspace / "schema.yaml" if target == "schema" else default_suite_path()
    fuzzed = tiny_workspace / f"{target}_fuzzed.yaml"
    fuzzed.write_text(yaml.safe_dump(_mutated(yaml.safe_load(source.read_text()), data), sort_keys=False))
    run = yaml.safe_load((tiny_workspace / "run.yaml").read_text())
    run["schema" if target == "schema" else "check_suite"] = str(fuzzed)
    run["output_dir"] = str(tiny_workspace / "fuzzed_out")
    config = tiny_workspace / "run_fuzzed.yaml"
    config.write_text(yaml.safe_dump(run, sort_keys=False))
    result = CliRunner().invoke(main, ["--config", str(config), "run"])
    assert result.exit_code in (0, 1, 2), text(result)
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in text(result)


# one character past the csv module's default field size limit (131072)
_OVERSIZED = "x" * 131073
# byte sequences that are not UTF-8: a stray continuation byte, a cut
# two-byte sequence, an encoded surrogate
_NOT_UTF8 = [b"\xff", b"\xc3(", b"\xed\xa0\x80"]
# the problems a CSV file has as a whole, which no row number locates
_WHOLE_FILE = ("file is empty", "header must be", "first column must be", "undeclared attribute", "duplicate column")


def _mutated_csv(rows: list[list[str]], data) -> bytes:
    """The CSV file ``rows`` after one to three drawn mutations: a cell
    (header cells too) set to drawn text, to another cell's text or to an
    oversized cell, a header cell duplicated or dropped, a blank row
    inserted, or a row repeated elsewhere; then, maybe, bytes that are not
    UTF-8 inserted anywhere."""
    cells = st.one_of(st.text(max_size=8), st.sampled_from([c for row in rows for c in row]))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        op = data.draw(st.sampled_from(["cell", "oversized", "header", "blank", "repeat"]), label="op")
        if op in ("cell", "oversized"):
            row = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
            if row:
                at = data.draw(st.integers(0, len(row) - 1), label="column")
                row[at] = _OVERSIZED if op == "oversized" else data.draw(cells, label="text")
        elif op == "header" and rows[0]:
            header = rows[0]
            at = data.draw(st.integers(0, len(header) - 1), label="column")
            if data.draw(st.booleans(), label="drop"):
                del header[at]
            else:
                header.append(header[at])
        elif op == "blank":
            blank = data.draw(st.sampled_from([[], [""], ["", "", ""], ["  "]]), label="blank")
            rows.insert(data.draw(st.integers(1, len(rows)), label="at"), blank)
        elif op == "repeat":
            row = rows[data.draw(st.integers(1, len(rows) - 1), label="row")]
            rows.insert(data.draw(st.integers(1, len(rows)), label="at"), list(row))
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    raw = out.getvalue().encode()
    if data.draw(st.sampled_from([False, False, True]), label="bytes"):
        at = data.draw(st.integers(0, len(raw)), label="offset")
        raw = raw[:at] + data.draw(st.sampled_from(_NOT_UTF8), label="not utf-8") + raw[at:]
    return raw


@pytest.mark.parametrize("name", ["labels_llm.csv", "attributes.csv"])
@pytest.mark.parametrize(
    "bad, message",
    [(_OVERSIZED, "row 4: field larger than field limit (131072)"), ("\udcff", "line 4: not utf-8 text")],
    ids=["oversized_cell", "not_utf8"],
)
def test_an_unreadable_cell_exits_2_naming_the_file_and_row(tiny_workspace, tmp_path, name, bad, message):
    ws = tmp_path / "ws"
    ws.mkdir()
    for path in [*tiny_workspace.glob("labels_*.csv"), *(tiny_workspace / n for n in ("attributes.csv", "schema.yaml", "run.yaml"))]:
        shutil.copy(path, ws)
    with open(ws / name, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][1] = bad
    out = io.StringIO()
    csv.writer(out).writerows(rows)
    # a lone surrogate escapes to the byte it stands for, which is not UTF-8
    (ws / name).write_bytes(out.getvalue().encode("utf-8", "surrogateescape"))
    result = CliRunner().invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exit_code == 2, text(result)
    assert isinstance(result.exception, SystemExit)
    assert f"{(ws / name).resolve()}: 1 problem(s)\n  {message}" in text(result)
    assert "Traceback" not in text(result)


@pytest.mark.parametrize("name", ["labels_llm.csv", "attributes.csv"])
def test_a_utf8_byte_order_mark_before_the_header_is_not_header_text(tiny_workspace, tmp_path, name):
    """Excel's "CSV UTF-8" starts a file with U+FEFF: the run reads the file
    as it reads the same file without the mark."""
    ws = tmp_path / "ws"
    ws.mkdir()
    for path in [*tiny_workspace.glob("labels_*.csv"), *(tiny_workspace / n for n in ("attributes.csv", "schema.yaml", "run.yaml"))]:
        shutil.copy(path, ws)
    runner = CliRunner()

    def report() -> dict:
        args = ["--config", str(ws / "run.yaml"), "--out", str(tmp_path / "out"), "--format", "json", "run"]
        result = runner.invoke(main, args)
        assert result.exit_code in (0, 1), text(result)
        return {k: v for k, v in json.loads(result.output).items() if k != "config_hash"}

    plain = report()
    (ws / name).write_bytes("\ufeff".encode() + (ws / name).read_bytes())
    assert report() == plain
    if name.startswith("labels_"):
        args = ["ingest", "--schema", str(ws / "schema.yaml"), "--source", "llm", str(ws / name)]
        ingest = runner.invoke(main, args)
        assert ingest.exit_code == 0, text(ingest)


@pytest.mark.parametrize("name", ["labels_llm.csv", "labels_abstractor_1.csv"])
def test_a_label_patient_missing_from_attributes_exits_2_naming_the_file_and_row(tiny_workspace, tmp_path, name):
    ws = tmp_path / "ws"
    shutil.copytree(tiny_workspace, ws, ignore=shutil.ignore_patterns("fuzzed*", "run_*", "results*"))
    with open(ws / name, newline="") as fh:
        rows = list(csv.reader(fh))
    # the first and the last of P000003's rows, and P000005's first row
    renamed = [i for i, row in enumerate(rows) if row[0] == "P000003"]
    rows[renamed[0]][0] = rows[renamed[-1]][0] = "P999999"
    moved = next(i for i, row in enumerate(rows) if row[0] == "P000005")
    rows[moved][0] = " P777777 "
    with open(ws / name, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    result = CliRunner().invoke(main, ["--config", str(ws / "run.yaml"), "run"])
    assert result.exit_code == 2, text(result)
    first, second = sorted([renamed[0] + 1, moved + 1])
    pids = {renamed[0] + 1: "P999999", moved + 1: "P777777"}
    assert (
        f"error: {(ws / name).resolve()}: 2 problem(s)\n"
        f"  row {first}: patient {pids[first]!r} is not in attributes.csv\n"
        f"  row {second}: patient {pids[second]!r} is not in attributes.csv\n"
    ) in text(result)
    assert "Traceback" not in text(result)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_a_fuzzed_label_or_attribute_file_runs_or_exits_2_naming_the_row(tiny_workspace, data):
    name = data.draw(st.sampled_from(["labels_llm.csv", "labels_abstractor_1.csv", "attributes.csv"]), label="file")
    with open(tiny_workspace / name, newline="") as fh:
        rows = list(csv.reader(fh))
    fuzzed = tiny_workspace / f"fuzzed_{name}"
    fuzzed.write_bytes(_mutated_csv(rows, data))
    run = yaml.safe_load((tiny_workspace / "run.yaml").read_text())
    if name == "attributes.csv":
        run["attributes"] = str(fuzzed)
    else:
        run["labels"][name[len("labels_"):-len(".csv")]] = str(fuzzed)
    config = tiny_workspace / "run_fuzzed.yaml"
    config.write_text(yaml.safe_dump(run, sort_keys=False))
    reports = []
    for out_dir in ("fuzzed_a", "fuzzed_b"):
        shutil.rmtree(tiny_workspace / out_dir, ignore_errors=True)
        result = CliRunner().invoke(main, ["--config", str(config), "--out", str(tiny_workspace / out_dir), "run"])
        out = text(result)
        assert result.exit_code in (0, 1, 2), out
        assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
        assert "Traceback" not in out
        if result.exit_code != 2:
            reports.append((tiny_workspace / out_dir / "report.json").read_bytes())
        else:
            # the file, then each of its problems with its row (or, for bytes, line) number;
            # a labelled patient that a fuzzed attributes file lacks is named at its label row
            named = [fuzzed]
            if name == "attributes.csv":
                named += [(tiny_workspace / label_file).resolve() for label_file in run["labels"].values()]
            assert any(out.startswith(f"error: {path}: ") for path in named), out
            for problem in re.findall(r"^  (.*)$", out, re.MULTILINE):
                assert re.match(r"(row|line) \d+: |\.\.\. and \d+ more", problem) or problem.startswith(_WHOLE_FILE), out
    assert len(reports) in (0, 2) and len(set(reports)) <= 1


_RATE_SUITE = """checks:
  - id: surgery_rate_by_stage
    cohort:
      kind: stratified_rate_range
      variable: surgery
      positive_value: yes
      by: {variable: stage}
      expected: {I: [0.9, 1.0]}
"""

_DISTRIBUTION_SUITE = """checks:
  - id: metastatic_mix
    cohort:
      kind: distribution_range
      variable: metastatic_dx
      expected: {yes: [0.2, 0.5], no: [0.5, 0.8]}
"""


@pytest.mark.parametrize(
    "old, new, suite, message",
    [
        (
            "    name: os_by_arm\n",
            "    name: os_by_arm\n    event_positive: yes\n",
            None,
            "analyses[0].event_positive",
        ),
        ('positive_class: "yes"', "positive_class: yes", None, "metrics.variables[0].positive_class"),
        (
            "      index_variable: initial_dx\n",
            "      index_variable: initial_dx\n      index_positive: yes\n",
            None,
            "metrics.derived[0].index_positive",
        ),
        (
            "{variable: er_result, required: negative}",
            "{variable: er_result, required: no}",
            None,
            "metrics.derived[0].components[0].required",
        ),
        ("higher: A, lower: B", "higher: yes, lower: B", None, "analyses[0].benchmark.higher"),
        ("higher: A, lower: B", "higher: A, lower: no", None, "analyses[0].benchmark.lower"),
        (
            "type: direction, higher: A, lower: B",
            "type: tolerance, group: yes, expected_median: 400, tolerance: 50",
            None,
            "analyses[0].benchmark.group",
        ),
        ("      anthracycline_taxane: 0.35", "      yes: 0.35", None, "analyses[1].reference"),
        ("", "", _RATE_SUITE, "{suite}: checks[0].cohort.positive_value"),
        # both keys are booleans, and each is listed
        ("", "", _DISTRIBUTION_SUITE, "2 problems:\n  {suite}: checks[0].cohort.expected"),
    ],
    ids=[
        "event_positive",
        "positive_class",
        "index_positive",
        "component_required",
        "benchmark_higher",
        "benchmark_lower",
        "benchmark_group",
        "distribution_reference_key",
        "suite_positive_value",
        "suite_expected_token",
    ],
)
def test_yaml_boolean_where_a_token_belongs_exits_2_naming_the_key(
    workspace, tmp_path, old, new, suite, message
):
    # unquoted yes/no are YAML booleans, which str() would make "True"/"False"
    run_yaml = (workspace / "run.yaml").read_text()
    assert old in run_yaml
    run_yaml = run_yaml.replace(old, new, 1).replace("output_dir: results", f"output_dir: {tmp_path}")
    if suite is not None:
        (tmp_path / "suite.yaml").write_text(suite)
        run_yaml += f"check_suite: {tmp_path / 'suite.yaml'}\n"
    config = workspace / f"run_boolean_{tmp_path.name}.yaml"
    config.write_text(run_yaml)
    result = CliRunner().invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 2, text(result)
    assert isinstance(result.exception, SystemExit)
    assert f"error: {message.format(suite=tmp_path / 'suite.yaml')}: YAML reads " in text(result)
    assert "Traceback" not in text(result)


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            "  - 'yes'\n",
            "  - yes\n",
            "variables[0].allowed_values[1]: YAML reads True as a boolean; quote the token",
        ),
        (
            "  unknown_token: unknown\n",
            "  unknown_token: no\n",
            "variables[0].unknown_token: YAML reads False as a boolean; quote the token",
        ),
        (
            "  allowed_values:\n  - unknown\n  - 'yes'\n",
            "  allowed_values: yes\n",
            "variables[0].allowed_values: must be a list of strings, got True",
        ),
        (
            "  allowed_values:\n  - unknown\n  - 'yes'\n",
            "  allowed_values: unknown yes\n",
            "variables[0].allowed_values: must be a list of strings, got 'unknown yes'",
        ),
    ],
    ids=["allowed_values", "unknown_token", "allowed_values_a_boolean", "allowed_values_a_string"],
)
def test_malformed_schema_token_exits_2_naming_the_variable(
    workspace, tmp_path, old, new, message
):
    schema_yaml = (workspace / "schema.yaml").read_text()
    assert old in schema_yaml
    schema_path = tmp_path / "schema.yaml"
    schema_path.write_text(schema_yaml.replace(old, new))
    run_yaml = (workspace / "run.yaml").read_text()
    run_yaml = run_yaml.replace("schema: schema.yaml", f"schema: {schema_path}", 1)
    config = workspace / f"run_schema_boolean_{tmp_path.name}.yaml"
    config.write_text(run_yaml.replace("output_dir: results", f"output_dir: {tmp_path}"))
    result = CliRunner().invoke(main, ["--config", str(config), "run"])
    assert result.exit_code == 2, text(result)
    assert isinstance(result.exception, SystemExit)
    # each replaced line is one problem, and every problem is listed
    n = schema_yaml.count(old)
    head = f"{n} problems:\n  " if n > 1 else ""
    assert f"error: {head}{schema_path}: {message}" in text(result)
    assert "Traceback" not in text(result)


def test_discordant_survival_and_equity_benchmarks_are_issues():
    def verdict(concordant):
        return {"concordant": concordant, "reason": "as published" if concordant else "reversed"}

    report = {
        "config_hash": "0",
        "reference_mode": "duplicate_abstraction",
        "cohort": {"n_patients": 0},
        "replication": {
            "analyses": [
                {"kind": "survival_benchmark", "name": "os", "concordance": verdict(False)},
                {"kind": "equity", "name": "gap", "llm": {"concordance": verdict(False)}},
                {"kind": "equity", "name": "gap_ok", "llm": {"concordance": verdict(True)}},
                {"kind": "trend", "name": "dx_trend", "llm": {"months": []}},
            ]
        },
    }
    report["issues"] = _collect_issues(report)
    report["exit_code"] = 1
    assert report["issues"] == [
        "os: discordant with benchmark (reversed)",
        "gap: discordant with benchmark (reversed)",
    ]
    verdicts = [line for line in _summary_lines(report) if line.startswith("    benchmark:")]
    assert verdicts == [
        "    benchmark: DISCORDANT (reversed)",
        "    benchmark: DISCORDANT (reversed)",
        "    benchmark: concordant (as published)",
    ]
