"""End-to-end pipeline runs and the command-line interface."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from conftest import make_schema, rec

import rwdval
from rwdval import Source, write_labels, save_schema
from rwdval.cli import main
from rwdval.pipeline import (
    ConfigError,
    config_hash,
    load_run_config,
    run_from_config_file,
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


def test_single_pillar_commands_scope_the_report(workspace):
    runner = CliRunner()
    base = ["--config", str(workspace / "run.yaml"), "--format", "json"]
    checks_only = json.loads(runner.invoke(main, base + ["checks"]).output)
    assert "checks" in checks_only and "metrics" not in checks_only
    metrics_only = json.loads(runner.invoke(main, base + ["metrics"]).output)
    assert "metrics" in metrics_only and "checks" not in metrics_only
    replicate_only = json.loads(runner.invoke(main, base + ["replicate"]).output)
    assert "replication" in replicate_only and "metrics" not in replicate_only


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
    assert "both label sets need a refresh_id" not in text(result)


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
    run_from_config_file(config, out_dir=tmp_path / "out")
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
print("scipy.stats loaded:", "scipy.stats" in sys.modules)
"""


def test_run_never_imports_scipy_stats(tmp_path):
    """The chi-square test and KM bands use scipy.special; scipy.stats alone
    costs about a second to import, so a run must not load it."""
    ws = tmp_path / "ws"
    result = CliRunner().invoke(main, ["--out", str(ws), "--seed", SEED, "simulate", "--n", "120"])
    assert result.exit_code == 0, text(result)
    src = str(Path(rwdval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST_MODULES, str(ws / "run.yaml")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2] in ("exit 0", "exit 1"), proc.stdout + proc.stderr
    assert lines[-1] == "scipy.stats loaded: False"
    report = json.loads((ws / "results" / "report.json").read_text())
    analyses = report["replication"]["analyses"]
    (dist,) = [a for a in analyses if a["kind"] == "distribution_vs_reference"]
    assert dist["comparison"]["chi2_applicable"]  # the chi-square path ran


def test_refstd_oracle_resolves_the_block(workspace, tmp_path):
    # oracle files are read with source=reference, so export one that way
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


def test_missing_config_is_a_run_failure():
    runner = CliRunner()
    result = runner.invoke(main, ["run"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["--config", "/nonexistent.yaml", "run"])
    assert result.exit_code == 2


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
    result = run_from_config_file(cfg_path, out_dir=tmp_path / "out")
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
