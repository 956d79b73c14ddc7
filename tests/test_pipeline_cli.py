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
    _collect_issues,
    _summary_lines,
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
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_run_never_imports_scipy(tmp_path):
    """The chi-square p-value comes from the pure-Python ``chdtrc`` port, and
    KM bands are not on the run path; importing scipy.special costs about
    0.3 s and scipy.stats about a second, so a run must load no scipy module."""
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
    assert lines[-1] == "scipy modules: []"
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


@pytest.mark.parametrize("command", ["run", "metrics", "checks", "replicate", "refstd", "report"])
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
    # a one-pillar subcommand still runs only its own pillar
    cfg = str(workspace / "run.yaml")
    result = runner.invoke(main, ["--config", cfg, "--out", str(tmp_path / "m"), "metrics"])
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
        ("", "", _RATE_SUITE, "surgery_rate_by_stage.positive_value"),
        ("", "", _DISTRIBUTION_SUITE, "metastatic_mix.expected"),
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
    assert f"error: {message}: YAML reads " in text(result)
    assert "Traceback" not in text(result)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("  - 'yes'\n", "  - yes\n", "allowed_values: YAML reads True as a boolean; quote the token"),
        (
            "  unknown_token: unknown\n",
            "  unknown_token: no\n",
            "unknown_token: YAML reads False as a boolean; quote the token",
        ),
        (
            "  allowed_values:\n  - unknown\n  - 'yes'\n",
            "  allowed_values: yes\n",
            "allowed_values: must be a list of tokens, got True",
        ),
        (
            "  allowed_values:\n  - unknown\n  - 'yes'\n",
            "  allowed_values: unknown yes\n",
            "allowed_values: must be a list of tokens, got 'unknown yes'",
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
    assert f"error: {schema_path}: initial_dx.{message}" in text(result)
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
