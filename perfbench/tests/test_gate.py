import json
import subprocess
import sys
from pathlib import Path

from gate import Expectation, Gate
from workspace import Workload, build_workspace

SRC = Path(__file__).resolve().parents[2] / "src"


def write_outputs(out: Path, n_patients: int = 5, cases=()) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps({"cohort": {"n_patients": n_patients}}))
    rows = ["patient_id,variable,value,event_date,source,refresh_id,pair"]
    rows += [f"{pid},{var},x,,llm,,{pair}" for pid, var, pair in cases]
    (out / "disagreements.csv").write_text("\n".join(rows) + "\n")


def test_gate_passes_a_good_run_and_rejects_a_tampered_report(tmp_path):
    gate = Gate(Expectation(exit_code=1, n_patients=5))
    write_outputs(tmp_path)
    assert gate.check(1, "", tmp_path) == []
    assert gate.check(1, "", tmp_path) == []
    report = tmp_path / "report.json"
    report.write_text(report.read_text().replace("5", "5 "))
    problems = gate.check(1, "", tmp_path)
    assert len(problems) == 1 and "differs" in problems[0]


def test_gate_rejects_exit_code_2_and_tracebacks(tmp_path):
    gate = Gate(Expectation(exit_code=1, n_patients=5))
    write_outputs(tmp_path)
    assert gate.check(2, "", tmp_path) == ["exit code 2, expected 1"]
    assert gate.check(1, "Traceback (most recent call last):\n", tmp_path) == ["traceback on stderr"]
    (tmp_path / "report.json").unlink()
    assert "no report.json" in gate.check(1, "", tmp_path)


def test_gate_checks_cohort_size_and_worklist_cases(tmp_path):
    cases = [("p1", "surgery", "llm_vs_a1"), ("p1", "surgery", "llm_vs_a2"), ("p2", "death", "a1_vs_a2")]
    write_outputs(tmp_path, n_patients=5, cases=cases + cases[:1])
    assert Gate(Expectation(1, 5, n_cases=3)).check(1, "", tmp_path) == []
    assert Gate(Expectation(1, 6, n_cases=4)).check(1, "", tmp_path) == [
        "cohort.n_patients 5, expected 6",
        "disagreements.csv holds 3 cases, expected 4",
    ]


def test_gate_accepts_a_real_bootstrap_run_and_rejects_an_unbracketed_interval(tmp_path):
    workload = Workload("small", n_patients=300, bootstrap_replicates=20)
    info = build_workspace(workload, 2, tmp_path / "ws")
    done = subprocess.run(
        [sys.executable, "-m", "rwdval.cli", "--config", str(info.path / "run.yaml"), "run"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=300,
    )
    out = info.path / "results"
    expectation = Expectation(exit_code=1, n_patients=300, bootstrap=True)
    assert Gate(expectation).check(done.returncode, done.stderr, out) == []
    report = json.loads((out / "report.json").read_text())
    llm = report["metrics"]["variables"]["surgery"]["llm"]
    llm["ci"]["recall"] = [llm["recall"] + 0.1, llm["recall"] + 0.2]
    (out / "report.json").write_text(json.dumps(report))
    problems = Gate(expectation).check(1, "", out)
    assert len(problems) == 1 and problems[0].startswith("surgery.recall:")
