"""Correctness gate applied to every benchmarked ``rwdval run``.

A run fails the gate when its exit code is not the expected one, when a
traceback reaches stderr, when its ``report.json`` differs byte for byte
from the first run of the same set, or when a workload invariant breaks:

* ``cohort.n_patients`` equals the number of patients generated;
* with adjudication, ``disagreements.csv`` holds one distinct
  (patient, variable, pair) per disagreement case found at set-up;
* with bootstrap, every metric target carries intervals that bracket
  their point estimates.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Expectation:
    exit_code: int
    n_patients: int
    n_cases: int | None = None
    bootstrap: bool = False


def _worklist_cases(path: Path) -> int:
    with open(path, newline="") as fh:
        rows = csv.DictReader(fh)
        return len({(r["patient_id"], r["variable"], r["pair"]) for r in rows})


def _bootstrap_problems(report: dict) -> list[str]:
    variables = (report.get("metrics") or {}).get("variables") or {}
    if not variables:
        return ["no metric targets in the report"]
    problems = []
    for variable, entry in sorted(variables.items()):
        llm = entry["llm"]
        if not llm.get("ci"):
            problems.append(f"{variable}: no bootstrap interval")
        for metric, (lo, hi) in sorted((llm.get("ci") or {}).items()):
            point = llm.get(metric)
            if point is None or not lo <= point <= hi:
                problems.append(f"{variable}.{metric}: [{lo}, {hi}] does not bracket {point}")
    return problems


class Gate:
    """Checks the runs of one set; the first report is the reference."""

    def __init__(self, expectation: Expectation):
        self.expectation = expectation
        self.report_sha: str | None = None

    def check(self, exit_code: int, stderr: str, out_dir: Path) -> list[str]:
        """Every problem with one run; an empty list means it passed."""
        exp = self.expectation
        problems = []
        if exit_code != exp.exit_code:
            problems.append(f"exit code {exit_code}, expected {exp.exit_code}")
        if "Traceback (most recent call last)" in stderr:
            problems.append("traceback on stderr")
        report_path = out_dir / "report.json"
        if not report_path.is_file():
            return problems + ["no report.json"]
        raw = report_path.read_bytes()
        sha = hashlib.sha256(raw).hexdigest()
        if self.report_sha is None:
            self.report_sha = sha
        elif sha != self.report_sha:
            problems.append(f"report.json sha256 {sha} differs from {self.report_sha}")
        try:
            report = json.loads(raw)
        except ValueError as exc:
            return problems + [f"report.json is not JSON: {exc}"]
        n = (report.get("cohort") or {}).get("n_patients")
        if n != exp.n_patients:
            problems.append(f"cohort.n_patients {n}, expected {exp.n_patients}")
        if exp.n_cases is not None:
            worklist = out_dir / "disagreements.csv"
            found = _worklist_cases(worklist) if worklist.is_file() else 0
            if found != exp.n_cases:
                problems.append(f"disagreements.csv holds {found} cases, expected {exp.n_cases}")
        if exp.bootstrap:
            problems += _bootstrap_problems(report)
        return problems
