"""Fixed-seed validation workspaces for the benchmark.

Each workload starts from the workspace ``rwdval simulate`` writes (run
in-process through the CLI) and then adjusts it with the public library:

* ``adjudicated`` simulates with ``--with-refresh``, switches the run to
  triple adjudication and writes an adjudicator file from
  ``adjudicate_from_oracle(find_disagreements(llm, a1, a2), truth)``.
  ``simulate`` writes the ground truth verbatim as abstractor 2, so that
  file serves as the oracle. The prior extraction snapshot that
  ``--with-refresh`` writes gets its records re-stamped with
  ``refresh_id=1``: ``simulate`` sets the id only on the label set, not on
  its records, so the file has an empty ``refresh_id`` column and ``rwdval
  run`` exits 2 ("both label sets need a refresh_id to compare
  refreshes").
* ``bootstrap_replicates`` turns on the metrics bootstrap with that many
  replicates.

The same seed always gives byte-identical files.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from rwdval import cli, labelio, refstd
from rwdval.schema import LabelSet, Source


@dataclass(frozen=True)
class Workload:
    name: str
    n_patients: int
    adjudicated: bool = False
    bootstrap_replicates: int | None = None


# Why each workload is in the benchmark is stated in BENCHMARK.json. The
# cohorts are small enough that a run samples several children and every
# workload's runs fit the benchmark's time budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("run_1500", n_patients=1500),
        Workload("adjudicated_1500", n_patients=1500, adjudicated=True),
        Workload("bootstrap_500", n_patients=500, bootstrap_replicates=500),
    )
}


@dataclass(frozen=True)
class WorkspaceInfo:
    path: Path
    n_cases: int | None
    digests: dict[str, str]


def _replace_once(text: str, old: str, new: str) -> str:
    if text.count(old) != 1:
        raise ValueError(f"expected exactly one {old!r} in run.yaml")
    return text.replace(old, new)


def file_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _stamp_prior_snapshot(ws: Path, schema) -> None:
    path = ws / "labels_llm_refresh1.csv"
    prior = labelio.read_labels(path, schema, Source.LLM)
    stamped = LabelSet(
        schema,
        Source.LLM,
        (replace(rec, refresh_id="1") for rec in prior.records()),
        refresh_id="1",
    )
    labelio.write_labels(stamped, path)


def _write_adjudications(ws: Path, schema, tolerance_days: int) -> int:
    def read(name: str, source: Source) -> LabelSet:
        return labelio.read_labels(ws / f"labels_{name}.csv", schema, source)

    llm = read("llm", Source.LLM)
    a1 = read("abstractor_1", Source.ABSTRACTOR_1)
    truth = read("abstractor_2", Source.ABSTRACTOR_2)
    cases = refstd.find_disagreements(llm, a1, truth, tolerance_days=tolerance_days)
    labelio.write_labels(
        refstd.adjudicate_from_oracle(cases, truth), ws / "labels_adjudicator.csv"
    )
    return len(cases)


def build_workspace(workload: Workload, seed: int, ws: Path) -> WorkspaceInfo:
    """Write the workload's workspace for ``seed`` into the empty directory ``ws``."""
    args = ["--out", str(ws), "--seed", str(seed), "simulate", "--n", str(workload.n_patients)]
    if workload.adjudicated:
        args.append("--with-refresh")
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(args, standalone_mode=False)
    run_yaml = ws / "run.yaml"
    text = run_yaml.read_text()
    n_cases = None
    if workload.adjudicated:
        schema = labelio.load_schema(ws / "schema.yaml")
        _stamp_prior_snapshot(ws, schema)
        tolerance = yaml.safe_load(text)["tolerances"]["date_tolerance_days"]
        n_cases = _write_adjudications(ws, schema, tolerance)
        text = _replace_once(
            text, "reference_mode: duplicate_abstraction", "reference_mode: triple_adjudication"
        )
        text = _replace_once(
            text,
            "  abstractor_2: labels_abstractor_2.csv\n",
            "  abstractor_2: labels_abstractor_2.csv\n  adjudicator: labels_adjudicator.csv\n",
        )
    if workload.bootstrap_replicates is not None:
        text = _replace_once(text, "metrics:\n", "metrics:\n  bootstrap: true\n")
        text = _replace_once(
            text,
            "tolerances:\n",
            f"tolerances:\n  bootstrap_replicates: {workload.bootstrap_replicates}\n",
        )
    run_yaml.write_text(text)
    return WorkspaceInfo(ws, n_cases, file_digests(ws))
