"""Spans around rwdval's layer functions, recorded from outside the package.

``instrument`` replaces each function listed in ``RUN_LAYERS`` or
``SETUP_LAYERS`` with a wrapper, at the name through which its callers
reach it: ``rwdval.pipeline.read_labels`` for the pipeline's ingest,
``rwdval.refstd.find_disagreements`` for the call inside ``build_*``,
``rwdval.schema.LabelSet.get`` for every caller of the method, and so on.
Each call becomes one span (name, start, end, parent span, counts) kept in
memory until the run ends. Counts come from the call's arguments and
return value, after the span has closed, so computing them costs no span
time.

``self_times`` gives each span its duration minus the part covered by its
children; ``layer_metrics`` folds spans into the per-layer metrics.
"""
from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class SpanTable:
    """Spans as columns; span ``i`` is ``names[name[i]]`` from ``start[i]``
    to ``end[i]``, inside span ``parent[i]`` (-1 at top level)."""

    run_id: str
    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    counts: dict[int, dict] = field(default_factory=dict)

    def save(self, path: Path) -> None:
        meta = {"run_id": self.run_id, "names": self.names, "counts": list(self.counts.items())}
        with open(path, "wb") as fh:
            np.savez(fh, name=self.name, parent=self.parent, start=self.start, end=self.end,
                     meta=np.array(json.dumps(meta)))

    @classmethod
    def load(cls, path: Path) -> "SpanTable":
        with np.load(path) as doc:
            meta = json.loads(str(doc["meta"]))
            return cls(meta["run_id"], meta["names"], doc["name"], doc["parent"], doc["start"], doc["end"],
                       {int(i): c for i, c in meta["counts"]})


class Recorder:
    """Collects the spans of one thread's run in memory, in start order."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._names: dict[str, int] = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._counts: dict[int, dict] = {}
        self._stack: list[int] = [-1]

    def wrap(self, name: str, fn: Callable, counter: Callable | None = None) -> Callable:
        name_id = self._names.setdefault(name, len(self._names))
        signature = inspect.signature(fn) if counter else None
        stack, ends = self._stack, self._end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(ends)
            self._name.append(name_id)
            self._parent.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._counts[index] = counter(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def table(self) -> SpanTable:
        names = sorted(self._names, key=self._names.get)
        return SpanTable(
            self.run_id,
            names,
            np.array(self._name, dtype=np.int64),
            np.array(self._parent, dtype=np.int64),
            np.array(self._start, dtype=float),
            np.array(self._end, dtype=float),
            dict(self._counts),
        )


# ---- counts from arguments and return values ----


def _rows(args, result) -> dict:
    return {"rows": len(result)}


def _disagreements(args, result) -> dict:
    sets = [args["llm"], args["abstractor_1"]]
    pairs = [(0, 1)]
    if args["abstractor_2"] is not None:
        sets.append(args["abstractor_2"])
        pairs += [(0, 2), (1, 2)]
    keys = [s.keys() for s in sets]
    return {
        "keys_compared": sum(len(keys[a] | keys[b]) for a, b in pairs),
        "cases": len(result),
    }


def _findings(args, result) -> dict:
    return {"findings": result.n_findings}


def _subjects(args, result) -> dict:
    return {"subjects": result.n_included}


def _replicates(args, result) -> dict:
    return {"replicates": args["n_replicates"]}


def _bytes_written(args, result) -> dict:
    return {"bytes": sum(Path(p).stat().st_size for p in result.values())}


# (module, attribute path, span name, counter). The same function reached
# through two names gets the same span name.
RUN_LAYERS = [
    ("rwdval.pipeline", "load_schema", "labelio.load_schema", None),
    ("rwdval.pipeline", "read_labels", "labelio.read_labels", _rows),
    ("rwdval.pipeline", "read_attributes", "labelio.read_attributes", None),
    ("rwdval.schema", "LabelSet.get", "schema.labelset_get", None),
    ("rwdval.schema", "CohortDataset.validate", "schema.dataset_validate", None),
    ("rwdval.pipeline", "build_duplicate_abstraction", "refstd.assemble", None),
    ("rwdval.pipeline", "build_double_adjudication", "refstd.assemble", None),
    ("rwdval.pipeline", "build_triple_adjudication", "refstd.assemble", None),
    ("rwdval.pipeline", "find_disagreements", "refstd.find_disagreements", _disagreements),
    ("rwdval.refstd", "find_disagreements", "refstd.find_disagreements", _disagreements),
    ("rwdval.metrics", "variable_metrics", "metrics.variable_metrics", None),
    ("rwdval.metrics", "stratified_metrics", "metrics.stratified", None),
    ("rwdval.metrics", "end_to_end_metrics", "metrics.derived", None),
    ("rwdval.metrics", "bootstrap_variable_ci", "metrics.bootstrap", _replicates),
    ("rwdval.checks", "load_suite", "checks.load_suite", None),
    ("rwdval.checks", "run_all_checks", "checks.run_all", _findings),
    ("rwdval.checks.engine", "patient_view", "checks.patient_view", None),
    ("rwdval.checks.engine", "evaluate_patient_check", "checks.patient_eval", None),
    ("rwdval.checks.engine", "refresh_stability", "checks.refresh_stability", None),
    ("rwdval.pipeline", "survival_records", "replication.survival_records", _subjects),
    ("rwdval.pipeline", "equity_replication", "replication.equity", None),
    ("rwdval.pipeline", "trend_series", "replication.trend", None),
    ("rwdval.pipeline", "compare_trend", "replication.trend", None),
    ("rwdval.pipeline", "distribution_from_labels", "replication.distribution", None),
    ("rwdval.pipeline", "compare_distribution", "replication.distribution", None),
    ("rwdval.pipeline", "compare_curves", "replication.compare_curves", None),
    ("rwdval.replication", "km_from_records", "survival.km", None),
    ("rwdval.pipeline", "config_hash", "pipeline.config_hash", None),
    ("rwdval.cli", "emit_report", "pipeline.emit_report", _bytes_written),
]

SETUP_LAYERS = [
    ("rwdval.cli", "generate_truth", "synth.generate_truth", None),
    ("rwdval.cli", "corrupt", "synth.corrupt", None),
    ("rwdval.cli", "write_labels", "setup.write_labels", None),
    ("rwdval.labelio", "write_labels", "setup.write_labels", None),
]


def instrument(recorder: Recorder, layers) -> Callable[[], None]:
    """Wrap every listed function; returns a function that restores them."""
    undo = []
    for module_name, path, span_name, counter in layers:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        setattr(owner, attr, recorder.wrap(span_name, original, counter))
        undo.append((owner, attr, original))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---- analysis ----


def self_times(spans: SpanTable) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Spans come from one thread, so a span's children never overlap and the
    time they cover is the sum of their durations.
    """
    duration = spans.end - spans.start
    covered = np.zeros(len(duration))
    nested = spans.parent >= 0
    np.add.at(covered, spans.parent[nested], duration[nested])
    return duration - covered


# metric name -> (span name, what to sum): "self" time, "calls", a count
# key, or "total" time including children.
RUN_METRICS = {
    "labelio.read_labels_s": ("labelio.read_labels", "self"),
    "labelio.rows_read": ("labelio.read_labels", "rows"),
    "labelio.read_attributes_s": ("labelio.read_attributes", "self"),
    "labelio.load_schema_s": ("labelio.load_schema", "self"),
    "schema.labelset_get_calls": ("schema.labelset_get", "calls"),
    "schema.labelset_get_s": ("schema.labelset_get", "self"),
    "schema.dataset_validate_s": ("schema.dataset_validate", "self"),
    "refstd.assemble_s": ("refstd.assemble", "self"),
    "refstd.find_disagreements_calls": ("refstd.find_disagreements", "calls"),
    "refstd.find_disagreements_s": ("refstd.find_disagreements", "self"),
    "refstd.keys_compared": ("refstd.find_disagreements", "keys_compared"),
    "refstd.cases": ("refstd.find_disagreements", "cases"),
    "metrics.variable_metrics_calls": ("metrics.variable_metrics", "calls"),
    "metrics.variable_metrics_s": ("metrics.variable_metrics", "self"),
    "metrics.stratified_s": ("metrics.stratified", "self"),
    "metrics.derived_s": ("metrics.derived", "self"),
    "metrics.bootstrap_s": ("metrics.bootstrap", "self"),
    "metrics.bootstrap_total_s": ("metrics.bootstrap", "total"),
    "metrics.bootstrap_replicates": ("metrics.bootstrap", "replicates"),
    "checks.load_suite_s": ("checks.load_suite", "self"),
    "checks.run_all_s": ("checks.run_all", "self"),
    "checks.patient_view_s": ("checks.patient_view", "self"),
    "checks.patient_eval_s": ("checks.patient_eval", "self"),
    "checks.patient_eval_calls": ("checks.patient_eval", "calls"),
    "checks.refresh_stability_s": ("checks.refresh_stability", "self"),
    "checks.findings": ("checks.run_all", "findings"),
    "replication.survival_records_s": ("replication.survival_records", "self"),
    "replication.subjects": ("replication.survival_records", "subjects"),
    "replication.equity_s": ("replication.equity", "self"),
    "replication.trend_s": ("replication.trend", "self"),
    "replication.distribution_s": ("replication.distribution", "self"),
    "replication.compare_curves_s": ("replication.compare_curves", "self"),
    "survival.km_s": ("survival.km", "self"),
    "survival.km_calls": ("survival.km", "calls"),
    "pipeline.config_hash_s": ("pipeline.config_hash", "self"),
    "pipeline.emit_report_s": ("pipeline.emit_report", "self"),
    "pipeline.bytes_written": ("pipeline.emit_report", "bytes"),
}

SETUP_METRICS = {
    "synth.generate_truth_s": ("synth.generate_truth", "self"),
    "synth.corrupt_s": ("synth.corrupt", "self"),
    "setup.write_labels_s": ("setup.write_labels", "self"),
}


def layer_metrics(spans: SpanTable, table: dict) -> dict[str, float]:
    """Fold spans into the metrics of ``table``; absent spans give 0."""
    n = len(spans.names)
    sums = {
        "self": np.bincount(spans.name, weights=self_times(spans), minlength=n),
        "total": np.bincount(spans.name, weights=spans.end - spans.start, minlength=n),
        "calls": np.bincount(spans.name, minlength=n),
    }
    counted: dict[tuple[str, str], int] = {}
    for index, counts in spans.counts.items():
        for key, value in counts.items():
            span_key = (spans.names[spans.name[index]], key)
            counted[span_key] = counted.get(span_key, 0) + value
    out = {}
    for metric, (name, what) in table.items():
        if what in sums:
            out[metric] = sums[what][spans.names.index(name)].item() if name in spans.names else 0
        else:
            out[metric] = counted.get((name, what), 0)
    return out


def unattributed(spans: SpanTable, wall: float) -> float:
    """Wall time not covered by any top-level span."""
    top = spans.parent < 0
    return wall - float(np.sum(spans.end[top] - spans.start[top]))


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}
