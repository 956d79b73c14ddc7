"""Slow reference implementations that the library's fast paths are tested against.

* ``RecordLabelSet`` is the record-backed label set that ``LabelSet``'s row
  store replaced: every key holds ``LabelRecord``s, and ``relabel``
  restamps each one. ``write_records`` writes its records as a label file.
* ``bootstrap_ci`` is the generic patient bootstrap: it re-runs a statistic
  on every resampled patient list, with its own resample stream,
  percentiles and clamp. ``metrics.bootstrap_variable_ci`` re-sums patient
  rows instead and must give the same intervals with
  ``rescoring_oracle``, the statistic that re-scores the labels of each
  resample with ``variable_metrics``.
* ``simulate_validation_inputs`` builds a truth cohort plus corrupted
  extraction and abstraction label sets in one call.
* ``confusion`` is ``variable_metrics``'s confusion counts alone, and
  ``assertions_agree`` is ``refstd._agreement`` over two keys' records.
* ``survival_at`` is the linear scan of a Kaplan-Meier step function that
  ``KMCurve.survival_at``'s bisection must match float for float.
* ``evaluate`` interprets a check expression's AST over one patient's rows
  on every call; ``compile_check``, the library's one evaluator, must give
  the same truth for every well-typed expression and row view.
"""
from __future__ import annotations

import csv
from collections.abc import Callable, Iterable, Mapping, Sequence
from datetime import date
from pathlib import Path

import numpy as np

from rwdval import (
    CohortDataset,
    ConfusionCounts,
    ErrorModel,
    GeneratorConfig,
    KMCurve,
    LabelRecord,
    LabelSet,
    Schema,
    SchemaError,
    Source,
    VariableKind,
    corrupt,
    generate_truth,
    variable_metrics,
)
from rwdval.checks.lang import (
    _CMP_FUNCS,
    _NEGATION,
    And,
    Cmp,
    DateOf,
    DaysBetween,
    Duration,
    Exists,
    Expr,
    Implies,
    Known,
    Lit,
    Not,
    Operand,
    Or,
    Truth,
    Value,
    WithinDays,
)
from rwdval.labelio import LABEL_COLUMNS
from rwdval.metrics import METRIC_NAMES
from rwdval.refstd import _agreement
from rwdval.schema import RowView, _row, validate_record


def _record_sort_key(rec: LabelRecord):
    return (
        rec.patient_id,
        rec.variable,
        rec.event_date is None,
        rec.event_date or date.min,
        str(rec.value),
    )


class RecordLabelSet:
    """All label records from one source, held per patient and then per variable.

    Each key's records are kept sorted by ``_record_sort_key`` (ties in
    insertion order); equality compares the source and the sorted record
    lists.
    """

    def __init__(
        self,
        schema: Schema,
        source: Source,
        records: Iterable[LabelRecord] = (),
        refresh_id: str | None = None,
    ):
        self.schema = schema
        self.source = Source(source)
        self.refresh_id = refresh_id
        self._by_patient: dict[str, dict[str, tuple[LabelRecord, ...]]] = {}
        for rec in records:
            self.add(rec)

    def add(self, record: LabelRecord) -> None:
        spec = self.schema[record.variable]
        validate_record(record, spec)
        if record.source != self.source:
            raise SchemaError(
                f"record source {record.source.value!r} does not match "
                f"label set source {self.source.value!r}"
            )
        own = self._by_patient.setdefault(record.patient_id, {})
        bucket = own.get(record.variable)
        if bucket is None:
            own[record.variable] = (record,)
            return
        if spec.kind != VariableKind.EVENT_LIST:
            raise SchemaError(
                f"duplicate record for patient {record.patient_id!r}, "
                f"variable {record.variable!r} ({spec.kind.value} admits one)"
            )
        own[record.variable] = tuple(sorted(bucket + (record,), key=_record_sort_key))

    def remove(self, patient_id: str, variable: str) -> None:
        own = self._by_patient.get(patient_id)
        if own is not None:
            own.pop(variable, None)
            if not own:
                del self._by_patient[patient_id]

    def get(self, patient_id: str, variable: str) -> tuple[LabelRecord, ...]:
        return self._by_patient.get(patient_id, {}).get(variable, ())

    def get_single(self, patient_id: str, variable: str) -> LabelRecord | None:
        recs = self.get(patient_id, variable)
        return recs[0] if recs else None

    def keys(self) -> set[tuple[str, str]]:
        return {(pid, var) for pid, own in self._by_patient.items() for var in own}

    @property
    def patients(self) -> set[str]:
        return set(self._by_patient)

    @property
    def variables(self) -> set[str]:
        return {var for own in self._by_patient.values() for var in own}

    def records(self) -> list[LabelRecord]:
        out: list[LabelRecord] = []
        for pid in sorted(self._by_patient):
            own = self._by_patient[pid]
            for var in sorted(own):
                out.extend(own[var])
        return out

    def relabel(self, source: Source, refresh_id: str | None = None) -> "RecordLabelSet":
        """Copy with every record restamped with ``source`` (and ``refresh_id``, if given)."""
        out = RecordLabelSet(self.schema, source, refresh_id=refresh_id)
        out._by_patient = {
            pid: {
                var: tuple(
                    LabelRecord(
                        r.patient_id,
                        r.variable,
                        r.value,
                        r.event_date,
                        out.source,
                        r.refresh_id if refresh_id is None else refresh_id,
                    )
                    for r in recs
                )
                for var, recs in own.items()
            }
            for pid, own in self._by_patient.items()
        }
        return out

    def __len__(self) -> int:
        return sum(len(recs) for own in self._by_patient.values() for recs in own.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordLabelSet):
            return NotImplemented
        return self.source == other.source and self.records() == other.records()


def write_records(records: Iterable[LabelRecord], path: str | Path) -> None:
    """A label file holding ``records`` in the given order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for rec in records:
            writer.writerow(
                [
                    rec.patient_id,
                    rec.variable,
                    repr(rec.value) if isinstance(rec.value, float) else str(rec.value),
                    rec.event_date.isoformat() if rec.event_date else "",
                    rec.source.value,
                    rec.refresh_id or "",
                ]
            )


def bootstrap_ci(
    statistic: Callable[[Sequence[str]], Mapping[str, float | None] | float | None],
    patients: Sequence[str],
    *,
    n_replicates: int = 2000,
    seed: int = 0,
):
    """95 % percentile bootstrap over patient-level resamples.

    ``statistic`` receives a patient list (with repeats) and returns either
    a float or a mapping of named floats; undefined replicate values are
    dropped before taking percentiles. Resample indices come from one
    generator seeded with ``seed``, one replicate's row at a time (the same
    stream as drawing the whole ``(n_replicates, n)`` array at once), so
    results are reproducible. Intervals are clamped to bracket the point
    estimate.
    """
    patients = list(patients)
    n = len(patients)
    if n == 0:
        raise ValueError("bootstrap needs a non-empty cohort")
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    rng = np.random.default_rng(seed)
    point = statistic(patients)
    replicates = [
        statistic([patients[i] for i in rng.integers(0, n, size=n).tolist()])
        for _ in range(n_replicates)
    ]

    def interval(values: list, center):
        values = [float(v) for v in values if v is not None]
        if not values:
            return None
        lo, hi = np.quantile(values, [0.025, 0.975])
        if center is not None:
            lo, hi = min(lo, center), max(hi, center)
        return (float(lo), float(hi))

    if not isinstance(point, Mapping):
        return interval(replicates, point)
    intervals = {k: interval([rep.get(k) for rep in replicates], point[k]) for k in point}
    return {k: ci for k, ci in intervals.items() if ci is not None}


def rescoring_oracle(pred, reference, variable, positive_class, seen=None, **kwargs):
    """The bootstrap statistic that re-scores labels on every resample;
    ``seen``, when given, collects each ``MetricReport``."""

    def stat(sample):
        rep = variable_metrics(pred, reference, variable, positive_class, patients=sample, **kwargs)
        if seen is not None:
            seen.append(rep)
        return {name: rep.value(name) for name in METRIC_NAMES}

    return stat


def simulate_validation_inputs(
    config: GeneratorConfig,
    *,
    seed: int = 0,
    llm_model: ErrorModel,
    abstractor_model: ErrorModel | None = None,
) -> CohortDataset:
    """Truth plus corrupted extraction outputs in one dataset.

    The reference labels are the generated truth; the llm label set (and,
    when a second model is given, an abstractor set) are corruptions of it
    with independent seeds.
    """
    dataset = generate_truth(config, seed)
    dataset.label_sets[Source.LLM] = corrupt(dataset, llm_model, source=Source.LLM, seed=seed + 1)
    if abstractor_model is not None:
        dataset.label_sets[Source.ABSTRACTOR_1] = corrupt(
            dataset, abstractor_model, source=Source.ABSTRACTOR_1, seed=seed + 2
        )
    dataset.validate()
    return dataset


def confusion(
    pred: LabelSet,
    reference,
    variable: str,
    positive_class: str | None,
    *,
    tolerance_days: int = 30,
    patients: Iterable[str] | None = None,
) -> ConfusionCounts:
    """One-vs-rest confusion counts for one variable, as ``variable_metrics`` scores them."""
    return variable_metrics(
        pred, reference, variable, positive_class, tolerance_days=tolerance_days, patients=patients
    ).counts


def assertions_agree(
    schema: Schema,
    variable: str,
    recs_a: tuple[LabelRecord, ...],
    recs_b: tuple[LabelRecord, ...],
    tolerance_days: int,
) -> bool:
    """Whether two sources' records for one key agree, by ``refstd._agreement``.

    Both sides must be one key's records as a label set holds them
    (canonical order).
    """
    rows_a, rows_b = tuple(map(_row, recs_a)), tuple(map(_row, recs_b))
    return _agreement(schema[variable], tolerance_days)(rows_a, rows_b)


def survival_at(curve: KMCurve, t: float) -> float:
    """S(t) by scanning the curve's steps in order, S=1 before the first event."""
    s = 1.0
    for time, surv in zip(curve.times, curve.survival):
        if time <= t:
            s = surv
        else:
            break
    return s


def _kleene(truths: Iterable[Truth], decisive: Truth) -> Truth:
    """Kleene's strong conjunction (``decisive`` FALSE) or disjunction
    (``decisive`` TRUE) of lazily produced truths.

    Stops at the first decisive value; otherwise UNKNOWN if any value was,
    else the negation of ``decisive``.
    """
    out = _NEGATION[decisive]
    for truth in truths:
        if truth is decisive:
            return decisive
        if truth is Truth.UNKNOWN:
            out = Truth.UNKNOWN
    return out


def _known_entries(view: RowView, schema: Schema, var: str) -> list[tuple[str | float, object]]:
    """Documented, non-unknown (value, date) entries for one variable."""
    unknown = schema[var].unknown_token
    return [(v, d) for v, d, _ in view.get(var, ()) if v != unknown]


def _operand_values(op: Operand, view: RowView, schema: Schema) -> list:
    if isinstance(op, Value):
        return [v for v, _ in _known_entries(view, schema, op.var)]
    if isinstance(op, DateOf):
        return [d for _, d in _known_entries(view, schema, op.var) if d is not None]
    if isinstance(op, Lit):
        v = op.value
        return [v.days if isinstance(v, Duration) else v]
    if isinstance(op, DaysBetween):
        lefts = _operand_values(op.left, view, schema)
        rights = _operand_values(op.right, view, schema)
        return [(b - a).days for a in lefts for b in rights]
    raise TypeError(f"not an operand: {op!r}")


def _exists_truth(found: bool, left: list, right: list) -> Truth:
    if not left or not right:
        return Truth.UNKNOWN
    return Truth.TRUE if found else Truth.FALSE


def evaluate(expr: Expr, view: RowView, schema: Schema) -> Truth:
    """Three-valued truth of an expression over one patient's rows, as
    ``patient_view`` returns them (refresh ids are ignored).

    Comparison atoms hold when some pair of documented known values
    satisfies them; they are indeterminate when either side has no
    documented known value. ``exists``/``known`` are always determinate.
    Adding documentation can only move atoms from indeterminate to
    determinate, so a passing check never becomes not-applicable as charts
    accrue.
    """
    if isinstance(expr, Cmp):
        left = _operand_values(expr.left, view, schema)
        right = _operand_values(expr.right, view, schema)
        fn = _CMP_FUNCS[expr.op]
        found = any(fn(a, b) for a in left for b in right)
        return _exists_truth(found, left, right)
    if isinstance(expr, WithinDays):
        left = _operand_values(expr.left, view, schema)
        right = _operand_values(expr.right, view, schema)
        found = any(abs((b - a).days) <= expr.days.days for a in left for b in right)
        return _exists_truth(found, left, right)
    if isinstance(expr, Exists):
        return Truth.TRUE if expr.var in view else Truth.FALSE
    if isinstance(expr, Known):
        return (
            Truth.TRUE if _known_entries(view, schema, expr.var) else Truth.FALSE
        )
    if isinstance(expr, Not):
        return _NEGATION[evaluate(expr.item, view, schema)]
    if isinstance(expr, And):
        return _kleene((evaluate(i, view, schema) for i in expr.items), Truth.FALSE)
    if isinstance(expr, Or):
        return _kleene((evaluate(i, view, schema) for i in expr.items), Truth.TRUE)
    if isinstance(expr, Implies):
        # (not a) or b; a FALSE decides it without evaluating b
        antecedent = evaluate(expr.antecedent, view, schema)
        if antecedent is Truth.FALSE:
            return Truth.TRUE
        consequent = evaluate(expr.consequent, view, schema)
        return _kleene((_NEGATION[antecedent], consequent), Truth.TRUE)
    raise TypeError(f"not an expression: {expr!r}")
