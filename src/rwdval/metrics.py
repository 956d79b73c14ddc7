"""Variable-level performance of extracted labels against a reference.

Conventions that shape every count here:

* A prediction that is missing or documented-unknown is a non-assertion:
  it can produce a false negative when the reference asserts the positive
  class, but never a false positive.
* Patients whose reference value is unknown or missing are excluded from
  confusion counts entirely (there is nothing to score against).
* A zero denominator leaves a metric undefined (None), never zero.

Date accuracy is conditioned on value-matched true positives where both
sides carry a date. Every ratio is also kept as an integer
numerator/denominator pair so relative differences between two reports can
be computed in exact rational arithmetic (a difference that is a whole
number of percentage points serializes as exactly that number).
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from datetime import date
from fractions import Fraction

import numpy as np

from .schema import (
    CohortDataset,
    LabelRecord,
    LabelSet,
    VariableKind,
    VariableSpec,
    effective_tolerance,
)

EVENT_PRESENCE = None  # positive_class sentinel for event_list variables

DERIVED_POSITIVE = "positive"
DERIVED_NEGATIVE = "negative"
DERIVED_UNKNOWN = "unknown"

METRIC_NAMES = ("recall", "precision", "f1", "date_accuracy", "completeness")


@dataclass(frozen=True)
class MatchResult:
    """One-to-one event matching outcome; pairs are (pred_date, ref_date)."""

    pairs: tuple[tuple[date, date], ...]
    unmatched_pred: tuple[date, ...]
    unmatched_ref: tuple[date, ...]

    @property
    def n_matched(self) -> int:
        return len(self.pairs)


def match_events(
    pred_events: Sequence[date],
    ref_events: Sequence[date],
    tolerance_days: int,
) -> MatchResult:
    """Match predicted to reference event dates within a day tolerance.

    Each event is used at most once, and the matching is exact at every
    input size: maximum cardinality, then minimum total absolute day
    distance, then lexicographically earliest (reference, predicted) pairs.

    The optimum never crosses. Take reference dates a <= b and predicted
    dates c < d. If (a, d) and (b, c) are both within tolerance, so are
    (a, c) and (b, d); uncrossing never adds distance and makes the pair
    list lexicographically earlier. So one table over the sorted dates
    finds it: cell (i, j) is the best matching of ``ref[i:]`` against
    ``pred[j:]``, which skips ``ref[i]``, skips ``pred[j]``, or pairs them.
    The table is filled one reference date per row, keeping two rows.
    """
    if tolerance_days < 0:
        raise ValueError("tolerance_days must be >= 0")
    pred = sorted(pred_events)
    ref = sorted(ref_events)
    # a cell is (-cardinality, total days, (reference, predicted) pairs)
    below = [(0, 0, ())] * (len(pred) + 1)
    for r in reversed(ref):
        row = [(0, 0, ())] * (len(pred) + 1)
        for j in range(len(pred) - 1, -1, -1):
            best = min(below[j], row[j + 1])
            delta = abs((pred[j] - r).days)
            if delta <= tolerance_days:
                neg_card, days, pairs = below[j + 1]
                best = min(best, (neg_card - 1, days + delta, ((r, pred[j]),) + pairs))
            row[j] = best
        below = row
    pairs = below[0][2]
    used_pred = list(pred)
    used_ref = list(ref)
    for r, p in pairs:
        used_pred.remove(p)
        used_ref.remove(r)
    return MatchResult(
        pairs=tuple((p, r) for r, p in pairs),
        unmatched_pred=tuple(used_pred),
        unmatched_ref=tuple(used_ref),
    )


@dataclass
class ConfusionCounts:
    """Patient-level (or event-level) confusion for one variable and class."""

    variable: str
    positive_class: str | None
    tp: int = 0
    fp: int = 0
    fn: int = 0
    n_matched_with_date: int = 0
    n_date_correct: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")
        if not (0 <= self.n_date_correct <= self.n_matched_with_date <= self.tp):
            raise ValueError(
                "need 0 <= n_date_correct <= n_matched_with_date <= tp, got "
                f"{self.n_date_correct}/{self.n_matched_with_date}/{self.tp}"
            )

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "n_matched_with_date": self.n_matched_with_date,
            "n_date_correct": self.n_date_correct,
        }


def _reference_labels(reference) -> LabelSet:
    labels = getattr(reference, "labels", reference)
    if not isinstance(labels, LabelSet):
        raise TypeError("reference must be a LabelSet or carry a .labels LabelSet")
    return labels


def _cohort(pred: LabelSet, reference, patients: Iterable[str] | None) -> list[str]:
    if patients is not None:
        return list(patients)
    universe = getattr(reference, "patients", None)
    if universe is None:
        universe = _reference_labels(reference).patients | pred.patients
    return sorted(universe)


def _known(records: Sequence[LabelRecord], spec: VariableSpec) -> bool:
    """A documented known value; documented-unknown and missing are not."""
    return any(r.is_known(spec) for r in records)


def _one_vs_rest(ref_pos: bool | None, pred_pos: bool) -> tuple[int, int, int]:
    """(tp, fp, fn) of one patient; a reference of None (unknown) is excluded."""
    if ref_pos is None:
        return 0, 0, 0
    return int(ref_pos and pred_pos), int(pred_pos and not ref_pos), int(ref_pos and not pred_pos)


def _asserted_events(
    records: Sequence[LabelRecord], spec: VariableSpec, positive_class: str | None
) -> tuple[list[date], int]:
    """(dated events, number undated) among one side's known assertions."""
    hits = [
        r.event_date
        for r in records
        if r.is_known(spec) and (positive_class is None or r.value == positive_class)
    ]
    dated = [d for d in hits if d is not None]
    return dated, len(hits) - len(dated)


def _as_rows(rows: list[tuple[int, ...]]) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, 6)


def _patient_rows(
    pred: LabelSet,
    reference,
    variable: str,
    positive_class: str | None,
    *,
    tolerance_days: int,
    patients: Iterable[str] | None,
) -> np.ndarray:
    """Per-patient contribution rows for one variable, in cohort order.

    A row is ``(tp, fp, fn, n_matched_with_date, n_date_correct, known)``;
    every count over a cohort, a stratum or a bootstrap resample is a sum
    of these rows.
    """
    ref_labels = _reference_labels(reference)
    spec = pred.schema[variable]
    tol = effective_tolerance(spec, tolerance_days)
    if spec.kind != VariableKind.EVENT_LIST and positive_class is None:
        raise ValueError(f"{variable}: positive_class required for {spec.kind.value}")
    allowed = spec.allowed_values
    if positive_class is not None and allowed is not None and positive_class not in allowed:
        raise ValueError(f"{variable}: positive_class {positive_class!r} not in allowed values")
    rows = []
    for pid in _cohort(pred, reference, patients):
        pred_recs = pred.get(pid, variable)
        ref_recs = ref_labels.get(pid, variable)
        known = _known(pred_recs, spec)
        if spec.kind == VariableKind.EVENT_LIST:
            pred_events, pred_undated = _asserted_events(pred_recs, spec, positive_class)
            ref_events, ref_undated = _asserted_events(ref_recs, spec, positive_class)
            m = match_events(pred_events, ref_events, tol)
            fp = len(m.unmatched_pred) + pred_undated
            fn = len(m.unmatched_ref) + ref_undated
            # every matched pair is dated and within tolerance by construction
            rows.append((m.n_matched, fp, fn, m.n_matched, m.n_matched, known))
            continue
        pred_rec = pred_recs[0] if known else None
        ref_rec = ref_recs[0] if _known(ref_recs, spec) else None
        ref_pos = None if ref_rec is None else ref_rec.value == positive_class
        tp, fp, fn = _one_vs_rest(ref_pos, known and pred_rec.value == positive_class)
        dates = (pred_rec.event_date, ref_rec.event_date) if tp else (None, None)
        dated = spec.kind == VariableKind.DATE and None not in dates
        correct = dated and abs((dates[0] - dates[1]).days) <= tol
        rows.append((tp, fp, fn, dated, correct, known))
    return _as_rows(rows)


def _rows_report(variable: str, positive_class: str | None, rows: np.ndarray) -> MetricReport:
    """Point metrics of the cohort the rows describe, one row per patient."""
    tp, fp, fn, with_date, date_ok, known = (int(v) for v in rows.sum(axis=0))
    counts = ConfusionCounts(variable, positive_class, tp, fp, fn, with_date, date_ok)
    n = len(rows)
    return compute_metrics(counts, completeness=(known, n) if n else None, n_patients=n)


def confusion(
    pred: LabelSet,
    reference,
    variable: str,
    positive_class: str | None,
    *,
    tolerance_days: int = 30,
    patients: Iterable[str] | None = None,
) -> ConfusionCounts:
    """One-vs-rest confusion counts for one variable.

    ``reference`` may be a LabelSet or an assembled reference standard.
    ``patients`` fixes the evaluation cohort (duplicates allowed, so
    bootstrap resamples weight patients by multiplicity); by default it is
    the union of patients seen by either side.

    For event_list variables the counts are per event: matched events are
    true positives, unmatched predicted events false positives, unmatched
    reference events false negatives. ``positive_class`` of None counts
    every documented known event (event presence); a token restricts both
    sides to events with that value. Undated known events cannot be matched
    and therefore count as unmatched assertions.
    """
    rows = _patient_rows(
        pred, reference, variable, positive_class, tolerance_days=tolerance_days, patients=patients
    )
    return _rows_report(variable, positive_class, rows).counts


@dataclass
class RelativePerformance:
    """Extraction-minus-abstraction gap for one metric, in percentage points."""

    metric: str
    llm_value: float
    abstraction_value: float
    delta_pp: float

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "llm": self.llm_value,
            "abstraction": self.abstraction_value,
            "delta_pp": self.delta_pp,
        }


@dataclass
class MetricReport:
    """Point metrics for one variable, with optional bootstrap intervals.

    Undefined metrics are None and serialize as null. ``ratios`` keeps the
    exact integer fractions behind each defined metric.
    """

    variable: str
    recall: float | None = None
    precision: float | None = None
    f1: float | None = None
    date_accuracy: float | None = None
    completeness: float | None = None
    ci: dict[str, tuple[float, float]] | None = None
    n_patients: int = 0
    ratios: dict[str, tuple[int, int]] = field(default_factory=dict, repr=False)
    counts: ConfusionCounts | None = field(default=None, repr=False)

    def value(self, metric: str) -> float | None:
        if metric not in METRIC_NAMES:
            raise ValueError(f"unknown metric {metric!r}")
        return getattr(self, metric)

    def to_dict(self) -> dict:
        out = {name: self.value(name) for name in METRIC_NAMES}
        out["n_patients"] = self.n_patients
        if self.counts is not None:
            out["counts"] = self.counts.to_dict()
        if self.ci is not None:
            out["ci"] = {k: list(v) for k, v in sorted(self.ci.items())}
        return out


def _ratio(num: int, den: int) -> tuple[float, tuple[int, int]] | tuple[None, None]:
    if den <= 0:
        return None, None
    return num / den, (num, den)


def compute_metrics(
    counts: ConfusionCounts,
    *,
    completeness: tuple[int, int] | None = None,
    n_patients: int = 0,
    ci: dict[str, tuple[float, float]] | None = None,
) -> MetricReport:
    """Derive recall/precision/F1/date-accuracy from confusion counts.

    recall = tp/(tp+fn), precision = tp/(tp+fp), f1 their harmonic mean
    (equivalently 2tp/(2tp+fp+fn)), date_accuracy = dates correct among
    value-matched pairs that both carry a date. Zero denominators leave the
    metric undefined rather than zero.
    """
    report = MetricReport(
        variable=counts.variable, n_patients=n_patients, ci=ci, counts=counts
    )
    report.recall, r = _ratio(counts.tp, counts.tp + counts.fn)
    if r:
        report.ratios["recall"] = r
    report.precision, r = _ratio(counts.tp, counts.tp + counts.fp)
    if r:
        report.ratios["precision"] = r
    if report.recall is not None and report.precision is not None:
        report.f1, r = _ratio(2 * counts.tp, 2 * counts.tp + counts.fp + counts.fn)
        if r:
            report.ratios["f1"] = r
    report.date_accuracy, r = _ratio(counts.n_date_correct, counts.n_matched_with_date)
    if r:
        report.ratios["date_accuracy"] = r
    if completeness is not None:
        report.completeness, r = _ratio(*completeness)
        if r:
            report.ratios["completeness"] = r
    return report


def completeness(
    labels: LabelSet, variable: str, cohort: Iterable[str]
) -> tuple[int, int]:
    """(numerator, denominator) of patients with a documented known value.

    Documented-unknown and missing both count as not known. Raises on an
    empty cohort (zero denominator).
    """
    spec = labels.schema[variable]
    cohort = list(cohort)
    if not cohort:
        raise ValueError(f"{variable}: empty cohort for completeness")
    return sum(_known(labels.get(pid, variable), spec) for pid in cohort), len(cohort)


def relative_difference(
    llm: MetricReport, abstraction: MetricReport
) -> list[RelativePerformance]:
    """Per-metric (llm - abstraction) deltas in signed percentage points.

    Only metrics defined on both sides appear. When both reports carry the
    exact integer ratios the delta is computed rationally, so integral
    percentage-point gaps come out exact. The two reports must describe the
    same cohort.
    """
    if llm.n_patients != abstraction.n_patients:
        raise ValueError(
            f"mismatched cohorts: {llm.n_patients} vs {abstraction.n_patients} patients"
        )
    out = []
    for name in METRIC_NAMES:
        a, b = llm.value(name), abstraction.value(name)
        if a is None or b is None:
            continue
        ra, rb = llm.ratios.get(name), abstraction.ratios.get(name)
        if ra and rb:
            delta = float(100 * (Fraction(*ra) - Fraction(*rb)))
        else:
            delta = 100.0 * (a - b)
        out.append(
            RelativePerformance(metric=name, llm_value=a, abstraction_value=b, delta_pp=delta)
        )
    return out


def _resamples(n: int, n_replicates: int, seed: int) -> Iterator[np.ndarray]:
    """Resample index arrays, one replicate at a time; bad arguments raise now.

    Rows come from one generator seeded with ``seed``: the same stream as
    drawing the whole ``(n_replicates, n)`` array at once, without holding it.
    """
    if n == 0:
        raise ValueError("bootstrap needs a non-empty cohort")
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    rng = np.random.default_rng(seed)
    return (rng.integers(0, n, size=n) for _ in range(n_replicates))


_CI_PERCENTILES = (2.5, 97.5)


def _percentile_intervals(point, replicates: Iterable):
    """95 % percentile intervals of replicate statistics, clamped to bracket ``point``.

    ``point`` and each replicate are a float or a mapping of named floats
    (None when undefined); undefined replicate values are dropped, and a
    name without any defined replicate gets no interval.
    """

    def interval(values: list[float], center: float | None):
        if not values:
            return None
        lo, hi = np.percentile(values, _CI_PERCENTILES)
        if center is not None:
            lo, hi = min(lo, center), max(hi, center)
        return (float(lo), float(hi))

    if isinstance(point, Mapping):
        reps: dict[str, list[float]] = {k: [] for k in point}
        for rep in replicates:
            for k in reps:
                v = rep.get(k) if isinstance(rep, Mapping) else None
                if v is not None:
                    reps[k].append(float(v))
        intervals = {k: interval(reps[k], point.get(k)) for k in point}
        return {k: ci for k, ci in intervals.items() if ci is not None}
    values = [float(v) for v in replicates if v is not None]
    return interval(values, None if point is None else float(point))


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
    stream as drawing the whole ``(n_replicates, n)`` array at once, without
    holding it), so results are reproducible. Intervals are clamped to
    bracket the point estimate.
    """
    patients = list(patients)
    resamples = _resamples(len(patients), n_replicates, seed)
    point = statistic(patients)
    replicates = (
        statistic([patients[i] for i in sample.tolist()]) for sample in resamples
    )
    return _percentile_intervals(point, replicates)


def variable_metrics(
    pred: LabelSet,
    reference,
    variable: str,
    positive_class: str | None,
    *,
    tolerance_days: int = 30,
    patients: Iterable[str] | None = None,
) -> MetricReport:
    """Confusion + completeness in one pass for one variable."""
    rows = _patient_rows(
        pred, reference, variable, positive_class, tolerance_days=tolerance_days, patients=patients
    )
    return _rows_report(variable, positive_class, rows)


def bootstrap_variable_ci(
    pred: LabelSet,
    reference,
    variable: str,
    positive_class: str | None,
    *,
    tolerance_days: int = 30,
    patients: Iterable[str] | None = None,
    n_replicates: int = 2000,
    seed: int = 0,
) -> dict[str, tuple[float, float]]:
    """95 % bootstrap intervals for every defined metric of one variable.

    Each replicate re-sums the patient rows of its resample, which gives
    exactly ``variable_metrics`` on that resample.
    """
    rows = _patient_rows(
        pred, reference, variable, positive_class, tolerance_days=tolerance_days, patients=patients
    )

    def statistic(sample_rows: np.ndarray) -> dict[str, float | None]:
        rep = _rows_report(variable, positive_class, sample_rows)
        return {name: rep.value(name) for name in METRIC_NAMES}

    resamples = _resamples(len(rows), n_replicates, seed)
    replicates = (statistic(rows[sample]) for sample in resamples)
    return _percentile_intervals(statistic(rows), replicates)


@dataclass(frozen=True)
class Component:
    """One component test of a derived rule: ``variable`` must read ``required``."""

    variable: str
    required: str

    def __iter__(self):
        return iter((self.variable, self.required))


@dataclass(frozen=True)
class DerivedVariableRule:
    """Composite variable built from dated component tests near an index date.

    The index must be a dated ``index_positive`` assertion; anything else
    (absent, negated, undated, documented unknown) leaves the derivation
    unknown, since there is no index event to anchor the window. For each
    component the test closest to the index date within ``window_days``
    (ties to the earlier date) supplies its value. The derived value is
    positive when every component equals its required token, negative when
    any known in-window component differs, and unknown when any
    still-undecided component lacks a known in-window value. A component
    is a ``Component`` or a plain (variable, required value) pair.
    """

    name: str
    index_variable: str
    components: tuple[Component, ...] = ()
    window_days: tuple[int, int] = (-60, 60)
    index_positive: str = "yes"

    def __post_init__(self) -> None:
        if self.window_days[0] > self.window_days[1]:
            raise ValueError(f"window_days: lo must be <= hi in rule {self.name}, got {self.window_days}")
        if not self.components:
            raise ValueError(f"components: rule {self.name} needs at least one")
        object.__setattr__(self, "components", tuple(self.components))


def derive_variable(
    rule: DerivedVariableRule,
    labels: LabelSet,
    *,
    cohort: Iterable[str] | None = None,
) -> dict[str, str]:
    """Evaluate a derived rule per patient: positive/negative/unknown."""
    schema = labels.schema
    index_spec = schema[rule.index_variable]
    if index_spec.known_values is not None and rule.index_positive not in index_spec.known_values:
        raise ValueError(
            f"{rule.name}: {rule.index_variable} has no known value {rule.index_positive!r}"
        )
    for comp, required in rule.components:
        spec = schema[comp]
        if spec.known_values is not None and required not in spec.known_values:
            raise ValueError(f"{rule.name}: {comp} has no known value {required!r}")
    patients = sorted(cohort) if cohort is not None else sorted(labels.patients)
    lo, hi = rule.window_days
    out: dict[str, str] = {}
    for pid in patients:
        index_rec = labels.get_single(pid, rule.index_variable)
        if (
            index_rec is None
            or index_rec.value != rule.index_positive
            or index_rec.event_date is None
        ):
            out[pid] = DERIVED_UNKNOWN
            continue
        index = index_rec.event_date
        verdict = DERIVED_POSITIVE
        for comp, required in rule.components:
            spec = schema[comp]
            candidates = [
                r
                for r in labels.get(pid, comp)
                if r.is_known(spec)
                and r.event_date is not None
                and lo <= (r.event_date - index).days <= hi
            ]
            if not candidates:
                if verdict == DERIVED_POSITIVE:
                    verdict = DERIVED_UNKNOWN
                continue
            nearest = min(
                candidates, key=lambda r: (abs((r.event_date - index).days), r.event_date)
            )
            if nearest.value != required:
                verdict = DERIVED_NEGATIVE
                break
        out[pid] = verdict
    return out


@dataclass
class EndToEndMetrics:
    """Derived-variable performance, optionally against an abstraction side."""

    rule: DerivedVariableRule
    llm: MetricReport
    abstraction: MetricReport | None = None
    relative: list[RelativePerformance] | None = None


def end_to_end_metrics(
    rule: DerivedVariableRule,
    pred: LabelSet,
    reference,
    abstraction: LabelSet | None = None,
    *,
    cohort: Iterable[str] | None = None,
) -> EndToEndMetrics:
    """Score a derived variable end to end.

    Both sides are derived with the same rule; the derived values then feed
    a one-vs-rest confusion on the positive class. Component errors
    compound: with independent per-component accuracy p over k required
    components, end-to-end accuracy approaches p**k.
    """
    cohort_list = sorted(_cohort(pred, reference, cohort))
    derived_ref = derive_variable(rule, _reference_labels(reference), cohort=cohort_list)

    def score(labels: LabelSet) -> MetricReport:
        derived = derive_variable(rule, labels, cohort=cohort_list)
        rows = []
        for pid in cohort_list:
            p, r = derived[pid], derived_ref[pid]
            ref_pos = None if r == DERIVED_UNKNOWN else r == DERIVED_POSITIVE
            tp, fp, fn = _one_vs_rest(ref_pos, p == DERIVED_POSITIVE)
            rows.append((tp, fp, fn, 0, 0, p != DERIVED_UNKNOWN))
        return _rows_report(rule.name, DERIVED_POSITIVE, _as_rows(rows))

    result = EndToEndMetrics(rule=rule, llm=score(pred))
    if abstraction is not None:
        result.abstraction = score(abstraction)
        result.relative = relative_difference(result.llm, result.abstraction)
    return result


@dataclass
class StratumMetrics:
    """Per-stratum comparison; suppressed strata carry counts only."""

    stratum: str
    n: int
    suppressed: bool
    llm: MetricReport | None = None
    abstraction: MetricReport | None = None
    relative: list[RelativePerformance] | None = None


def stratified_metrics(
    pred: LabelSet,
    abstraction: LabelSet | None,
    reference,
    variable: str,
    positive_class: str | None,
    dataset: CohortDataset,
    stratum_key: str,
    *,
    tolerance_days: int = 30,
    min_stratum_n: int = 20,
) -> dict[str, StratumMetrics]:
    """Metrics per attribute stratum, with small strata suppressed.

    Strata with fewer than ``min_stratum_n`` patients report only their
    size. A widening llm-vs-abstraction gap in one stratum relative to the
    others is the differential-error signal this view exists to surface.
    """
    cohort = sorted(dataset.patients)
    position = {pid: i for i, pid in enumerate(cohort)}
    sides = [
        _patient_rows(
            labels, reference, variable, positive_class,
            tolerance_days=tolerance_days, patients=cohort,
        )
        for labels in (pred, abstraction)
        if labels is not None
    ]
    out: dict[str, StratumMetrics] = {}
    for stratum, pids in sorted(dataset.strata(stratum_key).items()):
        if len(pids) < min_stratum_n:
            out[stratum] = StratumMetrics(stratum=stratum, n=len(pids), suppressed=True)
            continue
        take = [position[pid] for pid in pids]
        reports = [_rows_report(variable, positive_class, rows[take]) for rows in sides]
        entry = StratumMetrics(stratum=stratum, n=len(pids), suppressed=False, llm=reports[0])
        if abstraction is not None:
            entry.abstraction = reports[1]
            entry.relative = relative_difference(*reports)
        out[stratum] = entry
    return out
