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

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass, field
from datetime import date
from fractions import Fraction

import numpy as np

from .schema import (
    LabelSet,
    Row,
    VariableKind,
    effective_tolerance,
)
from .yamlspec import token_of

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


def _cohort(reference, patients: Iterable[str] | None) -> list[str]:
    """``patients`` as given, else the reference's patients in sorted order."""
    return list(patients) if patients is not None else sorted(reference.patients)


def _one_vs_rest(ref_pos: bool | None, pred_pos: bool) -> tuple[int, int, int]:
    """(tp, fp, fn) of one patient; a reference of None (unknown) is excluded."""
    if ref_pos is None:
        return 0, 0, 0
    return int(ref_pos and pred_pos), int(pred_pos and not ref_pos), int(ref_pos and not pred_pos)


def _asserted_events(
    rows: Sequence[Row], unknown: str | None, positive_class: str | None
) -> tuple[list[date], int]:
    """(dated events, number undated) among one side's known assertions."""
    hits = [
        event_date
        for value, event_date, _ in rows
        if value != unknown and (positive_class is None or value == positive_class)
    ]
    dated = [d for d in hits if d is not None]
    return dated, len(hits) - len(dated)


@dataclass(frozen=True, eq=False)
class PatientRows:
    """Each patient's contribution to one variable's counts, in cohort order.

    Row ``i`` holds ``patients[i]``'s true and false positives, false
    negatives, dated and date-correct matches, and whether it documents a
    known value, as an (n, 6) int64 array. ``report`` sums the rows of any
    cohort, stratum or resample.
    """

    variable: str
    positive_class: str | None
    patients: tuple[str, ...]
    rows: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "patients", tuple(self.patients))
        object.__setattr__(self, "rows", np.array(self.rows, dtype=np.int64).reshape(-1, 6))

    def report(self, take=slice(None)) -> MetricReport:
        """Point metrics of the patients at positions ``take`` (a slice or an
        index sequence, repeats allowed); by default the whole cohort."""
        rows = self.rows[take]
        tp, fp, fn, with_date, date_ok, known = (int(v) for v in rows.sum(axis=0))
        counts = ConfusionCounts(self.variable, self.positive_class, tp, fp, fn, with_date, date_ok)
        n = len(rows)
        return compute_metrics(counts, completeness=(known, n) if n else None, n_patients=n)


def patient_rows(
    pred: LabelSet,
    reference,
    variable: str,
    positive_class: str | None,
    *,
    tolerance_days: int = 30,
    patients: Iterable[str] | None = None,
) -> PatientRows:
    """The ``PatientRows`` of ``pred`` against ``reference``, which
    ``variable_metrics`` describes; raises ``ValueError`` on a
    ``positive_class`` the variable cannot take."""
    ref_labels = _reference_labels(reference)
    spec = pred.schema[variable]
    tol = effective_tolerance(spec, tolerance_days)
    if spec.kind != VariableKind.EVENT_LIST and positive_class is None:
        raise ValueError(f"{variable}: positive_class required for {spec.kind.value}")
    allowed = spec.allowed_values
    if positive_class is not None and allowed is not None and positive_class not in allowed:
        raise ValueError(f"{variable}: positive_class {positive_class!r} not in allowed values")
    cohort = _cohort(reference, patients)
    rows = []
    if spec.kind == VariableKind.EVENT_LIST:
        # a row is known when its value is not the unknown token (a None token matches no value)
        unknown = spec.unknown_token
        for pred_rows, ref_rows in zip(
            pred._column(variable, cohort), ref_labels._column(variable, cohort)
        ):
            pred_events, pred_undated = _asserted_events(pred_rows, unknown, positive_class)
            ref_events, ref_undated = _asserted_events(ref_rows, unknown, positive_class)
            m = match_events(pred_events, ref_events, tol)
            fp = len(m.unmatched_pred) + pred_undated
            fn = len(m.unmatched_ref) + ref_undated
            known = any(r[0] != unknown for r in pred_rows)
            # every matched pair is dated and within tolerance by construction
            rows.append((m.n_matched, fp, fn, m.n_matched, m.n_matched, known))
        return PatientRows(variable, positive_class, cohort, rows)
    date_kind = spec.kind == VariableKind.DATE
    # other kinds hold at most one row per patient, so its value decides ``known``
    for pred_row, ref_row in zip(
        pred._known_firsts(variable, cohort), ref_labels._known_firsts(variable, cohort)
    ):
        known = pred_row is not None
        ref_pos = None if ref_row is None else ref_row[0] == positive_class
        tp, fp, fn = _one_vs_rest(ref_pos, known and pred_row[0] == positive_class)
        dated = date_kind and tp == 1 and pred_row[1] is not None and ref_row[1] is not None
        correct = dated and abs((pred_row[1] - ref_row[1]).days) <= tol
        rows.append((tp, fp, fn, dated, correct, known))
    return PatientRows(variable, positive_class, cohort, rows)


@dataclass
class RelativePerformance:
    """Extraction-minus-abstraction gap for one metric, in percentage points;
    its report entry is ``dataclasses.asdict`` of it."""

    metric: str
    llm: float
    abstraction: float
    delta_pp: float


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


def _fraction_table(tp, fp, fn, with_date, date_ok, completeness) -> dict:
    """Each metric's (numerator, denominator); a zero denominator leaves it
    undefined. The counts are ints, or int64 arrays of one entry per
    replicate, and so is every entry of the table."""
    return {
        "recall": (tp, tp + fn),
        "precision": (tp, tp + fp),
        # f1 is defined only where recall and precision both are
        "f1": (2 * tp, (2 * tp + fp + fn) * ((tp + fn > 0) & (tp + fp > 0))),
        "date_accuracy": (date_ok, with_date),
        "completeness": completeness,
    }


def compute_metrics(
    counts: ConfusionCounts,
    *,
    completeness: tuple[int, int] | None = None,
    n_patients: int = 0,
) -> MetricReport:
    """Derive recall/precision/F1/date-accuracy from confusion counts.

    recall = tp/(tp+fn), precision = tp/(tp+fp), f1 their harmonic mean
    (equivalently 2tp/(2tp+fp+fn)), date_accuracy = dates correct among
    value-matched pairs that both carry a date. Zero denominators leave the
    metric undefined rather than zero.
    """
    fractions = _fraction_table(
        counts.tp,
        counts.fp,
        counts.fn,
        counts.n_matched_with_date,
        counts.n_date_correct,
        completeness or (0, 0),
    )
    report = MetricReport(variable=counts.variable, n_patients=n_patients, counts=counts)
    for name, (num, den) in fractions.items():
        if den > 0:
            setattr(report, name, num / den)
            report.ratios[name] = (num, den)
    return report


def relative_difference(
    llm: MetricReport, abstraction: MetricReport
) -> list[RelativePerformance]:
    """Per-metric (llm - abstraction) deltas in signed percentage points.

    Only metrics defined on both sides appear. The delta is computed
    rationally from the reports' exact integer ratios, so integral
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
        delta = float(100 * (Fraction(*llm.ratios[name]) - Fraction(*abstraction.ratios[name])))
        out.append(RelativePerformance(metric=name, llm=a, abstraction=b, delta_pp=delta))
    return out


def variable_metrics(
    pred: LabelSet,
    reference,
    variable: str,
    positive_class: str | None,
    *,
    tolerance_days: int = 30,
    patients: Iterable[str] | None = None,
) -> MetricReport:
    """One-vs-rest confusion counts plus completeness for one variable, in one pass.

    ``reference`` may be a LabelSet or an assembled reference standard.
    ``patients`` fixes the evaluation cohort (duplicates allowed, so a
    resample weights patients by multiplicity); by default it is the
    reference's patients. This is ``patient_rows(...).report()``.

    For event_list variables the counts are per event: matched events are
    true positives, unmatched predicted events false positives, unmatched
    reference events false negatives. ``positive_class`` of None counts
    every documented known event (event presence); a token restricts both
    sides to events with that value. Undated known events cannot be matched
    and therefore count as unmatched assertions.
    """
    return patient_rows(
        pred, reference, variable, positive_class, tolerance_days=tolerance_days, patients=patients
    ).report()


def bootstrap_variable_ci(
    rows: PatientRows, *, n_replicates: int = 2000, seed: int = 0
) -> dict[str, tuple[float, float]]:
    """95 % percentile bootstrap intervals for every defined metric of the rows.

    Replicate ``k`` is the ``k``-th draw of
    ``default_rng(seed).integers(0, n, size=n)``. ``np.bincount`` turns it
    into per-patient counts, and one int64 product of those counts with the
    rows sums the replicate, so only O(n) memory is held. Every replicate's
    metrics come from the fraction table ``compute_metrics`` uses, which
    gives exactly ``variable_metrics`` on that patient resample. Undefined
    replicate values are dropped, a metric with no defined replicate gets no
    interval, and the 2.5 and 97.5 points are numpy's default linear
    (Hyndman and Fan type 7) percentile, bit for bit. Each interval is
    widened to bracket the point estimate.
    """
    n = len(rows.patients)
    if n == 0:
        raise ValueError("bootstrap needs a non-empty cohort")
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    rng = np.random.default_rng(seed)
    sums = np.empty((n_replicates, 6), dtype=np.int64)
    for k in range(n_replicates):
        sums[k] = np.bincount(rng.integers(0, n, size=n), minlength=n) @ rows.rows
    tp, fp, fn, with_date, date_ok, known = sums.T
    table = _fraction_table(tp, fp, fn, with_date, date_ok, (known, np.full_like(known, n)))
    point = rows.report()
    intervals = {}
    for name, (num, den) in table.items():
        defined = den > 0
        if defined.any():
            values = np.sort(num[defined] / den[defined])
            lo, hi = _percentile(values, 2.5), _percentile(values, 97.5)
            center = point.value(name)
            if center is not None:
                lo, hi = min(lo, center), max(hi, center)
            intervals[name] = (lo, hi)
    return intervals


def _percentile(ascending: np.ndarray, q: float) -> float:
    """``float(np.percentile(ascending, q))`` for ascending values: the
    default linear interpolation, without ``np.percentile``'s import of
    ``numpy.ma``."""
    index = (len(ascending) - 1) * (q / 100)
    below = int(index)
    if below >= len(ascending) - 1:
        return float(ascending[-1])
    a, b = float(ascending[below]), float(ascending[below + 1])
    t = index - below
    # numpy interpolates from the nearer end
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


@dataclass(frozen=True)
class Component:
    """One component test of a derived rule: ``variable`` must read ``required``."""

    variable: str
    required: str = token_of("variable")

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
    index_positive: str = token_of("index_variable", default="yes")

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
    index_column = labels._column(rule.index_variable, patients)
    components = [
        (schema[comp].unknown_token, required, labels._column(comp, patients))
        for comp, required in rule.components
    ]
    out: dict[str, str] = {}
    for i, pid in enumerate(patients):
        index_rows = index_column[i]
        if not index_rows or index_rows[0][0] != rule.index_positive or index_rows[0][1] is None:
            out[pid] = DERIVED_UNKNOWN
            continue
        index = index_rows[0][1]
        verdict = DERIVED_POSITIVE
        for unknown, required, column in components:
            candidates = [
                (value, event_date)
                for value, event_date, _ in column[i]
                if value != unknown
                and event_date is not None
                and lo <= (event_date - index).days <= hi
            ]
            if not candidates:
                if verdict == DERIVED_POSITIVE:
                    verdict = DERIVED_UNKNOWN
                continue
            nearest = min(candidates, key=lambda c: (abs((c[1] - index).days), c[1]))
            if nearest[0] != required:
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
    cohort_list = sorted(_cohort(reference, cohort))
    derived_ref = derive_variable(rule, _reference_labels(reference), cohort=cohort_list)

    def score(labels: LabelSet) -> MetricReport:
        derived = derive_variable(rule, labels, cohort=cohort_list)
        rows = []
        for pid in cohort_list:
            p, r = derived[pid], derived_ref[pid]
            ref_pos = None if r == DERIVED_UNKNOWN else r == DERIVED_POSITIVE
            tp, fp, fn = _one_vs_rest(ref_pos, p == DERIVED_POSITIVE)
            rows.append((tp, fp, fn, 0, 0, p != DERIVED_UNKNOWN))
        return PatientRows(rule.name, DERIVED_POSITIVE, cohort_list, rows).report()

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

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "suppressed": self.suppressed,
            "llm": self.llm.to_dict() if self.llm is not None else None,
            "abstraction": self.abstraction.to_dict() if self.abstraction is not None else None,
            "relative": [asdict(r) for r in self.relative] if self.relative else None,
        }


def stratified_metrics(
    llm: PatientRows,
    abstraction: PatientRows | None,
    strata: Mapping[str, Sequence[str]],
    *,
    min_stratum_n: int = 20,
) -> dict[str, StratumMetrics]:
    """Metrics per stratum, with small strata suppressed.

    ``strata`` maps each stratum to its patients, every one of which the
    rows cover (``CohortDataset.strata`` gives such a mapping). The
    abstraction side, when given, must cover the same patients in the same
    order. Strata with fewer than ``min_stratum_n`` patients report only
    their size. A widening llm-vs-abstraction gap in one stratum relative
    to the others is the differential-error signal this view exists to
    surface.
    """
    if abstraction is not None and abstraction.patients != llm.patients:
        raise ValueError("llm and abstraction rows must cover the same patients in the same order")
    position = {pid: i for i, pid in enumerate(llm.patients)}
    out: dict[str, StratumMetrics] = {}
    for stratum, pids in sorted(strata.items()):
        if len(pids) < min_stratum_n:
            out[stratum] = StratumMetrics(stratum=stratum, n=len(pids), suppressed=True)
            continue
        take = [position[pid] for pid in pids]
        entry = StratumMetrics(stratum=stratum, n=len(pids), suppressed=False, llm=llm.report(take))
        if abstraction is not None:
            entry.abstraction = abstraction.report(take)
            entry.relative = relative_difference(entry.llm, entry.abstraction)
        out[stratum] = entry
    return out
