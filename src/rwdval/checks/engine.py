"""Check definitions, execution, and suite orchestration.

A check is either a patient-level expression (see ``lang``) or a
cohort-level body: category distributions against expected ranges, monthly
count stability, per-stratum rate ranges, or cross-refresh stability.
Every guideline-informed expected range lives in the suite configuration,
never in code.

Outcomes are three-valued (``Truth``): pass, fail (a finding), or
not-applicable when the data needed to establish truth is absent.
Prevalence for a check is flagged / (evaluated - not_applicable).
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from pathlib import Path
from typing import Annotated, get_args

import numpy as np

from ..labelio import label_text
from ..schema import (
    MISSING_ATTRIBUTE,
    CohortDataset,
    LabelSet,
    RowView,
    Schema,
    Source,
    VariableKind,
    patient_view,
)
from ..refstd import _agreement
from ..yamlspec import (
    ConfigError,
    OneOf,
    Parsed,
    at_least,
    dated_variable,
    load_yaml,
    read_spec,
    schema_problems,
    single_valued_variable,
    token_of,
)
from .lang import (
    TRUTH_CODES,
    TRUTHS,
    CompiledCheck,
    Expr,
    Truth,
    compile_check,
    parse_check,
    referenced_variables,
    to_text,
)


class CheckCategory(str, Enum):
    CONFORMANCE = "conformance"
    PLAUSIBILITY = "plausibility"
    CONSISTENCY = "consistency"


class CheckLevel(str, Enum):
    PATIENT = "patient"
    COHORT = "cohort"


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


def evaluate_patient_check(
    check: CompiledCheck, rows: RowView | LabelSet, patients: Sequence[str] | None = None
) -> Truth | np.ndarray:
    """Outcome of one compiled check. For one patient's row view it is a
    ``Truth``: ``TRUE`` passes, ``FALSE`` is a finding and ``UNKNOWN`` is
    not applicable. Given a label set and its ``patients``, it is each
    patient's truth code (``TRUTH_CODES``) in one int64 array, in their
    order.

    ``run_all_checks`` calls it once per check over the whole cohort
    through this module's name, where ``perfbench/spans.py`` wraps it to
    time patient evaluation; keep the name.
    """
    if patients is None:
        return check(rows)
    return check.over(rows, patients)


# check expression text: its syntax is checked when read, its types when compiled against the schema
CheckExpr = Annotated[Expr, Parsed(parse_check, compile_check)]


def _check_ranges(expected: dict[str, tuple[float, float]]) -> None:
    """Raise ``ValueError`` unless ``expected`` holds ranges, each with lo <= hi."""
    if not expected:
        raise ValueError("expected: needs at least one range")
    for key, (lo, hi) in expected.items():
        if lo > hi:
            raise ValueError(f"expected.{key}: lo {lo} exceeds hi {hi}")


@dataclass(frozen=True)
class DistributionRange:
    """Observed category fractions must sit inside expected ranges."""

    variable: str = single_valued_variable()
    expected: dict[str, tuple[float, float]] = token_of("variable")
    filter_expr: CheckExpr | None = field(default=None, metadata={"yaml": "filter"})

    kind = "distribution_range"

    def __post_init__(self) -> None:
        _check_ranges(self.expected)


@dataclass(frozen=True)
class MonthlyCountStability:
    """Monthly event counts must stay near a rolling median.

    A month is flagged when its count deviates from the median of its
    (centered, edge-clamped) window by more than ``mad_k`` times the
    robust scale of that window. The scale is the window's median absolute
    deviation floored at the Poisson scale 0.6745*sqrt(median): a MAD
    estimated from a dozen counts routinely underestimates ordinary
    count noise, and the floor keeps that noise from being flagged while
    leaving genuine spikes (including one against a flat series, where the
    MAD alone is zero) far above threshold.
    """

    variable: str = dated_variable()
    window_months: int = 12
    mad_k: float = 5.0

    kind = "monthly_count_stability"

    def __post_init__(self) -> None:
        at_least(self, 2, "window_months")
        if not self.mad_k > 0:
            raise ValueError(f"mad_k: must be > 0, got {self.mad_k}")


@dataclass(frozen=True)
class StratifiedRateRange:
    """Rate of a positive value per stratum must sit inside expected ranges."""

    variable: str = single_valued_variable()
    positive_value: str = token_of("variable")
    by_variable: str | None = single_valued_variable(None, yaml=("by", "variable"))
    by_attribute: str | None = field(default=None, metadata={"yaml": ("by", "attribute")})
    # a by-variable stratum is one of its known values, or missing
    expected: dict[str, tuple[float, float]] = token_of(
        "by_variable", default_factory=dict, also=frozenset({MISSING_ATTRIBUTE})
    )

    kind = "stratified_rate_range"

    def __post_init__(self) -> None:
        if bool(self.by_variable) == bool(self.by_attribute):
            raise ValueError("by: needs exactly one of variable and attribute")
        _check_ranges(self.expected)


@dataclass(frozen=True)
class RefreshStability:
    """Values must not mutate between data refreshes.

    Needs a prior snapshot at run time; without one the check is
    not-applicable. It evaluates each patient with rows of the variable in
    the prior snapshot: value changes, date moves beyond tolerance, and
    removals are findings. Additions are expected churn, neither flagged
    nor counted.
    """

    variable: str
    tolerance_days: int = 0

    kind = "refresh_stability"

    def __post_init__(self) -> None:
        at_least(self, 0, "tolerance_days")


CohortCheckSpec = DistributionRange | MonthlyCountStability | StratifiedRateRange | RefreshStability
CohortCheck = Annotated[CohortCheckSpec, OneOf("kind", {spec.kind: spec for spec in get_args(CohortCheckSpec)})]


@dataclass
class CheckDefinition:
    """One check: a patient-level ``expr`` or a ``cohort`` body; ``level`` defaults to the body's."""

    id: str
    category: CheckCategory = CheckCategory.PLAUSIBILITY
    level: CheckLevel | None = None
    severity: Severity = Severity.WARNING
    description: str = ""
    expr: CheckExpr | None = None
    cohort: CohortCheck | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("id: must be non-empty")
        if (self.expr is None) == (self.cohort is None):
            raise ValueError(f"expr: check {self.id} needs exactly one of expr and cohort")
        needed = CheckLevel.PATIENT if self.expr is not None else CheckLevel.COHORT
        self.level = self.level or needed
        if self.level != needed:
            body = "an expression" if self.expr is not None else f"a {self.cohort.kind}"
            raise ValueError(f"level: must be {needed.value} for {body} check, got {self.level.value}")


@dataclass
class CheckSuite:
    checks: list[CheckDefinition]

    def __post_init__(self) -> None:
        ids = [c.id for c in self.checks]
        if not ids:
            raise ValueError("checks: needs at least one check")
        dupes = {i for i in ids if ids.count(i) > 1}
        if dupes:
            raise ValueError(f"checks: duplicate ids {sorted(dupes)}")

    def __iter__(self):
        return iter(self.checks)

    def __len__(self) -> int:
        return len(self.checks)


@dataclass
class CheckFinding:
    check_id: str
    severity: Severity
    scope: str  # patient id, or a cohort slice like month:2019-05
    observed: str
    expected: str

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "severity": self.severity.value,
            "scope": self.scope,
            "observed": self.observed,
            "expected": self.expected,
        }


@dataclass
class StratumTally:
    n_evaluated: int = 0
    n_flagged: int = 0
    n_not_applicable: int = 0
    suppressed: bool = False

    def to_dict(self) -> dict:
        out = {
            "n_evaluated": self.n_evaluated,
            "n_flagged": self.n_flagged,
            "n_not_applicable": self.n_not_applicable,
        }
        if self.suppressed:
            out["suppressed"] = True
        return out


@dataclass
class CheckResult:
    check: CheckDefinition
    n_evaluated: int = 0
    n_not_applicable: int = 0
    findings: list[CheckFinding] = field(default_factory=list)
    stratified: dict[str, dict[str, StratumTally]] = field(default_factory=dict)

    @property
    def check_id(self) -> str:
        return self.check.id

    @property
    def n_flagged(self) -> int:
        return len(self.findings)

    @property
    def prevalence(self) -> float | None:
        denom = self.n_evaluated - self.n_not_applicable
        return self.n_flagged / denom if denom > 0 else None

    def flag(self, scope: str, observed: str, expected: str) -> None:
        """Record one finding of this check."""
        self.findings.append(
            CheckFinding(self.check.id, self.check.severity, scope, observed, expected)
        )

    def to_dict(self) -> dict:
        check = self.check
        out = {
            "check_id": check.id,
            "category": check.category.value,
            "level": check.level.value,
            "severity": check.severity.value,
            "n_evaluated": self.n_evaluated,
            "n_flagged": self.n_flagged,
            "n_not_applicable": self.n_not_applicable,
            "prevalence": self.prevalence,
            "findings": [f.to_dict() for f in self.findings],
        }
        if self.stratified:
            out["stratified"] = {
                attr: {val: tally.to_dict() for val, tally in sorted(tallies.items())}
                for attr, tallies in sorted(self.stratified.items())
            }
        return out


@dataclass
class CheckReport:
    results: list[CheckResult]

    @property
    def n_findings(self) -> int:
        return sum(r.n_flagged for r in self.results)

    def result(self, check_id: str) -> CheckResult:
        for r in self.results:
            if r.check_id == check_id:
                return r
        raise KeyError(check_id)

    def findings(self) -> list[CheckFinding]:
        out: list[CheckFinding] = []
        for r in self.results:
            out.extend(r.findings)
        return out

    def to_dict(self) -> dict:
        return {
            "n_findings": self.n_findings,
            "checks": {r.check_id: r.to_dict() for r in self.results},
        }


# ---- refresh stability ----


@dataclass
class RefreshChange:
    patient_id: str
    reason: str  # value_changed | date_moved | removed | events_changed
    before: str
    after: str


@dataclass
class RefreshDelta:
    variable: str
    changed: list[RefreshChange]
    added: list[str]


def _refresh_order_key(refresh_id: str):
    try:
        return (0, int(refresh_id), refresh_id)
    except ValueError:
        return (1, 0, refresh_id)


def refresh_id_problems(
    labels_v1: LabelSet, labels_v2: LabelSet, names: tuple[str, str] = ("the first label set", "the second label set")
) -> list[str]:
    """Why two refreshes cannot be compared, each named by ``names``: the rows
    of each must carry exactly one refresh id, and the first's must strictly
    precede the second's."""
    v1, v2 = labels_v1.refresh_id, labels_v2.refresh_id
    problems = [
        f"{name}: its rows must carry exactly one refresh_id to compare refreshes"
        for name, refresh_id in zip(names, (v1, v2))
        if refresh_id is None
    ]
    if not problems and not _refresh_order_key(v1) < _refresh_order_key(v2):
        problems.append(
            f"refresh ids must be strictly increasing, got {v1!r} in {names[0]} then {v2!r} in {names[1]}"
        )
    return problems


def refresh_stability(
    labels_v1: LabelSet,
    labels_v2: LabelSet,
    variable: str,
    *,
    tolerance_days: int = 0,
) -> RefreshDelta:
    """Compare one variable across two refreshes of the same feed.

    The first snapshot must strictly precede the second (identical or
    unordered refresh ids are errors). Mutations of previously delivered
    values are the instability signal; newly added patients are reported
    separately as expected growth.
    """
    problems = refresh_id_problems(labels_v1, labels_v2)
    if problems:
        raise ValueError("; ".join(problems))
    spec = labels_v1.schema[variable]
    kind = spec.kind
    changed: list[RefreshChange] = []
    added: list[str] = []
    agree = _agreement(spec, tolerance_days)
    patients = sorted(set(labels_v1._holders(variable)).union(labels_v2._holders(variable)))
    for pid, before, after in zip(
        patients, labels_v1._rows(variable, patients), labels_v2._rows(variable, patients)
    ):
        if not before and after:
            added.append(pid)
            continue
        if before and not after:
            changed.append(RefreshChange(pid, "removed", label_text(before), "absent"))
            continue
        if agree(before, after):
            continue
        if kind == VariableKind.EVENT_LIST:
            reason = "events_changed"
        elif before[0][0] != after[0][0]:
            reason = "value_changed"
        else:
            reason = "date_moved"
        changed.append(RefreshChange(pid, reason, label_text(before), label_text(after)))
    return RefreshDelta(variable=variable, changed=changed, added=added)


# ---- cohort check execution ----


def _known_values(labels: LabelSet, variable: str, patients: Sequence[str]) -> list[str | None]:
    """Each patient's known value of a single-valued variable; None when unknown or missing."""
    column = labels.column(variable, patients)
    return [column.values[code] if code >= 0 else None for code in column.codes.tolist()]


def _median(values: Iterable[float]) -> float:
    """``statistics.median``, whose module would load ``fractions`` and
    ``decimal`` into every run for this one function."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _month_key(d: date) -> str:
    return f"{d.year:04d}-{d.month:02d}"


def _month_range(first: date, last: date) -> list[str]:
    out = []
    y, m = first.year, first.month
    while (y, m) <= (last.year, last.month):
        out.append(f"{y:04d}-{m:02d}")
        m += 1
        if m == 13:
            y, m = y + 1, 1
    return out


def monthly_counts(labels: LabelSet, variable: str) -> tuple[list[str], list[int]]:
    """Zero-filled per-month record counts for one dated variable.

    Both lists are empty when no known record of the variable is dated.
    """
    spec = labels.schema[variable]
    if not spec.kind.has_dates:
        raise ValueError(f"{variable}: {spec.kind.value} variables carry no date")
    unknown = spec.unknown_token
    dates = [
        event_date
        for rows in labels._rows(variable, labels.patients)
        for value, event_date, _ in rows
        if event_date is not None and value != unknown
    ]
    if not dates:
        return [], []
    months = _month_range(min(dates), max(dates))
    counts = dict.fromkeys(months, 0)
    for d in dates:
        counts[_month_key(d)] += 1
    return months, [counts[m] for m in months]


def _run_distribution(
    spec: DistributionRange,
    labels: LabelSet,
    cohort: Sequence[str],
    result: CheckResult,
) -> None:
    values = _known_values(labels, spec.variable, cohort)
    if spec.filter_expr is not None:
        keep = compile_check(spec.filter_expr, labels.schema)
        passed = evaluate_patient_check(keep, labels, cohort) == TRUTH_CODES[Truth.TRUE]
        values = [value for value, kept in zip(values, passed.tolist()) if kept]
    eligible = [value for value in values if value is not None]
    n = len(eligible)
    for token, (lo, hi) in sorted(spec.expected.items()):
        result.n_evaluated += 1
        if n == 0:
            result.n_not_applicable += 1
            continue
        frac = eligible.count(token) / n
        if not lo <= frac <= hi:
            result.flag(f"category:{token}", f"fraction {frac:.4f} of {n}", f"within [{lo}, {hi}]")


def _run_monthly(spec: MonthlyCountStability, labels: LabelSet, result: CheckResult) -> None:
    w = spec.window_months
    months, counts = monthly_counts(labels, spec.variable)
    if w > len(counts):  # no dated record, or a series shorter than one window
        result.n_evaluated += 1
        result.n_not_applicable += 1
        return
    half = w // 2
    for i, (month, c) in enumerate(zip(months, counts)):
        result.n_evaluated += 1
        hi = min(len(counts), i + (w - half))
        lo = max(0, hi - w)
        hi = min(len(counts), lo + w)
        window = counts[lo:hi]
        med = _median(window)
        mad = _median(abs(x - med) for x in window)
        scale = max(mad, 0.6745 * math.sqrt(max(med, 1.0)))
        if abs(c - med) > spec.mad_k * scale:
            result.flag(
                f"month:{month}",
                f"count {c}",
                f"within {spec.mad_k} robust deviations "
                f"(scale {scale:g}) of rolling median {med:g}",
            )


def _run_stratified_rate(
    spec: StratifiedRateRange,
    dataset: CohortDataset,
    labels: LabelSet,
    cohort: Sequence[str],
    result: CheckResult,
) -> None:
    if spec.by_attribute:
        keys = [dataset.attribute(pid, spec.by_attribute) for pid in cohort]
    else:
        keys = [v or MISSING_ATTRIBUTE for v in _known_values(labels, spec.by_variable, cohort)]
    groups: dict[str, list[str]] = {}
    for key, value in zip(keys, _known_values(labels, spec.variable, cohort)):
        if value is not None:
            groups.setdefault(key, []).append(value)
    for stratum, (lo, hi) in sorted(spec.expected.items()):
        result.n_evaluated += 1
        values = groups.get(stratum, [])
        if not values:
            result.n_not_applicable += 1
            continue
        rate = sum(1 for v in values if v == spec.positive_value) / len(values)
        if not lo <= rate <= hi:
            result.flag(
                f"stratum:{stratum}", f"rate {rate:.4f} of {len(values)}", f"within [{lo}, {hi}]"
            )


def _run_refresh(
    spec: RefreshStability,
    labels: LabelSet,
    previous: LabelSet | None,
    result: CheckResult,
) -> None:
    if previous is None:
        result.n_evaluated += 1
        result.n_not_applicable += 1
        return
    delta = refresh_stability(
        previous, labels, spec.variable, tolerance_days=spec.tolerance_days
    )
    result.n_evaluated += len(previous._holders(spec.variable))
    expected = f"stable across refreshes (tolerance {spec.tolerance_days}d)"
    for change in delta.changed:
        result.flag(
            change.patient_id, f"{change.reason}: {change.before} -> {change.after}", expected
        )


# ---- suite execution ----


def run_all_checks(
    suite: CheckSuite,
    dataset: CohortDataset,
    *,
    source: Source = Source.LLM,
    strata: Iterable[str] = (),
    previous: LabelSet | None = None,
    min_stratum_n: int = 20,
) -> CheckReport:
    """Run every check in the suite against one source's labels.

    ``previous`` supplies the prior snapshot for refresh-stability checks.
    ``strata`` lists attribute keys for per-stratum outcome tallies on
    patient-level checks (strata smaller than ``min_stratum_n`` are
    suppressed). Results keep suite order; findings are ordered by patient.
    A suite that does not fit the dataset's schema, such as one built in
    code, raises ``ConfigError`` listing every problem before any check runs.
    """
    schema = dataset.schema
    _check_against(suite, schema)
    labels = dataset.labels(source)
    strata = list(strata)
    cohort = sorted(dataset.patients)
    results = [CheckResult(check) for check in suite]
    # (result, compiled check, sorted referenced variables, expected text), built once
    patient_checks = [
        (
            r,
            compile_check(r.check.expr, schema),
            sorted(referenced_variables(r.check.expr)),
            to_text(r.check.expr),
        )
        for r in results
        if r.check.expr is not None
    ]
    if patient_checks and cohort:
        flagged, not_applicable = TRUTH_CODES[Truth.FALSE], TRUTH_CODES[Truth.UNKNOWN]
        # each attribute's strata in order of first patient, and each patient's stratum among them
        stratum_of = {}
        for attr in strata:
            values = [dataset.attribute(pid, attr) for pid in cohort]
            index = {value: i for i, value in enumerate(dict.fromkeys(values))}
            stratum_of[attr] = (list(index), np.array([index[value] for value in values], dtype=np.int64))
        for result, check, variables, expected in patient_checks:
            truths = evaluate_patient_check(check, labels, cohort)
            result.n_evaluated += len(cohort)
            result.n_not_applicable += int(np.count_nonzero(truths == not_applicable))
            for i in np.flatnonzero(truths == flagged).tolist():
                pid = cohort[i]
                view = patient_view(labels, patient_id=pid)
                observed = "; ".join(f"{var}={label_text(view[var])}" for var in variables if var in view)
                result.flag(pid, observed or "no documented values", expected)
            for attr, (names, stratum) in stratum_of.items():
                # one row per stratum, one column per truth code
                counts = np.bincount(stratum * len(TRUTHS) + truths, minlength=len(names) * len(TRUTHS))
                counts = counts.reshape(len(names), len(TRUTHS)).tolist()
                result.stratified[attr] = {
                    name: StratumTally(
                        n_evaluated=sum(row),
                        n_flagged=row[flagged],
                        n_not_applicable=row[not_applicable],
                        suppressed=sum(row) < min_stratum_n,
                    )
                    for name, row in zip(names, counts)
                }
    for result in results:
        spec = result.check.cohort
        if spec is None:
            continue
        if isinstance(spec, DistributionRange):
            _run_distribution(spec, labels, cohort, result)
        elif isinstance(spec, MonthlyCountStability):
            _run_monthly(spec, labels, result)
        elif isinstance(spec, StratifiedRateRange):
            _run_stratified_rate(spec, dataset, labels, cohort, result)
        elif isinstance(spec, RefreshStability):
            _run_refresh(spec, labels, previous, result)
        else:
            raise TypeError(f"unsupported cohort check {spec!r}")
    return CheckReport(results=results)


# ---- suite loading ----


def suite_from_dict(doc: dict, schema: Schema) -> CheckSuite:
    """The check suite in the YAML document ``doc``, checked against
    ``schema``; a ``ConfigError`` (a ``ValueError``) lists every problem
    with its YAML path."""
    suite = read_spec(CheckSuite, doc)
    _check_against(suite, schema)
    return suite


def _check_against(suite: CheckSuite, schema: Schema) -> None:
    """Raise ``ConfigError`` listing every problem of ``suite`` against ``schema``."""
    problems = schema_problems(suite, schema)
    if problems:
        raise ConfigError(*problems)


def load_suite(path: str | Path, schema: Schema) -> CheckSuite:
    """Load a YAML check suite and check it against a schema; a
    ``ConfigError`` lists every problem, each with the file and its YAML
    path."""
    doc = load_yaml(path)
    try:
        return suite_from_dict(doc, schema)
    except ConfigError as exc:
        raise exc.in_file(path) from None


def default_suite_path() -> Path:
    """The packaged breast-cohort suite shipped with the library."""
    return Path(__file__).resolve().parent.parent / "suites" / "breast_default.yaml"
