"""Replication of published analyses and benchmarking against externals.

Builds analysis-ready survival cohorts from extracted labels, compares
Kaplan-Meier curves and category distributions between sources or against
published figures, tracks monthly trend series, and scores concordance
with external benchmarks (direction of effect, or a median within a
stated tolerance). Undefined medians never silently pass: they make the
benchmark non-concordant with an explicit reason. A comparison's report
entry is ``dataclasses.asdict`` of its result, so its fields are its keys.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from ._chi2 import chdtrc
from .checks.engine import monthly_counts
from .schema import LabelSet, VariableKind, shift_date
from .survival import KMCurve, SurvivalRecord, km_from_records


@dataclass
class SurvivalCohort:
    """Follow-up records plus bookkeeping for excluded patients."""

    records: list[SurvivalRecord]
    n_no_index: int = 0
    n_no_followup: int = 0
    n_undated_event: int = 0
    n_negative_duration: int = 0

    @property
    def n_included(self) -> int:
        return len(self.records)

    def curve(self) -> KMCurve:
        return km_from_records(self.records)

    def summary(self) -> dict:
        return {
            "n_included": self.n_included,
            "n_no_index": self.n_no_index,
            "n_no_followup": self.n_no_followup,
            "n_undated_event": self.n_undated_event,
            "n_negative_duration": self.n_negative_duration,
        }


def survival_records(
    labels: LabelSet,
    *,
    index_variable: str,
    event_variable: str,
    censor_variable: str,
    event_positive: str = "yes",
    max_followup_days: int | None = None,
    patients: Iterable[str] | None = None,
) -> SurvivalCohort:
    """Assemble per-patient durations from extracted labels.

    Index is the dated value of ``index_variable``; the event happens at
    the date of ``event_variable`` when its value is ``event_positive``;
    otherwise the patient is censored at the date of ``censor_variable``.
    Patients lacking an index date or any follow-up anchor are excluded
    and counted, as are events dated before index. ``max_followup_days``
    applies administrative censoring at that horizon.
    """
    schema = labels.schema
    for var in (index_variable, event_variable, censor_variable):
        if not schema[var].kind.has_dates:
            raise ValueError(f"{var}: survival endpoints need a dated variable")
    pool = sorted(patients) if patients is not None else sorted(labels.patients)
    cohort = SurvivalCohort(records=[])
    for pid, index_row, event_row, censor_row in zip(
        pool,
        labels._known_firsts(index_variable, pool),
        labels._known_firsts(event_variable, pool),
        labels._known_firsts(censor_variable, pool),
    ):
        if index_row is None or index_row[1] is None:
            cohort.n_no_index += 1
            continue
        index_date = index_row[1]
        if event_row is not None and event_row[0] == event_positive:
            if event_row[1] is None:
                cohort.n_undated_event += 1
                continue
            last_date = event_row[1]
            event = True
        else:
            if censor_row is None or censor_row[1] is None:
                cohort.n_no_followup += 1
                continue
            last_date = censor_row[1]
            event = False
        if last_date < index_date:
            cohort.n_negative_duration += 1
            continue
        duration = (last_date - index_date).days
        if max_followup_days is not None and duration > max_followup_days:
            # administrative censoring at the analysis horizon
            last_date = shift_date(index_date, max_followup_days)
            event = False
        cohort.records.append(
            SurvivalRecord(
                patient_id=pid, index_date=index_date, last_date=last_date, event=event
            )
        )
    return cohort


# ---- curve comparison ----


@dataclass
class CurveComparison:
    median_a: float | None
    median_b: float | None
    median_delta: float | None
    max_abs_diff: float
    max_abs_diff_at: float | None
    common_horizon: float
    survival_deltas: list[tuple[float, float, float, float]] = field(
        default_factory=list
    )  # (t, S_a, S_b, S_a - S_b)


def compare_curves(
    curve_a: KMCurve,
    curve_b: KMCurve,
    *,
    at_times: Sequence[float] = (),
) -> CurveComparison:
    """Compare two Kaplan-Meier curves over their common follow-up.

    The median delta propagates None: it is defined only when both
    medians are. The sup-norm difference scans every event time of either
    curve up to the shorter follow-up.
    """
    median_a = curve_a.median()
    median_b = curve_b.median()
    median_delta = None
    if median_a is not None and median_b is not None:
        median_delta = median_a - median_b
    horizon = min(curve_a.max_followup, curve_b.max_followup)
    grid = sorted({t for t in curve_a.times + curve_b.times if t <= horizon})
    max_abs = 0.0
    max_at = None
    for t in grid:
        diff = abs(curve_a.survival_at(t) - curve_b.survival_at(t))
        if diff > max_abs:
            max_abs = diff
            max_at = t
    deltas = []
    for t in at_times:
        sa = curve_a.survival_at(t)
        sb = curve_b.survival_at(t)
        deltas.append((float(t), sa, sb, sa - sb))
    return CurveComparison(
        median_a=median_a,
        median_b=median_b,
        median_delta=median_delta,
        max_abs_diff=max_abs,
        max_abs_diff_at=max_at,
        common_horizon=horizon,
        survival_deltas=deltas,
    )


# ---- distribution comparison ----


@dataclass
class DistributionComparison:
    n: int
    tvd: float
    per_category: dict[str, tuple[float, float, float]]  # (observed, reference, delta)
    chi2: float | None
    chi2_pvalue: float | None
    chi2_applicable: bool
    chi2_reason: str | None


def distribution_from_labels(
    labels: LabelSet, variable: str, patients: Iterable[str] | None = None
) -> dict[str, int]:
    """Known-value counts of a single-valued variable across patients."""
    spec = labels.schema[variable]
    if spec.kind == VariableKind.EVENT_LIST:
        raise ValueError(f"{variable}: distributions need a single-valued variable")
    pool = patients if patients is not None else sorted(labels.patients)
    counts: dict[str, int] = {}
    for row in labels._known_firsts(variable, pool):
        if row is not None:
            value = str(row[0])
            counts[value] = counts.get(value, 0) + 1
    return counts


def _pearson_chi2(f_obs: Sequence[int], f_exp: Sequence[float]) -> tuple[float, float]:
    """Pearson goodness-of-fit statistic and its upper-tail p-value.

    The same arithmetic as ``scipy.stats.chisquare`` (float64 terms, numpy
    sum, ``chdtrc`` with k - 1 degrees of freedom, the same sum check),
    without importing scipy. ``chdtrc`` is ``rwdval._chi2``, a pure-Python
    port of scipy's Cephes ``igamc`` for up to 40 degrees of freedom; its
    test oracle is ``scipy.special.chdtrc``, which it equals bit for bit.
    Above 40 degrees of freedom it calls scipy itself.
    """
    obs = np.asarray(f_obs, dtype=np.float64)
    exp = np.asarray(f_exp, dtype=np.float64)
    obs_sum, exp_sum = obs.sum(), exp.sum()
    rtol = np.finfo(np.float64).eps ** 0.5
    if abs(obs_sum - exp_sum) / min(obs_sum, exp_sum) > rtol:
        raise ValueError(
            f"observed total {obs_sum} and expected total {exp_sum} differ by more "
            f"than a relative {rtol}"
        )
    stat = np.sum((obs - exp) ** 2 / exp)
    return float(stat), chdtrc(len(obs) - 1, stat)


def compare_distribution(
    observed: Mapping[str, int], reference: Mapping[str, float]
) -> DistributionComparison:
    """Observed category counts versus a reference distribution.

    Categories are unioned with zero fill on either side. Total variation
    distance is always reported; the chi-square goodness-of-fit statistic
    is computed only when there are at least two categories, every
    expected count is at least 5 and the reference puts mass on every
    observed category.
    """
    if any(c < 0 for c in observed.values()):
        raise ValueError("observed counts must be non-negative")
    n = sum(observed.values())
    if n == 0:
        raise ValueError("observed distribution is empty")
    ref_total = float(sum(reference.values()))
    if ref_total <= 0 or any(p < 0 for p in reference.values()):
        raise ValueError("reference distribution needs non-negative mass summing > 0")
    categories = sorted(set(observed) | set(reference))
    per_category = {}
    tvd = 0.0
    for cat in categories:
        obs = observed.get(cat, 0) / n
        ref = reference.get(cat, 0.0) / ref_total
        per_category[cat] = (obs, ref, obs - ref)
        tvd += abs(obs - ref)
    tvd *= 0.5
    chi2 = pvalue = None
    applicable = True
    reason = None
    expected = [n * reference.get(cat, 0.0) / ref_total for cat in categories]
    if len(categories) < 2:
        applicable = False
        reason = "one category leaves no degrees of freedom"
    elif any(e == 0 for e in expected):
        applicable = False
        reason = "reference has zero mass on an observed category"
    elif min(expected) < 5:
        applicable = False
        reason = f"smallest expected count {min(expected):.2f} is below 5"
    else:
        chi2, pvalue = _pearson_chi2([observed.get(cat, 0) for cat in categories], expected)
    return DistributionComparison(
        n=n,
        tvd=tvd,
        per_category=per_category,
        chi2=chi2,
        chi2_pvalue=pvalue,
        chi2_applicable=applicable,
        chi2_reason=reason,
    )


# ---- trend series ----


@dataclass
class TrendSeries:
    variable: str
    months: list[str]
    counts: list[int]


def trend_series(labels: LabelSet, variable: str) -> TrendSeries:
    """Zero-filled monthly record counts for a dated variable."""
    months, counts = monthly_counts(labels, variable)
    return TrendSeries(variable=variable, months=months, counts=counts)


@dataclass
class TrendComparison:
    months: list[str]
    counts_a: list[int]
    counts_b: list[int]
    correlation: float | None
    max_abs_count_diff: int


def compare_trend(a: TrendSeries, b: TrendSeries) -> TrendComparison:
    """Align two monthly series on the union of their spans and compare."""
    span = sorted(set(a.months) | set(b.months))
    map_a = dict(zip(a.months, a.counts))
    map_b = dict(zip(b.months, b.counts))
    ca = [map_a.get(m, 0) for m in span]
    cb = [map_b.get(m, 0) for m in span]
    correlation = None
    if len(span) >= 2 and len(set(ca)) > 1 and len(set(cb)) > 1:
        correlation = float(np.corrcoef(ca, cb)[0, 1])
    return TrendComparison(
        months=span,
        counts_a=ca,
        counts_b=cb,
        correlation=correlation,
        max_abs_count_diff=max(abs(x - y) for x, y in zip(ca, cb)) if span else 0,
    )


# ---- benchmark concordance ----


@dataclass(frozen=True, kw_only=True)
class DirectionBenchmark:
    """Published finding: the ``higher`` group's median exceeds the ``lower`` one's."""

    name: str = "benchmark"
    higher: str
    lower: str


@dataclass(frozen=True, kw_only=True)
class ToleranceBenchmark:
    """Published figure: one group's median, replicated within a tolerance."""

    name: str = "benchmark"
    group: str
    expected_median: float
    tolerance: float

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise ValueError(f"tolerance: must be non-negative in benchmark {self.name}, got {self.tolerance}")


BenchmarkSpec = DirectionBenchmark | ToleranceBenchmark


@dataclass
class ConcordanceResult:
    benchmark: str
    concordant: bool
    reason: str
    observed: dict[str, float | None]


def benchmark_concordance(
    benchmark: BenchmarkSpec, medians: Mapping[str, float | None]
) -> ConcordanceResult:
    """Score observed group medians against one external benchmark.

    A group the benchmark names has no median when ``medians`` lacks it
    (the group is absent, empty or suppressed) or maps it to None. Either
    way the result is non-concordant with the reason stated, because the
    direction or value cannot be established.
    """
    if isinstance(benchmark, DirectionBenchmark):
        groups = (benchmark.higher, benchmark.lower)
    elif isinstance(benchmark, ToleranceBenchmark):
        groups = (benchmark.group,)
    else:
        raise TypeError(f"unsupported benchmark {benchmark!r}")
    observed = {group: medians.get(group) for group in groups}
    undefined = sorted(g for g, m in observed.items() if m is None)
    if isinstance(benchmark, DirectionBenchmark):
        m_hi, m_lo = observed[benchmark.higher], observed[benchmark.lower]
        if undefined:
            concordant = False
            reason = f"median undefined for {', '.join(undefined)}; direction cannot be established"
        elif m_hi > m_lo:
            concordant, reason = True, f"median {m_hi:g} > {m_lo:g} as published"
        else:
            concordant = False
            reason = f"median {m_hi:g} <= {m_lo:g}, direction reversed or erased"
    else:
        m, expected, tol = observed[benchmark.group], benchmark.expected_median, benchmark.tolerance
        if undefined:
            concordant, reason = False, "median undefined; value cannot be compared"
        elif abs(m - expected) <= tol:
            concordant, reason = True, f"median {m:g} within {tol:g} of {expected:g}"
        else:
            concordant = False
            reason = f"median {m:g} misses {expected:g} by {abs(m - expected):g} (> {tol:g})"
    return ConcordanceResult(
        benchmark=benchmark.name, concordant=concordant, reason=reason, observed=observed
    )


# ---- grouped survival: survival benchmarks and equity analyses ----


@dataclass
class EquityReport:
    curves: dict[str, KMCurve]
    medians: dict[str, float | None]
    group_sizes: dict[str, int]
    suppressed: list[str]
    concordance: ConcordanceResult | None


def equity_replication(
    groups: Mapping[str, Sequence[SurvivalRecord]],
    *,
    min_stratum_n: int = 20,
    benchmark: BenchmarkSpec | None = None,
) -> EquityReport:
    """One Kaplan-Meier curve per group, then one benchmark verdict.

    The one grouped-survival path: a survival benchmark calls it with a
    floor of 1, an equity analysis with the run's ``min_stratum_n``. A
    group with fewer records than ``min_stratum_n`` is sized but
    suppressed; a group with no records is left out. When a benchmark is
    given (a published between-group difference or one group's median),
    it is scored on the fitted medians, so a group it names that is
    absent, empty or suppressed makes it non-concordant. Thin data raises
    nothing: when every group is suppressed, ``curves`` is empty.
    """
    curves: dict[str, KMCurve] = {}
    medians: dict[str, float | None] = {}
    sizes: dict[str, int] = {}
    suppressed: list[str] = []
    for key in sorted(groups):
        recs = groups[key]
        if not recs:
            continue
        sizes[key] = len(recs)
        if len(recs) < min_stratum_n:
            suppressed.append(key)
            continue
        curve = km_from_records(recs)
        curves[key] = curve
        medians[key] = curve.median()
    return EquityReport(
        curves=curves,
        medians=medians,
        group_sizes=sizes,
        suppressed=suppressed,
        concordance=None if benchmark is None else benchmark_concordance(benchmark, medians),
    )
