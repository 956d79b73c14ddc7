"""Replication analyses: distributions, trends, curves, benchmarks, equity."""

from datetime import date, timedelta

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from rwdval import (
    CohortDataset,
    DirectionBenchmark,
    LabelSet,
    Source,
    SurvivalRecord,
    ToleranceBenchmark,
    benchmark_concordance,
    breast_schema,
    compare_curves,
    compare_distribution,
    compare_trend,
    equity_replication,
    km_estimate,
    survival_records,
    trend_series,
)
from rwdval.replication import _pearson_chi2, distribution_from_labels

from conftest import rec


D0 = date(2020, 1, 1)


def day(n):
    return D0 + timedelta(days=int(n))


# --- survival record assembly ---


def survival_labels():
    schema = breast_schema()
    records = []

    def add(pid, var, value, d=None):
        records.append(rec(pid, var, value, d))

    # p1: event 100 days after index
    add("p1", "metastatic_dx", "yes", day(0))
    add("p1", "death", "yes", day(100))
    # p2: censored at last contact, day 300
    add("p2", "metastatic_dx", "yes", day(0))
    add("p2", "death", "no")
    add("p2", "last_contact", "yes", day(300))
    # p3: no index date
    add("p3", "death", "yes", day(50))
    # p4: death asserted but undated
    add("p4", "metastatic_dx", "yes", day(0))
    add("p4", "death", "yes")
    # p5: no follow-up anchor at all
    add("p5", "metastatic_dx", "yes", day(0))
    # p6: death recorded before index
    add("p6", "metastatic_dx", "yes", day(200))
    add("p6", "death", "yes", day(100))
    return LabelSet(schema, Source.LLM, records)


def test_survival_records_exclusion_accounting():
    cohort = survival_records(
        survival_labels(),
        index_variable="metastatic_dx",
        event_variable="death",
        censor_variable="last_contact",
    )
    assert cohort.n_included == 2
    assert cohort.n_no_index == 1
    assert cohort.n_undated_event == 1
    assert cohort.n_no_followup == 1
    assert cohort.n_negative_duration == 1
    by_pid = {r.patient_id: r for r in cohort.records}
    assert by_pid["p1"].event and by_pid["p1"].duration_days == 100
    assert not by_pid["p2"].event and by_pid["p2"].duration_days == 300


def test_survival_records_administrative_censoring():
    cohort = survival_records(
        survival_labels(),
        index_variable="metastatic_dx",
        event_variable="death",
        censor_variable="last_contact",
        max_followup_days=250,
    )
    by_pid = {r.patient_id: r for r in cohort.records}
    # p2's 300-day follow-up is clipped to the horizon and stays censored
    assert by_pid["p2"].duration_days == 250
    assert not by_pid["p2"].event
    # p1's event at 100 days is untouched
    assert by_pid["p1"].event


def test_survival_records_rejects_undated_variables():
    schema = breast_schema()
    labels = LabelSet(schema, Source.LLM)
    with pytest.raises(ValueError):
        survival_records(
            labels,
            index_variable="stage",
            event_variable="death",
            censor_variable="last_contact",
        )


# --- curve comparison ---


def test_compare_curves_sup_norm_and_medians():
    a = km_estimate([2, 4, 6, 8], [True, True, True, True])
    b = km_estimate([2, 4, 6, 8], [True, False, True, False])
    cmp = compare_curves(a, b, at_times=[4])
    assert cmp.median_a == 4.0
    assert cmp.median_b == 6.0
    assert cmp.median_delta == -2.0
    # S_a: 0.75/0.5/0.25/0; S_b: 0.75 then 0.375; widest apart at t=8
    assert cmp.max_abs_diff == pytest.approx(0.375)
    assert cmp.max_abs_diff_at == 8.0
    assert cmp.survival_deltas == [(4.0, 0.5, 0.75, -0.25)]


def test_compare_curves_median_delta_propagates_none():
    a = km_estimate([5, 6], [True, False])  # S stays at 0.5... exactly 0.5 counts
    b = km_estimate([5, 6, 7], [False, False, False])  # no events: S = 1
    cmp = compare_curves(a, b)
    assert cmp.median_b is None
    assert cmp.median_delta is None


def test_compare_curves_horizon_is_shorter_followup():
    a = km_estimate([10, 20, 30], [True, True, True])
    b = km_estimate([10, 15], [True, False])
    cmp = compare_curves(a, b)
    assert cmp.common_horizon == 15.0
    # event times beyond the horizon are not scanned
    assert all(t <= 15.0 for t in [cmp.max_abs_diff_at] if t is not None)


# --- distribution comparison ---


def test_tvd_arithmetic():
    observed = {"A": 60, "B": 40}
    reference = {"A": 0.5, "B": 0.5}
    cmp = compare_distribution(observed, reference)
    assert cmp.n == 100
    assert cmp.tvd == pytest.approx(0.1)
    assert cmp.per_category["A"] == (0.6, 0.5, pytest.approx(0.1))
    assert cmp.chi2_applicable
    assert cmp.chi2 == pytest.approx((60 - 50) ** 2 / 50 + (40 - 50) ** 2 / 50)


def test_reference_normalized_by_its_sum():
    cmp = compare_distribution({"A": 30, "B": 70}, {"A": 30.0, "B": 70.0})
    assert cmp.tvd == 0.0


def test_chi2_gated_on_small_expected_counts():
    cmp = compare_distribution({"A": 9, "B": 1}, {"A": 0.7, "B": 0.3})
    assert not cmp.chi2_applicable
    assert cmp.chi2 is None
    assert "below 5" in cmp.chi2_reason
    assert cmp.tvd > 0  # TVD is still reported


def test_chi2_gated_on_zero_reference_mass():
    cmp = compare_distribution({"A": 50, "B": 50}, {"A": 1.0})
    assert not cmp.chi2_applicable
    assert "zero mass" in cmp.chi2_reason


def test_distribution_zero_fills_union_categories():
    cmp = compare_distribution({"A": 10}, {"A": 0.5, "B": 0.5})
    assert cmp.per_category["B"] == (0.0, 0.5, -0.5)
    assert cmp.tvd == pytest.approx(0.5)


def test_distribution_input_validation():
    with pytest.raises(ValueError):
        compare_distribution({}, {"A": 1.0})
    with pytest.raises(ValueError):
        compare_distribution({"A": -1}, {"A": 1.0})
    with pytest.raises(ValueError):
        compare_distribution({"A": 1}, {})


def _chisquare_oracle(observed, reference):
    """The chi-square fields as computed through ``scipy.stats.chisquare``."""
    n = sum(observed.values())
    ref_total = float(sum(reference.values()))
    categories = sorted(set(observed) | set(reference))
    expected = [n * reference.get(cat, 0.0) / ref_total for cat in categories]
    if len(categories) < 2:  # chisquare would give NaN on 0 degrees of freedom
        return None, None, False, "one category leaves no degrees of freedom"
    if any(e == 0 for e in expected):
        return None, None, False, "reference has zero mass on an observed category"
    if min(expected) < 5:
        return None, None, False, f"smallest expected count {min(expected):.2f} is below 5"
    res = chisquare(f_obs=[observed.get(cat, 0) for cat in categories], f_exp=expected)
    return float(res.statistic), float(res.pvalue), True, None


@st.composite
def _distributions(draw):
    """1-8 categories, zero counts, reference masses from 1e-4 to 1e4, and
    sometimes a category the reference leaves out or gives no mass."""
    categories = [f"c{i}" for i in range(draw(st.integers(1, 8)))]
    observed = {cat: draw(st.integers(0, 2000)) for cat in categories}
    reference = {
        cat: draw(st.floats(0.01, 10.0)) * 10.0 ** draw(st.integers(-2, 3)) for cat in categories
    }
    if draw(st.booleans()):
        gap = draw(st.sampled_from(categories))
        if draw(st.booleans()):
            del reference[gap]
        else:
            reference[gap] = 0.0
    assume(sum(observed.values()) > 0 and sum(reference.values()) > 0)
    return observed, reference


@settings(max_examples=600, deadline=None)
@given(_distributions())
def test_chi2_equals_scipy_stats_chisquare(distributions):
    observed, reference = distributions
    cmp = compare_distribution(observed, reference)
    got = (cmp.chi2, cmp.chi2_pvalue, cmp.chi2_applicable, cmp.chi2_reason)
    want = _chisquare_oracle(observed, reference)
    assert got == want


def test_pearson_chi2_keeps_the_sum_check():
    with pytest.raises(ValueError):
        chisquare(f_obs=[10, 10], f_exp=[5.0, 5.0])
    with pytest.raises(ValueError):
        _pearson_chi2([10, 10], [5.0, 5.0])
    # totals that differ within the relative tolerance sqrt(eps) still pass
    res = chisquare(f_obs=[10, 10], f_exp=[10.0, 10.0 + 1e-9])
    assert _pearson_chi2([10, 10], [10.0, 10.0 + 1e-9]) == (res.statistic, res.pvalue)


def test_distribution_from_labels_counts_known_values(schema):
    labels = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "stage", "I"),
            rec("p2", "stage", "I"),
            rec("p3", "stage", "II"),
            rec("p4", "stage", "unknown"),
        ],
    )
    assert distribution_from_labels(labels, "stage") == {"I": 2, "II": 1}
    with pytest.raises(ValueError):
        distribution_from_labels(labels, "er_result")


# --- trend comparison ---


def trend_of(schema, dated, variable="surgery"):
    records = [
        rec(f"p{i}", variable, "yes", d) for i, d in enumerate(dated)
    ]
    return trend_series(LabelSet(schema, Source.LLM, records), variable)


def test_compare_trend_unions_spans(schema):
    a = trend_of(schema, [date(2020, 1, 5), date(2020, 1, 6), date(2020, 3, 2)])
    b = trend_of(schema, [date(2020, 2, 10), date(2020, 4, 1)])
    cmp = compare_trend(a, b)
    assert cmp.months == ["2020-01", "2020-02", "2020-03", "2020-04"]
    assert cmp.counts_a == [2, 0, 1, 0]
    assert cmp.counts_b == [0, 1, 0, 1]
    assert cmp.max_abs_count_diff == 2


def test_compare_trend_correlation_needs_variation(schema):
    a = trend_of(schema, [date(2020, 1, 1), date(2020, 2, 1)])
    b = trend_of(schema, [date(2020, 1, 1), date(2020, 2, 1)])
    # both series are flat 1,1: correlation undefined
    assert compare_trend(a, b).correlation is None
    c = trend_of(schema, [date(2020, 1, 1), date(2020, 1, 2), date(2020, 2, 1)])
    d = trend_of(schema, [date(2020, 1, 1), date(2020, 1, 2), date(2020, 2, 1)])
    assert compare_trend(c, d).correlation == pytest.approx(1.0)


# --- benchmark concordance ---


def test_direction_benchmark_concordant():
    bm = DirectionBenchmark(name="arm_gap", higher="A", lower="B")
    got = benchmark_concordance(bm, {"A": 420.0, "B": 330.0})
    assert got.concordant
    assert "as published" in got.reason


def test_direction_benchmark_reversed():
    bm = DirectionBenchmark(name="arm_gap", higher="A", lower="B")
    got = benchmark_concordance(bm, {"A": 300.0, "B": 330.0})
    assert not got.concordant


def test_direction_benchmark_undefined_median_is_discordant_with_reason():
    bm = DirectionBenchmark(name="arm_gap", higher="A", lower="B")
    got = benchmark_concordance(bm, {"A": None, "B": 330.0})
    assert not got.concordant
    assert "median undefined for A" in got.reason


def test_direction_benchmark_missing_group_reads_as_undefined():
    # absent, empty and suppressed groups all reach the verdict as a missing median
    bm = DirectionBenchmark(name="arm_gap", higher="A", lower="B")
    got = benchmark_concordance(bm, {"A": 420.0})
    assert (got.concordant, got.reason, got.observed) == (
        False,
        "median undefined for B; direction cannot be established",
        {"A": 420.0, "B": None},
    )


def test_tolerance_benchmark():
    bm = ToleranceBenchmark(name="os_a", group="A", expected_median=400.0, tolerance=30.0)
    assert benchmark_concordance(bm, {"A": 420.0}).concordant
    missed = benchmark_concordance(bm, {"A": 440.0})
    assert not missed.concordant
    assert "misses" in missed.reason
    undefined = benchmark_concordance(bm, {"A": None})
    assert not undefined.concordant
    assert "undefined" in undefined.reason
    with pytest.raises(ValueError):
        ToleranceBenchmark(name="bad", group="A", expected_median=1.0, tolerance=-1.0)


_DIRECTION = DirectionBenchmark(name="arm_gap", higher="A", lower="B")
_TOLERANCE = ToleranceBenchmark(name="os_a", group="A", expected_median=400.0, tolerance=30.0)


@pytest.mark.parametrize(
    "spec, medians, concordant, reason",
    [
        (_DIRECTION, {"A": 420.5, "B": 330.0}, True, "median 420.5 > 330 as published"),
        (_DIRECTION, {"A": 300.0, "B": 330.0}, False, "median 300 <= 330, direction reversed or erased"),
        (
            _DIRECTION,
            {"A": None, "B": None},
            False,
            "median undefined for A, B; direction cannot be established",
        ),
        (_TOLERANCE, {"A": 420.0}, True, "median 420 within 30 of 400"),
        (_TOLERANCE, {"A": 440.5}, False, "median 440.5 misses 400 by 40.5 (> 30)"),
        (_TOLERANCE, {"A": None}, False, "median undefined; value cannot be compared"),
    ],
)
def test_concordance_reasons_are_exact(spec, medians, concordant, reason):
    # the reasons reach report.json and summary.txt, so their bytes are pinned
    got = benchmark_concordance(spec, {**medians, "C": 1.0})
    assert (got.benchmark, got.concordant, got.reason, got.observed) == (
        spec.name,
        concordant,
        reason,
        medians,
    )


# --- equity replication ---


def make_records(group, n, event_day, *, events=True):
    return [
        SurvivalRecord(f"{group}{i}", D0, day(event_day + i), events)
        for i in range(n)
    ]


def by_stratum(*groups):
    """Records keyed by stratum: groupA from the first list, groupB from the second."""
    return dict(zip(("groupA", "groupB"), groups))


def test_equity_replication_per_stratum():
    bm = DirectionBenchmark(name="gap", higher="groupA", lower="groupB")
    report = equity_replication(by_stratum(make_records("a", 30, 400), make_records("b", 30, 200)), benchmark=bm)
    assert report.group_sizes == {"groupA": 30, "groupB": 30}
    assert report.medians["groupA"] > report.medians["groupB"]
    assert report.concordance.concordant
    assert report.suppressed == []


def test_equity_replication_suppresses_small_strata():
    report = equity_replication(by_stratum(make_records("a", 30, 400), make_records("b", 5, 200)))
    assert report.suppressed == ["groupB"]
    assert "groupB" not in report.medians
    assert report.group_sizes["groupB"] == 5


def test_equity_replication_unmapped_patients_form_missing_stratum():
    # the pipeline groups by CohortDataset.strata, which reads an absent attribute as "missing"
    records = make_records("a", 25, 300)
    dataset = CohortDataset(schema=breast_schema(), patients={r.patient_id: {} for r in records})
    by_pid = {r.patient_id: r for r in records}
    groups = {key: [by_pid[pid] for pid in pids] for key, pids in dataset.strata("race_ethnicity").items()}
    report = equity_replication(groups, min_stratum_n=20)
    assert list(report.curves) == ["missing"]


def test_equity_replication_all_suppressed_raises_nothing():
    report = equity_replication({"missing": make_records("a", 3, 100), "empty": []}, min_stratum_n=20)
    assert (report.curves, report.medians, report.group_sizes, report.suppressed) == ({}, {}, {"missing": 3}, ["missing"])


def test_equity_replication_scores_a_named_suppressed_or_empty_group_as_undefined():
    bm = DirectionBenchmark(name="gap", higher="groupA", lower="groupB")
    for thin in (make_records("b", 5, 200), []):
        report = equity_replication(by_stratum(make_records("a", 30, 400), thin), benchmark=bm)
        assert not report.concordance.concordant
        assert report.concordance.reason == "median undefined for groupB; direction cannot be established"
    tolerance = ToleranceBenchmark(name="a", group="groupZ", expected_median=1.0, tolerance=1.0)
    report = equity_replication(by_stratum(make_records("a", 30, 400)), benchmark=tolerance)
    assert report.concordance.reason == "median undefined; value cannot be compared"
