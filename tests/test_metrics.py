"""Metric computation against independent oracles.

The event matcher is checked against exhaustive enumeration of every
injective partial matching on small inputs and against an optimal
assignment solver on larger ones, the confusion logic against a from-scratch
reimplementation of the scoring rules, and the bootstrap against the
binomial standard error it should approximate.
"""

import math
import random
from datetime import date, timedelta
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from rwdval import (
    CohortDataset,
    ConfusionCounts,
    DerivedVariableRule,
    ErrorModel,
    ErrorRates,
    GeneratorConfig,
    LabelRecord,
    LabelSet,
    Source,
    VariableKind,
    VariableSpec,
    Schema,
    bootstrap_variable_ci,
    corrupt,
    compute_metrics,
    derive_variable,
    end_to_end_metrics,
    generate_truth,
    match_events,
    patient_rows,
    relative_difference,
    stratified_metrics,
    variable_metrics,
)
from rwdval.metrics import EVENT_PRESENCE, MetricReport, _percentile

from conftest import make_schema, rec
from oracles import bootstrap_ci, confusion, rescoring_oracle


D0 = date(2020, 1, 1)


def day(n: int) -> date:
    return D0 + timedelta(days=int(n))


# --- event matching vs exhaustive enumeration ---


def enumerate_best(pred_days, ref_days, tol):
    """Best matching by brute force: max cardinality, then min total
    distance, then lexicographically earliest (ref, pred) date pairs."""
    pred = sorted(day(p) for p in pred_days)
    ref = sorted(day(r) for r in ref_days)
    candidates = []
    for k in range(min(len(pred), len(ref)), -1, -1):
        for ref_sub in combinations(range(len(ref)), k):
            for pred_perm in permutations(range(len(pred)), k):
                dist = 0
                ok = True
                for ri, pj in zip(ref_sub, pred_perm):
                    d = abs((pred[pj] - ref[ri]).days)
                    if d > tol:
                        ok = False
                        break
                    dist += d
                if ok:
                    pairs = tuple(
                        sorted((ref[ri], pred[pj]) for ri, pj in zip(ref_sub, pred_perm))
                    )
                    candidates.append((-k, dist, pairs))
        if candidates:
            break  # lower cardinalities cannot win
    return min(candidates)


def test_match_events_equals_enumeration_randomized():
    rng = random.Random(20260822)
    for _ in range(400):
        n_pred = rng.randint(0, 6)
        n_ref = rng.randint(0, 6)
        pred = [rng.randint(0, 40) for _ in range(n_pred)]
        ref = [rng.randint(0, 40) for _ in range(n_ref)]
        tol = rng.choice([0, 3, 10, 30])
        got = match_events([day(p) for p in pred], [day(r) for r in ref], tol)
        neg_card, dist, pairs = enumerate_best(pred, ref, tol)
        assert got.n_matched == -neg_card, (pred, ref, tol)
        got_dist = sum(abs((p - r).days) for p, r in got.pairs)
        assert got_dist == dist, (pred, ref, tol)
        assert tuple(sorted((r, p) for p, r in got.pairs)) == pairs, (pred, ref, tol)
        # bookkeeping: every event is either paired or unmatched, once
        assert len(got.pairs) + len(got.unmatched_pred) == n_pred
        assert len(got.pairs) + len(got.unmatched_ref) == n_ref


def test_match_prefers_cardinality_over_distance():
    # pairing ref 10 with the nearer pred 11 would strand ref 16
    got = match_events([day(5), day(11)], [day(10), day(16)], 5)
    assert got.n_matched == 2
    assert got.pairs == ((day(5), day(10)), (day(11), day(16)))


def test_match_tolerance_is_inclusive():
    assert match_events([day(30)], [day(0)], 30).n_matched == 1
    assert match_events([day(31)], [day(0)], 30).n_matched == 0


def test_match_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        match_events([], [], -1)


def test_match_events_equals_linear_sum_assignment():
    # above the sizes enumeration can afford, an optimal assignment gives
    # the cardinality and total distance: an out-of-tolerance pair costs
    # more than any feasible total, so the assignment first avoids those
    rng = random.Random(7)
    for _ in range(60):
        n_pred = rng.randint(9, 20)
        n_ref = rng.randint(9, 20)
        pred = [rng.randint(0, 120) for _ in range(n_pred)]
        ref = [rng.randint(0, 120) for _ in range(n_ref)]
        tol = rng.choice([0, 5, 15])
        got = match_events([day(p) for p in pred], [day(r) for r in ref], tol)
        gap = np.abs(np.subtract.outer(ref, pred))
        penalty = min(n_pred, n_ref) * tol + 1
        rows, cols = linear_sum_assignment(np.where(gap <= tol, gap, penalty))
        feasible = gap[rows, cols] <= tol
        assert got.n_matched == int(feasible.sum()), (pred, ref, tol)
        got_dist = sum(abs((p - r).days) for p, r in got.pairs)
        assert got_dist == int(gap[rows, cols][feasible].sum()), (pred, ref, tol)


# --- confusion vs a from-scratch reimplementation ---


def naive_single_confusion(pred, ref, spec, variable, positive, tol, cohort):
    tp = fp = fn = with_date = date_ok = 0
    for pid in cohort:
        rrecs = ref.get(pid, variable)
        r = rrecs[0] if rrecs else None
        if r is None or r.value == spec.unknown_token:
            continue
        precs = pred.get(pid, variable)
        p = precs[0] if precs else None
        asserts = p is not None and p.value != spec.unknown_token
        if r.value == positive and asserts and p.value == positive:
            tp += 1
            if spec.kind == VariableKind.DATE and p.event_date and r.event_date:
                with_date += 1
                if abs((p.event_date - r.event_date).days) <= tol:
                    date_ok += 1
        elif r.value == positive:
            fn += 1
        elif asserts and p.value == positive:
            fp += 1
    return tp, fp, fn, with_date, date_ok


def random_single_labels(rng, schema, source, variable, values, dated):
    records = []
    for i in range(30):
        pid = f"p{i:02d}"
        roll = rng.random()
        if roll < 0.15:
            continue  # missing
        value = rng.choice(values)
        d = None
        if dated and value != "unknown" and rng.random() < 0.8:
            d = day(rng.randint(0, 90))
        records.append(LabelRecord(pid, variable, value, d, source))
    return LabelSet(schema, source, records)


def test_confusion_matches_naive_reimplementation():
    schema = make_schema()
    rng = random.Random(99)
    cohort = [f"p{i:02d}" for i in range(30)]
    for trial in range(80):
        pred = random_single_labels(rng, schema, Source.LLM, "surgery", ["yes", "no", "unknown"], True)
        ref = random_single_labels(
            rng, schema, Source.REFERENCE, "surgery", ["yes", "no", "unknown"], True
        )
        got = confusion(pred, ref, "surgery", "yes", tolerance_days=30, patients=cohort)
        tp, fp, fn, wd, ok = naive_single_confusion(
            pred, ref, schema["surgery"], "surgery", "yes", 30, cohort
        )
        assert (got.tp, got.fp, got.fn) == (tp, fp, fn), trial
        assert (got.n_matched_with_date, got.n_date_correct) == (wd, ok), trial


def test_non_assertion_is_never_a_false_positive(schema):
    # unknown or missing prediction against a positive reference: miss, not fp
    ref = LabelSet(
        schema,
        Source.REFERENCE,
        [
            LabelRecord("p1", "stage", "I", None, Source.REFERENCE),
            LabelRecord("p2", "stage", "I", None, Source.REFERENCE),
        ],
    )
    pred = LabelSet(schema, Source.LLM, [rec("p1", "stage", "unknown")])
    got = confusion(pred, ref, "stage", "I")
    assert (got.tp, got.fp, got.fn) == (0, 0, 2)


def test_unknown_reference_excludes_patient(schema):
    ref = LabelSet(
        schema,
        Source.REFERENCE,
        [LabelRecord("p1", "stage", "unknown", None, Source.REFERENCE)],
    )
    pred = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    got = confusion(pred, ref, "stage", "I")
    assert (got.tp, got.fp, got.fn) == (0, 0, 0)


def test_date_accuracy_conditions_on_matched_pairs_with_dates(schema):
    ref = LabelSet(
        schema,
        Source.REFERENCE,
        [
            LabelRecord("p1", "surgery", "yes", day(0), Source.REFERENCE),
            LabelRecord("p2", "surgery", "yes", day(0), Source.REFERENCE),
            LabelRecord("p3", "surgery", "yes", None, Source.REFERENCE),
            LabelRecord("p4", "surgery", "no", None, Source.REFERENCE),
        ],
    )
    pred = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "surgery", "yes", day(10)),   # matched, within tolerance
            rec("p2", "surgery", "yes", day(45)),   # matched, outside tolerance
            rec("p3", "surgery", "yes", day(3)),    # reference undated: excluded
            rec("p4", "surgery", "yes", day(3)),    # value mismatch: fp
        ],
    )
    got = confusion(pred, ref, "surgery", "yes")
    assert got.tp == 3 and got.fp == 1
    assert got.n_matched_with_date == 2 and got.n_date_correct == 1
    report = compute_metrics(got)
    assert report.date_accuracy == 0.5


def test_variable_tolerance_override_applies(schema2=None):
    schema = Schema(
        [
            VariableSpec(
                "surgery",
                VariableKind.DATE,
                allowed_values=frozenset({"yes", "unknown"}),
                unknown_token="unknown",
                date_tolerance_days=7,
            )
        ]
    )
    ref = LabelSet(
        schema, Source.REFERENCE, [LabelRecord("p1", "surgery", "yes", day(0), Source.REFERENCE)]
    )
    pred = LabelSet(schema, Source.LLM, [LabelRecord("p1", "surgery", "yes", day(10), Source.LLM)])
    got = confusion(pred, ref, "surgery", "yes", tolerance_days=30)
    assert got.n_date_correct == 0  # the 7-day override beats the 30-day default


def test_event_list_confusion_counts_events(schema):
    ref = LabelSet(
        schema,
        Source.REFERENCE,
        [
            LabelRecord("p1", "er_result", "positive", day(0), Source.REFERENCE),
            LabelRecord("p1", "er_result", "positive", day(200), Source.REFERENCE),
            LabelRecord("p1", "er_result", "negative", day(400), Source.REFERENCE),
        ],
    )
    pred = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "er_result", "positive", day(5)),
            rec("p1", "er_result", "positive", day(600)),  # no partner
        ],
    )
    got = confusion(pred, ref, "er_result", "positive")
    # restricted to the positive token: 2 ref events, 2 pred events, 1 match
    assert (got.tp, got.fp, got.fn) == (1, 1, 1)
    present = confusion(pred, ref, "er_result", EVENT_PRESENCE)
    # event presence ignores the token: negative ref event now counts too
    assert (present.tp, present.fp, present.fn) == (1, 1, 2)


def test_duplicate_patients_weight_confusion(schema):
    ref = LabelSet(
        schema, Source.REFERENCE, [LabelRecord("p1", "stage", "I", None, Source.REFERENCE)]
    )
    pred = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    got = confusion(pred, ref, "stage", "I", patients=["p1", "p1", "p1"])
    assert got.tp == 3


# --- metric derivation ---


def test_zero_denominators_stay_undefined():
    counts = ConfusionCounts(variable="stage", positive_class="I", tp=0, fp=0, fn=0)
    report = compute_metrics(counts)
    assert report.recall is None
    assert report.precision is None
    assert report.f1 is None
    assert report.date_accuracy is None
    as_dict = report.to_dict()
    assert as_dict["recall"] is None  # serializes as null, never 0


def test_metric_formulas():
    counts = ConfusionCounts(
        variable="surgery",
        positive_class="yes",
        tp=85,
        fp=10,
        fn=15,
        n_matched_with_date=80,
        n_date_correct=68,
    )
    report = compute_metrics(counts, completeness=(95, 100), n_patients=100)
    assert report.recall == 0.85
    assert report.precision == 85 / 95
    assert report.f1 == 2 * 85 / (2 * 85 + 10 + 15)
    assert report.date_accuracy == 0.85
    assert report.completeness == 0.95
    assert report.ratios["recall"] == (85, 100)
    assert report.ratios["date_accuracy"] == (68, 80)



@pytest.mark.parametrize(
    "tp, fp, fn, recall, precision",
    [(0, 0, 3, 0.0, None), (0, 2, 0, None, 0.0), (0, 0, 0, None, None), (0, 1, 1, 0.0, 0.0)],
)
def test_f1_is_undefined_unless_recall_and_precision_both_are(tp, fp, fn, recall, precision):
    report = compute_metrics(ConfusionCounts("stage", "I", tp=tp, fp=fp, fn=fn), completeness=(0, 0))
    assert (report.recall, report.precision) == (recall, precision)
    defined = recall is not None and precision is not None
    assert report.f1 == (0.0 if defined else None)
    assert set(report.ratios) == {"recall", "precision", "f1"} & {
        name for name in ("recall", "precision", "f1") if report.value(name) is not None
    }
    assert report.completeness is None

def test_completeness_counts_documented_known(schema):
    labels = LabelSet(
        schema,
        Source.LLM,
        [rec("p1", "stage", "I"), rec("p2", "stage", "unknown")],
    )
    ref = LabelSet(schema, Source.REFERENCE)
    report = variable_metrics(labels, ref, "stage", "I", patients=["p1", "p2", "p3"])
    assert report.ratios["completeness"] == (1, 3)
    empty = variable_metrics(labels, ref, "stage", "I", patients=[])
    assert empty.completeness is None and "completeness" not in empty.ratios


def test_relative_difference_is_exact(schema):
    llm = compute_metrics(
        ConfusionCounts("surgery", "yes", tp=85, fp=0, fn=15), n_patients=100
    )
    abstraction = compute_metrics(
        ConfusionCounts("surgery", "yes", tp=95, fp=0, fn=5), n_patients=100
    )
    rel = {r.metric: r for r in relative_difference(llm, abstraction)}
    assert rel["recall"].delta_pp == -10.0  # exact, via integer ratios
    assert rel["recall"].delta_pp == float(100 * (Fraction(85, 100) - Fraction(95, 100)))


def test_relative_difference_needs_matching_cohorts():
    a = compute_metrics(ConfusionCounts("s", "I", tp=1, fp=0, fn=0), n_patients=10)
    b = compute_metrics(ConfusionCounts("s", "I", tp=1, fp=0, fn=0), n_patients=11)
    with pytest.raises(ValueError):
        relative_difference(a, b)


# --- bootstrap ---


def test_bootstrap_deterministic_and_seed_sensitive():
    correct = {f"p{i}": (i % 10 != 0) for i in range(100)}

    def stat(sample):
        return sum(correct[p] for p in sample) / len(sample)

    a = bootstrap_ci(stat, sorted(correct), n_replicates=200, seed=5)
    b = bootstrap_ci(stat, sorted(correct), n_replicates=200, seed=5)
    c = bootstrap_ci(stat, sorted(correct), n_replicates=200, seed=6)
    assert a == b
    assert a != c
    assert a[0] <= 0.9 <= a[1]


def test_bootstrap_width_tracks_binomial_error():
    n, p = 200, 0.9
    correct = {f"p{i:03d}": (i < int(n * p)) for i in range(n)}

    def stat(sample):
        return sum(correct[q] for q in sample) / len(sample)

    lo, hi = bootstrap_ci(stat, sorted(correct), n_replicates=2000, seed=11)
    expected_width = 2 * 1.96 * math.sqrt(p * (1 - p) / n)
    assert 0.7 * expected_width < hi - lo < 1.3 * expected_width


def test_bootstrap_drops_undefined_replicates():
    flagged = {"p1": True, "p2": False}

    def stat(sample):
        pos = [p for p in sample if flagged[p]]
        if not pos:
            return None
        return 1.0

    got = bootstrap_ci(stat, ["p1", "p2"], n_replicates=50, seed=0)
    assert got == (1.0, 1.0)


def test_bootstrap_mapping_statistic():
    correct = {f"p{i}": i % 2 == 0 for i in range(40)}

    def stat(sample):
        frac = sum(correct[p] for p in sample) / len(sample)
        return {"recall": frac, "precision": None}

    got = bootstrap_ci(stat, sorted(correct), n_replicates=100, seed=3)
    assert set(got) == {"recall"}  # all-None metrics are dropped
    lo, hi = got["recall"]
    assert lo <= 0.5 <= hi


@pytest.mark.parametrize(
    "n, n_replicates, seed", [(1, 5, 0), (2, 40, 1), (7, 30, 5), (101, 25, 12345), (4097, 3, 9)]
)
def test_bootstrap_resamples_are_the_rows_of_one_whole_draw(n, n_replicates, seed):
    """Drawing one replicate at a time gives the stream of the one-shot draw."""
    patients = [f"p{i}" for i in range(n)]
    position = {p: i for i, p in enumerate(patients)}
    seen = []

    def stat(sample):
        seen.append([position[p] for p in sample])
        return 0.0

    bootstrap_ci(stat, patients, n_replicates=n_replicates, seed=seed)
    whole = np.random.default_rng(seed).integers(0, n, size=(n_replicates, n))
    assert seen[0] == list(range(n))  # the point estimate sees the cohort itself
    assert seen[1:] == whole.tolist()


# replicate metrics are ratios of small counts, so they tie often
_ratios = st.builds(lambda num, den: min(num, den) / den, st.integers(0, 12), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 300).flatmap(lambda n: st.lists(st.one_of(_ratios, st.floats(0, 1)), min_size=n, max_size=n)),
    # 50 on an even number of values puts the point halfway between two of them
    st.one_of(st.sampled_from([2.5, 97.5, 50.0]), st.floats(0, 100)),
)
@example([0.0, 1.0], 50.0)
@example([0.1], 2.5)
# past the midpoint numpy interpolates down from the upper value, which
# differs from a + (b - a) * t in the last bit on these
@example([0.0, 1 / 7], 60.0)
@example([0.0] * 5 + [7 / 12, 2.25], 97.5)
def test_percentile_equals_numpy_default_percentile(values, q):
    got = _percentile(np.sort(values), q)
    assert got.hex() == float(np.percentile(values, q)).hex()


# --- per-patient rows against the re-scoring oracle ---


@pytest.fixture(scope="module")
def scored_cohort():
    dataset = generate_truth(GeneratorConfig(n_patients=80), seed=3)
    noisy = ErrorRates(miss=0.1, flip=0.1, date_shift_rate=0.2, date_shift_days=45)
    clean = ErrorRates(miss=0.03, flip=0.02, date_shift_rate=0.05, date_shift_days=45)
    llm = corrupt(dataset, ErrorModel(default=noisy), source=Source.LLM, seed=4)
    a1 = corrupt(dataset, ErrorModel(default=clean), source=Source.ABSTRACTOR_1, seed=5)
    return dataset, llm, a1


ROW_TARGETS = [
    ("stage", "III"),  # categorical
    ("surgery", "yes"),  # date
    ("er_result", EVENT_PRESENCE),  # event list, any known event
    ("er_result", "negative"),  # event list, one token
]


@pytest.mark.parametrize("variable,positive", ROW_TARGETS)
def test_bootstrap_variable_ci_equals_the_rescoring_oracle(scored_cohort, variable, positive):
    dataset, llm, _ = scored_cohort
    ref = dataset.labels(Source.REFERENCE)
    cohort = sorted(dataset.patients)
    for patients in (cohort, cohort[:9] * 3):  # the second repeats every patient
        got = bootstrap_variable_ci(
            patient_rows(llm, ref, variable, positive, patients=patients), n_replicates=60, seed=2
        )
        want = bootstrap_ci(
            rescoring_oracle(llm, ref, variable, positive), patients, n_replicates=60, seed=2
        )
        assert got, (variable, positive)
        assert got == want



@pytest.mark.parametrize("variable,positive", ROW_TARGETS)
def test_bootstrap_variable_ci_brackets_the_point_with_few_replicates(scored_cohort, variable, positive):
    """One to three replicates rarely bracket the point, so the clamp decides the interval."""
    dataset, llm, _ = scored_cohort
    ref = dataset.labels(Source.REFERENCE)
    cohort = sorted(dataset.patients)[:12]
    rows = patient_rows(llm, ref, variable, positive, patients=cohort)
    point = rows.report()
    for n_replicates in (1, 2, 3):
        for seed in range(4):
            got = bootstrap_variable_ci(rows, n_replicates=n_replicates, seed=seed)
            want = bootstrap_ci(
                rescoring_oracle(llm, ref, variable, positive), cohort, n_replicates=n_replicates, seed=seed
            )
            assert got == want
            for name, (lo, hi) in got.items():
                if point.value(name) is not None:
                    assert lo <= point.value(name) <= hi, (name, lo, hi)

def test_bootstrap_variable_ci_drops_undefined_precision_like_the_oracle(schema):
    ref = LabelSet(
        schema,
        Source.REFERENCE,
        [LabelRecord(p, "stage", "I", None, Source.REFERENCE) for p in ("p1", "p2", "p3")],
    )
    # only p1 asserts the positive class: resamples without p1 have no precision
    pred = LabelSet(
        schema, Source.LLM, [rec("p1", "stage", "I"), rec("p2", "stage", "II")]
    )
    cohort = ["p1", "p2", "p3"]
    seen = []
    want = bootstrap_ci(
        rescoring_oracle(pred, ref, "stage", "I", seen), cohort, n_replicates=80, seed=1
    )
    assert any(rep.precision is None for rep in seen)
    assert "precision" in want
    got = bootstrap_variable_ci(patient_rows(pred, ref, "stage", "I", patients=cohort), n_replicates=80, seed=1)
    assert got == want


@pytest.mark.parametrize("variable,positive", ROW_TARGETS)
def test_stratified_metrics_equal_variable_metrics_per_stratum(scored_cohort, variable, positive):
    dataset, llm, a1 = scored_cohort
    ref = dataset.labels(Source.REFERENCE)
    cohort = sorted(dataset.patients)
    llm_rows, a1_rows = (patient_rows(side, ref, variable, positive, patients=cohort) for side in (llm, a1))
    for attr in ("race_ethnicity", "treatment_arm"):
        got = stratified_metrics(llm_rows, a1_rows, dataset.strata(attr), min_stratum_n=10)
        strata = dataset.strata(attr)
        assert set(got) == set(strata)
        for stratum, entry in got.items():
            if entry.suppressed:
                continue
            pids = strata[stratum]
            assert entry.llm == variable_metrics(llm, ref, variable, positive, patients=pids)
            assert entry.abstraction == variable_metrics(a1, ref, variable, positive, patients=pids)
            assert entry.relative == relative_difference(entry.llm, entry.abstraction)



@pytest.mark.parametrize("variable,positive", ROW_TARGETS)
def test_patient_rows_report_equals_variable_metrics_on_the_patients_taken(scored_cohort, variable, positive):
    dataset, llm, _ = scored_cohort
    ref = dataset.labels(Source.REFERENCE)
    cohort = sorted(dataset.patients)
    rows = patient_rows(llm, ref, variable, positive, patients=cohort)
    assert rows.patients == tuple(cohort)
    assert (rows.variable, rows.positive_class) == (variable, positive)
    assert rows.report() == variable_metrics(llm, ref, variable, positive, patients=cohort)
    picks = np.random.default_rng(7).integers(0, len(cohort), size=len(cohort))
    for take in (slice(5, 30), [3, 3, 0, 41], picks, []):
        pids = [cohort[i] for i in np.arange(len(cohort))[take]]
        assert rows.report(take) == variable_metrics(llm, ref, variable, positive, patients=pids)


def test_stratified_metrics_rejects_sides_over_different_patients(schema):
    ref = LabelSet(schema, Source.REFERENCE, [LabelRecord("p1", "stage", "I", None, Source.REFERENCE)])
    llm = patient_rows(ref, ref, "stage", "I", patients=["p1", "p2"])
    a1 = patient_rows(ref, ref, "stage", "I", patients=["p2", "p1"])
    with pytest.raises(ValueError, match="same patients"):
        stratified_metrics(llm, a1, {"all": ["p1", "p2"]}, min_stratum_n=1)


def test_bootstrap_variable_ci_rejects_an_empty_cohort_or_no_replicates(schema):
    ref = LabelSet(schema, Source.REFERENCE, [LabelRecord("p1", "stage", "I", None, Source.REFERENCE)])
    with pytest.raises(ValueError, match="non-empty cohort"):
        bootstrap_variable_ci(patient_rows(ref, ref, "stage", "I", patients=[]))
    with pytest.raises(ValueError, match="n_replicates"):
        bootstrap_variable_ci(patient_rows(ref, ref, "stage", "I"), n_replicates=0)


# --- derived variables ---


def tnbc_like_rule():
    return DerivedVariableRule(
        name="triple_negative",
        index_variable="surgery",
        components=(("er_result", "negative"),),
        window_days=(-60, 60),
    )


def test_derive_variable_cases(schema):
    labels = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "surgery", "yes", day(100)),
            rec("p1", "er_result", "negative", day(120)),
            rec("p2", "surgery", "yes", day(100)),
            rec("p2", "er_result", "positive", day(120)),
            rec("p3", "surgery", "yes", day(100)),
            rec("p3", "er_result", "negative", day(300)),  # outside the window
            rec("p4", "er_result", "negative", day(100)),  # no index date
            rec("p5", "surgery", "unknown"),
            rec("p5", "er_result", "negative", day(100)),
            # a dated negation is not an index event, even though the date
            # would anchor the window
            rec("p6", "surgery", "no", day(100)),
            rec("p6", "er_result", "negative", day(100)),
        ],
    )
    got = derive_variable(
        tnbc_like_rule(), labels, cohort=["p1", "p2", "p3", "p4", "p5", "p6"]
    )
    assert got == {
        "p1": "positive",
        "p2": "negative",
        "p3": "unknown",
        "p4": "unknown",
        "p5": "unknown",
        "p6": "unknown",
    }


def test_derive_variable_nearest_wins_ties_to_earlier(schema):
    labels = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "surgery", "yes", day(100)),
            rec("p1", "er_result", "positive", day(90)),   # 10 days before
            rec("p1", "er_result", "negative", day(110)),  # 10 days after
        ],
    )
    got = derive_variable(tnbc_like_rule(), labels, cohort=["p1"])
    # tie on |10 days|: the earlier record (positive) wins, so the required
    # negative is contradicted; had the later record won this would be positive
    assert got == {"p1": "negative"}


def test_derive_variable_rejects_unknown_required_token(schema):
    rule = DerivedVariableRule(
        name="bad",
        index_variable="surgery",
        components=(("er_result", "bogus"),),
    )
    labels = LabelSet(schema, Source.LLM)
    with pytest.raises(ValueError):
        derive_variable(rule, labels)


def test_end_to_end_metrics_with_abstraction(schema):
    ref = LabelSet(
        schema,
        Source.REFERENCE,
        [
            LabelRecord("p1", "surgery", "yes", day(100), Source.REFERENCE),
            LabelRecord("p1", "er_result", "negative", day(110), Source.REFERENCE),
            LabelRecord("p2", "surgery", "yes", day(100), Source.REFERENCE),
            LabelRecord("p2", "er_result", "negative", day(110), Source.REFERENCE),
        ],
    )
    pred = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "surgery", "yes", day(100)),
            rec("p1", "er_result", "negative", day(110)),
            rec("p2", "surgery", "yes", day(100)),
            rec("p2", "er_result", "positive", day(110)),  # flipped component
        ],
    )
    a1 = ref.relabel(Source.ABSTRACTOR_1)
    got = end_to_end_metrics(tnbc_like_rule(), pred, ref, a1)
    assert got.llm.recall == 0.5
    assert got.abstraction.recall == 1.0
    rel = {r.metric: r.delta_pp for r in got.relative}
    assert rel["recall"] == -50.0


# --- stratification ---


def test_stratified_metrics_suppresses_small_strata(schema):
    patients = {f"a{i}": {"race": "groupA"} for i in range(4)}
    patients.update({f"b{i}": {"race": "groupB"} for i in range(2)})
    records_ref = [
        LabelRecord(pid, "stage", "I", None, Source.REFERENCE) for pid in patients
    ]
    ref = LabelSet(schema, Source.REFERENCE, records_ref)
    pred = LabelSet(schema, Source.LLM, [rec(pid, "stage", "I") for pid in patients])
    ds = CohortDataset(schema=schema, patients=patients, label_sets={})
    got = stratified_metrics(
        patient_rows(pred, ref, "stage", "I", patients=sorted(ds.patients)), None, ds.strata("race"), min_stratum_n=3
    )
    assert got["groupA"].suppressed is False
    assert got["groupA"].llm.recall == 1.0
    assert got["groupB"].suppressed is True
    assert got["groupB"].llm is None
    assert got["groupB"].n == 2


_counts = st.tuples(*[st.integers(0, 10**6)] * 3)


@settings(max_examples=300, deadline=None)
@given(_counts, _counts, st.integers(1, 10**6))
def test_relative_difference_equals_the_rational_difference(llm_counts, abstraction_counts, n):
    llm, abstraction = (
        compute_metrics(ConfusionCounts("s", "I", *counts), completeness=(min(counts[0], n), n), n_patients=n)
        for counts in (llm_counts, abstraction_counts)
    )
    got = {r.metric: r.delta_pp for r in relative_difference(llm, abstraction)}
    want = {
        name: float(100 * (Fraction(*llm.ratios[name]) - Fraction(*abstraction.ratios[name])))
        for name in llm.ratios.keys() & abstraction.ratios.keys()
    }
    assert got == want
