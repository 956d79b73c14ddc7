"""Release acceptance suite.

One test per criterion (AC1-AC9). Each computes its quantities, registers
a one-line PASS/FAIL verdict (repeated in the terminal summary), and
enforces the criterion's runtime budget.
"""

import math
import random
from collections import Counter, defaultdict
from dataclasses import replace
from datetime import date, timedelta
from fractions import Fraction
from time import perf_counter

import pytest
from click.testing import CliRunner

from rwdval import (
    AdjudicationError,
    CohortDataset,
    ConfusionCounts,
    DerivedVariableRule,
    DirectionBenchmark,
    ErrorModel,
    ErrorRates,
    GeneratorConfig,
    LabelSet,
    Source,
    adjudicate_from_oracle,
    benchmark_concordance,
    build_double_adjudication,
    build_duplicate_abstraction,
    build_triple_adjudication,
    compute_metrics,
    corrupt,
    default_suite_path,
    end_to_end_metrics,
    expected_end_to_end_recall,
    expected_metrics,
    find_disagreements,
    generate_truth,
    km_estimate,
    load_schema,
    load_suite,
    match_events,
    patient_rows,
    read_labels,
    relative_difference,
    run_all_checks,
    stratified_metrics,
    survival_records,
    variable_metrics,
    write_labels,
)
from rwdval.cli import main as cli_main

from conftest import acceptance_line, label_set, make_schema, rec
from test_metrics import day, enumerate_best
from test_survival import brute_force_km

SEED = 20260801


def verdict(name: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    acceptance_line(f"{name} {status} ({elapsed:.1f}s): {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget:.0f}s"


# --- AC1: reported performance deltas are exact ---


def _duplicate_scores(schema, llm_recs, a1_recs, truth_recs, variable, positive):
    llm = label_set(schema, Source.LLM, llm_recs)
    a1 = label_set(schema, Source.ABSTRACTOR_1, a1_recs)
    a2 = label_set(schema, Source.ABSTRACTOR_2, truth_recs)
    ref = build_duplicate_abstraction(llm, a1, a2)
    cohort = sorted(ref.labels.patients)
    m_llm = variable_metrics(llm, ref, variable, positive, patients=cohort)
    m_a1 = variable_metrics(a1, ref, variable, positive, patients=cohort)
    return {r.metric: r.delta_pp for r in relative_difference(m_llm, m_a1)}, m_llm, m_a1


def _recall_row(prefix, n_pos, llm_tp, a1_tp):
    truth, llm, a1 = [], [], []
    for i in range(n_pos):
        pid = f"{prefix}{i}"
        truth.append(rec(pid, "surgery", "yes", source=Source.ABSTRACTOR_2))
        llm.append(rec(pid, "surgery", "yes" if i < llm_tp else "no"))
        a1.append(
            rec(pid, "surgery", "yes" if i < a1_tp else "no", source=Source.ABSTRACTOR_1)
        )
    return truth, llm, a1


def test_ac1_reported_deltas_are_exact():
    t0 = perf_counter()
    schema = make_schema()

    # recall 0.85 vs 0.95 -> -10.0pp
    truth, llm, a1 = _recall_row("a", 100, 85, 95)
    deltas1, _, _ = _duplicate_scores(schema, llm, a1, truth, "surgery", "yes")

    # recall 0.85 vs 0.90 -> -5.0pp
    truth, llm, a1 = _recall_row("b", 100, 85, 90)
    deltas2, _, _ = _duplicate_scores(schema, llm, a1, truth, "surgery", "yes")

    # large-cohort row: recall 0.92 vs 0.90 (+2.0pp), precision 0.90 vs 0.93
    truth, llm, a1 = _recall_row("c", 13950, 12834, 12555)
    for i in range(1500):
        pid = f"cneg{i}"
        truth.append(rec(pid, "surgery", "no", source=Source.ABSTRACTOR_2))
        llm.append(rec(pid, "surgery", "yes" if i < 1426 else "no"))
        a1.append(
            rec(pid, "surgery", "yes" if i < 945 else "no", source=Source.ABSTRACTOR_1)
        )
    deltas3, m_llm, m_a1 = _duplicate_scores(schema, llm, a1, truth, "surgery", "yes")

    # date accuracy 68/80 vs 76/80 -> -10.0pp at the default 30-day window
    truth, llm, a1 = [], [], []
    for i in range(80):
        pid = f"d{i}"
        d = day(i)
        truth.append(rec(pid, "surgery", "yes", d, source=Source.ABSTRACTOR_2))
        llm.append(rec(pid, "surgery", "yes", d if i < 68 else d + timedelta(days=45)))
        a1.append(
            rec(
                pid,
                "surgery",
                "yes",
                d if i < 76 else d + timedelta(days=45),
                source=Source.ABSTRACTOR_1,
            )
        )
    deltas4, _, _ = _duplicate_scores(schema, llm, a1, truth, "surgery", "yes")

    ok = (
        deltas1["recall"] == -10.0
        and deltas2["recall"] == -5.0
        and deltas3["recall"] == 2.0
        and deltas3["precision"] == -3.0
        and m_llm.recall == 12834 / 13950
        and m_a1.precision == 0.93
        and deltas4["date_accuracy"] == -10.0
    )
    verdict(
        "AC1",
        ok,
        perf_counter() - t0,
        1.0,
        f"deltas recall {deltas1['recall']:+.1f}/{deltas2['recall']:+.1f}/"
        f"{deltas3['recall']:+.1f}pp, precision {deltas3['precision']:+.1f}pp, "
        f"date accuracy {deltas4['date_accuracy']:+.1f}pp (all exact)",
    )


# --- AC2: reference standard properties over randomized cohorts ---

_STAGE = ["I", "II", "III", "unknown"]
_YNU = ["yes", "no", "unknown"]
_ER = ["positive", "negative"]


def _random_truth(rng):
    base = date(2019, 1, 1)
    records = [rec("p0", "surgery", "yes", base, source=Source.ABSTRACTOR_2)]
    for i in range(rng.randint(2, 6)):
        pid = f"p{i}"
        if rng.random() < 0.85:
            records.append(rec(pid, "stage", rng.choice(_STAGE), source=Source.ABSTRACTOR_2))
        if pid != "p0" and rng.random() < 0.85:
            value = rng.choice(_YNU)
            d = base + timedelta(days=rng.randint(0, 400)) if value == "yes" else None
            records.append(rec(pid, "surgery", value, d, source=Source.ABSTRACTOR_2))
        for k in range(rng.randint(0, 2)):
            records.append(
                rec(
                    pid,
                    "er_result",
                    rng.choice(_ER),
                    base + timedelta(days=rng.randint(0, 300) + 400 * k),
                    source=Source.ABSTRACTOR_2,
                )
            )
        if rng.random() < 0.5:
            records.append(
                rec(pid, "tumor_size_mm", round(rng.uniform(5, 40), 1), source=Source.ABSTRACTOR_2)
            )
    return records


def _noisy_copy(rng, schema, truth_records, source):
    out = []
    for r in truth_records:
        u = rng.random()
        if u < 0.10:
            continue  # dropped assertion
        value, d = r.value, r.event_date
        if u < 0.22:
            spec = schema[r.variable]
            if r.variable == "tumor_size_mm":
                value = float(value) + 5.0
            else:
                options = sorted(spec.allowed_values - {value})
                value = rng.choice(options)
                if value in (spec.unknown_token, "no"):
                    d = None
        elif u < 0.34 and d is not None:
            d = d + timedelta(days=rng.choice([-1, 1]) * rng.randint(1, 80))
        if schema[r.variable].kind.value == "event_list" and value != "unknown" and d is None:
            d = r.event_date or date(2019, 1, 1)
        out.append(rec(r.patient_id, r.variable, value, d, source=source))
    return out


def _record_pool(*label_sets_):
    pool = defaultdict(set)
    for ls in label_sets_:
        for r in ls.records():
            pool[(r.patient_id, r.variable)].add((r.value, r.event_date))
    return pool


def test_ac2_reference_standard_properties():
    t0 = perf_counter()
    rng = random.Random(20260802)
    schema = make_schema()
    n_cohorts, n_aborts, n_identity_checks = 500, 0, 0
    for _ in range(n_cohorts):
        truth = _random_truth(rng)
        a2 = label_set(schema, Source.ABSTRACTOR_2, truth)
        llm = label_set(schema, Source.LLM, _noisy_copy(rng, schema, truth, Source.LLM))
        a1 = label_set(
            schema, Source.ABSTRACTOR_1, _noisy_copy(rng, schema, truth, Source.ABSTRACTOR_1)
        )

        # duplicate-abstraction identity: the duplicate scores 1.0 vs the reference
        ref = build_duplicate_abstraction(llm, a1, a2)
        for variable, positive in (("surgery", "yes"), ("stage", "II"), ("er_result", None)):
            report = variable_metrics(a2, ref, variable, positive)
            for metric in ("recall", "precision", "f1", "date_accuracy"):
                value = report.value(metric)
                if value is not None:
                    assert value == 1.0, (variable, metric, value)
                    n_identity_checks += 1

        # adjudicated references never fabricate values
        oracle = a2.relabel(Source.REFERENCE)
        cases = find_disagreements(llm, a1, None, tolerance_days=30)
        adj = adjudicate_from_oracle(cases, oracle)
        ref2 = build_double_adjudication(llm, a1, adj, tolerance_days=30)
        pool = _record_pool(llm, a1, adj)
        for r in ref2.labels.records():
            assert (r.value, r.event_date) in pool[(r.patient_id, r.variable)]

        cases3 = find_disagreements(llm, a1, a2, tolerance_days=30)
        adj3 = adjudicate_from_oracle(cases3, oracle)
        ref3 = build_triple_adjudication(llm, a1, a2, adj3, tolerance_days=30)
        pool3 = _record_pool(llm, a1, a2, adj3)
        for r in ref3.labels.records():
            assert (r.value, r.event_date) in pool3[(r.patient_id, r.variable)]

        # uncovered disagreements abort with the complete case list
        if cases:
            empty = LabelSet(schema, Source.ADJUDICATOR)
            with pytest.raises(AdjudicationError) as excinfo:
                build_double_adjudication(llm, a1, empty, tolerance_days=30)
            assert set(excinfo.value.uncovered) == {c.key for c in cases}
            n_aborts += 1

    ok = n_aborts >= 300 and n_identity_checks >= 1000
    verdict(
        "AC2",
        ok,
        perf_counter() - t0,
        30.0,
        f"{n_cohorts} randomized cohorts: duplicate identity 1.0 "
        f"({n_identity_checks} metric checks), no fabricated values, "
        f"{n_aborts} complete-worklist aborts",
    )


# --- AC3: metric formulas and event matching vs exhaustive oracles ---


def test_ac3_metric_oracle_equivalence():
    t0 = perf_counter()
    rng = random.Random(20260803)

    n_count_trials = 400
    for _ in range(n_count_trials):
        tp, fp, fn = rng.randint(0, 50), rng.randint(0, 50), rng.randint(0, 50)
        nm = rng.randint(0, tp)
        nd = rng.randint(0, nm)
        n = rng.randint(1, 200)
        k = rng.randint(0, n)
        counts = ConfusionCounts(
            "v", "yes", tp=tp, fp=fp, fn=fn, n_matched_with_date=nm, n_date_correct=nd
        )
        report = compute_metrics(counts, completeness=(k, n), n_patients=n)
        want_recall = float(Fraction(tp, tp + fn)) if tp + fn else None
        want_precision = float(Fraction(tp, tp + fp)) if tp + fp else None
        want_f1 = (
            float(Fraction(2 * tp, 2 * tp + fp + fn))
            if want_recall is not None and want_precision is not None
            else None
        )
        assert report.recall == want_recall
        assert report.precision == want_precision
        assert report.f1 == want_f1
        assert report.date_accuracy == (float(Fraction(nd, nm)) if nm else None)
        assert report.completeness == float(Fraction(k, n))

    n_match_trials = 600
    for _ in range(n_match_trials):
        pred = [rng.randint(0, 14) for _ in range(rng.randint(0, 4))]
        ref = [rng.randint(0, 14) for _ in range(rng.randint(0, 4))]
        tol = rng.choice([0, 1, 2, 3, 7])
        got = match_events([day(p) for p in pred], [day(r) for r in ref], tol)
        neg_card, dist, pairs = enumerate_best(pred, ref, tol)
        assert got.n_matched == -neg_card
        assert sum(abs((p - r).days) for p, r in got.pairs) == dist
        assert tuple(sorted((r, p) for p, r in got.pairs)) == pairs

    verdict(
        "AC3",
        True,
        perf_counter() - t0,
        30.0,
        f"{n_count_trials} confusion-count trials exact, "
        f"{n_match_trials} matchings equal full enumeration (<=4 events/side)",
    )


# --- AC4: product-limit estimator vs brute-force oracle ---


def test_ac4_km_oracle():
    t0 = perf_counter()
    rng = random.Random(20260804)
    n_trials = 1000
    worst = 0.0
    for _ in range(n_trials):
        n = rng.randint(1, 20)
        durations = [rng.randint(0, 40) for _ in range(n)]
        events = [rng.random() < 0.6 for _ in range(n)]
        curve = km_estimate(durations, events)
        oracle = brute_force_km(durations, events)
        assert len(curve.times) == len(oracle)
        for (t, at_risk, d, s_want), t_got, n_got, s_got in zip(
            oracle, curve.times, curve.n_at_risk, curve.survival
        ):
            assert t_got == t and n_got == at_risk
            worst = max(worst, abs(s_got - s_want))
            assert abs(s_got - s_want) <= 1e-12

    # median conventions on boundary fixtures
    assert km_estimate([2, 4], [True, True]).median() == 2.0  # S hits 0.5 exactly
    assert km_estimate([10], [False]).median() is None  # no events at all
    assert km_estimate([3, 5], [True, False]).median() == 3.0  # S == 0.5 counts as reached
    assert km_estimate([1, 2, 3], [True, False, False]).median() is None  # S stays at 2/3
    verdict(
        "AC4",
        True,
        perf_counter() - t0,
        30.0,
        f"{n_trials} random datasets, max |S - oracle| = {worst:.2e} (<= 1e-12), "
        "median conventions verified",
    )


# --- AC5: fault injection against the default check suite ---


def _mutate(labels, schema, *, edit=None, extras=(), refresh_id=None):
    out = LabelSet(schema, labels.source, refresh_id=refresh_id)
    for r in labels.records():
        for nr in (edit(r) if edit else [r]):
            out.add(nr)
    for r in extras:
        out.add(r)
    return out


def test_ac5_check_engine_fault_injection():
    t0 = perf_counter()
    ds = generate_truth(GeneratorConfig(n_patients=10000), seed=SEED)
    schema = ds.schema
    suite = load_suite(default_suite_path(), schema)
    truth = ds.labels(Source.REFERENCE)
    clean = truth.relabel(Source.LLM)

    def run(labels, previous=None):
        d2 = CohortDataset(schema=schema, patients=ds.patients, label_sets={Source.LLM: labels})
        return run_all_checks(suite, d2, source=Source.LLM, previous=previous)

    base = run(clean)
    assert base.n_findings == 0, [f.to_dict() for f in base.findings()]

    def val(pid, var):
        r = truth.get_single(pid, var)
        return None if r is None else r.value

    def when(pid, var):
        r = truth.get_single(pid, var)
        return None if r is None else r.event_date

    def pick(pred):
        for pid in sorted(ds.patients):
            if pred(pid):
                return pid
        raise AssertionError("no patient matches the injection precondition")

    def edit_record(pid, var, **changes):
        def edit(r):
            if r.patient_id == pid and r.variable == var:
                return [replace(r, **changes)]
            return [r]

        return edit

    start = date(2010, 1, 1)
    injections = {}

    # 1: stage IV patient whose metastatic flag is dropped
    p = pick(lambda q: val(q, "stage") == "IV")
    injections["de_novo_stage_iv"] = (
        _mutate(clean, schema, edit=edit_record(p, "metastatic_dx", value="no", event_date=None)),
        None,
        {("de_novo_stage_iv", p)},
    )

    # 2: metastatic date moved before the initial diagnosis
    p = pick(
        lambda q: val(q, "metastatic_dx") == "yes"
        and val(q, "stage") != "IV"
        and val(q, "surgery") == "no"
        and when(q, "initial_dx") > start + timedelta(days=365)
    )
    injections["initial_before_metastatic"] = (
        _mutate(
            clean,
            schema,
            edit=edit_record(
                p, "metastatic_dx", event_date=when(p, "initial_dx") - timedelta(days=10)
            ),
        ),
        None,
        {("initial_before_metastatic", p)},
    )

    # 3: surgery date moved before the initial diagnosis
    p = pick(lambda q: val(q, "surgery") == "yes" and val(q, "adjuvant_start") == "no")
    injections["surgery_between_dx"] = (
        _mutate(
            clean,
            schema,
            edit=edit_record(p, "surgery", event_date=when(p, "initial_dx") - timedelta(days=5)),
        ),
        None,
        {("surgery_between_dx", p)},
    )

    # 4: contradictory germline results for one patient
    p = pick(lambda q: when(q, "initial_dx") is not None)
    d0 = when(p, "initial_dx")
    injections["gbrca1_no_contradiction"] = (
        _mutate(
            clean,
            schema,
            extras=[
                rec(p, "gbrca1_result", "positive", d0 + timedelta(days=10)),
                rec(p, "gbrca1_result", "negative", d0 + timedelta(days=40)),
            ],
        ),
        None,
        {("gbrca1_no_contradiction", p)},
    )

    # 5: HER2 result dated before the assay existed
    injections["her2_era_floor"] = (
        _mutate(clean, schema, extras=[rec(p, "her2_result", "negative", date(1997, 6, 1))]),
        None,
        {("her2_era_floor", p)},
    )

    # 6: radiation dated before the surgery it follows
    p = pick(lambda q: val(q, "radiation") == "yes")
    injections["radiation_after_surgery"] = (
        _mutate(
            clean,
            schema,
            edit=edit_record(p, "radiation", event_date=when(p, "surgery") - timedelta(days=3)),
        ),
        None,
        {("radiation_after_surgery", p)},
    )

    # 7: adjuvant therapy start far outside the expected window
    p = pick(lambda q: val(q, "adjuvant_start") == "yes")
    injections["adjuvant_gap_range"] = (
        _mutate(
            clean,
            schema,
            edit=edit_record(p, "adjuvant_start", event_date=when(p, "surgery") + timedelta(days=200)),
        ),
        None,
        {("adjuvant_gap_range", p)},
    )

    # 8: endocrine therapy on a hormone-receptor-negative patient
    p = pick(lambda q: val(q, "endocrine_therapy") == "yes")
    injections["endocrine_hr_positive"] = (
        _mutate(clean, schema, edit=edit_record(p, "hr_status", value="negative")),
        None,
        {("endocrine_hr_positive", p)},
    )

    # 9: metastatic date flips between refreshes
    p = pick(
        lambda q: val(q, "metastatic_dx") == "yes" and when(q, "metastatic_dx").day <= 27
    )
    previous = clean.relabel(Source.LLM, refresh_id="1")
    current = _mutate(
        clean,
        schema,
        edit=edit_record(
            p, "metastatic_dx", event_date=when(p, "metastatic_dx") + timedelta(days=1)
        ),
        refresh_id="2",
    )
    injections["metastatic_refresh_stable"] = (
        current,
        previous,
        {("metastatic_refresh_stable", p)},
    )

    # 10: regimen mix drifts out of its expected band
    regimen_counts = Counter(
        r.value for r in clean.records() if r.variable == "first_line_regimen"
    )
    n_regimen = sum(regimen_counts.values())
    need = math.ceil(0.215 * n_regimen) - regimen_counts["capecitabine"]
    donors = ("anthracycline_taxane", "taxane_platinum", "cdk46_inhibitor_ai")
    flips = {}
    for i, donor in enumerate(donors):
        share = need // len(donors) + (1 if i < need % len(donors) else 0)
        pids = sorted(
            r.patient_id
            for r in clean.records()
            if r.variable == "first_line_regimen" and r.value == donor
        )[:share]
        flips.update({q: donor for q in pids})

    def regimen_edit(r):
        if r.variable == "first_line_regimen" and r.patient_id in flips:
            return [replace(r, value="capecitabine")]
        return [r]

    injections["regimen_distribution"] = (
        _mutate(clean, schema, edit=regimen_edit),
        None,
        {("regimen_distribution", "category:capecitabine")},
    )

    # 11: stage IV surgery rate pushed past its plausible ceiling
    iv_pids = sorted(q for q in ds.patients if val(q, "stage") == "IV")
    k = math.ceil(0.06 * len(iv_pids))
    chosen = set(iv_pids[:k])

    def iv_surgery_edit(r):
        if r.variable == "surgery" and r.patient_id in chosen:
            return [replace(r, value="yes", event_date=when(r.patient_id, "initial_dx"))]
        return [r]

    injections["surgery_rate_by_stage"] = (
        _mutate(clean, schema, edit=iv_surgery_edit),
        None,
        {("surgery_rate_by_stage", "stratum:IV")},
    )

    # 12: a one-month spike in metastatic diagnoses
    spike_month = date(2014, 1, 15)
    candidates = [
        q
        for q in sorted(ds.patients)
        if val(q, "metastatic_dx") == "no"
        and when(q, "initial_dx") < spike_month - timedelta(days=60)
        and (val(q, "surgery") != "yes" or when(q, "surgery") < date(2014, 1, 1))
    ][:40]
    assert len(candidates) == 40
    spiked = set(candidates)

    def spike_edit(r):
        if r.variable == "metastatic_dx" and r.patient_id in spiked:
            return [replace(r, value="yes", event_date=spike_month)]
        return [r]

    injections["metastatic_monthly_consistency"] = (
        _mutate(clean, schema, edit=spike_edit),
        None,
        {("metastatic_monthly_consistency", "month:2014-01")},
    )

    assert len(injections) == 12
    failures = []
    for name, (labels, previous, expected) in injections.items():
        report = run(labels, previous=previous)
        got = {(f.check_id, f.scope) for f in report.findings()}
        if got != expected:
            failures.append(f"{name}: expected {expected}, got {got}")
    verdict(
        "AC5",
        not failures,
        perf_counter() - t0,
        60.0,
        "clean 10k cohort: 0 findings; 12 single-fault injections each "
        "flagged exactly once" if not failures else "; ".join(failures),
    )


# --- AC6: compounding of per-component errors in derived variables ---


def test_ac6_end_to_end_error_compounding():
    t0 = perf_counter()
    n = 100_000
    config = GeneratorConfig(
        n_patients=n,
        metastatic_fraction=1.0,
        de_novo_fraction=1.0,
        biomarker_positive={
            "er_result": 0.0,
            "pr_result": 0.0,
            "her2_result": 0.0,
            "gbrca1_result": 0.1,
        },
        biomarker_tested={
            "er_result": 1.0,
            "pr_result": 1.0,
            "her2_result": 1.0,
            "gbrca1_result": 0.5,
        },
        biomarker_repeat_rate=0.0,
    )
    ds = generate_truth(config, seed=SEED)
    components = ("metastatic_dx", "er_result", "pr_result", "her2_result")
    model = ErrorModel(per_variable={v: ErrorRates(flip=0.05) for v in components})
    llm = corrupt(ds, model, source=Source.LLM, seed=SEED + 1)
    rule = DerivedVariableRule(
        name="triple_negative",
        index_variable="metastatic_dx",
        components=(
            ("er_result", "negative"),
            ("pr_result", "negative"),
            ("her2_result", "negative"),
        ),
        window_days=(-60, 60),
    )
    expected = 0.95**4
    assert expected_end_to_end_recall(model, rule) == pytest.approx(expected)
    e2e = end_to_end_metrics(rule, llm, ds.labels(Source.REFERENCE), cohort=sorted(ds.patients))
    measured = e2e.llm.recall
    n_pos = e2e.llm.counts.tp + e2e.llm.counts.fn
    se = math.sqrt(expected * (1 - expected) / n)
    ok = n_pos == n and abs(measured - expected) <= 3 * se
    verdict(
        "AC6",
        ok,
        perf_counter() - t0,
        120.0,
        f"derived recall {measured:.4f} vs 0.95^4 = {expected:.4f} "
        f"(|diff| = {abs(measured - expected):.4f} <= 3se = {3 * se:.4f}, n = {n})",
    )


# --- AC7: differential error shows up as a stratified gap ---


def test_ac7_bias_detection():
    t0 = perf_counter()
    ds = generate_truth(GeneratorConfig(n_patients=20000), seed=SEED)
    truth = ds.labels(Source.REFERENCE)
    llm_model = ErrorModel(
        per_variable={"surgery": ErrorRates(flip=0.05)},
        stratum_attribute="race_ethnicity",
        stratum_multipliers={"groupB": 3.0},
    )
    a1_model = ErrorModel(per_variable={"surgery": ErrorRates(flip=0.05)})
    llm = corrupt(ds, llm_model, source=Source.LLM, seed=SEED + 1)
    a1 = corrupt(ds, a1_model, source=Source.ABSTRACTOR_1, seed=SEED + 2)
    cohort = sorted(ds.patients)
    strat = stratified_metrics(
        patient_rows(llm, truth, "surgery", "yes", patients=cohort),
        patient_rows(a1, truth, "surgery", "yes", patients=cohort),
        ds.strata("race_ethnicity"),
    )

    want_a = expected_metrics(llm_model, ds, "surgery", "yes", stratum_value="groupA")["recall"]
    want_b = expected_metrics(llm_model, ds, "surgery", "yes", stratum_value="groupB")["recall"]
    assert want_a == pytest.approx(0.95) and want_b == pytest.approx(0.85)

    n_pos = {
        g: sum(
            1
            for q in pids
            if (r := truth.get_single(q, "surgery")) is not None and r.value == "yes"
        )
        for g, pids in ds.strata("race_ethnicity").items()
    }
    gap_llm = strat["groupA"].llm.recall - strat["groupB"].llm.recall
    gap_a1 = strat["groupA"].abstraction.recall - strat["groupB"].abstraction.recall
    se_llm = math.sqrt(
        want_a * (1 - want_a) / n_pos["groupA"] + want_b * (1 - want_b) / n_pos["groupB"]
    )
    se_a1 = math.sqrt(0.95 * 0.05 * (1 / n_pos["groupA"] + 1 / n_pos["groupB"]))
    ok = abs(gap_llm - (want_a - want_b)) <= 3 * se_llm and abs(gap_a1) <= 3 * se_a1
    verdict(
        "AC7",
        ok,
        perf_counter() - t0,
        120.0,
        f"llm recall gap {gap_llm * 100:+.2f}pp (expected +10.00 +/- {300 * se_llm:.2f}), "
        f"abstraction gap {gap_a1 * 100:+.2f}pp (expected 0 +/- {300 * se_a1:.2f})",
    )


# --- AC8: survival replication concordance under corruption ---


def test_ac8_replication_concordance():
    t0 = perf_counter()
    ds = generate_truth(GeneratorConfig(n_patients=4000, metastatic_fraction=1.0), seed=SEED)
    arms = ds.strata("treatment_arm")
    benchmark = DirectionBenchmark(name="arm_a_longer_os", higher="A", lower="B")

    def arm_medians(labels, max_days):
        medians = {}
        for arm, pids in arms.items():
            cohort = survival_records(
                labels,
                index_variable="metastatic_dx",
                event_variable="death",
                censor_variable="last_contact",
                event_positive="yes",
                max_followup_days=max_days,
                patients=pids,
            )
            medians[arm] = cohort.curve().median() if cohort.n_included else None
        return medians

    truth_medians = arm_medians(ds.labels(Source.REFERENCE), None)
    assert 350 < truth_medians["A"] < 500  # configured median 420 days (~14 months)
    assert 260 < truth_medians["B"] < 400  # configured median 330 days (~11 months)
    assert benchmark_concordance(benchmark, truth_medians).concordant

    # non-differential 10% death miss keeps the direction
    uniform = ErrorModel(per_variable={"death": ErrorRates(miss=0.10)})
    llm1 = corrupt(ds, uniform, source=Source.LLM, seed=SEED + 1)
    medians1 = arm_medians(llm1, None)
    conc1 = benchmark_concordance(benchmark, medians1)

    # 60% death miss concentrated in arm A pushes its median past follow-up
    differential = ErrorModel(
        per_variable={"death": ErrorRates(miss=0.10)},
        stratum_attribute="treatment_arm",
        stratum_multipliers={"A": 6.0},
    )
    llm2 = corrupt(ds, differential, source=Source.LLM, seed=SEED + 2)
    medians2 = arm_medians(llm2, 730)
    conc2 = benchmark_concordance(benchmark, medians2)

    ok = (
        conc1.concordant
        and medians2["A"] is None
        and not conc2.concordant
        and bool(conc2.reason)
    )
    verdict(
        "AC8",
        ok,
        perf_counter() - t0,
        60.0,
        f"truth medians A={truth_medians['A']:.0f}d B={truth_medians['B']:.0f}d; "
        f"10% uniform miss concordant ({medians1['A']:.0f} vs {medians1['B']:.0f}); "
        f"60% differential miss discordant ({conc2.reason})",
    )


# --- AC9: determinism and lossless round trips ---


def test_ac9_determinism_and_round_trip(tmp_path):
    t0 = perf_counter()
    ws = tmp_path / "ws"
    runner = CliRunner()
    sim = runner.invoke(cli_main, ["--out", str(ws), "--seed", "11", "simulate", "--n", "150"])
    assert sim.exit_code == 0, sim.output
    args = ["--config", str(ws / "run.yaml"), "run"]
    first = runner.invoke(cli_main, args)
    assert first.exit_code in (0, 1), first.output
    report_path = ws / "results" / "report.json"
    first_bytes = report_path.read_bytes()
    second = runner.invoke(cli_main, args)
    assert second.exit_code == first.exit_code
    identical = report_path.read_bytes() == first_bytes

    schema = load_schema(ws / "schema.yaml")
    labels = read_labels(ws / "labels_llm.csv", schema, Source.LLM)
    copy_path = tmp_path / "copy.csv"
    write_labels(labels, copy_path)
    reread = read_labels(copy_path, schema, Source.LLM)
    lossless = reread == labels
    write_labels(reread, tmp_path / "copy2.csv")
    canonical = (tmp_path / "copy2.csv").read_bytes() == copy_path.read_bytes()

    ok = identical and lossless and canonical
    verdict(
        "AC9",
        ok,
        perf_counter() - t0,
        60.0,
        f"rerun report byte-identical: {identical}; label round trip lossless: "
        f"{lossless}; rewrite canonical: {canonical}",
    )