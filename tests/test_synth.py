"""Synthetic cohort generator and error model."""

import dataclasses
import hashlib
import math

import pytest
from click.testing import CliRunner

from rwdval import (
    CohortDataset,
    DerivedVariableRule,
    ErrorModel,
    ErrorRates,
    GeneratorConfig,
    LabelRecord,
    LabelSet,
    Source,
    breast_schema,
    corrupt,
    default_suite_path,
    expected_end_to_end_recall,
    expected_metrics,
    generate_truth,
    load_suite,
    refresh_snapshot,
    refresh_stability,
    run_all_checks,
    variable_metrics,
)
from rwdval.cli import main
from rwdval.synth import ARMS, REGIMENS, STRATA

from oracles import simulate_validation_inputs

SEED = 20260801


def small_config(n=300, **kw):
    return GeneratorConfig(n_patients=n, **kw)


def with_reference(dataset, records):
    """The dataset's patients with ``records`` as its reference labels."""
    labels = LabelSet(dataset.schema, Source.REFERENCE, records)
    return CohortDataset(dataset.schema, dataset.patients, {Source.REFERENCE: labels})


# --- generation ---


def test_generation_is_deterministic():
    cfg = small_config()
    a = generate_truth(cfg, seed=SEED)
    b = generate_truth(cfg, seed=SEED)
    assert a.patients == b.patients
    assert a.labels(Source.REFERENCE) == b.labels(Source.REFERENCE)
    c = generate_truth(cfg, seed=SEED + 1)
    assert a.labels(Source.REFERENCE) != c.labels(Source.REFERENCE)


def test_patient_streams_are_independent_of_cohort_size():
    # growing the cohort must not change already-generated patients
    small = generate_truth(small_config(50), seed=SEED)
    large = generate_truth(small_config(100), seed=SEED)
    small_labels = small.labels(Source.REFERENCE)
    large_labels = large.labels(Source.REFERENCE)
    for pid in small.patients:
        assert small.patients[pid] == large.patients[pid]
        for var in small.schema:
            assert small_labels.get(pid, var) == large_labels.get(pid, var)


def test_prevalences_track_configuration():
    cfg = small_config(2000)
    ds = generate_truth(cfg, seed=SEED)
    labels = ds.labels(Source.REFERENCE)
    n = cfg.n_patients
    met = sum(
        1
        for pid in ds.patients
        if (r := labels.get_single(pid, "metastatic_dx")) is not None and r.value == "yes"
    )
    # binomial 3-sigma band around the configured fraction
    assert abs(met / n - cfg.metastatic_fraction) < 3 * (0.35 * 0.65 / n) ** 0.5
    arms = [ds.attribute(pid, "treatment_arm") for pid in ds.patients]
    assert abs(arms.count("A") / n - 0.5) < 3 * (0.25 / n) ** 0.5


def test_generator_config_has_six_settable_fields():
    # the strata, arms and regimen mix are module constants, not settings
    assert [f.name for f in dataclasses.fields(GeneratorConfig)] == [
        "n_patients",
        "metastatic_fraction",
        "de_novo_fraction",
        "biomarker_positive",
        "biomarker_tested",
        "biomarker_repeat_rate",
    ]


def test_fixed_cohort_mixes_are_distributions():
    for probs in [ARMS, REGIMENS, *STRATA.values()]:
        assert math.isclose(sum(probs.values()), 1.0, abs_tol=1e-9)
    ds = generate_truth(small_config(200), seed=SEED)
    for pid in ds.patients:
        assert ds.attribute(pid, "treatment_arm") in ARMS
        for attr, probs in STRATA.items():
            assert ds.attribute(pid, attr) in probs


def test_truth_satisfies_the_default_suite():
    # below ~5k the monthly metastatic ramp is lumpy enough to trip the
    # rolling-median check, so stay at a size where the cohort is smooth
    ds = generate_truth(small_config(5000), seed=SEED)
    suite = load_suite(default_suite_path(), ds.schema)
    report = run_all_checks(suite, ds, source=Source.REFERENCE)
    assert report.n_findings == 0, [f.to_dict() for f in report.findings()]


# --- error model plumbing ---


def test_error_rates_validation():
    with pytest.raises(ValueError):
        ErrorRates(miss=1.5)
    with pytest.raises(ValueError):
        ErrorRates(date_shift_days=-1)
    scaled = ErrorRates(miss=0.6, flip=0.2, date_shift_days=45).scaled(2.0)
    assert scaled.miss == 1.0  # clamped
    assert scaled.flip == pytest.approx(0.4)
    assert scaled.date_shift_days == 45  # magnitudes are never scaled


def test_error_model_validation_and_lookup():
    with pytest.raises(ValueError):
        ErrorModel(stratum_multipliers={"groupB": 2.0})
    model = ErrorModel(
        default=ErrorRates(miss=0.1),
        per_variable={"surgery": ErrorRates(miss=0.3)},
        stratum_attribute="race_ethnicity",
        stratum_multipliers={"groupB": 2.0},
    )
    assert model.rates_for("stage", {"race_ethnicity": "groupA"}).miss == 0.1
    assert model.rates_for("surgery", {"race_ethnicity": "groupA"}).miss == 0.3
    assert model.rates_for("surgery", {"race_ethnicity": "groupB"}).miss == pytest.approx(0.6)


# --- corruption ---


def test_zero_error_corruption_is_identity():
    ds = generate_truth(small_config(200), seed=SEED)
    got = corrupt(ds, ErrorModel(), source=Source.LLM, seed=123)
    truth = ds.labels(Source.REFERENCE)
    assert got == truth.relabel(Source.LLM)
    # a key no draw changed shares the truth's rows; a stamp changes every row
    assert all(
        rows is truth._by_patient[pid][var]
        for pid, own in got._by_patient.items()
        for var, rows in own.items()
    )
    stamped = corrupt(ds, ErrorModel(), source=Source.LLM, seed=123, refresh_id="1")
    assert stamped == truth.relabel(Source.LLM, refresh_id="1")
    got.remove("P000000", "stage")
    assert truth.get_single("P000000", "stage") is not None


def test_corruption_is_deterministic():
    ds = generate_truth(small_config(200), seed=SEED)
    model = ErrorModel(default=ErrorRates(miss=0.2, flip=0.1))
    a = corrupt(ds, model, source=Source.LLM, seed=9)
    b = corrupt(ds, model, source=Source.LLM, seed=9)
    c = corrupt(ds, model, source=Source.LLM, seed=10)
    assert a == b
    assert a != c


def test_hallucination_adds_values_where_truth_is_silent():
    ds = generate_truth(small_config(300), seed=SEED)
    truth = ds.labels(Source.REFERENCE)
    model = ErrorModel(
        per_variable={
            "first_line_regimen": ErrorRates(hallucinate=1.0),
            "er_result": ErrorRates(hallucinate=1.0),
        }
    )
    got = corrupt(ds, model, source=Source.LLM, seed=4)
    silent = [p for p in ds.patients if not truth.get(p, "first_line_regimen")]
    assert silent  # non-metastatic patients have no regimen in truth
    assert all(got.get(p, "first_line_regimen") for p in silent)
    # fabricated event-list results are anchored near the diagnosis date
    for pid in ds.patients:
        if truth.get(pid, "er_result"):
            continue
        (rec,) = got.get(pid, "er_result")
        anchor = truth.get_single(pid, "initial_dx").event_date
        assert rec.event_date is not None
        assert 0 <= (rec.event_date - anchor).days <= 365


def test_event_list_hallucination_needs_an_anchor_date():
    # without initial_dx in the truth there is no anchor, and event-list
    # records cannot be fabricated undated
    full = generate_truth(small_config(100), seed=SEED)
    ds = with_reference(
        full, [r for r in full.labels(Source.REFERENCE).records() if r.variable == "stage"]
    )
    model = ErrorModel(default=ErrorRates(hallucinate=1.0))
    got = corrupt(ds, model, source=Source.LLM, seed=4)
    assert "er_result" not in got.variables
    assert "death" in got.variables  # single-valued dates may be undated


def test_expected_metrics_match_simulation():
    cfg = small_config(4000)
    ds = generate_truth(cfg, seed=SEED)
    model = ErrorModel(
        default=ErrorRates(miss=0.1, flip=0.05, date_shift_rate=0.2, date_shift_days=45)
    )
    ds.label_sets[Source.LLM] = corrupt(ds, model, source=Source.LLM, seed=SEED + 1)
    want = expected_metrics(model, ds, "surgery", "yes")
    got = variable_metrics(
        ds.labels(Source.LLM),
        ds.labels(Source.REFERENCE),
        "surgery",
        "yes",
        patients=sorted(ds.patients),
    )
    assert got.recall == pytest.approx(want["recall"], abs=0.025)
    assert got.precision == pytest.approx(want["precision"], abs=0.025)
    assert got.completeness == pytest.approx(want["completeness"], abs=0.025)
    # 45-day shifts always exceed the 30-day tolerance
    assert want["date_accuracy"] == pytest.approx(0.8)
    assert got.date_accuracy == pytest.approx(0.8, abs=0.035)


def test_stratum_multiplier_creates_differential_error():
    cfg = small_config(3000)
    ds = generate_truth(cfg, seed=SEED)
    model = ErrorModel(
        default=ErrorRates(flip=0.05),
        stratum_attribute="race_ethnicity",
        stratum_multipliers={"groupB": 3.0},
    )
    ds.label_sets[Source.LLM] = corrupt(ds, model, source=Source.LLM, seed=SEED + 1)
    by_group = {}
    for group in ("groupA", "groupB"):
        pids = [p for p in ds.patients if ds.attribute(p, "race_ethnicity") == group]
        by_group[group] = variable_metrics(
            ds.labels(Source.LLM),
            ds.labels(Source.REFERENCE),
            "surgery",
            "yes",
            patients=pids,
        ).recall
    want_a = expected_metrics(model, ds, "surgery", "yes", stratum_value="groupA")
    want_b = expected_metrics(model, ds, "surgery", "yes", stratum_value="groupB")
    assert want_a["recall"] == pytest.approx(0.95)
    assert want_b["recall"] == pytest.approx(0.85)
    assert by_group["groupA"] == pytest.approx(0.95, abs=0.03)
    assert by_group["groupB"] == pytest.approx(0.85, abs=0.03)


def test_expected_metrics_requires_stratum_value_when_differential():
    ds = generate_truth(small_config(50), seed=SEED)
    model = ErrorModel(
        default=ErrorRates(flip=0.05),
        stratum_attribute="race_ethnicity",
        stratum_multipliers={"groupB": 3.0},
    )
    with pytest.raises(ValueError):
        expected_metrics(model, ds, "surgery", "yes")


def test_expected_end_to_end_recall_compounds():
    rule = DerivedVariableRule(
        name="triple_negative",
        index_variable="metastatic_dx",
        components=(("er_result", "negative"), ("pr_result", "negative")),
    )
    model = ErrorModel(default=ErrorRates(miss=0.02, flip=0.05))
    want = ((1 - 0.02) * (1 - 0.05)) ** 3
    assert expected_end_to_end_recall(model, rule) == pytest.approx(want)


# --- refreshes ---


def test_refresh_without_instability_preserves_content():
    ds = generate_truth(small_config(150), seed=SEED)
    v1 = corrupt(ds, ErrorModel(), source=Source.LLM, seed=3, refresh_id="1")
    v2 = refresh_snapshot(v1, ErrorModel(), seed=4, refresh_id="2")
    assert v2.refresh_id == "2"
    delta = refresh_stability(v1, v2, "surgery")
    assert delta.changed == [] and delta.added == []


def test_refresh_instability_rate_is_respected():
    ds = generate_truth(small_config(1500), seed=SEED)
    v1 = corrupt(ds, ErrorModel(), source=Source.LLM, seed=3, refresh_id="1")
    model = ErrorModel(default=ErrorRates(instability=0.2))
    v2 = refresh_snapshot(v1, model, seed=4, refresh_id="2")
    changed = len(refresh_stability(v1, v2, "stage").changed)
    n_keys = sum(1 for _, var in v1.keys() if var == "stage")
    assert changed / n_keys == pytest.approx(0.2, abs=0.04)


def test_refresh_keeps_the_feed_patients_and_keys():
    # a refresh mutates existing keys; it neither adds nor drops any
    ds = generate_truth(small_config(150), seed=SEED)
    v1 = corrupt(ds, ErrorModel(), source=Source.LLM, seed=3, refresh_id="1")
    model = ErrorModel(default=ErrorRates(instability=1.0, date_shift_days=10))
    v2 = refresh_snapshot(v1, model, seed=4, refresh_id="2")
    assert v2.patients == v1.patients
    assert set(v2.keys()) == set(v1.keys())
    assert v2 != v1


# --- one-call simulation ---


def test_simulate_validation_inputs_builds_three_sources():
    ds = simulate_validation_inputs(
        small_config(120),
        seed=SEED,
        llm_model=ErrorModel(default=ErrorRates(miss=0.1)),
        abstractor_model=ErrorModel(default=ErrorRates(miss=0.02)),
    )
    assert set(ds.label_sets) == {Source.REFERENCE, Source.LLM, Source.ABSTRACTOR_1}
    # llm misses ten times more than the abstractor
    n_llm = len(ds.labels(Source.LLM))
    n_a1 = len(ds.labels(Source.ABSTRACTOR_1))
    n_truth = len(ds.labels(Source.REFERENCE))
    assert n_llm < n_a1 <= n_truth


def _through_add(labels):
    """The same records added one at a time: every record is validated."""
    return LabelSet(labels.schema, labels.source, labels.records())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synth_output_passes_the_validating_add(seed):
    """Synth builds its label sets without validating each record."""
    generated = generate_truth(small_config(150), seed=seed)
    reference = generated.labels(Source.REFERENCE)
    assert reference == _through_add(reference)
    # every fifth patient's stage, hr_status and regimen become documented
    # unknowns, which corrupt may miss but never flips
    downgraded = {
        (r.patient_id, r.variable)
        for r in reference.records()
        if int(r.patient_id[1:]) % 5 == 0 and r.variable in ("stage", "hr_status", "first_line_regimen")
    }
    truth = with_reference(
        generated,
        [r for r in reference.records() if (r.patient_id, r.variable) not in downgraded]
        + [LabelRecord(pid, var, "unknown", None, Source.REFERENCE) for pid, var in sorted(downgraded)],
    )
    noisy = ErrorRates(
        miss=0.1, hallucinate=0.3, flip=0.2, date_shift_rate=0.3, date_shift_days=40, instability=0.3
    )
    llm = corrupt(truth, ErrorModel(default=noisy), source=Source.LLM, seed=seed, refresh_id="1")
    assert llm == _through_add(llm)
    kept = {r.value for r in llm.records() if (r.patient_id, r.variable) in downgraded}
    assert kept == {"unknown"}
    refreshed = refresh_snapshot(llm, ErrorModel(default=noisy), seed=seed, refresh_id="2")
    assert refreshed == _through_add(refreshed)
    assert {r.refresh_id for r in refreshed.records()} == {"2"}


# SHA-256 of every file `rwdval --seed 2 simulate --n 300 --with-refresh`
# writes. A change that alters synth output on purpose updates these and
# says so in CHANGES.md.
SIMULATE_SEED_2_DIGESTS = {
    "attributes.csv": "d7f474f3152738b68b37c7247baabdb218761a9dcb83fe3bdec24beafa1b1cf8",
    "labels_abstractor_1.csv": "ece4e33dd310bd2deb826ce07b682e1c5e500362f0f6a76ef27a7b7a6b45ae66",
    "labels_abstractor_2.csv": "c1a22f96cc51a3c1d9cdfa98094944fce2eb74067e1942faa4842eff77dc8dad",
    "labels_llm.csv": "541c9c896fba3e4f2c08efa4851ec6a9497b93178aaeb00ab52d1cc5b0ece1ea",
    "labels_llm_refresh1.csv": "20e82af4d416eb83d89880d9af54295680e6c6b3de6abfcc662115997ba660ca",
    "run.yaml": "79dbeedf420e705fd493cf410ea6f3a701001a26760aa58b1ef0d72b96dfce8a",
    "schema.yaml": "819aaedf52cc3f75752450133262f5908f51e7889e388ca407b3171a8cfa15c2",
}


def test_simulated_workspace_bytes_are_pinned(tmp_path):
    args = ["--out", str(tmp_path), "--seed", "2", "simulate", "--n", "300", "--with-refresh"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == SIMULATE_SEED_2_DIGESTS
