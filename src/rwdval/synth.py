"""Synthetic longitudinal cohorts with controllable, known error processes.

The generator produces an internally consistent breast-cancer-like cohort
(diagnoses, staging, metastatic progression, locoregional and systemic
treatment, biomarker tests, survival) as a reference-quality label set,
then ``corrupt`` derives imperfect extraction outputs from it under an
explicit error model. Because the truth and the error process are both
known, expected metric values have closed forms and the whole validation
stack can be tested end to end.

Randomness is per patient: each patient draws from an independent Philox
stream keyed by (seed, patient index), so output is reproducible and
independent of cohort size or iteration order.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from datetime import date

import numpy as np

from .metrics import DerivedVariableRule
from .schema import (
    _NO_ROWS,
    CohortDataset,
    LabelSet,
    Row,
    Schema,
    Source,
    VariableKind,
    VariableSpec,
    _canonical,
    shift_date,
)

UNKNOWN = "unknown"

_TRUTH_SALT = 0x11
_CORRUPT_SALT = 0x22
_REFRESH_SALT = 0x33


def _patient_rng(salt: int, seed: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed), np.uint64((salt << 48) | index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _choice(rng: np.random.Generator, probs: Mapping[str, float]) -> str:
    u = rng.random()
    acc = 0.0
    items = sorted(probs.items())
    for value, p in items:
        acc += p
        if u < acc:
            return value
    return items[-1][0]


def breast_schema() -> Schema:
    """Variable definitions for the synthetic breast-cancer-like cohort."""
    yn = frozenset({"yes", "no", UNKNOWN})
    result = frozenset({"positive", "negative", UNKNOWN})
    specs = [
        VariableSpec("initial_dx", VariableKind.DATE, frozenset({"yes", UNKNOWN}), UNKNOWN),
        VariableSpec("metastatic_dx", VariableKind.DATE, yn, UNKNOWN),
        VariableSpec(
            "stage",
            VariableKind.CATEGORICAL,
            frozenset({"I", "II", "III", "IV", UNKNOWN}),
            UNKNOWN,
        ),
        VariableSpec("surgery", VariableKind.DATE, yn, UNKNOWN),
        VariableSpec("radiation", VariableKind.DATE, yn, UNKNOWN),
        VariableSpec("adjuvant_start", VariableKind.DATE, yn, UNKNOWN),
        VariableSpec(
            "first_line_regimen",
            VariableKind.CATEGORICAL,
            frozenset(
                {
                    "anthracycline_taxane",
                    "taxane_platinum",
                    "cdk46_inhibitor_ai",
                    "capecitabine",
                    UNKNOWN,
                }
            ),
            UNKNOWN,
        ),
        VariableSpec("er_result", VariableKind.EVENT_LIST, result, UNKNOWN),
        VariableSpec("pr_result", VariableKind.EVENT_LIST, result, UNKNOWN),
        VariableSpec("her2_result", VariableKind.EVENT_LIST, result, UNKNOWN),
        VariableSpec("gbrca1_result", VariableKind.EVENT_LIST, result, UNKNOWN),
        VariableSpec(
            "hr_status",
            VariableKind.CATEGORICAL,
            frozenset({"positive", "negative", UNKNOWN}),
            UNKNOWN,
        ),
        VariableSpec("endocrine_therapy", VariableKind.DATE, yn, UNKNOWN),
        VariableSpec("death", VariableKind.DATE, yn, UNKNOWN),
        VariableSpec("last_contact", VariableKind.DATE, frozenset({"yes", UNKNOWN}), UNKNOWN),
    ]
    return Schema(specs)


_BIOMARKERS = ("er_result", "pr_result", "her2_result", "gbrca1_result")


# The fixed parameters of the synthetic cohort. Delay windows are
# inclusive day ranges; probability maps sum to 1.
_DIAGNOSIS_START = date(2010, 1, 1)
_DIAGNOSIS_SPAN_DAYS = 96 * 30
_MET_DELAY_DAYS = (180, 900)
_STAGE_PROBS = {"I": 0.35, "II": 0.40, "III": 0.25}
_SURGERY_BY_STAGE = {"I": 0.95, "II": 0.90, "III": 0.80, "IV": 0.0}
_SURGERY_DELAY_DAYS = (7, 90)
_RADIATION_GIVEN_SURGERY = 0.6
_RADIATION_DELAY_DAYS = (10, 60)
_ADJUVANT_GIVEN_SURGERY = 0.7
_ADJUVANT_DELAY_DAYS = (7, 150)
_BIOMARKER_WINDOW_DAYS = (-30, 30)
_ENDOCRINE_GIVEN_HR_POSITIVE = 0.85
_ENDOCRINE_DELAY_DAYS = (30, 200)
REGIMENS = {
    "anthracycline_taxane": 0.35,
    "taxane_platinum": 0.25,
    "cdk46_inhibitor_ai": 0.25,
    "capecitabine": 0.15,
}
STRATA = {"race_ethnicity": {"groupA": 0.5, "groupB": 0.5}}
ARMS = {"A": 0.5, "B": 0.5}
_OS_MEDIAN_DAYS = {"A": 420.0, "B": 330.0}
_FOLLOWUP_DAYS = 1095


@dataclass(frozen=True)
class GeneratorConfig:
    """The settable parameters of the synthetic cohort.

    The rest of the cohort is fixed by the module constants above: the
    diagnosis era, the stage mix, treatment rates and delays, the
    first-line regimen mix (``REGIMENS``), the attribute strata
    (``STRATA``), the treatment arms (``ARMS``), and survival, which is
    exponential from the metastatic date with medians of 420 days in arm A
    and 330 in arm B, administratively censored at 1095 days.
    """

    n_patients: int = 1000
    metastatic_fraction: float = 0.35
    de_novo_fraction: float = 0.25
    biomarker_positive: Mapping[str, float] = field(
        default_factory=lambda: {
            "er_result": 0.75,
            "pr_result": 0.65,
            "her2_result": 0.20,
            "gbrca1_result": 0.10,
        }
    )
    biomarker_tested: Mapping[str, float] = field(
        default_factory=lambda: {
            "er_result": 0.95,
            "pr_result": 0.95,
            "her2_result": 0.90,
            "gbrca1_result": 0.50,
        }
    )
    biomarker_repeat_rate: float = 0.15

    def __post_init__(self) -> None:
        if self.n_patients <= 0:
            raise ValueError("n_patients must be positive")


def _uniform_days(rng: np.random.Generator, window: tuple[int, int]) -> int:
    lo, hi = window
    return int(rng.integers(lo, hi + 1))


def generate_truth(config: GeneratorConfig, seed: int = 0) -> CohortDataset:
    """Generate the reference-quality cohort for a configuration.

    The output is internally consistent by construction: stage IV is
    de novo metastatic disease, surgery happens between initial and any
    metastatic diagnosis and never for stage IV, radiation and adjuvant
    therapy follow surgery inside their fixed windows, repeat
    biomarker tests agree in sign, endocrine therapy needs hormone
    receptor positivity, and every death is dated and terminal.
    """
    schema = breast_schema()
    # valid by construction, so rows go straight into the set's store
    by_patient: dict[str, dict[str, tuple[Row, ...]]] = {}
    patients: dict[str, dict[str, str]] = {}
    width = max(6, len(str(config.n_patients - 1)))

    def emit(variable, value, event_date=None):
        row = (value, event_date, None)
        rows = own.get(variable)
        own[variable] = (row,) if rows is None else _canonical(rows + (row,))

    for i in range(config.n_patients):
        rng = _patient_rng(_TRUTH_SALT, seed, i)
        pid = f"P{i:0{width}d}"
        own: dict[str, tuple[Row, ...]] = {}
        attrs = {attr: _choice(rng, probs) for attr, probs in sorted(STRATA.items())}
        attrs["treatment_arm"] = _choice(rng, ARMS)
        patients[pid] = attrs

        initial = shift_date(_DIAGNOSIS_START, int(rng.integers(0, _DIAGNOSIS_SPAN_DAYS)))
        emit("initial_dx", "yes", initial)

        metastatic = rng.random() < config.metastatic_fraction
        met_date = None
        if metastatic:
            de_novo = rng.random() < config.de_novo_fraction
            if de_novo:
                met_date = initial
                stage = "IV"
            else:
                met_date = shift_date(initial, _uniform_days(rng, _MET_DELAY_DAYS))
                stage = _choice(rng, _STAGE_PROBS)
            emit("metastatic_dx", "yes", met_date)
        else:
            stage = _choice(rng, _STAGE_PROBS)
            emit("metastatic_dx", "no")
        emit("stage", stage)

        surgery_date = None
        if rng.random() < _SURGERY_BY_STAGE[stage]:
            surgery_date = shift_date(initial, _uniform_days(rng, _SURGERY_DELAY_DAYS))
            emit("surgery", "yes", surgery_date)
        else:
            emit("surgery", "no")

        if surgery_date is not None and rng.random() < _RADIATION_GIVEN_SURGERY:
            emit(
                "radiation",
                "yes",
                shift_date(surgery_date, _uniform_days(rng, _RADIATION_DELAY_DAYS)),
            )
        else:
            emit("radiation", "no")

        if surgery_date is not None and rng.random() < _ADJUVANT_GIVEN_SURGERY:
            emit(
                "adjuvant_start",
                "yes",
                shift_date(surgery_date, _uniform_days(rng, _ADJUVANT_DELAY_DAYS)),
            )
        else:
            emit("adjuvant_start", "no")

        if metastatic:
            emit("first_line_regimen", _choice(rng, REGIMENS))

        signs = {}
        for marker in _BIOMARKERS:
            signs[marker] = (
                "positive" if rng.random() < config.biomarker_positive[marker] else "negative"
            )
        for marker in _BIOMARKERS:
            if rng.random() >= config.biomarker_tested[marker]:
                continue
            n_tests = 2 if rng.random() < config.biomarker_repeat_rate else 1
            offsets: set[int] = set()
            while len(offsets) < n_tests:
                offsets.add(_uniform_days(rng, _BIOMARKER_WINDOW_DAYS))
            for off in sorted(offsets):
                emit(marker, signs[marker], shift_date(initial, off))

        hr = "positive" if "positive" in (signs["er_result"], signs["pr_result"]) else "negative"
        emit("hr_status", hr)

        if hr == "positive" and rng.random() < _ENDOCRINE_GIVEN_HR_POSITIVE:
            emit(
                "endocrine_therapy",
                "yes",
                shift_date(initial, _uniform_days(rng, _ENDOCRINE_DELAY_DAYS)),
            )
        else:
            emit("endocrine_therapy", "no")

        anchor = met_date if met_date is not None else initial
        death_date = None
        if metastatic:
            median = _OS_MEDIAN_DAYS[attrs["treatment_arm"]]
            duration = int(round(rng.exponential(median / math.log(2.0))))
            if duration <= _FOLLOWUP_DAYS:
                death_date = shift_date(anchor, max(duration, 1))
        if death_date is not None:
            emit("death", "yes", death_date)
            emit("last_contact", "yes", death_date)
        else:
            emit("death", "no")
            emit("last_contact", "yes", shift_date(anchor, _FOLLOWUP_DAYS))
        by_patient[pid] = own

    labels = LabelSet._from_store(schema, Source.REFERENCE, by_patient)
    dataset = CohortDataset(
        schema=schema, patients=patients, label_sets={Source.REFERENCE: labels}
    )
    dataset.validate()
    return dataset


# ---- error model ----


@dataclass(frozen=True)
class ErrorRates:
    """Per-variable rates of the supported corruption processes.

    ``miss`` drops a documented record; ``hallucinate`` fabricates a value
    where the truth has none; ``flip`` replaces a known value with a
    uniformly chosen other known value; ``date_shift_rate`` moves a date by
    exactly ``date_shift_days`` (sign random); ``instability`` mutates a
    record between data refreshes.
    """

    miss: float = 0.0
    hallucinate: float = 0.0
    flip: float = 0.0
    date_shift_rate: float = 0.0
    date_shift_days: int = 0
    instability: float = 0.0

    def __post_init__(self) -> None:
        for name in ("miss", "hallucinate", "flip", "date_shift_rate", "instability"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {v}")
        if self.date_shift_days < 0:
            raise ValueError("date_shift_days must be non-negative")

    def scaled(self, factor: float) -> "ErrorRates":
        if factor == 1.0:
            return self
        clamp = lambda x: min(1.0, max(0.0, x * factor))
        return replace(
            self,
            miss=clamp(self.miss),
            hallucinate=clamp(self.hallucinate),
            flip=clamp(self.flip),
            date_shift_rate=clamp(self.date_shift_rate),
            instability=clamp(self.instability),
        )


@dataclass(frozen=True)
class ErrorModel:
    """1+ ErrorRates plus optional stratum-dependent scaling.

    ``stratum_multipliers`` scales every probability (never the shift
    magnitude) for patients whose ``stratum_attribute`` takes the given
    value; results are clamped to [0, 1]. That is how differential error,
    the bias mechanism under study, is injected.
    """

    default: ErrorRates = field(default_factory=ErrorRates)
    per_variable: Mapping[str, ErrorRates] = field(default_factory=dict)
    stratum_attribute: str | None = None
    stratum_multipliers: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stratum_multipliers and self.stratum_attribute is None:
            raise ValueError("stratum_multipliers need a stratum_attribute")
        for value, mult in self.stratum_multipliers.items():
            if mult < 0:
                raise ValueError(f"multiplier for {value!r} must be non-negative")

    def rates_for(self, variable: str, attributes: Mapping[str, str] | None = None) -> ErrorRates:
        rates = self.per_variable.get(variable, self.default)
        if self.stratum_attribute and attributes is not None:
            mult = self.stratum_multipliers.get(
                attributes.get(self.stratum_attribute, ""), 1.0
            )
            rates = rates.scaled(mult)
        return rates


def _flip_value(rng: np.random.Generator, spec: VariableSpec, current: str) -> str:
    if spec.known_values is None:
        return current
    options = sorted(spec.known_values - {current})
    if not options:
        return current
    return options[int(rng.integers(0, len(options)))]


def _hallucinated_date(
    rng: np.random.Generator, spec: VariableSpec, anchor: date | None
) -> date | None:
    if not spec.kind.has_dates or anchor is None:
        return None
    return shift_date(anchor, int(rng.integers(0, 366)))


def corrupt(
    dataset: CohortDataset,
    model: ErrorModel,
    *,
    source: Source,
    seed: int,
    refresh_id: str | None = None,
) -> LabelSet:
    """Derive an imperfect label set from a dataset's reference labels.

    Per patient and variable, in deterministic order: the whole key may be
    missed; each surviving known record may have its value flipped to a
    uniformly chosen other known value; each surviving dated record may
    have its date shifted by exactly the configured magnitude. Variables
    absent from the truth may be hallucinated as a uniform known value,
    dated relative to the patient's initial diagnosis. Unknown-token
    records can be missed but are never flipped.
    """
    truth = dataset.labels(Source.REFERENCE)
    schema = dataset.schema
    variables = [(name, schema[name]) for name in sorted(schema.keys())]
    # each row is a truth row with its value flipped to another known value
    # or its date moved, or a known value hallucinated where the truth has
    # none: all valid by construction, so rows go straight into the store
    by_patient: dict[str, dict[str, tuple[Row, ...]]] = {}
    for index, pid in enumerate(sorted(dataset.patients)):
        rng = _patient_rng(_CORRUPT_SALT, seed, index)
        attrs = dataset.patients[pid]
        truth_own = truth._by_patient.get(pid, _NO_ROWS)
        anchor_rows = truth_own.get("initial_dx")
        anchor = anchor_rows[0][1] if anchor_rows else None
        own: dict[str, tuple[Row, ...]] = {}
        for variable, spec in variables:
            rates = model.rates_for(variable, attrs)
            rows = truth_own.get(variable)
            if not rows:
                if (
                    rates.hallucinate > 0
                    and spec.known_values
                    and rng.random() < rates.hallucinate
                ):
                    value = sorted(spec.known_values)[
                        int(rng.integers(0, len(spec.known_values)))
                    ]
                    event_date = _hallucinated_date(rng, spec, anchor)
                    if spec.kind == VariableKind.EVENT_LIST and event_date is None:
                        continue
                    own[variable] = ((value, event_date, refresh_id),)
                continue
            if rng.random() < rates.miss:
                continue
            unknown = spec.unknown_token
            out = []
            for value, event_date, _ in rows:
                if value != unknown and not isinstance(value, float):
                    if rng.random() < rates.flip:
                        value = _flip_value(rng, spec, value)
                if event_date is not None and rates.date_shift_rate > 0:
                    if rng.random() < rates.date_shift_rate:
                        sign = 1 if rng.random() < 0.5 else -1
                        event_date = shift_date(event_date, sign * rates.date_shift_days)
                out.append((value, event_date, refresh_id))
            # a key that no draw changed shares the truth's rows (float values
            # are never flipped, so equal rows are written alike)
            own[variable] = rows if out == list(rows) else _canonical(out)
        if own:
            by_patient[pid] = own
    return LabelSet._from_store(schema, source, by_patient, refresh_id)


def refresh_snapshot(
    labels: LabelSet,
    model: ErrorModel,
    *,
    seed: int,
    refresh_id: str,
) -> LabelSet:
    """Produce the next refresh of a label feed.

    Each key mutates with its variable's ``instability`` rate, unscaled by
    any stratum: the value flips when an alternative known value exists,
    otherwise the date shifts by the configured magnitude (default 30
    days).
    """
    schema = labels.schema
    variables = [(name, schema[name], model.rates_for(name)) for name in sorted(schema.keys())]
    # mutations keep rows valid (see corrupt), so they go straight into the store
    by_patient: dict[str, dict[str, tuple[Row, ...]]] = {}
    for index, pid in enumerate(sorted(labels.patients)):
        rng = _patient_rng(_REFRESH_SALT, seed, index)
        labels_own = labels._by_patient[pid]
        own = by_patient[pid] = {}
        for variable, spec, rates in variables:
            rows = labels_own.get(variable)
            if not rows:
                continue
            unknown = spec.unknown_token
            out = []
            for value, event_date, _ in rows:
                if rates.instability > 0 and rng.random() < rates.instability:
                    flipped = None
                    if value != unknown and not isinstance(value, float):
                        flipped = _flip_value(rng, spec, value)
                    if flipped is not None and flipped != value:
                        value = flipped
                    elif event_date is not None:
                        shift = rates.date_shift_days or 30
                        sign = 1 if rng.random() < 0.5 else -1
                        event_date = shift_date(event_date, sign * shift)
                out.append((value, event_date, refresh_id))
            own[variable] = _canonical(out)
    return LabelSet._from_store(schema, labels.source, by_patient, refresh_id)


# ---- closed-form expectations ----


def expected_metrics(
    model: ErrorModel,
    truth: CohortDataset,
    variable: str,
    positive_class: str,
    *,
    stratum_value: str | None = None,
    tolerance_days: int = 30,
) -> dict[str, float | None]:
    """Expected metric values for ``corrupt`` output on a known truth.

    Exact for single-valued variables under the documented corruption
    order. When ``stratum_value`` is set the expectation is restricted to
    patients with that value of the model's stratum attribute (the rates
    then carry that stratum's multiplier).
    """
    schema = truth.schema
    spec = schema[variable]
    if spec.kind == VariableKind.EVENT_LIST:
        raise ValueError("closed-form expectations cover single-valued variables")
    labels = truth.labels(Source.REFERENCE)
    patients = sorted(truth.patients)
    if stratum_value is not None:
        if model.stratum_attribute is None:
            raise ValueError("stratum_value given but the model has no stratum_attribute")
        patients = [
            p
            for p in patients
            if truth.attribute(p, model.stratum_attribute) == stratum_value
        ]
        rates = model.rates_for(variable, {model.stratum_attribute: stratum_value})
    else:
        if model.stratum_attribute is not None and model.stratum_multipliers:
            raise ValueError(
                "model has stratum multipliers; pass stratum_value for exact expectations"
            )
        rates = model.rates_for(variable)
    n_cohort = len(patients)
    n_pos = 0
    n_other: dict[str, int] = {}
    n_known = 0
    n_absent = 0
    n_pos_dated = 0
    for rows in labels._rows(variable, patients):
        if not rows:
            n_absent += 1
            continue
        value, event_date, _ = rows[0]
        if value == spec.unknown_token:
            continue
        n_known += 1
        if value == positive_class:
            n_pos += 1
            if event_date is not None:
                n_pos_dated += 1
        else:
            n_other[str(value)] = n_other.get(str(value), 0) + 1
    keep = 1.0 - rates.miss
    intact = keep * (1.0 - rates.flip)
    k = len(spec.known_values)
    e_tp = n_pos * intact
    e_fn = n_pos * (1.0 - intact)
    e_fp = 0.0
    if k > 1:
        for count in n_other.values():
            e_fp += count * keep * rates.flip / (k - 1)
    e_fp += n_absent * rates.hallucinate / k
    recall = e_tp / (e_tp + e_fn) if (e_tp + e_fn) > 0 else None
    precision = e_tp / (e_tp + e_fp) if (e_tp + e_fp) > 0 else None
    f1 = None
    if recall is not None and precision is not None and (recall + precision) > 0:
        f1 = 2 * recall * precision / (recall + precision)
    completeness = None
    if n_cohort > 0:
        completeness = (n_known * keep + n_absent * rates.hallucinate) / n_cohort
    date_accuracy = None
    if spec.kind.has_dates and n_pos_dated > 0:
        if rates.date_shift_days > tolerance_days:
            date_accuracy = 1.0 - rates.date_shift_rate
        else:
            date_accuracy = 1.0
    return {
        "recall": recall,
        "precision": precision,
        "f1": f1,
        "completeness": completeness,
        "date_accuracy": date_accuracy,
    }


def expected_end_to_end_recall(model: ErrorModel, rule: DerivedVariableRule) -> float:
    """Expected recall of a derived classification under independent errors.

    Assumes the truth satisfies the rule for the scored patients, one test
    per component, no date shifting, no stratum scaling, and required
    values with exactly one alternative (so every flip breaks the rule). The derived prediction is
    then correct exactly when the index and every component survive
    unmissed and unflipped.
    """
    result = 1.0
    for variable in (rule.index_variable, *[v for v, _ in rule.components]):
        rates = model.rates_for(variable)
        result *= (1.0 - rates.miss) * (1.0 - rates.flip)
    return result
