"""End-to-end validation runs driven by a YAML configuration.

A run ingests labeled extractions, assembles the reference standard,
computes variable-level metrics against it, executes the check suite, and
replicates configured analyses, then writes a deterministic report bundle
(JSON report, text summary, findings CSV, curve exports). Reports carry a
configuration hash covering the config content and every input file, and
contain no timestamps, so identical inputs produce byte-identical output.

Exit codes: 0 clean, 1 validation issues found (check findings, metric
threshold breaches, discordant benchmarks, or a blocked pillar), 2 the
run itself failed (bad config, unreadable inputs).
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Annotated

from . import checks as checks_mod
from . import metrics as metrics_mod
from .labelio import IngestError, load_schema, read_attributes, read_labels
from .refstd import (
    AdjudicationError,
    DisagreementCase,
    ReferenceMode,
    build_double_adjudication,
    build_duplicate_abstraction,
    build_triple_adjudication,
    find_disagreements,
    write_disagreements,
)
from .replication import (
    BenchmarkSpec,
    DirectionBenchmark,
    EquityReport,
    SurvivalCohort,
    ToleranceBenchmark,
    compare_curves,
    compare_distribution,
    compare_trend,
    distribution_from_labels,
    equity_replication,
    survival_records,
    trend_series,
)
from .schema import CohortDataset, LabelSet, Schema, Source, VariableKind
from .yamlspec import (
    ConfigError,
    OneOf,
    at_least,
    dated_variable,
    load_yaml,
    read_spec,
    schema_problems,
    single_valued_variable,
    token_of,
)


# ---- the run config: one frozen spec per YAML mapping, read by read_spec ----


Benchmark = Annotated[
    BenchmarkSpec,
    OneOf("type", {"direction": DirectionBenchmark, "tolerance": ToleranceBenchmark}, "direction"),
]


@dataclass(frozen=True)
class Tolerances:
    date_tolerance_days: int = 30
    min_stratum_n: int = 20
    bootstrap_replicates: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        at_least(self, 0, "date_tolerance_days", "min_stratum_n", "seed")
        at_least(self, 1, "bootstrap_replicates")


@dataclass(frozen=True)
class MetricTarget:
    variable: str
    positive_class: str | None = token_of("variable", default=None)


@dataclass(frozen=True)
class MetricsSpec:
    variables: tuple[MetricTarget, ...] = ()
    derived: tuple[metrics_mod.DerivedVariableRule, ...] = ()
    bootstrap: bool = False


@dataclass(frozen=True)
class Pillars:
    metrics: bool = True
    checks: bool = True
    replication: bool = True


@dataclass(frozen=True, kw_only=True)
class _SurvivalEndpoint:
    """The keys a survival analysis builds its cohort from."""

    index_variable: str = dated_variable()
    event_variable: str = dated_variable()
    censor_variable: str = dated_variable()
    event_positive: str = token_of("event_variable", default="yes")
    max_followup_days: int | None = None

    def __post_init__(self) -> None:
        at_least(self, 0, "max_followup_days")

    def cohort(self, labels: LabelSet, patients: list[str]) -> SurvivalCohort:
        # each field is a keyword argument of survival_records
        keys = {f.name: getattr(self, f.name) for f in fields(_SurvivalEndpoint)}
        return survival_records(labels, patients=patients, **keys)


@dataclass(frozen=True, kw_only=True)
class SurvivalBenchmarkSpec(_SurvivalEndpoint):
    name: str = "survival_benchmark"
    group_by: str | None = None
    at_times: tuple[float, ...] = ()
    benchmark: Benchmark | None = None


@dataclass(frozen=True, kw_only=True)
class EquitySpec(_SurvivalEndpoint):
    stratum_attribute: str
    name: str | None = None  # equity_<stratum_attribute>
    benchmark: Benchmark | None = None


@dataclass(frozen=True)
class DistributionSpec:
    variable: str = single_valued_variable()
    reference: dict[str, float]
    name: str | None = None  # distribution_<variable>

    def __post_init__(self) -> None:
        masses = self.reference.values()
        if sum(masses) <= 0 or any(p < 0 for p in masses):
            raise ValueError(f"reference: needs non-negative masses summing above 0, got {self.reference}")


@dataclass(frozen=True)
class TrendSpec:
    variable: str = dated_variable()
    name: str | None = None  # trend_<variable>


Analysis = Annotated[
    SurvivalBenchmarkSpec | EquitySpec | DistributionSpec | TrendSpec,
    OneOf("kind", {"survival_benchmark": SurvivalBenchmarkSpec, "equity": EquitySpec,
                   "distribution_vs_reference": DistributionSpec, "trend": TrendSpec}),
]


@dataclass(frozen=True)
class RunConfig:
    """A parsed run config: one field per top-level key.

    Paths are resolved against the config file. ``raw`` is the document as
    read, for the config hash.
    """

    schema: Path
    labels: dict[Source, Path]
    reference_mode: ReferenceMode = ReferenceMode.DUPLICATE_ABSTRACTION
    attributes: Path | None = None
    previous_labels: Path | None = None
    check_suite: Path | None = None
    strata: tuple[str, ...] = ()
    metrics: MetricsSpec = MetricsSpec()
    thresholds: dict[str, float] = field(default_factory=dict)
    analyses: tuple[Analysis, ...] = ()
    tolerances: Tolerances = Tolerances()
    pillars: Pillars = Pillars()
    output_dir: Path | None = None
    raw: dict = field(default_factory=dict, compare=False, metadata={"yaml": False})


def load_run_config(path: str | Path) -> RunConfig:
    """Parse ``run.yaml``; a ``ConfigError`` lists every problem before any input is read."""
    path = Path(path)
    try:
        doc = load_yaml(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    config = read_spec(RunConfig, doc)
    problems = [] if Source.LLM in config.labels else ["labels.llm: required"]
    if config.pillars.metrics or config.pillars.replication:  # both need the reference standard
        needs = "required when pillars.metrics or pillars.replication is on"
        if Source.ABSTRACTOR_1 not in config.labels:
            problems.append(f"labels.abstractor_1: {needs}")
        if Source.ABSTRACTOR_2 not in config.labels and config.reference_mode != ReferenceMode.DOUBLE_ADJUDICATION:
            problems.append(f"labels.abstractor_2: {needs} and reference_mode is {config.reference_mode.value}")
    if Source.REFERENCE in config.labels:
        problems.append("labels.reference: not accepted; the reference standard comes from reference_mode")
    unknown = sorted(set(config.thresholds) - set(metrics_mod.METRIC_NAMES))
    if unknown:
        problems.append(f"thresholds: unknown metric(s) {unknown}; known: {list(metrics_mod.METRIC_NAMES)}")
    for i, analysis in enumerate(config.analyses):
        for key in ("group_by", "stratum_attribute"):
            attribute = getattr(analysis, key, None)
            if attribute is not None and attribute not in config.strata:
                problems.append(f"analyses[{i}].{key}: {attribute!r} is not declared under strata")
    if problems:
        raise ConfigError(*problems)

    def resolve(p: Path | None) -> Path | None:
        return p if p is None or p.is_absolute() else (path.parent / p).resolve()

    paths = ("schema", "attributes", "previous_labels", "check_suite", "output_dir")
    resolved = {key: resolve(getattr(config, key)) for key in paths}
    labels = {source: resolve(p) for source, p in config.labels.items()}
    return replace(config, labels=labels, raw=doc, **resolved)


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def config_hash(config: RunConfig) -> str:
    """Digest of the config content plus every referenced input file.

    A seed set after loading (``--seed``) is hashed as if the config stated
    it; a config whose seed is the one it states hashes its document as read.
    """
    doc = config.raw
    tolerances = doc.get("tolerances") or {}
    if config.tolerances.seed != tolerances.get("seed", Tolerances.seed):
        doc = {**doc, "tolerances": {**tolerances, "seed": config.tolerances.seed}}
    inputs = {f"labels.{source.value}": p for source, p in config.labels.items()}
    for key in ("schema", "attributes", "previous_labels", "check_suite"):
        if getattr(config, key) is not None:
            inputs[key] = getattr(config, key)
    digests = {}
    for role in sorted(inputs):
        try:
            digests[role] = _file_digest(inputs[role])
        except OSError as exc:
            raise ConfigError(f"cannot read input {inputs[role]}: {exc}") from exc
    payload = canonical_json({"config": _jsonable(doc), "inputs": digests})
    return hashlib.sha256(payload.encode()).hexdigest()


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return str(obj)


@dataclass
class PipelineResult:
    report: dict
    curves: dict[str, "object"] = field(default_factory=dict)  # name -> KMCurve
    worklist: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return self.report["exit_code"]


def _load_schema(config: RunConfig) -> Schema:
    """The run's schema; a ``ConfigError`` lists every variable the config
    names that it lacks, every category token it names that its variable
    cannot take, and every metric target that needs a ``positive_class``
    (any kind but event_list) and lacks one."""
    schema = load_schema(config.schema)
    problems = schema_problems(config, schema)
    for i, target in enumerate(config.metrics.variables):
        kind = schema[target.variable].kind if target.variable in schema else VariableKind.EVENT_LIST
        if target.positive_class is None and kind != VariableKind.EVENT_LIST:
            problems.append(
                f"metrics.variables[{i}].positive_class: required for {target.variable}, a {kind.value} variable"
            )
    if problems:
        raise ConfigError(*problems)
    return schema


def _load_dataset(config: RunConfig, schema: Schema) -> CohortDataset:
    label_sets: dict[Source, LabelSet] = {}
    for source, path in sorted(config.labels.items()):
        label_sets[source] = read_labels(path, schema, source)
    if config.attributes is not None:
        patients = read_attributes(config.attributes, list(config.strata))
        for source, labels in label_sets.items():
            stray = labels.patients - patients.keys()
            if stray:  # only now read the file again, for each stray patient's first row
                first: dict[str, int] = {}
                with open(config.labels[source], newline="") as fh:
                    for n, row in enumerate(csv.reader(fh), start=1):
                        if n > 1 and row and row[0].strip() in stray:
                            first.setdefault(row[0].strip(), n)
                missing = [f"row {n}: patient {pid!r} is not in {config.attributes.name}" for pid, n in first.items()]
                raise IngestError(config.labels[source], missing)
    else:
        patients = {
            pid: {}
            for labels in label_sets.values()
            for pid in labels.patients
        }
    dataset = CohortDataset(schema=schema, patients=dict(sorted(patients.items())), label_sets=label_sets)
    dataset.validate()
    return dataset


def disagreement_cases(config: RunConfig, dataset: CohortDataset) -> list[DisagreementCase]:
    """The open disagreements the configured mode adjudicates (none under
    duplicate abstraction), found in one walk of the keys."""
    mode = config.reference_mode
    if mode == ReferenceMode.DUPLICATE_ABSTRACTION:
        return []
    a2 = dataset.labels(Source.ABSTRACTOR_2) if mode == ReferenceMode.TRIPLE_ADJUDICATION else None
    llm, a1 = dataset.labels(Source.LLM), dataset.labels(Source.ABSTRACTOR_1)
    return find_disagreements(llm, a1, a2, tolerance_days=config.tolerances.date_tolerance_days)


def assemble_reference(
    config: RunConfig, dataset: CohortDataset, adjudications: LabelSet | None = None,
    *, cases: list[DisagreementCase] | None = None,
):
    """Assemble the reference standard the configured mode asks for.

    The adjudications default to the dataset's adjudicator labels (none given
    means none made). ``cases`` are the mode's disagreements when the caller
    already has them from ``disagreement_cases``; by default the assembly
    finds them. An incomplete adjudication raises ``AdjudicationError``,
    whose ``worklist`` holds the open cases.
    """
    llm = dataset.labels(Source.LLM)
    a1 = dataset.labels(Source.ABSTRACTOR_1)
    mode = config.reference_mode
    if mode == ReferenceMode.DUPLICATE_ABSTRACTION:
        return build_duplicate_abstraction(llm, a1, dataset.labels(Source.ABSTRACTOR_2))
    if adjudications is None:
        adjudications = dataset.label_sets.get(Source.ADJUDICATOR)
    if adjudications is None:
        adjudications = LabelSet(dataset.schema, Source.ADJUDICATOR)
    tol = config.tolerances.date_tolerance_days
    if mode == ReferenceMode.DOUBLE_ADJUDICATION:
        return build_double_adjudication(llm, a1, adjudications, tolerance_days=tol, cases=cases)
    return build_triple_adjudication(
        llm, a1, dataset.labels(Source.ABSTRACTOR_2), adjudications, tolerance_days=tol, cases=cases
    )


def _metrics_pillar(config: RunConfig, dataset: CohortDataset, reference) -> dict:
    """The extraction and abstractor 1 scored against ``reference``."""
    llm, a1 = dataset.labels(Source.LLM), dataset.labels(Source.ABSTRACTOR_1)
    tol = config.tolerances
    cohort = sorted(dataset.patients)
    strata = {attr: dataset.strata(attr) for attr in config.strata}
    out: dict = {"status": "ok", "variables": {}, "derived": {}, "threshold_breaches": []}
    for target in config.metrics.variables:
        variable, positive_class = target.variable, target.positive_class
        # each side's per-patient rows over the sorted cohort, built once: the
        # point metrics, every stratum and the bootstrap all sum them
        llm_rows, a1_rows = (
            metrics_mod.patient_rows(
                labels,
                reference,
                variable,
                positive_class,
                tolerance_days=tol.date_tolerance_days,
                patients=cohort,
            )
            for labels in (llm, a1)
        )
        llm_report, a1_report = llm_rows.report(), a1_rows.report()
        if config.metrics.bootstrap:
            llm_report.ci = metrics_mod.bootstrap_variable_ci(
                llm_rows, n_replicates=tol.bootstrap_replicates, seed=tol.seed
            )
        relative = metrics_mod.relative_difference(llm_report, a1_report)
        entry = {
            "positive_class": positive_class,
            "llm": llm_report.to_dict(),
            "abstraction": a1_report.to_dict(),
            "relative": [r.to_dict() for r in relative],
        }
        if config.strata:
            entry["stratified"] = {
                attr: {
                    name: sm.to_dict()
                    for name, sm in metrics_mod.stratified_metrics(
                        llm_rows, a1_rows, groups, min_stratum_n=tol.min_stratum_n
                    ).items()
                }
                for attr, groups in strata.items()
            }
        for metric, floor in sorted(config.thresholds.items()):
            value = llm_report.value(metric)
            if value is not None and value < floor:
                out["threshold_breaches"].append(
                    {
                        "variable": variable,
                        "metric": metric,
                        "value": value,
                        "threshold": floor,
                    }
                )
        out["variables"][variable] = entry
    for rule in config.metrics.derived:
        e2e = metrics_mod.end_to_end_metrics(rule, llm, reference, a1, cohort=cohort)
        out["derived"][rule.name] = {
            "index_variable": rule.index_variable,
            "index_positive": rule.index_positive,
            "components": [list(c) for c in rule.components],
            "window_days": list(rule.window_days),
            "llm": e2e.llm.to_dict(),
            "abstraction": e2e.abstraction.to_dict() if e2e.abstraction else None,
            "relative": [r.to_dict() for r in e2e.relative] if e2e.relative else None,
        }
    return out


def _load_previous(config: RunConfig, dataset: CohortDataset, suite: checks_mod.CheckSuite) -> LabelSet | None:
    """The prior snapshot the extraction's refresh checks compare against,
    if the config names one. When the suite has a refresh check, a
    ``ConfigError`` names each label file whose rows do not carry exactly
    one refresh id, or both files and ids when they are out of order."""
    if config.previous_labels is None:
        return None
    previous = read_labels(config.previous_labels, dataset.schema, Source.LLM)
    if any(isinstance(check.cohort, checks_mod.RefreshStability) for check in suite):
        names = (str(config.previous_labels), str(config.labels[Source.LLM]))
        problems = checks_mod.refresh_id_problems(previous, dataset.labels(Source.LLM), names)
        if problems:
            raise ConfigError(*problems)
    return previous


def _grouped_survival(
    spec: SurvivalBenchmarkSpec | EquitySpec, labels: LabelSet, groups: dict[str, list[str]], floor: int
) -> tuple[dict[str, SurvivalCohort], EquityReport]:
    """Each group's cohort from ``labels``, and their curves, medians and
    benchmark verdict from the one grouped-survival path."""
    cohorts = {group: spec.cohort(labels, pids) for group, pids in groups.items()}
    records = {group: cohort.records for group, cohort in cohorts.items()}
    return cohorts, equity_replication(records, min_stratum_n=floor, benchmark=spec.benchmark)


def _survival_analysis(spec: SurvivalBenchmarkSpec, dataset: CohortDataset, reference, curves: dict) -> dict:
    name = spec.name
    groups = dataset.strata(spec.group_by) if spec.group_by else {"all": sorted(dataset.patients)}
    cohorts, llm = _grouped_survival(spec, dataset.labels(Source.LLM), groups, 1)
    entries = {group: {"llm_cohort": cohort.summary()} for group, cohort in cohorts.items()}
    ref = None
    if reference is not None:  # only the groups with an llm curve
        _, ref = _grouped_survival(spec, reference.labels, {group: groups[group] for group in llm.curves}, 1)
    for group, curve in llm.curves.items():
        entry = entries[group]
        entry["llm_median"] = llm.medians[group]
        curves[f"{name}_{group}_llm"] = curve
        if ref is not None and group in ref.curves:
            ref_curve = ref.curves[group]
            entry["reference_median"] = ref.medians[group]
            curves[f"{name}_{group}_reference"] = ref_curve
            entry["vs_reference"] = compare_curves(curve, ref_curve, at_times=spec.at_times).to_dict()
    result: dict = {"kind": "survival_benchmark", "name": name, "groups": entries}
    if llm.concordance is not None:
        result["concordance"] = llm.concordance.to_dict()
        if ref is not None and ref.curves:
            result["reference_concordance"] = ref.concordance.to_dict()
    return result


def _not_applicable(kind: str, name: str, reason: str) -> dict:
    """An analysis the data is too thin for; the rest of the run goes on."""
    return {"kind": kind, "name": name, "status": "not_applicable", "reason": reason}


def _distribution_analysis(spec: DistributionSpec, dataset: CohortDataset) -> dict:
    llm = dataset.labels(Source.LLM)
    variable = spec.variable
    name = spec.name or f"distribution_{variable}"
    observed = distribution_from_labels(llm, variable, sorted(dataset.patients))
    if not observed:
        return _not_applicable("distribution_vs_reference", name, f"no known {variable} value")
    comparison = compare_distribution(observed, spec.reference)
    return {
        "kind": "distribution_vs_reference",
        "name": name,
        "variable": variable,
        "observed_counts": dict(sorted(observed.items())),
        "comparison": comparison.to_dict(),
    }


def _trend_analysis(spec: TrendSpec, dataset: CohortDataset, reference) -> dict:
    llm = dataset.labels(Source.LLM)
    variable = spec.variable
    name = spec.name or f"trend_{variable}"
    llm_trend = trend_series(llm, variable)
    if not llm_trend.months:
        return _not_applicable("trend", name, f"no dated {variable} record to bucket by month")
    out = {"kind": "trend", "name": name, "variable": variable, "llm": llm_trend.to_dict()}
    if reference is not None:
        ref_trend = trend_series(reference.labels, variable)
        if ref_trend.months:
            out["reference"] = ref_trend.to_dict()
            out["comparison"] = compare_trend(llm_trend, ref_trend).to_dict()
    return out


def _equity_analysis(spec: EquitySpec, config: RunConfig, dataset: CohortDataset, reference, curves: dict) -> dict:
    name = spec.name or f"equity_{spec.stratum_attribute}"
    groups = dataset.strata(spec.stratum_attribute)
    floor = config.tolerances.min_stratum_n

    def replicate(labels: LabelSet, side: str) -> tuple[EquityReport, str]:
        _, report = _grouped_survival(spec, labels, groups, floor)
        for group, curve in report.curves.items():
            curves[f"{name}_{group}_{side}"] = curve
        return report, f"all {len(report.group_sizes)} strata fall below min_stratum_n={floor}"

    llm, thin = replicate(dataset.labels(Source.LLM), "llm")
    if not llm.curves:
        return _not_applicable("equity", name, thin)
    out = {
        "kind": "equity",
        "name": name,
        "llm": {
            "medians": llm.medians,
            "group_sizes": llm.group_sizes,
            "suppressed": llm.suppressed,
            "concordance": llm.concordance.to_dict() if llm.concordance else None,
        },
    }
    if reference is not None:
        ref, thin = replicate(reference.labels, "reference")
        if ref.curves:
            out["reference"] = {
                "medians": ref.medians,
                "concordance": ref.concordance.to_dict() if ref.concordance else None,
            }
        elif ref.group_sizes:  # the reference cohort is not empty, only thin
            out["reference"] = {"status": "not_applicable", "reason": thin}
    return out


def _replication_pillar(config: RunConfig, dataset: CohortDataset, reference, curves: dict) -> dict:
    analyses = []
    for spec in config.analyses:
        if isinstance(spec, SurvivalBenchmarkSpec):
            analyses.append(_survival_analysis(spec, dataset, reference, curves))
        elif isinstance(spec, DistributionSpec):
            analyses.append(_distribution_analysis(spec, dataset))
        elif isinstance(spec, TrendSpec):
            analyses.append(_trend_analysis(spec, dataset, reference))
        else:  # EquitySpec: the parser admits no other kind
            analyses.append(_equity_analysis(spec, config, dataset, reference, curves))
    return {"analyses": analyses}


def _llm_concordance(analysis: dict) -> dict | None:
    """The llm side's benchmark verdict: a survival analysis's, else an equity analysis's."""
    return analysis.get("concordance") or (analysis.get("llm") or {}).get("concordance")


def _collect_issues(report: dict) -> list[str]:
    issues = []
    checks = report.get("checks")
    if checks and checks.get("n_findings", 0) > 0:
        issues.append(f"{checks['n_findings']} check finding(s)")
    metrics = report.get("metrics")
    if metrics:
        if metrics.get("status") == "blocked":
            issues.append(f"metrics pillar blocked: {metrics.get('reason')}")
        for breach in metrics.get("threshold_breaches", []):
            issues.append(
                f"{breach['variable']} {breach['metric']} "
                f"{breach['value']:.4f} below threshold {breach['threshold']}"
            )
    replication = report.get("replication")
    if replication:
        for analysis in replication.get("analyses", []):
            conc = _llm_concordance(analysis)
            if conc and not conc.get("concordant", True):
                issues.append(
                    f"{analysis['name']}: discordant with benchmark ({conc.get('reason')})"
                )
    return issues


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Execute every enabled pillar and assemble the run report.

    Unresolved adjudications block only the metrics pillar (checks and
    replication still run); the blockage is reported and drives a nonzero
    exit code.
    """
    schema = _load_schema(config)
    suite = None
    if config.pillars.checks:  # checked against the schema before any label file is read
        suite = checks_mod.load_suite(config.check_suite or checks_mod.default_suite_path(), schema)
    dataset = _load_dataset(config, schema)
    previous = None if suite is None else _load_previous(config, dataset, suite)
    report: dict = {
        "config_hash": config_hash(config),
        "reference_mode": config.reference_mode.value,
        "cohort": {
            "n_patients": len(dataset.patients),
            "strata": {
                attr: {k: len(v) for k, v in sorted(dataset.strata(attr).items())}
                for attr in config.strata
            },
        },
    }
    curves: dict = {}
    worklist: list = []
    reference = None
    need_reference = config.pillars.metrics or config.pillars.replication
    if need_reference:
        try:
            reference = assemble_reference(config, dataset)
            report["reference"] = reference.summary()
            worklist = list(reference.cases)
        except AdjudicationError as exc:
            report["reference"] = {"status": "blocked", "reason": str(exc)}
            worklist = exc.worklist
            if config.pillars.metrics:
                report["metrics"] = {"status": "blocked", "reason": str(exc)}
    if config.pillars.metrics and reference is not None:
        report["metrics"] = _metrics_pillar(config, dataset, reference)
    if config.pillars.checks:
        checks = checks_mod.run_all_checks(
            suite, dataset, source=Source.LLM, strata=config.strata, previous=previous,
            min_stratum_n=config.tolerances.min_stratum_n,
        )
        report["checks"] = checks.to_dict()
        report["findings"] = [f.to_dict() for f in checks.findings()]
        del checks, previous  # the replication pillar reuses their memory
    if config.pillars.replication:
        report["replication"] = _replication_pillar(config, dataset, reference, curves)
    issues = _collect_issues(report)
    report["issues"] = issues
    report["exit_code"] = 1 if issues else 0
    return PipelineResult(report=report, curves=curves, worklist=worklist)


# ---- report emission ----


def _dotted_lines(mapping: dict, prefix: str = "") -> list[str]:
    """One ``dotted.key: value`` line per leaf of a nested mapping, each
    starting with ``prefix``, with the keys sorted at every level."""
    lines = []
    for key, value in sorted(mapping.items()):
        if isinstance(value, dict):
            lines += _dotted_lines(value, f"{prefix}{key}.")
        else:
            lines.append(f"{prefix}{key}: {value}")
    return lines


def _summary_lines(report: dict) -> list[str]:
    lines = ["validation run summary", "=" * 22, ""]
    lines.append(f"config hash: {report['config_hash']}")
    lines.append(f"reference mode: {report['reference_mode']}")
    lines.append(f"patients: {report['cohort']['n_patients']}")
    ref = report.get("reference")
    if ref and ref.get("status") == "blocked":
        lines.append(f"reference: BLOCKED ({ref['reason']})")
    elif ref:
        lines += ["reference:", *_dotted_lines(ref, "  ")]
    metrics = report.get("metrics")
    if metrics and metrics.get("status") == "ok":
        lines.append("")
        lines.append("metrics (llm vs reference, abstraction vs reference):")
        for variable, entry in sorted(metrics["variables"].items()):
            llm = entry["llm"]
            rel = {r["metric"]: r["delta_pp"] for r in entry["relative"]}
            parts = []
            for m in ("recall", "precision", "f1", "date_accuracy", "completeness"):
                v = llm.get(m)
                if v is None:
                    continue
                delta = rel.get(m)
                suffix = f" ({delta:+.1f}pp vs abstraction)" if delta is not None else ""
                parts.append(f"{m}={v:.4f}{suffix}")
            lines.append(f"  {variable}: " + ", ".join(parts))
        for name, entry in sorted(metrics.get("derived", {}).items()):
            llm = entry["llm"]
            shown = ", ".join(
                f"{m}={llm[m]:.4f}" for m in ("recall", "precision", "f1") if llm.get(m) is not None
            )
            lines.append(f"  derived {name}: {shown or 'not applicable: no defined recall, precision or f1'}")
    checks = report.get("checks")
    if checks:
        lines.append("")
        lines.append(f"checks: {checks['n_findings']} finding(s)")
        for check_id, entry in sorted(checks["checks"].items()):
            prevalence = entry.get("prevalence")
            shown = "n/a" if prevalence is None else f"{prevalence:.4f}"
            lines.append(
                f"  {check_id}: flagged {entry['n_flagged']}/"
                f"{entry['n_evaluated']} (prevalence {shown}, "
                f"not applicable {entry['n_not_applicable']})"
            )
    replication = report.get("replication")
    if replication:
        lines.append("")
        lines.append("replication:")
        for analysis in replication["analyses"]:
            lines.append(f"  {analysis['name']} [{analysis['kind']}]")
            if analysis.get("status") == "not_applicable":
                lines.append(f"    not applicable ({analysis['reason']})")
            conc = _llm_concordance(analysis)
            if conc:
                verdict = "concordant" if conc["concordant"] else "DISCORDANT"
                lines.append(f"    benchmark: {verdict} ({conc['reason']})")
    lines.append("")
    if report["issues"]:
        lines.append("issues:")
        for issue in report["issues"]:
            lines.append(f"  - {issue}")
    else:
        lines.append("no issues found")
    lines.append(f"exit code: {report['exit_code']}")
    return lines


def emit_report(result: PipelineResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the deterministic report bundle, removing any worklist or curve
    file in ``out_dir`` that this run did not write; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    report_path = out / "report.json"
    report_path.write_text(canonical_json(result.report))
    written["report"] = report_path
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(_summary_lines(result.report)) + "\n")
    written["summary"] = summary_path
    findings_path = out / "findings.csv"
    with open(findings_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, ["check_id", "severity", "scope", "observed", "expected"])
        writer.writeheader()
        writer.writerows(result.report.get("findings", []))
    written["findings"] = findings_path
    if result.curves:
        curve_dir = out / "curves"
        curve_dir.mkdir(exist_ok=True)
        for name in sorted(result.curves):
            curve = result.curves[name]
            # a stratum value is free text: "%", "/" and NUL would break the file name
            stem = name.replace("%", "%25").replace("/", "%2F").replace("\0", "%00")
            path = curve_dir / f"{stem}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "n_at_risk", "d", "S", "se"])
                writer.writerows(
                    zip(curve.times, curve.n_at_risk, curve.n_events, curve.survival, curve.std_err)
                )
            written[f"curve:{name}"] = path
    if result.worklist:
        worklist_path = out / "disagreements.csv"
        write_disagreements(result.worklist, worklist_path)
        written["worklist"] = worklist_path
    # the bundle holds only this run's files, whatever an earlier run left here
    for stale in {out / "disagreements.csv", *out.glob("curves/*.csv")} - set(written.values()):
        stale.unlink(missing_ok=True)
    return written
