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
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from . import checks as checks_mod
from . import metrics as metrics_mod
from .labelio import load_schema, read_attributes, read_labels
from .refstd import (
    AdjudicationError,
    ReferenceMode,
    build_double_adjudication,
    build_duplicate_abstraction,
    build_triple_adjudication,
    find_disagreements,  # not called here; perfbench/spans.py wraps it at this name
    write_disagreements,
)
from .replication import (
    DirectionBenchmark,
    EquityReport,
    SurvivalCohort,
    ToleranceBenchmark,
    benchmark_concordance,
    compare_curves,
    compare_distribution,
    compare_trend,
    distribution_from_labels,
    equity_replication,
    survival_records,
    trend_series,
)
from .schema import CohortDataset, LabelSet, Source, yaml_token


class ConfigError(ValueError):
    """The run configuration is malformed or references missing inputs."""


@dataclass
class Tolerances:
    date_tolerance_days: int = 30
    min_stratum_n: int = 20
    bootstrap_replicates: int = 2000
    seed: int = 0


@dataclass
class MetricTarget:
    variable: str
    positive_class: str | None


@dataclass
class RunConfig:
    """Parsed run configuration; paths are resolved against the config file."""

    schema_path: Path
    label_paths: dict[str, Path]
    reference_mode: ReferenceMode
    attributes_path: Path | None = None
    previous_labels_path: Path | None = None
    check_suite_path: Path | None = None
    strata: list[str] = field(default_factory=list)
    metric_targets: list[MetricTarget] = field(default_factory=list)
    derived_rules: list[metrics_mod.DerivedVariableRule] = field(default_factory=list)
    analyses: list[dict] = field(default_factory=list)
    tolerances: Tolerances = field(default_factory=Tolerances)
    thresholds: dict[str, float] = field(default_factory=dict)
    bootstrap: bool = False
    pillars: dict[str, bool] = field(default_factory=lambda: dict.fromkeys(_PILLARS, True))
    output_dir: Path | None = None
    raw: dict = field(default_factory=dict)

    def pillar(self, name: str) -> bool:
        return self.pillars[name]


_LABEL_SOURCES = {
    "llm": Source.LLM,
    "abstractor_1": Source.ABSTRACTOR_1,
    "abstractor_2": Source.ABSTRACTOR_2,
    "adjudicator": Source.ADJUDICATOR,
    "reference": Source.REFERENCE,
}


_RUN_CONFIG_KEYS = (
    "schema",
    "labels",
    "reference_mode",
    "tolerances",
    "metrics",
    "pillars",
    "thresholds",
    "attributes",
    "previous_labels",
    "check_suite",
    "strata",
    "analyses",
    "output_dir",
)

_PILLARS = ("metrics", "checks", "replication")
_METRICS_KEYS = ("variables", "derived", "bootstrap")
_TOLERANCE_KEYS = tuple(f.name for f in fields(Tolerances))

_SURVIVAL_KEYS = ("index_variable", "event_variable", "censor_variable")

# the analysis kinds, each with the keys it reads without a default
_ANALYSIS_REQUIRED_KEYS = {
    "survival_benchmark": _SURVIVAL_KEYS,
    "equity": (*_SURVIVAL_KEYS, "stratum_attribute"),
    "distribution_vs_reference": ("variable",),
    "trend": ("variable",),
}


def _known_keys(mapping: dict, path: str, known: tuple[str, ...]) -> None:
    unknown = [key for key in mapping if key not in known]
    if unknown:
        where = f"{path}.{unknown[0]}" if path else unknown[0]
        raise ConfigError(f"{where}: unknown key; {path or 'a run config'} takes {', '.join(known)}")


def _section(doc: dict, key: str, known: tuple[str, ...]) -> dict:
    """The mapping under a top-level ``key``, empty when absent."""
    section = doc.get(key) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{key}: must be a mapping, got {section!r}")
    _known_keys(section, key, known)
    return section


def _mappings(value, path: str) -> list[dict]:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: must be a list of mappings, got {type(value).__name__}")
    for i, item in enumerate(value):
        if not isinstance(item, dict):
            raise ConfigError(f"{path}[{i}]: must be a mapping, got {item!r}")
    return value


def _required(mapping: dict, path: str, keys: tuple[str, ...]) -> None:
    missing = [key for key in keys if key not in mapping]
    if missing:
        raise ConfigError(f"{path}.{missing[0]}: required")


def _token(value, path: str) -> str:
    return str(yaml_token(value, path, ConfigError))


def _strata(doc: dict) -> list[str]:
    strata = doc.get("strata", [])
    if not isinstance(strata, list):
        raise ConfigError(f"strata: must be a list of strings, got {strata!r}")
    for i, stratum in enumerate(strata):
        if not isinstance(stratum, str):
            raise ConfigError(f"strata[{i}]: must be a string, got {stratum!r}")
    return list(strata)


def _metric_targets(metrics_doc: dict) -> list[MetricTarget]:
    targets = []
    for i, target in enumerate(_mappings(metrics_doc.get("variables", []), "metrics.variables")):
        path = f"metrics.variables[{i}]"
        _required(target, path, ("variable",))
        positive = yaml_token(target.get("positive_class"), f"{path}.positive_class", ConfigError)
        targets.append(MetricTarget(variable=str(target["variable"]), positive_class=positive))
    return targets


def _derived_rules(metrics_doc: dict) -> list[metrics_mod.DerivedVariableRule]:
    rules = []
    for i, rule in enumerate(_mappings(metrics_doc.get("derived", []), "metrics.derived")):
        path = f"metrics.derived[{i}]"
        _required(rule, path, ("name", "index_variable"))
        components = []
        for j, c in enumerate(_mappings(rule.get("components", []), f"{path}.components")):
            _required(c, f"{path}.components[{j}]", ("variable", "required"))
            components.append(
                (str(c["variable"]), _token(c["required"], f"{path}.components[{j}].required"))
            )
        window = rule.get("window_days", [-60, 60])
        if not (
            isinstance(window, list)
            and len(window) == 2
            and all(isinstance(d, int) and not isinstance(d, bool) for d in window)
        ):
            raise ConfigError(f"{path}.window_days: must be a list of two integers, got {window!r}")
        rules.append(
            metrics_mod.DerivedVariableRule(
                name=str(rule["name"]),
                index_variable=str(rule["index_variable"]),
                components=tuple(components),
                window_days=tuple(window),
                index_positive=_token(rule.get("index_positive", "yes"), f"{path}.index_positive"),
            )
        )
    return rules


def _analyses(doc: dict) -> list[dict]:
    analyses = _mappings(doc.get("analyses", []), "analyses")
    for i, analysis in enumerate(analyses):
        path = f"analyses[{i}]"
        kind = analysis.get("kind")
        if not isinstance(kind, str) or kind not in _ANALYSIS_REQUIRED_KEYS:
            raise ConfigError(
                f"{path}.kind: must be one of {', '.join(_ANALYSIS_REQUIRED_KEYS)}, got {kind!r}"
            )
        _required(analysis, path, _ANALYSIS_REQUIRED_KEYS[kind])
        # the category tokens an analysis names, read when the pillar runs
        if "event_positive" in analysis:
            _token(analysis["event_positive"], f"{path}.event_positive")
        benchmark = analysis.get("benchmark")
        if isinstance(benchmark, dict):
            for key in ("higher", "lower", "group"):
                if key in benchmark:
                    _token(benchmark[key], f"{path}.benchmark.{key}")
        reference = analysis.get("reference")
        if isinstance(reference, dict):
            for token in reference:
                _token(token, f"{path}.reference")
    return list(analyses)


def _yes_no(value, key: str) -> bool:
    """A switch must be a YAML boolean: ``bool("no")`` would read as on."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: run config must be a mapping")
    _known_keys(doc, "", _RUN_CONFIG_KEYS)
    base = path.parent

    def resolve(p) -> Path:
        return (base / str(p)).resolve() if not Path(str(p)).is_absolute() else Path(str(p))

    if "schema" not in doc:
        raise ConfigError("run config needs a 'schema' path")
    labels_doc = _section(doc, "labels", tuple(_LABEL_SOURCES))
    if "llm" not in labels_doc:
        raise ConfigError("run config needs labels.llm")
    label_paths = {role: resolve(p) for role, p in labels_doc.items()}
    try:
        mode = ReferenceMode(doc.get("reference_mode", "duplicate_abstraction"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    tol_doc = _section(doc, "tolerances", _TOLERANCE_KEYS)
    tolerances = Tolerances(**{key: int(value) for key, value in tol_doc.items()})
    metrics_doc = _section(doc, "metrics", _METRICS_KEYS)
    pillars = dict.fromkeys(_PILLARS, True)
    for name, value in _section(doc, "pillars", _PILLARS).items():
        pillars[name] = _yes_no(value, f"pillars.{name}")
    thresholds = {str(k): float(v) for k, v in (doc.get("thresholds") or {}).items()}
    unknown = sorted(set(thresholds) - set(metrics_mod.METRIC_NAMES))
    if unknown:
        raise ConfigError(
            f"thresholds: unknown metric(s) {unknown}; known: {list(metrics_mod.METRIC_NAMES)}"
        )
    return RunConfig(
        schema_path=resolve(doc["schema"]),
        label_paths=label_paths,
        reference_mode=mode,
        attributes_path=resolve(doc["attributes"]) if doc.get("attributes") else None,
        previous_labels_path=(
            resolve(doc["previous_labels"]) if doc.get("previous_labels") else None
        ),
        check_suite_path=resolve(doc["check_suite"]) if doc.get("check_suite") else None,
        strata=_strata(doc),
        metric_targets=_metric_targets(metrics_doc),
        derived_rules=_derived_rules(metrics_doc),
        analyses=_analyses(doc),
        tolerances=tolerances,
        thresholds=thresholds,
        bootstrap=_yes_no(metrics_doc.get("bootstrap", False), "metrics.bootstrap"),
        pillars=pillars,
        output_dir=resolve(doc["output_dir"]) if doc.get("output_dir") else None,
        raw=doc,
    )


def _file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


def config_hash(config: RunConfig) -> str:
    """Digest of the config content plus every referenced input file."""
    inputs = {"schema": config.schema_path}
    for role, p in config.label_paths.items():
        inputs[f"labels.{role}"] = p
    if config.attributes_path:
        inputs["attributes"] = config.attributes_path
    if config.previous_labels_path:
        inputs["previous_labels"] = config.previous_labels_path
    if config.check_suite_path:
        inputs["check_suite"] = config.check_suite_path
    digests = {}
    for role in sorted(inputs):
        try:
            digests[role] = _file_digest(inputs[role])
        except OSError as exc:
            raise ConfigError(f"cannot read input {inputs[role]}: {exc}") from exc
    payload = canonical_json({"config": _jsonable(config.raw), "inputs": digests})
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


def _load_dataset(config: RunConfig) -> CohortDataset:
    schema = load_schema(config.schema_path)
    label_sets: dict[Source, LabelSet] = {}
    for role, path in sorted(config.label_paths.items()):
        source = _LABEL_SOURCES[role]
        label_sets[source] = read_labels(path, schema, source)
    if config.attributes_path is not None:
        patients = read_attributes(config.attributes_path, config.strata)
    else:
        patients = {
            pid: {}
            for labels in label_sets.values()
            for pid in labels.patients
        }
    dataset = CohortDataset(schema=schema, patients=dict(sorted(patients.items())), label_sets=label_sets)
    dataset.validate()
    return dataset


def assemble_reference(
    config: RunConfig, dataset: CohortDataset, adjudications: LabelSet | None = None
):
    """Assemble the reference standard the configured mode asks for.

    Returns (reference_standard, evaluand_llm, evaluand_abstraction). The
    adjudications default to the dataset's adjudicator labels (none given
    means none made). An incomplete adjudication raises
    ``AdjudicationError``, whose ``worklist`` holds the open cases.
    """
    llm = dataset.labels(Source.LLM)
    a1 = dataset.labels(Source.ABSTRACTOR_1)
    mode = config.reference_mode
    if mode == ReferenceMode.DUPLICATE_ABSTRACTION:
        ref, (llm_eval, a1_eval) = build_duplicate_abstraction(
            llm, a1, dataset.labels(Source.ABSTRACTOR_2)
        )
        return ref, llm_eval, a1_eval
    if adjudications is None:
        adjudications = dataset.label_sets.get(Source.ADJUDICATOR)
    if adjudications is None:
        adjudications = LabelSet(dataset.schema, Source.ADJUDICATOR)
    tol = config.tolerances.date_tolerance_days
    if mode == ReferenceMode.DOUBLE_ADJUDICATION:
        ref = build_double_adjudication(llm, a1, adjudications, tolerance_days=tol)
    else:
        ref = build_triple_adjudication(
            llm, a1, dataset.labels(Source.ABSTRACTOR_2), adjudications, tolerance_days=tol
        )
    return ref, llm, a1


def _metrics_pillar(config: RunConfig, dataset: CohortDataset, reference, llm, a1) -> dict:
    tol = config.tolerances
    cohort = sorted(dataset.patients)
    out: dict = {"status": "ok", "variables": {}, "derived": {}, "threshold_breaches": []}
    for target in config.metric_targets:
        llm_report = metrics_mod.variable_metrics(
            llm,
            reference,
            target.variable,
            target.positive_class,
            tolerance_days=tol.date_tolerance_days,
            patients=cohort,
        )
        a1_report = metrics_mod.variable_metrics(
            a1,
            reference,
            target.variable,
            target.positive_class,
            tolerance_days=tol.date_tolerance_days,
            patients=cohort,
        )
        if config.bootstrap:
            llm_report.ci = metrics_mod.bootstrap_variable_ci(
                llm,
                reference,
                target.variable,
                target.positive_class,
                tolerance_days=tol.date_tolerance_days,
                patients=cohort,
                n_replicates=tol.bootstrap_replicates,
                seed=tol.seed,
            )
        relative = metrics_mod.relative_difference(llm_report, a1_report)
        entry = {
            "positive_class": target.positive_class,
            "llm": llm_report.to_dict(),
            "abstraction": a1_report.to_dict(),
            "relative": [r.to_dict() for r in relative],
        }
        if config.strata:
            strat = {}
            for attr in config.strata:
                per = metrics_mod.stratified_metrics(
                    llm,
                    a1,
                    reference,
                    target.variable,
                    target.positive_class,
                    dataset,
                    attr,
                    tolerance_days=tol.date_tolerance_days,
                    min_stratum_n=tol.min_stratum_n,
                )
                strat[attr] = {
                    name: {
                        "n": sm.n,
                        "suppressed": sm.suppressed,
                        "llm": sm.llm.to_dict() if sm.llm else None,
                        "abstraction": sm.abstraction.to_dict() if sm.abstraction else None,
                        "relative": [r.to_dict() for r in sm.relative] if sm.relative else None,
                    }
                    for name, sm in sorted(per.items())
                }
            entry["stratified"] = strat
        for metric, floor in sorted(config.thresholds.items()):
            value = llm_report.value(metric)
            if value is not None and value < floor:
                out["threshold_breaches"].append(
                    {
                        "variable": target.variable,
                        "metric": metric,
                        "value": value,
                        "threshold": floor,
                    }
                )
        out["variables"][target.variable] = entry
    for rule in config.derived_rules:
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


def _checks_pillar(config: RunConfig, dataset: CohortDataset) -> tuple[dict, list]:
    if config.check_suite_path is not None:
        suite = checks_mod.load_suite(config.check_suite_path, dataset.schema)
    else:
        suite = checks_mod.load_suite(checks_mod.default_suite_path(), dataset.schema)
    previous = None
    if config.previous_labels_path is not None:
        previous = read_labels(config.previous_labels_path, dataset.schema, Source.LLM)
    report = checks_mod.run_all_checks(
        suite,
        dataset,
        source=Source.LLM,
        strata=config.strata,
        previous=previous,
        min_stratum_n=config.tolerances.min_stratum_n,
    )
    return report.to_dict(), report.findings()


def _parse_benchmark(doc: dict):
    kind = doc.get("type", "direction")
    if kind == "direction":
        return DirectionBenchmark(
            name=str(doc.get("name", "benchmark")),
            higher=str(doc["higher"]),
            lower=str(doc["lower"]),
        )
    if kind == "tolerance":
        return ToleranceBenchmark(
            name=str(doc.get("name", "benchmark")),
            group=str(doc["group"]),
            expected_median=float(doc["expected_median"]),
            tolerance=float(doc["tolerance"]),
        )
    raise ConfigError(f"unknown benchmark type {kind!r}")


def _reference_label_set(dataset: CohortDataset, reference) -> LabelSet | None:
    if reference is not None:
        return reference.labels
    return dataset.label_sets.get(Source.REFERENCE)


def _survival_args(doc: dict) -> dict:
    """The ``survival_records`` keyword arguments an analysis entry gives."""
    max_days = doc.get("max_followup_days")
    return {
        "index_variable": str(doc["index_variable"]),
        "event_variable": str(doc["event_variable"]),
        "censor_variable": str(doc["censor_variable"]),
        "event_positive": str(doc.get("event_positive", "yes")),
        "max_followup_days": int(max_days) if max_days is not None else None,
    }


def _survival_analysis(doc: dict, config: RunConfig, dataset: CohortDataset, reference, curves: dict) -> dict:
    llm = dataset.labels(Source.LLM)
    group_by = doc.get("group_by")
    name = str(doc.get("name", "survival_benchmark"))
    survival_args = _survival_args(doc)
    groups = dataset.strata(group_by) if group_by else {"all": sorted(dataset.patients)}
    ref_labels = _reference_label_set(dataset, reference)
    result: dict = {"kind": "survival_benchmark", "name": name, "groups": {}}
    llm_medians: dict[str, float | None] = {}
    ref_medians: dict[str, float | None] = {}
    for group in sorted(groups):
        pids = groups[group]
        cohort = survival_records(llm, patients=pids, **survival_args)
        entry: dict = {"llm_cohort": cohort.summary()}
        if cohort.n_included:
            curve = cohort.curve()
            llm_medians[group] = curve.median()
            entry["llm_median"] = curve.median()
            curves[f"{name}_{group}_llm"] = curve
            if ref_labels is not None:
                ref_cohort = survival_records(ref_labels, patients=pids, **survival_args)
                if ref_cohort.n_included:
                    ref_curve = ref_cohort.curve()
                    ref_medians[group] = ref_curve.median()
                    entry["reference_median"] = ref_curve.median()
                    curves[f"{name}_{group}_reference"] = ref_curve
                    at_times = [float(t) for t in doc.get("at_times", [])]
                    entry["vs_reference"] = compare_curves(
                        curve, ref_curve, at_times=at_times
                    ).to_dict()
        else:
            llm_medians[group] = None
        result["groups"][group] = entry
    bench = doc.get("benchmark")
    if bench:
        benchmark = _parse_benchmark(bench)
        # a group the benchmark names but the cohort lacks has no median
        if isinstance(benchmark, ToleranceBenchmark):
            named = dict.fromkeys([benchmark.group])
        else:
            named = dict.fromkeys([benchmark.higher, benchmark.lower])
        result["concordance"] = benchmark_concordance(benchmark, named | llm_medians).to_dict()
        if ref_medians:
            result["reference_concordance"] = benchmark_concordance(
                benchmark, named | ref_medians
            ).to_dict()
    return result


def _not_applicable(kind: str, name: str, reason: str) -> dict:
    """An analysis the data is too thin for; the rest of the run goes on."""
    return {"kind": kind, "name": name, "status": "not_applicable", "reason": reason}


def _distribution_analysis(doc: dict, dataset: CohortDataset) -> dict:
    llm = dataset.labels(Source.LLM)
    variable = str(doc["variable"])
    reference_dist = {str(k): float(v) for k, v in (doc.get("reference") or {}).items()}
    if not reference_dist:
        raise ConfigError(f"distribution analysis for {variable} needs a reference map")
    name = str(doc.get("name", f"distribution_{variable}"))
    observed = distribution_from_labels(llm, variable, sorted(dataset.patients))
    if not observed:
        return _not_applicable("distribution_vs_reference", name, f"no known {variable} value")
    comparison = compare_distribution(observed, reference_dist)
    return {
        "kind": "distribution_vs_reference",
        "name": name,
        "variable": variable,
        "observed_counts": dict(sorted(observed.items())),
        "comparison": comparison.to_dict(),
    }


def _trend_analysis(doc: dict, dataset: CohortDataset, reference) -> dict:
    llm = dataset.labels(Source.LLM)
    variable = str(doc["variable"])
    name = str(doc.get("name", f"trend_{variable}"))
    llm_trend = trend_series(llm, variable)
    if not llm_trend.months:
        return _not_applicable("trend", name, f"no dated {variable} record to bucket by month")
    out = {"kind": "trend", "name": name, "variable": variable, "llm": llm_trend.to_dict()}
    ref_labels = _reference_label_set(dataset, reference)
    if ref_labels is not None:
        ref_trend = trend_series(ref_labels, variable)
        if ref_trend.months:
            out["reference"] = ref_trend.to_dict()
            out["comparison"] = compare_trend(llm_trend, ref_trend).to_dict()
    return out


def _equity_analysis(doc: dict, config: RunConfig, dataset: CohortDataset, reference, curves: dict) -> dict:
    llm = dataset.labels(Source.LLM)
    attr = str(doc["stratum_attribute"])
    name = str(doc.get("name", f"equity_{attr}"))
    survival_args = dict(_survival_args(doc), patients=sorted(dataset.patients))
    stratum_of = {pid: dataset.attribute(pid, attr) for pid in dataset.patients}
    benchmark = _parse_benchmark(doc["benchmark"]) if doc.get("benchmark") else None

    def replicate(cohort: SurvivalCohort) -> EquityReport:
        return equity_replication(
            cohort.records,
            stratum_of,
            stratum_attribute=attr,
            benchmark=benchmark,
            min_stratum_n=config.tolerances.min_stratum_n,
        )

    cohort = survival_records(llm, **survival_args)
    try:
        report = replicate(cohort)
    except ValueError as exc:  # every stratum falls below min_stratum_n
        return _not_applicable("equity", name, str(exc))
    for group, curve in report.curves.items():
        curves[f"{name}_{group}_llm"] = curve
    out = {
        "kind": "equity",
        "name": name,
        "llm": {
            "medians": dict(sorted(report.medians.items())),
            "group_sizes": dict(sorted(report.group_sizes.items())),
            "suppressed": sorted(report.suppressed),
            "concordance": report.concordance.to_dict() if report.concordance else None,
        },
    }
    ref_labels = _reference_label_set(dataset, reference)
    if ref_labels is not None:
        ref_cohort = survival_records(ref_labels, **survival_args)
        if ref_cohort.n_included:
            try:
                ref_report = replicate(ref_cohort)
            except ValueError as exc:
                out["reference"] = {"status": "not_applicable", "reason": str(exc)}
                return out
            for group, curve in ref_report.curves.items():
                curves[f"{name}_{group}_reference"] = curve
            out["reference"] = {
                "medians": dict(sorted(ref_report.medians.items())),
                "concordance": (
                    ref_report.concordance.to_dict() if ref_report.concordance else None
                ),
            }
    return out


def _replication_pillar(config: RunConfig, dataset: CohortDataset, reference, curves: dict) -> dict:
    analyses = []
    for doc in config.analyses:
        kind = doc.get("kind")
        if kind == "survival_benchmark":
            analyses.append(_survival_analysis(doc, config, dataset, reference, curves))
        elif kind == "distribution_vs_reference":
            analyses.append(_distribution_analysis(doc, dataset))
        elif kind == "trend":
            analyses.append(_trend_analysis(doc, dataset, reference))
        else:  # equity: load_run_config admits no other kind
            analyses.append(_equity_analysis(doc, config, dataset, reference, curves))
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
    dataset = _load_dataset(config)
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
    need_reference = config.pillar("metrics") or config.pillar("replication")
    if need_reference:
        try:
            reference, llm_eval, a1_eval = assemble_reference(config, dataset)
            report["reference"] = reference.summary()
            worklist = list(reference.cases)
        except AdjudicationError as exc:
            report["reference"] = {"status": "blocked", "reason": str(exc)}
            worklist = exc.worklist
            if config.pillar("metrics"):
                report["metrics"] = {"status": "blocked", "reason": str(exc)}
    if config.pillar("metrics") and reference is not None:
        report["metrics"] = _metrics_pillar(config, dataset, reference, llm_eval, a1_eval)
    if config.pillar("checks"):
        checks_dict, findings = _checks_pillar(config, dataset)
        report["checks"] = checks_dict
        report["findings"] = [f.to_dict() for f in findings]
    if config.pillar("replication"):
        report["replication"] = _replication_pillar(config, dataset, reference, curves)
    issues = _collect_issues(report)
    report["issues"] = issues
    report["exit_code"] = 1 if issues else 0
    return PipelineResult(report=report, curves=curves, worklist=worklist)


# ---- report emission ----


def _summary_lines(report: dict) -> list[str]:
    lines = ["validation run summary", "=" * 22, ""]
    lines.append(f"config hash: {report['config_hash']}")
    lines.append(f"reference mode: {report['reference_mode']}")
    lines.append(f"patients: {report['cohort']['n_patients']}")
    ref = report.get("reference")
    if ref:
        if ref.get("status") == "blocked":
            lines.append(f"reference: BLOCKED ({ref['reason']})")
        else:
            lines.append(f"reference: {ref}")
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
            lines.append(f"  derived {name}: {shown}")
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
    """Write the deterministic report bundle; returns the written paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = {}
    report_path = out / "report.json"
    report_path.write_text(canonical_json(result.report))
    written["report"] = report_path
    summary_path = out / "summary.txt"
    summary_path.write_text("\n".join(_summary_lines(result.report)) + "\n")
    written["summary"] = summary_path
    findings = result.report.get("findings", [])
    findings_path = out / "findings.csv"
    with open(findings_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["check_id", "severity", "scope", "observed", "expected"])
        for f in findings:
            writer.writerow(
                [f["check_id"], f["severity"], f["scope"], f["observed"], f["expected"]]
            )
    written["findings"] = findings_path
    if result.curves:
        curve_dir = out / "curves"
        curve_dir.mkdir(exist_ok=True)
        for name in sorted(result.curves):
            curve = result.curves[name]
            path = curve_dir / f"{name}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["t", "n_at_risk", "d", "S", "se"])
                for row in curve.to_rows():
                    writer.writerow(
                        [row["t"], row["n_at_risk"], row["d"], row["S"], row["se"]]
                    )
            written[f"curve:{name}"] = path
    if result.worklist:
        worklist_path = out / "disagreements.csv"
        write_disagreements(result.worklist, worklist_path)
        written["worklist"] = worklist_path
    return written


def run_from_config_file(path: str | Path, out_dir: str | Path | None = None) -> PipelineResult:
    """Load a config, run the pipeline, and emit outputs if a directory is known."""
    config = load_run_config(path)
    result = run_pipeline(config)
    target = out_dir or config.output_dir
    if target is not None:
        emit_report(result, target)
    return result
