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
import sys
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

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
    BenchmarkSpec,
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
    """The run configuration is malformed or references missing inputs; ``problems`` lists each."""

    def __init__(self, *problems: str):
        self.problems = list(problems)
        head = f"{len(problems)} problems:\n  " if len(problems) > 1 else ""
        super().__init__(head + "\n  ".join(problems))


# ---- the run config: one frozen spec per YAML mapping, read by _parse ----


@dataclass(frozen=True, eq=False)  # hashed by identity, as typing.Union hashes its members
class _OneOf:
    """A mapping that names its spec under ``key``; absent, the key reads ``default``."""

    key: str
    specs: dict[str, type]
    default: str | None = None


Benchmark = Annotated[
    BenchmarkSpec,
    _OneOf("type", {"direction": DirectionBenchmark, "tolerance": ToleranceBenchmark}, "direction"),
]


@dataclass(frozen=True)
class Tolerances:
    date_tolerance_days: int = 30
    min_stratum_n: int = 20
    bootstrap_replicates: int = 2000
    seed: int = 0


@dataclass(frozen=True)
class MetricTarget:
    variable: str
    positive_class: str | None = None


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

    index_variable: str
    event_variable: str
    censor_variable: str
    event_positive: str = "yes"
    max_followup_days: int | None = None

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
    variable: str
    reference: dict[str, float]
    name: str | None = None  # distribution_<variable>

    def __post_init__(self) -> None:
        masses = self.reference.values()
        if sum(masses) <= 0 or any(p < 0 for p in masses):
            raise ValueError(f"reference: needs non-negative masses summing above 0, got {self.reference}")


@dataclass(frozen=True)
class TrendSpec:
    variable: str
    name: str | None = None  # trend_<variable>


Analysis = Annotated[
    SurvivalBenchmarkSpec | EquitySpec | DistributionSpec | TrendSpec,
    _OneOf("kind", {"survival_benchmark": SurvivalBenchmarkSpec, "equity": EquitySpec,
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


def _key(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


# what a message says a type accepts, in the singular and the plural
_ACCEPTS = {
    str: ("a string", "strings"),
    Path: ("a path", "paths"),
    int: ("an integer", "integers"),
    float: ("a finite number", "finite numbers"),
    bool: ("true or false", "booleans"),
}


def _accepts(hint, plural: bool = False) -> str:
    if get_origin(hint) is tuple:
        items = _accepts(get_args(hint)[0], plural=True)
        # every fixed-length tuple in the specs is a pair
        return f"a list of {items}" if get_args(hint)[-1] is Ellipsis else f"a list of two {items}"
    if hint in _ACCEPTS:
        return _ACCEPTS[hint][plural]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return f"one of {', '.join(m.value for m in hint)}"
    return "mappings" if plural else "a mapping"


def _value(hint, value, path: str, problems: list[str]):
    """``value`` read as the type ``hint``; on a problem, record it and return None."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # X | None: a null value never gets here
        (hint,) = [a for a in args if a is not NoneType]
        return _value(hint, value, path, problems)
    if origin is Annotated:  # one of several specs, named under a tag key
        choice = hint.__metadata__[0]
        if isinstance(value, dict):
            tag = value.get(choice.key, choice.default)
            if isinstance(tag, str) and tag in choice.specs:
                rest = {k: v for k, v in value.items() if k != choice.key}
                return _parse(choice.specs[tag], rest, path, problems)
            problems.append(f"{path}.{choice.key}: must be one of {', '.join(choice.specs)}, got {tag!r}")
            return None
    elif is_dataclass(hint):
        if isinstance(value, dict):
            return _parse(hint, value, path, problems)
    elif origin is tuple:
        fixed = args[-1] is not Ellipsis
        if isinstance(value, list) and (not fixed or len(value) == len(args)):
            # a fixed-length tuple is reported whole, a list item by item
            found = [] if fixed else problems
            types = args if fixed else args[:1] * len(value)
            items = tuple(_value(t, v, f"{path}[{i}]", found) for i, (t, v) in enumerate(zip(types, value)))
            if not (fixed and found):
                return items
    elif origin is dict:
        if isinstance(value, dict):
            return {
                _value(args[0], k, path, problems): _value(args[1], v, _key(path, k), problems)
                for k, v in value.items()
            }
    elif hint is bool:
        if isinstance(value, bool):
            return value
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif hint is float:  # NaN fails the comparison; an int too large for a float fails it too
        if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
            return float(value)
    else:  # a token: str, Path or an Enum of str
        try:
            yaml_token(value, path, ConfigError)
        except ConfigError as exc:
            problems.append(str(exc))
            return None
        if isinstance(value, (str, int, float)):
            try:
                return hint(str(value))
            except ValueError:  # not a member of the Enum
                pass
    problems.append(f"{path}: must be {_accepts(hint)}, got {value!r}")
    return None


def _parse(cls, value, path: str, problems: list[str]):
    """The spec ``cls`` read from the mapping ``value`` at YAML ``path``.

    Every unknown key, missing required key (a field with no default) and
    ill-typed value is recorded in ``problems`` with its YAML path, and
    None is returned. A null value reads as the field's default. A spec's
    own check raises ``ValueError`` naming the field first.
    """
    known = {f.name: f for f in fields(cls) if f.metadata.get("yaml", True)}
    hints = get_type_hints(cls, include_extras=True)
    before = len(problems)
    for key in value:
        if key not in known:
            problems.append(f"{_key(path, key)}: unknown key; {path or 'a run config'} takes {', '.join(known)}")
    kwargs = {}
    for name, f in known.items():
        if value.get(name) is not None:
            kwargs[name] = _value(hints[name], value[name], _key(path, name), problems)
        elif f.default is MISSING and f.default_factory is MISSING:
            problems.append(f"{_key(path, name)}: required")
    if len(problems) > before:
        return None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        problems.append(_key(path, exc))
        return None


def _named_variables(spec, path: str):
    """(YAML path, name) of each schema variable a spec names: every field named ``*variable``."""
    for f in fields(spec):
        value, where = getattr(spec, f.name), _key(path, f.name)
        if f.name.endswith("variable"):
            yield where, value
        elif is_dataclass(value):
            yield from _named_variables(value, where)
        elif isinstance(value, tuple):
            for i, item in enumerate(value):
                if is_dataclass(item):
                    yield from _named_variables(item, f"{where}[{i}]")


def load_run_config(path: str | Path) -> RunConfig:
    """Parse ``run.yaml``; a ``ConfigError`` lists every problem before any input is read."""
    path = Path(path)
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: run config must be a mapping")
    problems: list[str] = []
    config = _parse(RunConfig, doc, "", problems)
    if config is not None:
        if Source.LLM not in config.labels:
            problems.append("labels.llm: required")
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
    """Digest of the config content plus every referenced input file."""
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
    schema = load_schema(config.schema)
    named = _named_variables(config, "")
    unknown = [f"{where}: unknown variable {name!r}" for where, name in named if name not in schema]
    if unknown:
        raise ConfigError(*unknown)
    label_sets: dict[Source, LabelSet] = {}
    for source, path in sorted(config.labels.items()):
        label_sets[source] = read_labels(path, schema, source)
    if config.attributes is not None:
        patients = read_attributes(config.attributes, list(config.strata))
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
    for target in config.metrics.variables:
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
        if config.metrics.bootstrap:
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


def _checks_pillar(config: RunConfig, dataset: CohortDataset) -> tuple[dict, list]:
    if config.check_suite is not None:
        suite = checks_mod.load_suite(config.check_suite, dataset.schema)
    else:
        suite = checks_mod.load_suite(checks_mod.default_suite_path(), dataset.schema)
    previous = None
    if config.previous_labels is not None:
        previous = read_labels(config.previous_labels, dataset.schema, Source.LLM)
    report = checks_mod.run_all_checks(
        suite,
        dataset,
        source=Source.LLM,
        strata=config.strata,
        previous=previous,
        min_stratum_n=config.tolerances.min_stratum_n,
    )
    return report.to_dict(), report.findings()


def _reference_label_set(dataset: CohortDataset, reference) -> LabelSet | None:
    if reference is not None:
        return reference.labels
    return dataset.label_sets.get(Source.REFERENCE)


def _survival_analysis(spec: SurvivalBenchmarkSpec, dataset: CohortDataset, reference, curves: dict) -> dict:
    llm = dataset.labels(Source.LLM)
    name = spec.name
    groups = dataset.strata(spec.group_by) if spec.group_by else {"all": sorted(dataset.patients)}
    ref_labels = _reference_label_set(dataset, reference)
    result: dict = {"kind": "survival_benchmark", "name": name, "groups": {}}
    llm_medians: dict[str, float | None] = {}
    ref_medians: dict[str, float | None] = {}
    for group in sorted(groups):
        pids = groups[group]
        cohort = spec.cohort(llm, pids)
        entry: dict = {"llm_cohort": cohort.summary()}
        if cohort.n_included:
            curve = cohort.curve()
            llm_medians[group] = curve.median()
            entry["llm_median"] = curve.median()
            curves[f"{name}_{group}_llm"] = curve
            if ref_labels is not None:
                ref_cohort = spec.cohort(ref_labels, pids)
                if ref_cohort.n_included:
                    ref_curve = ref_cohort.curve()
                    ref_medians[group] = ref_curve.median()
                    entry["reference_median"] = ref_curve.median()
                    curves[f"{name}_{group}_reference"] = ref_curve
                    entry["vs_reference"] = compare_curves(
                        curve, ref_curve, at_times=spec.at_times
                    ).to_dict()
        else:
            llm_medians[group] = None
        result["groups"][group] = entry
    benchmark = spec.benchmark
    if benchmark is not None:
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
    ref_labels = _reference_label_set(dataset, reference)
    if ref_labels is not None:
        ref_trend = trend_series(ref_labels, variable)
        if ref_trend.months:
            out["reference"] = ref_trend.to_dict()
            out["comparison"] = compare_trend(llm_trend, ref_trend).to_dict()
    return out


def _equity_analysis(spec: EquitySpec, config: RunConfig, dataset: CohortDataset, reference, curves: dict) -> dict:
    llm = dataset.labels(Source.LLM)
    attr = spec.stratum_attribute
    name = spec.name or f"equity_{attr}"
    patients = sorted(dataset.patients)
    stratum_of = {pid: dataset.attribute(pid, attr) for pid in dataset.patients}

    def replicate(cohort: SurvivalCohort) -> EquityReport:
        return equity_replication(
            cohort.records,
            stratum_of,
            stratum_attribute=attr,
            benchmark=spec.benchmark,
            min_stratum_n=config.tolerances.min_stratum_n,
        )

    cohort = spec.cohort(llm, patients)
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
        ref_cohort = spec.cohort(ref_labels, patients)
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
    need_reference = config.pillars.metrics or config.pillars.replication
    if need_reference:
        try:
            reference, llm_eval, a1_eval = assemble_reference(config, dataset)
            report["reference"] = reference.summary()
            worklist = list(reference.cases)
        except AdjudicationError as exc:
            report["reference"] = {"status": "blocked", "reason": str(exc)}
            worklist = exc.worklist
            if config.pillars.metrics:
                report["metrics"] = {"status": "blocked", "reason": str(exc)}
    if config.pillars.metrics and reference is not None:
        report["metrics"] = _metrics_pillar(config, dataset, reference, llm_eval, a1_eval)
    if config.pillars.checks:
        checks_dict, findings = _checks_pillar(config, dataset)
        report["checks"] = checks_dict
        report["findings"] = [f.to_dict() for f in findings]
    if config.pillars.replication:
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
