"""Reference-standard assembly from multiple annotation sources.

Three modes are supported, differing in cost and in what the reference is
allowed to contain:

* duplicate_abstraction -- a second independent abstraction is taken as
  the reference verbatim; both the extraction and the first abstractor are
  evaluated against it.
* double_adjudication -- every extraction-vs-abstractor disagreement is
  adjudicated; the reference is the abstractor's label where the two
  agreed and the adjudicator's label where they did not.
* triple_adjudication -- pairwise disagreements among the extraction and
  two abstractors are all adjudicated (a pairwise rule, not majority
  vote); unanimous keys keep the abstractors' agreed label.

The assembled reference never contains a value absent from its inputs:
every label traces to a source or the adjudicator, and the provenance map
records which.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .metrics import match_events
from .schema import (
    LabelRecord,
    LabelSet,
    Schema,
    SchemaError,
    Source,
    VariableKind,
    _restamped,
    effective_tolerance,
    validate_record,
)


class ReferenceMode(str, Enum):
    DUPLICATE_ABSTRACTION = "duplicate_abstraction"
    DOUBLE_ADJUDICATION = "double_adjudication"
    TRIPLE_ADJUDICATION = "triple_adjudication"


class Pair(str, Enum):
    LLM_VS_A1 = "llm_vs_abstractor_1"
    LLM_VS_A2 = "llm_vs_abstractor_2"
    A1_VS_A2 = "abstractor_1_vs_abstractor_2"


class Provenance(str, Enum):
    SINGLE_SOURCE = "single_source"
    AGREED = "agreed"
    ADJUDICATED = "adjudicated"


class CaseStatus(str, Enum):
    OPEN = "open"
    RESOLVED = "resolved"


_PAIR_SOURCES = {
    Pair.LLM_VS_A1: (Source.LLM, Source.ABSTRACTOR_1),
    Pair.LLM_VS_A2: (Source.LLM, Source.ABSTRACTOR_2),
    Pair.A1_VS_A2: (Source.ABSTRACTOR_1, Source.ABSTRACTOR_2),
}


@dataclass
class DisagreementCase:
    """One (patient, variable) where two sources assert different things.

    An absent assertion on one side is itself a disagreement when the other
    side asserts something, including a documented unknown.
    """

    patient_id: str
    variable: str
    pair: Pair
    llm: tuple[LabelRecord, ...] = ()
    abstractor_1: tuple[LabelRecord, ...] = ()
    abstractor_2: tuple[LabelRecord, ...] = ()
    status: CaseStatus = CaseStatus.OPEN

    @property
    def key(self) -> tuple[str, str]:
        return (self.patient_id, self.variable)


class AdjudicationError(ValueError):
    """Adjudication coverage does not line up with the open disagreements.

    ``worklist`` holds every case whose key is uncovered, in
    ``find_disagreements`` order: the cases an adjudicator still has to
    resolve before the assembly can go through.
    """

    def __init__(
        self,
        uncovered: list[tuple[str, str]],
        stale: list[tuple[str, str]],
        worklist: list[DisagreementCase] | None = None,
    ):
        self.uncovered = uncovered
        self.stale = stale
        self.worklist = worklist or []
        parts = []
        if uncovered:
            parts.append(
                f"{len(uncovered)} unresolved disagreement(s) without adjudication: "
                + ", ".join(f"{p}/{v}" for p, v in uncovered[:10])
                + (" ..." if len(uncovered) > 10 else "")
            )
        if stale:
            parts.append(
                f"{len(stale)} adjudication(s) for keys that are not disagreements: "
                + ", ".join(f"{p}/{v}" for p, v in stale[:10])
                + (" ..." if len(stale) > 10 else "")
            )
        super().__init__("; ".join(parts))


@dataclass
class ReferenceStandard:
    """The assembled reference labels plus per-key provenance."""

    mode: ReferenceMode
    labels: LabelSet
    provenance: dict[tuple[str, str], Provenance]
    patients: frozenset[str]
    cases: tuple[DisagreementCase, ...] = ()

    def summary(self) -> dict:
        by_pair: dict[str, int] = {}
        for case in self.cases:
            by_pair[case.pair.value] = by_pair.get(case.pair.value, 0) + 1
        by_prov: dict[str, int] = {}
        for prov in self.provenance.values():
            by_prov[prov.value] = by_prov.get(prov.value, 0) + 1
        return {
            "mode": self.mode.value,
            "n_labels": len(self.labels),
            "n_patients": len(self.patients),
            "disagreements": {"total": len(self.cases), "by_pair": by_pair},
            "provenance": by_prov,
        }


def assertions_agree(
    schema: Schema,
    variable: str,
    recs_a: tuple[LabelRecord, ...],
    recs_b: tuple[LabelRecord, ...],
    tolerance_days: int,
) -> bool:
    """Whether two sources' assertions for one key agree.

    Agreement is strict about assertion state: missing agrees only with
    missing, documented-unknown only with documented-unknown. Dated values
    agree when values match and dates fall within tolerance; a date present
    on exactly one side is a disagreement. Event lists agree when, per
    value token, the dated events match one-to-one within tolerance and
    undated counts coincide.
    """
    spec = schema[variable]
    tol = effective_tolerance(spec, tolerance_days)
    if not recs_a and not recs_b:
        return True
    if bool(recs_a) != bool(recs_b):
        return False
    if spec.kind == VariableKind.EVENT_LIST:
        tokens = {r.value for r in recs_a} | {r.value for r in recs_b}
        for token in tokens:
            dated_a = [r.event_date for r in recs_a if r.value == token and r.event_date]
            dated_b = [r.event_date for r in recs_b if r.value == token and r.event_date]
            undated_a = sum(1 for r in recs_a if r.value == token and not r.event_date)
            undated_b = sum(1 for r in recs_b if r.value == token and not r.event_date)
            if undated_a != undated_b:
                return False
            m = match_events(dated_a, dated_b, tol)
            if m.unmatched_pred or m.unmatched_ref:
                return False
        return True
    a, b = recs_a[0], recs_b[0]
    if a.value != b.value:
        return False
    if spec.kind == VariableKind.DATE:
        if (a.event_date is None) != (b.event_date is None):
            return False
        if a.event_date is not None and abs((a.event_date - b.event_date).days) > tol:
            return False
    return True


def find_disagreements(
    llm: LabelSet,
    abstractor_1: LabelSet,
    abstractor_2: LabelSet | None = None,
    *,
    tolerance_days: int = 30,
) -> list[DisagreementCase]:
    """All pairwise disagreements, deterministically ordered.

    With two inputs only the extraction-vs-abstractor pair is compared;
    with three, all three pairs are. Cases are ordered by patient,
    variable, then pair.
    """
    by_source = {Source.LLM: llm, Source.ABSTRACTOR_1: abstractor_1}
    pairs = [Pair.LLM_VS_A1]
    if abstractor_2 is not None:
        by_source[Source.ABSTRACTOR_2] = abstractor_2
        pairs += [Pair.LLM_VS_A2, Pair.A1_VS_A2]
    schema = llm.schema
    keys = set().union(*(labels.keys() for labels in by_source.values()))
    cases: list[DisagreementCase] = []
    for pid, var in sorted(keys):
        recs = {src: labels.get(pid, var) for src, labels in by_source.items()}
        for pair in pairs:
            src_a, src_b = _PAIR_SOURCES[pair]
            if assertions_agree(schema, var, recs[src_a], recs[src_b], tolerance_days):
                continue
            cases.append(
                DisagreementCase(
                    patient_id=pid,
                    variable=var,
                    pair=pair,
                    llm=recs[Source.LLM],
                    abstractor_1=recs[Source.ABSTRACTOR_1],
                    abstractor_2=recs.get(Source.ABSTRACTOR_2, ()),
                )
            )
    return cases


def _as_reference(
    schema: Schema,
    entries: Iterable[tuple[tuple[str, str], tuple[LabelRecord, ...]]],
) -> LabelSet:
    """The reference set holding each entry's records, re-attributed.

    Entries name distinct keys and hold one bucket of a label set over
    ``schema``: valid, canonical, and single for kinds that admit one.
    """
    buckets = {key: _restamped(recs, Source.REFERENCE) for key, recs in entries}
    return LabelSet._from_buckets(schema, Source.REFERENCE, buckets)


def _all_patients(*label_sets: LabelSet | None) -> frozenset[str]:
    out: set[str] = set()
    for ls in label_sets:
        if ls is not None:
            out |= ls.patients
    return frozenset(out)


def build_duplicate_abstraction(
    llm: LabelSet,
    abstractor_1: LabelSet,
    abstractor_2: LabelSet,
) -> tuple[ReferenceStandard, tuple[LabelSet, LabelSet]]:
    """Second abstraction as reference; evaluands are the extraction and A1.

    The reference is abstractor 2 verbatim (provenance single_source for
    every key). Scoring abstractor 2 against it is the identity and is
    reported as such, which is why the evaluands returned are the
    extraction and abstractor 1.
    """
    if len(abstractor_2) == 0:
        raise ValueError("abstractor_2 label set is empty; nothing to reference")
    labels = abstractor_2.relabel(Source.REFERENCE)
    provenance = dict.fromkeys(sorted(abstractor_2.keys()), Provenance.SINGLE_SOURCE)
    rs = ReferenceStandard(
        mode=ReferenceMode.DUPLICATE_ABSTRACTION,
        labels=labels,
        provenance=provenance,
        patients=_all_patients(llm, abstractor_1, abstractor_2),
    )
    return rs, (llm, abstractor_1)


def _check_adjudications(
    cases: list[DisagreementCase], adjudications: LabelSet
) -> None:
    if adjudications.source != Source.ADJUDICATOR:
        raise SchemaError(
            f"adjudication labels must come from source "
            f"{Source.ADJUDICATOR.value!r}, got {adjudications.source.value!r}"
        )
    case_keys = {c.key for c in cases}
    adj_keys = adjudications.keys()
    uncovered = sorted(case_keys - adj_keys)
    stale = sorted(adj_keys - case_keys)
    if uncovered or stale:
        open_keys = set(uncovered)
        raise AdjudicationError(uncovered, stale, [c for c in cases if c.key in open_keys])


def _build_adjudicated(
    mode: ReferenceMode,
    llm: LabelSet,
    abstractor_1: LabelSet,
    abstractor_2: LabelSet | None,
    adjudications: LabelSet,
    tolerance_days: int,
) -> ReferenceStandard:
    cases = find_disagreements(
        llm, abstractor_1, abstractor_2, tolerance_days=tolerance_days
    )
    _check_adjudications(cases, adjudications)
    case_keys = {c.key for c in cases}
    entries = []
    provenance: dict[tuple[str, str], Provenance] = {}
    all_keys = llm.keys() | abstractor_1.keys()
    if abstractor_2 is not None:
        all_keys |= abstractor_2.keys()
    for key in sorted(all_keys):
        if key in case_keys:
            entries.append((key, adjudications.get(*key)))
            provenance[key] = Provenance.ADJUDICATED
        else:
            entries.append((key, abstractor_1.get(*key)))
            provenance[key] = Provenance.AGREED
    for case in cases:
        case.status = CaseStatus.RESOLVED
    return ReferenceStandard(
        mode=mode,
        labels=_as_reference(llm.schema, entries),
        provenance=provenance,
        patients=_all_patients(llm, abstractor_1, abstractor_2, adjudications),
        cases=tuple(cases),
    )


def build_double_adjudication(
    llm: LabelSet,
    abstractor_1: LabelSet,
    adjudications: LabelSet,
    *,
    tolerance_days: int = 30,
) -> ReferenceStandard:
    """Adjudicate every extraction-vs-abstractor disagreement.

    The adjudications must cover exactly the open disagreements: any
    uncovered case aborts with the complete list, and an adjudication for a
    key that is not a disagreement is equally an error (it would fabricate
    reference content nobody disputed).
    """
    return _build_adjudicated(
        ReferenceMode.DOUBLE_ADJUDICATION, llm, abstractor_1, None, adjudications, tolerance_days
    )


def build_triple_adjudication(
    llm: LabelSet,
    abstractor_1: LabelSet,
    abstractor_2: LabelSet,
    adjudications: LabelSet,
    *,
    tolerance_days: int = 30,
) -> ReferenceStandard:
    """Adjudicate all pairwise disagreements among three sources.

    Any key carrying at least one pairwise disagreement goes to the
    adjudicator; unanimous keys keep abstractor 1's record (identical to
    abstractor 2's up to date tolerance). Majority vote is deliberately not
    applied: two sources agreeing does not settle a dispute with the third.
    """
    return _build_adjudicated(
        ReferenceMode.TRIPLE_ADJUDICATION,
        llm,
        abstractor_1,
        abstractor_2,
        adjudications,
        tolerance_days,
    )


def write_disagreements(cases: Iterable[DisagreementCase], path: str | Path) -> None:
    """Emit the disagreement worklist: label-file columns plus a pair column.

    Each case contributes one row per contributing record so external
    abstraction tooling can round-trip the content; an absent side simply
    has no rows for that pair.
    """
    import csv

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["patient_id", "variable", "value", "event_date", "source", "refresh_id", "pair"]
        )
        for case in cases:
            for recs in (case.llm, case.abstractor_1, case.abstractor_2):
                for rec in recs:
                    writer.writerow(
                        [
                            rec.patient_id,
                            rec.variable,
                            rec.value if isinstance(rec.value, str) else repr(rec.value),
                            rec.event_date.isoformat() if rec.event_date else "",
                            rec.source.value,
                            rec.refresh_id or "",
                            case.pair.value,
                        ]
                    )


def adjudicate_from_oracle(
    cases: Iterable[DisagreementCase], oracle: LabelSet
) -> LabelSet:
    """Synthesize an adjudication set by copying an oracle's labels.

    Intended for simulation studies where ground truth exists: the oracle's
    records for each open key become the adjudicator's decisions. A key the
    oracle leaves missing is resolved as documented-unknown (the worklist
    format cannot express adjudication-to-absent), which requires the
    variable to declare an unknown token.
    """
    buckets: dict[tuple[str, str], tuple[LabelRecord, ...]] = {}
    for case in cases:
        if case.key in buckets:
            continue
        recs = oracle.get(*case.key)
        if recs:
            buckets[case.key] = _restamped(recs, Source.ADJUDICATOR)
            continue
        spec = oracle.schema[case.variable]
        if spec.unknown_token is None:
            raise SchemaError(
                f"{case.variable}: oracle has no record for {case.patient_id} and "
                "no unknown token is declared to stand in for absence"
            )
        stand_in = LabelRecord(
            patient_id=case.patient_id,
            variable=case.variable,
            value=spec.unknown_token,
            source=Source.ADJUDICATOR,
        )
        validate_record(stand_in, spec)
        buckets[case.key] = (stand_in,)
    return LabelSet._from_buckets(oracle.schema, Source.ADJUDICATOR, buckets)
