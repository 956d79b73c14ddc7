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
every label traces to a source or the adjudicator. Each reference key
shares the row tuples of the source it came from (and ingest already
makes equal rows of one label file one object). Besides its labels the
reference keeps only its disputed keys; ``provenance`` is a read-only
view that derives each key's origin from the mode and that set.

Two sources agree on an event list when, per value token, their dated
events pair off one-to-one within the date tolerance and their undated
counts are equal. On a line, a one-to-one pairing within a threshold
exists iff pairing the dates in sorted order works (uncrossing two pairs
never widens the larger gap), so both lists are sorted by token, then
dated before undated, then by date, and compared k-th with k-th.
"""
from __future__ import annotations

import csv
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from enum import Enum
from itertools import product
from pathlib import Path

from .labelio import LABEL_COLUMNS, label_cells
from .schema import (
    _NO_ROWS,
    LabelRecord,
    LabelSet,
    Row,
    SchemaError,
    Source,
    VariableKind,
    VariableSpec,
    _records,
    effective_tolerance,
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


# every (llm, abstractor 1, abstractor 2) sources tuple a case can hold, so
# the thousands of cases of a worklist share a few tuples
_SIDE_SOURCES = {t: t for t in product([None, *Source], repeat=3)}


@dataclass(frozen=True, slots=True)
class DisagreementCase:
    """One (patient, variable) where two sources assert different things.

    An absent assertion on one side is itself a disagreement when the other
    side asserts something, including a documented unknown. A case is never
    changed once built: the cases ``find_disagreements`` returns, and those
    of ``AdjudicationError.worklist``, are open; those of
    ``ReferenceStandard.cases`` are resolved.

    ``rows`` holds the key's rows from the (llm, abstractor 1, abstractor 2)
    sides and ``sources`` their sources; a side without rows has source
    None, whatever was given, so equal cases are cases with equal records.
    ``llm``, ``abstractor_1`` and ``abstractor_2`` build that side's
    ``LabelRecord``s when read.
    """

    patient_id: str
    variable: str
    pair: Pair
    rows: tuple[tuple[Row, ...], ...] = ((), (), ())
    sources: tuple[Source | None, ...] = (None, None, None)

    def __post_init__(self) -> None:
        sources = tuple(s if r else None for r, s in zip(self.rows, self.sources))
        object.__setattr__(self, "sources", _SIDE_SOURCES.get(sources, sources))

    @property
    def llm(self) -> tuple[LabelRecord, ...]:
        return _records(self.patient_id, self.variable, self.rows[0], self.sources[0])

    @property
    def abstractor_1(self) -> tuple[LabelRecord, ...]:
        return _records(self.patient_id, self.variable, self.rows[1], self.sources[1])

    @property
    def abstractor_2(self) -> tuple[LabelRecord, ...]:
        return _records(self.patient_id, self.variable, self.rows[2], self.sources[2])

    @property
    def key(self) -> tuple[str, str]:
        return (self.patient_id, self.variable)


class AdjudicationError(ValueError):
    """Adjudication coverage does not line up with the open disagreements.

    ``worklist`` holds every case whose key is uncovered, in
    ``find_disagreements`` order: the cases an adjudicator still has to
    resolve before the assembly can go through. ``uncovered`` is their
    keys, each once, and ``stale`` the adjudicated keys that are not
    disagreements.
    """

    def __init__(self, worklist: list[DisagreementCase], stale: list[tuple[str, str]]):
        self.worklist = worklist
        self.stale = stale
        self.uncovered = uncovered = list(dict.fromkeys(c.key for c in worklist))
        parts = [
            f"{len(keys)} {what}: "
            + ", ".join(f"{p}/{v}" for p, v in keys[:10])
            + (" ..." if len(keys) > 10 else "")
            for keys, what in (
                (uncovered, "unresolved disagreement(s) without adjudication"),
                (stale, "adjudication(s) for keys that are not disagreements"),
            )
            if keys
        ]
        super().__init__("; ".join(parts))


class _ProvenanceView(Mapping[tuple[str, str], Provenance]):
    """Each reference key's provenance, in (patient, variable) order.

    Read-only and derived: a duplicate-abstraction key is single_source,
    an adjudicated reference's key adjudicated when disputed and agreed
    otherwise.
    """

    def __init__(self, ref: "ReferenceStandard"):
        self._ref = ref

    def __getitem__(self, key: tuple[str, str]) -> Provenance:
        ref = self._ref
        pid, var = key
        if var not in ref.labels._by_patient.get(pid, _NO_ROWS):
            raise KeyError(key)
        if ref.mode == ReferenceMode.DUPLICATE_ABSTRACTION:
            return Provenance.SINGLE_SOURCE
        return Provenance.ADJUDICATED if key in ref.disputed else Provenance.AGREED

    def __iter__(self) -> Iterator[tuple[str, str]]:
        store = self._ref.labels._by_patient
        return ((pid, var) for pid in sorted(store) for var in sorted(store[pid]))

    def __len__(self) -> int:
        return sum(map(len, self._ref.labels._by_patient.values()))


@dataclass
class ReferenceStandard:
    """The assembled reference labels plus the keys the adjudicator decided.

    ``provenance`` is a read-only view over the reference's keys, derived
    from the mode and ``disputed`` rather than stored per key.
    """

    mode: ReferenceMode
    labels: LabelSet
    patients: frozenset[str]
    disputed: frozenset[tuple[str, str]] = frozenset()
    cases: tuple[DisagreementCase, ...] = ()

    @property
    def provenance(self) -> Mapping[tuple[str, str], Provenance]:
        return _ProvenanceView(self)

    def summary(self) -> dict:
        by_pair = dict(Counter(case.pair.value for case in self.cases))
        n_disputed = len(self.disputed)  # none under duplicate abstraction
        duplicate = self.mode == ReferenceMode.DUPLICATE_ABSTRACTION
        undisputed = Provenance.SINGLE_SOURCE if duplicate else Provenance.AGREED
        counts = {Provenance.ADJUDICATED: n_disputed, undisputed: len(self.provenance) - n_disputed}
        return {
            "mode": self.mode.value,
            "n_labels": len(self.labels),
            "n_patients": len(self.patients),
            "disagreements": {"total": len(self.cases), "by_pair": by_pair},
            "provenance": {prov.value: n for prov, n in counts.items() if n},
        }


def _agreement(
    spec: VariableSpec, tolerance_days: int
) -> Callable[[tuple[Row, ...], tuple[Row, ...]], bool]:
    """Whether two sources' rows for one key of one variable agree.

    Agreement is strict about assertion state: missing agrees only with
    missing, documented-unknown only with documented-unknown. Dated values
    agree when values match and dates fall within tolerance; a date present
    on exactly one side is a disagreement. Event lists agree when, per
    value token, the undated counts coincide and the dated events match
    one-to-one within tolerance, which holds iff the k-th earliest date on
    one side lies within tolerance of the k-th earliest on the other: both
    lists are sorted by token, dated before undated, then by date, and
    compared row by row.
    Both sides are one key's rows in a label set over the variable's
    schema: canonical, and single for kinds that admit one.
    """
    tol = effective_tolerance(spec, tolerance_days)

    def single(a: Row, b: Row) -> bool:
        if a[0] != b[0]:
            return False
        da, db = a[1], b[1]
        if da is None or db is None:
            return da is db
        return abs((da - db).days) <= tol

    if spec.kind != VariableKind.EVENT_LIST:

        def agree(recs_a, recs_b):
            if recs_a and recs_b:
                return single(recs_a[0], recs_b[0])
            return not recs_a and not recs_b

        return agree

    def by_token(row: Row) -> tuple:
        # each token's dated events by date, then its undated ones
        return str(row[0]), row[1] is None, row[1]

    def agree_events(recs_a, recs_b):
        # agreeing lists hold as many events per token, so as many in all
        n = len(recs_a)
        if n != len(recs_b):
            return False
        if n < 2:
            return n == 0 or single(recs_a[0], recs_b[0])
        return all(map(single, sorted(recs_a, key=by_token), sorted(recs_b, key=by_token)))

    return agree_events


def _patient_union(*label_sets: LabelSet | None) -> list[str]:
    """The patients of every given label set, sorted."""
    out: set[str] = set()
    for labels in label_sets:
        if labels is not None:
            out.update(labels._by_patient)
    return sorted(out)


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
    agreement = {name: _agreement(spec, tolerance_days) for name, spec in llm.schema.items()}
    store_l, store_1 = llm._by_patient, abstractor_1._by_patient
    store_2, source_2 = {}, None  # an absent abstractor 2 holds no rows to attribute
    if abstractor_2 is not None:
        store_2, source_2 = abstractor_2._by_patient, abstractor_2.source
    sources = (llm.source, abstractor_1.source, source_2)
    # (pair, index of its first source, of its second) into (llm, a1, a2)
    pairs = [(Pair.LLM_VS_A1, 0, 1)]
    if abstractor_2 is not None:
        pairs += [(Pair.LLM_VS_A2, 0, 2), (Pair.A1_VS_A2, 1, 2)]
    cases: list[DisagreementCase] = []
    for pid in _patient_union(llm, abstractor_1, abstractor_2):
        own_l = store_l.get(pid, _NO_ROWS)
        own_1 = store_1.get(pid, _NO_ROWS)
        own_2 = store_2.get(pid, _NO_ROWS)
        for var in sorted(own_l.keys() | own_1.keys() | own_2.keys()):
            rows = (own_l.get(var, ()), own_1.get(var, ()), own_2.get(var, ()))
            agree = agreement[var]
            for pair, a, b in pairs:
                if not agree(rows[a], rows[b]):
                    cases.append(DisagreementCase(pid, var, pair, rows, sources))
    return cases


def build_duplicate_abstraction(
    llm: LabelSet,
    abstractor_1: LabelSet,
    abstractor_2: LabelSet,
) -> ReferenceStandard:
    """Second abstraction as reference, for scoring the extraction and A1.

    The reference is abstractor 2 verbatim (no key disputed, so every
    key's provenance is single_source). Scoring abstractor 2 against it is
    the identity, so only the extraction and abstractor 1 are scored.
    """
    if len(abstractor_2) == 0:
        raise ValueError("abstractor_2 label set is empty; nothing to reference")
    return ReferenceStandard(
        mode=ReferenceMode.DUPLICATE_ABSTRACTION,
        labels=abstractor_2.relabel(Source.REFERENCE),
        patients=frozenset(_patient_union(llm, abstractor_1, abstractor_2)),
    )


def _check_adjudications(
    cases: list[DisagreementCase], adjudications: LabelSet
) -> set[tuple[str, str]]:
    """The cases' keys, which the adjudications must cover exactly."""
    if adjudications.source != Source.ADJUDICATOR:
        raise SchemaError(
            f"adjudication labels must come from source "
            f"{Source.ADJUDICATOR.value!r}, got {adjudications.source.value!r}"
        )
    case_keys = {c.key for c in cases}
    adj_keys = adjudications.keys()
    stale = sorted(adj_keys - case_keys)
    if stale or not case_keys <= adj_keys:
        raise AdjudicationError([c for c in cases if c.key not in adj_keys], stale)
    return case_keys


def _build_adjudicated(
    mode: ReferenceMode,
    llm: LabelSet,
    abstractor_1: LabelSet,
    abstractor_2: LabelSet | None,
    adjudications: LabelSet,
    tolerance_days: int,
    cases: list[DisagreementCase] | None,
) -> ReferenceStandard:
    if cases is None:
        cases = find_disagreements(llm, abstractor_1, abstractor_2, tolerance_days=tolerance_days)
    case_keys = _check_adjudications(cases, adjudications)
    # One walk in (patient, variable) order: a disputed key shares the
    # adjudicator's rows, every other key abstractor 1's. An agreed key is
    # never missing from abstractor 1, and every adjudicated key is a case
    # key, so the adjudicator adds no patient.
    store_l, store_1 = llm._by_patient, abstractor_1._by_patient
    store_2 = abstractor_2._by_patient if abstractor_2 is not None else {}
    store_adj = adjudications._by_patient
    patients = _patient_union(llm, abstractor_1, abstractor_2)
    by_patient: dict[str, dict[str, tuple[Row, ...]]] = {}
    for pid in patients:
        own_1 = store_1.get(pid, _NO_ROWS)
        variables = store_l.get(pid, _NO_ROWS).keys() | own_1.keys()
        variables |= store_2.get(pid, _NO_ROWS).keys()
        own = by_patient[pid] = {}
        for var in sorted(variables):
            own[var] = store_adj[pid][var] if (pid, var) in case_keys else own_1[var]
    labels = LabelSet._from_store(llm.schema, Source.REFERENCE, by_patient)
    return ReferenceStandard(
        mode=mode,
        labels=labels,
        patients=frozenset(patients),
        disputed=frozenset(case_keys),
        cases=tuple(cases),
    )


def build_double_adjudication(
    llm: LabelSet,
    abstractor_1: LabelSet,
    adjudications: LabelSet,
    *,
    tolerance_days: int = 30,
    cases: list[DisagreementCase] | None = None,
) -> ReferenceStandard:
    """Adjudicate every extraction-vs-abstractor disagreement.

    The adjudications must cover exactly the open disagreements: any
    uncovered case aborts with the complete list, and an adjudication for a
    key that is not a disagreement is equally an error (it would fabricate
    reference content nobody disputed). ``cases`` are the disagreements a
    caller already found for these inputs; by default they are found here.
    """
    return _build_adjudicated(
        ReferenceMode.DOUBLE_ADJUDICATION, llm, abstractor_1, None, adjudications, tolerance_days, cases
    )


def build_triple_adjudication(
    llm: LabelSet,
    abstractor_1: LabelSet,
    abstractor_2: LabelSet,
    adjudications: LabelSet,
    *,
    tolerance_days: int = 30,
    cases: list[DisagreementCase] | None = None,
) -> ReferenceStandard:
    """Adjudicate all pairwise disagreements among three sources.

    Any key carrying at least one pairwise disagreement goes to the
    adjudicator; unanimous keys keep abstractor 1's record (identical to
    abstractor 2's up to date tolerance). Majority vote is deliberately not
    applied: two sources agreeing does not settle a dispute with the third.
    ``cases`` is as for ``build_double_adjudication``.
    """
    return _build_adjudicated(
        ReferenceMode.TRIPLE_ADJUDICATION, llm, abstractor_1, abstractor_2, adjudications, tolerance_days, cases
    )


def write_disagreements(cases: Iterable[DisagreementCase], path: str | Path) -> None:
    """Emit the disagreement worklist: label-file columns plus a pair column.

    Each case contributes one row per contributing record so external
    abstraction tooling can round-trip the content; an absent side simply
    has no rows for that pair. Values are written as ``write_labels``
    writes them.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*LABEL_COLUMNS, "pair"])
        for case in cases:
            pid, var, pair = case.patient_id, case.variable, case.pair.value
            for rows, source in zip(case.rows, case.sources):
                if rows:
                    writer.writerows([*cells, pair] for cells in label_cells(pid, var, rows, source))


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
    by_patient: dict[str, dict[str, tuple[Row, ...]]] = {}
    store = oracle._by_patient
    for case in cases:
        own = by_patient.setdefault(case.patient_id, {})
        if case.variable in own:
            continue
        rows = store.get(case.patient_id, _NO_ROWS).get(case.variable)
        if rows:
            own[case.variable] = rows
            continue
        spec = oracle.schema[case.variable]
        if spec.unknown_token is None:
            raise SchemaError(
                f"{case.variable}: oracle has no record for {case.patient_id} and "
                "no unknown token is declared to stand in for absence"
            )
        own[case.variable] = ((spec.unknown_token, None, None),)
    return LabelSet._from_store(oracle.schema, Source.ADJUDICATOR, by_patient)
