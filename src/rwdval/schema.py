"""Core data model: variable schemas, label records, label sets, cohorts.

A label row asserts one value for one (patient, variable) from one source:
model extraction, a human abstractor, an adjudicator, or the assembled
reference standard. Everything downstream (reference-standard assembly,
metrics, checks, replication) consumes these types.

Two absence states are distinguished throughout:

* documented unknown -- a record exists whose value is the variable's
  ``unknown_token`` ("the chart says it is unknown");
* missing -- no record at all for that (patient, variable).

Both count as not-known for completeness; they differ for check
applicability and for disagreement detection.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from types import MappingProxyType


MISSING_ATTRIBUTE = "missing"


class SchemaError(ValueError):
    """A record or variable definition violates the declared schema."""


class VariableKind(str, Enum):
    CATEGORICAL = "categorical"
    DATE = "date"
    NUMERIC = "numeric"
    EVENT_LIST = "event_list"

    def __init__(self, value: str) -> None:
        # fixed per member when the class is built: readers test it per record
        self.has_dates: bool = value in ("date", "event_list")


class Source(str, Enum):
    LLM = "llm"
    ABSTRACTOR_1 = "abstractor_1"
    ABSTRACTOR_2 = "abstractor_2"
    ADJUDICATOR = "adjudicator"
    REFERENCE = "reference"


@dataclass(frozen=True)
class VariableSpec:
    """Declares one extractable variable.

    ``allowed_values`` is required for categorical variables, optional for
    date and event_list variables (their value payload is usually a small
    category set such as yes/no or positive/negative), and forbidden for
    numeric ones. ``unknown_token`` marks the documented-unknown value and
    must be a member of ``allowed_values`` when both are present.
    ``date_tolerance_days`` overrides the engine-wide date tolerance.
    """

    name: str
    kind: VariableKind
    allowed_values: frozenset[str] | None = None
    unknown_token: str | None = None
    date_tolerance_days: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("name: must be non-empty")
        if self.allowed_values is not None:  # an empty set reads as none
            object.__setattr__(self, "allowed_values", frozenset(self.allowed_values) or None)
        kind = self.kind
        if kind == VariableKind.CATEGORICAL and not self.allowed_values:
            raise SchemaError(f"allowed_values: required for {self.name}, a categorical variable")
        if kind == VariableKind.NUMERIC and self.allowed_values:
            raise SchemaError(f"allowed_values: {self.name} is numeric and takes none")
        if self.unknown_token is not None and self.allowed_values is not None:
            if self.unknown_token not in self.allowed_values:
                raise SchemaError(
                    f"unknown_token: {self.unknown_token!r} is not in the allowed_values of {self.name}"
                )
        if self.date_tolerance_days is not None and self.date_tolerance_days < 0:
            raise SchemaError(f"date_tolerance_days: must be >= 0, got {self.date_tolerance_days}")

    @property
    def known_values(self) -> frozenset[str] | None:
        """Allowed values minus the unknown token (the assertable ones)."""
        if self.allowed_values is None:
            return None
        if self.unknown_token is None:
            return self.allowed_values
        return self.allowed_values - {self.unknown_token}


class Schema(Mapping[str, VariableSpec]):
    """Immutable name -> VariableSpec mapping for one cohort."""

    def __init__(self, variables: Iterable[VariableSpec]):
        specs = list(variables)
        names = [s.name for s in specs]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise SchemaError(f"variables: duplicate names {sorted(dupes)}")
        self._by_name: dict[str, VariableSpec] = {s.name: s for s in specs}

    def __getitem__(self, name: str) -> VariableSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown variable {name!r}") from None

    def __contains__(self, name: object) -> bool:
        # Mapping's default relies on __getitem__ raising KeyError;
        # ours raises SchemaError, so membership is answered directly.
        return name in self._by_name

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_name)

    def __len__(self) -> int:
        return len(self._by_name)

    def __repr__(self) -> str:
        return f"Schema({sorted(self._by_name)})"


@dataclass(frozen=True, slots=True)
class LabelRecord:
    """One asserted value for one (patient, variable) from one source.

    ``value`` is a category token for categorical/date/event_list variables
    and a float for numeric ones. ``event_date`` may be present only for
    date and event_list kinds; event_list records must carry one unless the
    value is the documented-unknown token.
    """

    patient_id: str
    variable: str
    value: str | float
    event_date: date | None = None
    source: Source = Source.REFERENCE
    refresh_id: str | None = None

    def is_unknown(self, spec: VariableSpec) -> bool:
        return spec.unknown_token is not None and self.value == spec.unknown_token

    def is_known(self, spec: VariableSpec) -> bool:
        return not self.is_unknown(spec)


def validate_record(record: LabelRecord, spec: VariableSpec) -> None:
    """Raise SchemaError if the record does not conform to its variable spec."""
    if record.variable != spec.name:
        raise SchemaError(f"record variable {record.variable!r} != spec {spec.name!r}")
    if not record.patient_id:
        raise SchemaError(f"{spec.name}: empty patient_id")
    if spec.kind == VariableKind.NUMERIC:
        if not isinstance(record.value, (int, float)) or isinstance(record.value, bool):
            raise SchemaError(
                f"{spec.name}: numeric variable needs a numeric value, got {record.value!r}"
            )
    else:
        if not isinstance(record.value, str) or not record.value:
            raise SchemaError(
                f"{spec.name}: expected a non-empty category token, got {record.value!r}"
            )
        if spec.allowed_values is not None and record.value not in spec.allowed_values:
            raise SchemaError(
                f"{spec.name}: value {record.value!r} not in allowed values "
                f"{sorted(spec.allowed_values)}"
            )
    if record.event_date is not None and not spec.kind.has_dates:
        raise SchemaError(f"{spec.name}: {spec.kind.value} variables carry no event_date")
    if (
        spec.kind == VariableKind.EVENT_LIST
        and record.event_date is None
        and record.is_known(spec)
    ):
        raise SchemaError(f"{spec.name}: event_list records need an event_date")


# what a patient without records reads as; never written to
_NO_RECORDS: Mapping[str, tuple[LabelRecord, ...]] = MappingProxyType({})


def _record_sort_key(rec: LabelRecord):
    return (
        rec.patient_id,
        rec.variable,
        rec.event_date is None,
        rec.event_date or date.min,
        str(rec.value),
    )


def _restamped(
    recs: Sequence[LabelRecord], source: Source, refresh_id: str | None = None
) -> tuple[LabelRecord, ...]:
    """Records re-attributed to ``source``, in the same order.

    A ``refresh_id`` stamps every record; without one each keeps its own.
    Neither field is part of the canonical sort key, so a bucket that was
    canonical stays canonical, and a valid record stays valid.
    """
    return tuple(
        LabelRecord(
            r.patient_id,
            r.variable,
            r.value,
            r.event_date,
            source,
            r.refresh_id if refresh_id is None else refresh_id,
        )
        for r in recs
    )


class LabelSet:
    """All label records from one source, held per patient and then per variable.

    Non-event_list variables hold at most one record per (patient,
    variable) key. Construction and ``add`` validate every record against
    the schema; ingest and the copy paths validate once at their boundary
    and build through ``_from_buckets``. Each key's records are kept in
    canonical order (dated before undated, then by date, then by value;
    ties in insertion order), fixed when a record is added, so every reader
    sees the same order whatever the order of addition. A patient with no
    records has no entry. Equality compares the source and the canonical
    record multiset, so write -> read round-trips compare equal regardless
    of row order.
    """

    def __init__(
        self,
        schema: Schema,
        source: Source,
        records: Iterable[LabelRecord] = (),
        refresh_id: str | None = None,
    ):
        self.schema = schema
        self.source = Source(source)
        self.refresh_id = refresh_id
        self._by_patient: dict[str, dict[str, tuple[LabelRecord, ...]]] = {}
        for rec in records:
            self.add(rec)

    def add(self, record: LabelRecord) -> None:
        spec = self.schema[record.variable]
        validate_record(record, spec)
        if record.source != self.source:
            raise SchemaError(
                f"record source {record.source.value!r} does not match "
                f"label set source {self.source.value!r}"
            )
        own = self._by_patient.get(record.patient_id)
        if own is None:
            own = self._by_patient[record.patient_id] = {}
        bucket = own.get(record.variable)
        if bucket is None:
            own[record.variable] = (record,)
            return
        if spec.kind != VariableKind.EVENT_LIST:
            raise SchemaError(
                f"duplicate record for patient {record.patient_id!r}, "
                f"variable {record.variable!r} ({spec.kind.value} admits one)"
            )
        own[record.variable] = tuple(sorted(bucket + (record,), key=_record_sort_key))

    @classmethod
    def _from_buckets(
        cls,
        schema: Schema,
        source: Source,
        buckets: Mapping[tuple[str, str], Sequence[LabelRecord]],
        refresh_id: str | None = None,
    ) -> "LabelSet":
        """Build a label set from records already grouped by (patient, variable).

        Nothing is validated here; the caller guarantees that every record
        is valid for its variable's spec (``validate_record`` passes), that
        every record carries ``source``, and that a key whose variable is
        not an event_list holds exactly one record. Each multi-record bucket
        is sorted once into canonical order (stable, so ties keep the
        bucket's order, as ``add`` keeps them). Empty buckets are skipped.
        """
        out = cls(schema, source, refresh_id=refresh_id)
        by_patient = out._by_patient
        for (pid, var), recs in buckets.items():
            if not recs:
                continue
            own = by_patient.get(pid)
            if own is None:
                own = by_patient[pid] = {}
            own[var] = tuple(recs) if len(recs) == 1 else tuple(sorted(recs, key=_record_sort_key))
        return out

    def remove(self, patient_id: str, variable: str) -> None:
        """Drop every record for one key; absent keys are a no-op."""
        own = self._by_patient.get(patient_id)
        if own is not None:
            own.pop(variable, None)
            if not own:
                del self._by_patient[patient_id]

    def get(self, patient_id: str, variable: str) -> tuple[LabelRecord, ...]:
        """Records for one key in canonical order; empty tuple means missing."""
        return self._by_patient.get(patient_id, _NO_RECORDS).get(variable, ())

    def get_single(self, patient_id: str, variable: str) -> LabelRecord | None:
        """The key's first record in canonical order; None means missing."""
        recs = self._by_patient.get(patient_id, _NO_RECORDS).get(variable)
        return recs[0] if recs else None

    def _column(self, variable: str, patients: Iterable[str]) -> list[tuple[LabelRecord, ...]]:
        """``get(pid, variable)`` for each patient in order, in one call."""
        by_patient = self._by_patient
        return [by_patient.get(pid, _NO_RECORDS).get(variable, ()) for pid in patients]

    def _holders(self, variable: str) -> list[str]:
        """The patients with records for ``variable``, in store order."""
        return [pid for pid, own in self._by_patient.items() if variable in own]

    def keys(self) -> set[tuple[str, str]]:
        return {(pid, var) for pid, own in self._by_patient.items() for var in own}

    @property
    def patients(self) -> set[str]:
        return set(self._by_patient)

    @property
    def variables(self) -> set[str]:
        return {var for own in self._by_patient.values() for var in own}

    def records(self) -> list[LabelRecord]:
        out: list[LabelRecord] = []
        for pid in sorted(self._by_patient):
            own = self._by_patient[pid]
            for var in sorted(own):
                out.extend(own[var])
        return out

    def relabel(self, source: Source, refresh_id: str | None = None) -> "LabelSet":
        """Copy with every record re-attributed to another source.

        A ``refresh_id`` stamps the copy and each of its records; without
        one the records keep their own.
        """
        out = LabelSet(self.schema, source, refresh_id=refresh_id)
        # re-stamping keeps each bucket's canonical order, so nothing is re-sorted
        out._by_patient = {
            pid: {var: _restamped(recs, out.source, refresh_id) for var, recs in own.items()}
            for pid, own in self._by_patient.items()
        }
        return out

    def __len__(self) -> int:
        return sum(len(recs) for own in self._by_patient.values() for recs in own.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelSet):
            return NotImplemented
        return self.source == other.source and self.records() == other.records()

    def __repr__(self) -> str:
        return (
            f"LabelSet(source={self.source.value}, records={len(self)}, "
            f"patients={len(self.patients)})"
        )


@dataclass
class CohortDataset:
    """A patient universe, its attributes, and label sets from each source."""

    schema: Schema
    patients: dict[str, dict[str, str]]
    label_sets: dict[Source, LabelSet] = field(default_factory=dict)

    def validate(self) -> None:
        """Every record must reference a cohort patient."""
        for src, labels in self.label_sets.items():
            stray = labels.patients - set(self.patients)
            if stray:
                raise SchemaError(
                    f"{src.value} labels reference patients outside the cohort: "
                    f"{sorted(stray)[:5]}"
                )

    def attribute(self, patient_id: str, key: str) -> str:
        """Attribute value for a patient; absent patients/keys read as missing."""
        return self.patients.get(patient_id, {}).get(key, MISSING_ATTRIBUTE)

    def strata(self, key: str) -> dict[str, list[str]]:
        """Partition cohort patients by one attribute (missing included)."""
        out: dict[str, list[str]] = {}
        for pid in sorted(self.patients):
            out.setdefault(self.attribute(pid, key), []).append(pid)
        return out

    def labels(self, source: Source) -> LabelSet:
        try:
            return self.label_sets[Source(source)]
        except KeyError:
            raise SchemaError(f"no label set for source {Source(source).value!r}") from None


def patient_view(labels: LabelSet, patient_id: str) -> dict[str, object]:
    """Flatten one patient's labels from one source for check evaluation.

    Returns a map variable -> entry where the entry is the value for
    categorical/numeric kinds, a (value, event_date) pair for date kinds,
    and a date-sorted tuple of (value, event_date) pairs for event lists.
    Only documented variables appear; documented-unknown records are
    included so the check engine can distinguish unknown from missing.
    """
    view: dict[str, object] = {}
    schema = labels.schema
    for var, recs in labels._by_patient.get(patient_id, _NO_RECORDS).items():
        kind = schema[var].kind
        if kind == VariableKind.EVENT_LIST:
            view[var] = tuple((r.value, r.event_date) for r in recs)
        elif kind == VariableKind.DATE:
            view[var] = (recs[0].value, recs[0].event_date)
        else:
            view[var] = recs[0].value
    return view


def effective_tolerance(spec: VariableSpec, default_days: int) -> int:
    """Per-variable date tolerance override, falling back to the default."""
    return spec.date_tolerance_days if spec.date_tolerance_days is not None else default_days


def shift_date(d: date, days: int) -> date:
    return d + timedelta(days=days)
