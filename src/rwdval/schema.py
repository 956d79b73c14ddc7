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

import numpy as np

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
    numeric ones. ``unknown_token`` marks the documented-unknown value: a
    non-empty token, a member of ``allowed_values`` when both are present,
    and forbidden for numeric variables, whose labels are numbers.
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
        if self.unknown_token is not None:
            # a label's value is a number or a non-empty token, so these tokens
            # could never be a label
            if kind == VariableKind.NUMERIC:
                raise SchemaError(f"unknown_token: {self.name} is numeric and takes none")
            if not self.unknown_token:
                raise SchemaError(f"unknown_token: must be non-empty for {self.name}")
            if self.allowed_values is not None and self.unknown_token not in self.allowed_values:
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


# A row is a record less its key and source: (value, event_date, refresh_id).
Row = tuple[str | float, date | None, str | None]
# one patient's rows from one source, by variable
RowView = Mapping[str, tuple[Row, ...]]

# what a patient without rows reads as; never written to
_NO_ROWS: RowView = MappingProxyType({})


def _row_sort_key(row: Row):
    """A key's canonical order: dated before undated, then by date, then by value."""
    event_date = row[1]
    return (event_date is None, event_date or date.min, str(row[0]))


def _canonical(rows: Sequence[Row]) -> tuple[Row, ...]:
    """``rows`` in canonical order; ties keep their order."""
    return tuple(rows) if len(rows) < 2 else tuple(sorted(rows, key=_row_sort_key))


def _records(
    patient_id: str, variable: str, rows: Iterable[Row], source: Source
) -> tuple[LabelRecord, ...]:
    """The records one key's rows stand for, from ``source``."""
    return tuple(LabelRecord(patient_id, variable, v, d, source, r) for v, d, r in rows)


def _row(record: LabelRecord) -> Row:
    return (record.value, record.event_date, record.refresh_id)


@dataclass(frozen=True, eq=False)
class Column:
    """One single-valued variable over a cohort, in cohort order.

    ``codes[i]`` is the index in ``values`` of patient ``i``'s known
    value, ``UNKNOWN`` when its row is documented unknown and ``MISSING``
    when it has none. ``dates[i]`` is the ordinal of the known value's
    date, 0 when there is none. Both are int64 arrays. ``values`` lists
    the distinct known values in order of first appearance; a NaN is
    distinct from every value, so two rows that hold one NaN object share
    a code without their values being equal.
    """

    values: tuple
    codes: np.ndarray
    dates: np.ndarray

    UNKNOWN = -1
    MISSING = -2

    @classmethod
    def of(cls, rows_by_patient: Iterable[tuple[Row, ...]], unknown: str | None) -> "Column":
        """The column of each patient's rows, as ``LabelSet._rows`` gives them."""
        index: dict = {}
        codes, dates = [], []
        for rows in rows_by_patient:
            if not rows:
                codes.append(cls.MISSING)
                dates.append(0)
                continue
            value, event_date, _ = rows[0]
            if value == unknown:
                codes.append(cls.UNKNOWN)
                dates.append(0)
                continue
            code = index.get(value)
            if code is None:
                code = index[value] = len(index)
            codes.append(code)
            dates.append(0 if event_date is None else event_date.toordinal())
        return cls(tuple(index), np.array(codes, dtype=np.int64), np.array(dates, dtype=np.int64))

    @property
    def known(self) -> np.ndarray:
        """Whether each patient documents a known value."""
        return self.codes >= 0

    def equals(self, value) -> np.ndarray:
        """Whether each patient's known value equals ``value``."""
        # one entry per value, then False for the two negative codes
        table = np.array([known == value for known in self.values] + [False, False])
        return table[self.codes]


class LabelSet:
    """All labels from one source, held as rows per patient and then per variable.

    The set keeps its ``source`` once; each key holds a tuple of rows
    ``(value, event_date, refresh_id)``, and a ``LabelRecord`` is built
    only when one is read (``get``, ``get_single``, ``records``). Non-event_list
    variables hold at most one row per (patient, variable) key.
    Construction and ``add`` validate every record against the schema and
    check its source; ingest and the copy paths validate once at their
    boundary and write rows straight into the store. Each key's rows are
    kept in canonical order (dated before undated, then by date, then by
    value; ties in insertion order), fixed when a row is added, so every
    reader sees the same order whatever the order of addition. A patient
    with no rows has no entry. Copies share the (immutable) row tuples of
    their source, never its per-patient dicts, and ingest makes the rows
    of one file with equal cell texts one object; every change replaces a
    key's tuple, so sharing never shows. Equality compares the source
    and the canonical record lists, so write -> read round-trips compare
    equal regardless of row order.
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
        self._by_patient: dict[str, dict[str, tuple[Row, ...]]] = {}
        # the last cohort read as columns, and its Column of each variable
        # read; built on first read, dropped by every change
        self._columns: tuple[tuple[str, ...], dict[str, Column]] = ((), {})
        for rec in records:
            self.add(rec)

    @classmethod
    def _from_store(
        cls,
        schema: Schema,
        source: Source,
        by_patient: dict[str, dict[str, tuple[Row, ...]]],
        refresh_id: str | None = None,
    ) -> "LabelSet":
        """A label set over ``by_patient``, taken as is.

        Nothing is validated or copied; the caller guarantees that every
        row is valid for its variable's spec, that each key's rows are
        canonical and non-empty (exactly one unless its variable is an
        event_list), and that no patient's dict is empty.
        """
        out = cls(schema, source, refresh_id=refresh_id)
        out._by_patient = by_patient
        return out

    def add(self, record: LabelRecord) -> None:
        spec = self.schema[record.variable]
        validate_record(record, spec)
        if record.source != self.source:
            raise SchemaError(
                f"record source {record.source.value!r} does not match "
                f"label set source {self.source.value!r}"
            )
        self._columns = ((), {})
        own = self._by_patient.get(record.patient_id)
        if own is None:
            own = self._by_patient[record.patient_id] = {}
        rows = own.get(record.variable)
        if rows is None:
            own[record.variable] = (_row(record),)
            return
        if spec.kind != VariableKind.EVENT_LIST:
            raise SchemaError(
                f"duplicate record for patient {record.patient_id!r}, "
                f"variable {record.variable!r} ({spec.kind.value} admits one)"
            )
        own[record.variable] = _canonical(rows + (_row(record),))

    def remove(self, patient_id: str, variable: str) -> None:
        """Drop every record for one key; absent keys are a no-op."""
        self._columns = ((), {})
        own = self._by_patient.get(patient_id)
        if own is not None:
            own.pop(variable, None)
            if not own:
                del self._by_patient[patient_id]

    def get(self, patient_id: str, variable: str) -> tuple[LabelRecord, ...]:
        """Records for one key in canonical order; empty tuple means missing."""
        rows = self._by_patient.get(patient_id, _NO_ROWS).get(variable, ())
        return _records(patient_id, variable, rows, self.source)

    def get_single(self, patient_id: str, variable: str) -> LabelRecord | None:
        """The key's first record in canonical order; None means missing."""
        rows = self._by_patient.get(patient_id, _NO_ROWS).get(variable)
        if not rows:
            return None
        value, event_date, refresh_id = rows[0]
        return LabelRecord(patient_id, variable, value, event_date, self.source, refresh_id)

    def _rows(self, variable: str, patients: Iterable[str]) -> list[tuple[Row, ...]]:
        """The rows of ``variable`` for each patient in order, in one call."""
        by_patient = self._by_patient
        return [by_patient.get(pid, _NO_ROWS).get(variable, ()) for pid in patients]

    def column(self, variable: str, patients: Sequence[str]) -> Column:
        """The ``Column`` of a single-valued ``variable`` over ``patients``
        (repeats allowed). The set keeps the columns of the last cohort
        read until its next ``add`` or ``remove``, so readers of one cohort
        share them."""
        spec = self.schema[variable]
        if spec.kind == VariableKind.EVENT_LIST:
            raise ValueError(f"{variable}: an event_list variable has no column")
        patients = tuple(patients)
        cohort, columns = self._columns
        if patients != cohort:
            columns = {}
            self._columns = (patients, columns)
        column = columns.get(variable)
        if column is None:
            column = columns[variable] = Column.of(self._rows(variable, patients), spec.unknown_token)
        return column

    def _known_firsts(self, variable: str, patients: Iterable[str]) -> list[Row | None]:
        """Each patient's first row of ``variable``; None when missing or documented unknown."""
        unknown = self.schema[variable].unknown_token
        return [
            rows[0] if rows and rows[0][0] != unknown else None
            for rows in self._rows(variable, patients)
        ]

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
        source = self.source
        for pid in sorted(self._by_patient):
            own = self._by_patient[pid]
            for var in sorted(own):
                out.extend(_records(pid, var, own[var], source))
        return out

    def relabel(self, source: Source, refresh_id: str | None = None) -> "LabelSet":
        """Copy with every record re-attributed to another source.

        The copy shares this set's row tuples and has its own per-patient
        dicts, so ``add`` or ``remove`` on either never shows in the other.
        A ``refresh_id`` stamps the copy and each of its rows; without one
        the rows keep their own.
        """
        if refresh_id is None:
            by_patient = {pid: own.copy() for pid, own in self._by_patient.items()}
        else:
            # the refresh id is not part of the sort key, so the order holds
            by_patient = {
                pid: {
                    var: tuple((v, d, refresh_id) for v, d, _ in rows)
                    for var, rows in own.items()
                }
                for pid, own in self._by_patient.items()
            }
        return LabelSet._from_store(self.schema, source, by_patient, refresh_id)

    def __len__(self) -> int:
        return sum(len(rows) for own in self._by_patient.values() for rows in own.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelSet):
            return NotImplemented
        # both stores are canonical and hold no empty entry, so equal stores
        # are exactly equal record lists
        return self.source == other.source and self._by_patient == other._by_patient

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


def patient_view(labels: LabelSet, patient_id: str) -> RowView:
    """One patient's labels from one source, for check evaluation: a read-only
    view, not a copy, of the store's map variable -> ``(value, event_date,
    refresh_id)`` rows, the same shape for every kind. Only documented
    variables appear; documented-unknown rows are included so the check
    engine can distinguish unknown from missing."""
    return MappingProxyType(labels._by_patient.get(patient_id, _NO_ROWS))


def effective_tolerance(spec: VariableSpec, default_days: int) -> int:
    """Per-variable date tolerance override, falling back to the default."""
    return spec.date_tolerance_days if spec.date_tolerance_days is not None else default_days


def shift_date(d: date, days: int) -> date:
    return d + timedelta(days=days)
