"""Delimited-file interchange for labels, attributes, and schemas.

Label files are comma-delimited with a header row naming exactly
``patient_id, variable, value, event_date, source, refresh_id``; the
event_date and refresh_id cells may be empty. Dates are ISO-8601
(YYYY-MM-DD). Attribute files carry ``patient_id`` plus one column per
declared stratum. Ingest collects every problem it finds and reports them
all with row numbers rather than stopping at the first.
"""
from __future__ import annotations

import codecs
import csv
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path

import yaml

from .schema import (
    LabelRecord,
    LabelSet,
    Row,
    Schema,
    SchemaError,
    Source,
    VariableKind,
    VariableSpec,
    _canonical,
    validate_record,
)
from .yamlspec import ConfigError, load_yaml, read_spec

LABEL_COLUMNS = ["patient_id", "variable", "value", "event_date", "source", "refresh_id"]


class IngestError(ValueError):
    """One or more rows failed validation; .problems lists them all."""

    def __init__(self, path: str | Path, problems: list[str]):
        self.path = str(path)
        self.problems = problems
        preview = "\n  ".join(problems[:20])
        more = f"\n  ... and {len(problems) - 20} more" if len(problems) > 20 else ""
        super().__init__(f"{path}: {len(problems)} problem(s)\n  {preview}{more}")


_STRICT_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_iso_date(text: str) -> date:
    """Parse YYYY-MM-DD exactly as ``datetime.strptime(text, "%Y-%m-%d")`` does.

    The strict ASCII form takes the fast ``date.fromisoformat`` path; any
    other text (``2020-1-5``, non-ASCII digits, ...) falls back to
    ``strptime``, which accepts or rejects it as ingest always has.
    """
    if _STRICT_ISO_DATE.fullmatch(text):
        return date.fromisoformat(text)
    return datetime.strptime(text, "%Y-%m-%d").date()


_UNSEEN = object()


def _parse_value(spec: VariableSpec, text: str) -> str | float | None:
    """A cell's value for its variable; None when a numeric cell is not a number."""
    if spec.kind != VariableKind.NUMERIC:
        return text
    try:
        return float(text)
    except ValueError:
        return None


def _parse_date(text: str) -> date | None:
    """A cell's event date; None when it is not a YYYY-MM-DD date."""
    try:
        return parse_iso_date(text)
    except ValueError:
        return None


def _undecodable_line(path: Path, encoding: str) -> int:
    """The number of the first line of ``path`` that is not ``encoding`` text."""
    lineno = 0
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode(encoding)
            except UnicodeDecodeError:
                break
    return lineno


def _numbered_rows(path: Path, fh, problems: list[str]) -> Iterator[tuple[int, list[str]]]:
    """Each row of the open CSV file ``fh`` with its row number, the header
    being row 1. A row the csv module cannot read (such as a cell over its
    field size limit) or bytes that are not text in the file's encoding
    stop the read: an ``IngestError`` lists ``problems`` and then that one,
    with its row (or, for bytes, its line) number. One byte-order mark
    opening the file, as Excel's "CSV UTF-8" writes it, is not header text."""
    rows = enumerate(csv.reader(fh), start=1)
    lineno = 0
    try:
        for lineno, row in rows:  # row 1 alone, which a byte-order mark may open
            yield lineno, [row[0].removeprefix("\ufeff"), *row[1:]] if row else row
            break
        for lineno, row in rows:
            yield lineno, row
    except csv.Error as exc:
        raise IngestError(path, [*problems, f"row {lineno + 1}: {exc}"]) from None
    except UnicodeDecodeError:
        encoding = codecs.lookup(fh.encoding).name
        line = _undecodable_line(path, encoding)
        raise IngestError(path, [*problems, f"line {line}: not {encoding} text"]) from None


def _schema_problem(record: LabelRecord, spec: VariableSpec) -> str | None:
    """``validate_record``'s complaint about a record, or None when it is valid."""
    try:
        validate_record(record, spec)
    except SchemaError as exc:
        return str(exc)
    return None


def read_labels(
    path: str | Path,
    schema: Schema,
    source: Source,
    *,
    expected_refresh_id: str | None = None,
) -> LabelSet:
    """Read and validate one label file into a LabelSet.

    Rows must carry the declared source (an empty source cell inherits it)
    and, when ``expected_refresh_id`` is given, that refresh id (an empty
    refresh_id cell inherits it). Row order never affects the result.
    Raises IngestError listing every unknown variable, out-of-set value,
    malformed date, duplicate single-valued record, source mismatch and
    refresh id mismatch with its row number; each bad row reports the
    first check it fails, in that order: cell count, source, refresh id,
    variable, numeric value, date, ``validate_record``, duplicate.

    Rows repeat heavily, so a row with a patient id is looked up by its
    variable and its value, date and refresh id cell texts, and all valid
    rows with equal texts share one ``((value, event_date, refresh_id),)``
    leaf. The texts decide the value, the date and ``validate_record``'s
    verdict, so a repeat skips all three. The table is keyed on text,
    never on the parsed value, so ``-0.0`` and ``0.0`` stay apart, and it
    lives for this one call. For a row not seen before, each distinct
    (variable, value) is parsed once, each distinct date string is parsed
    once, and ``validate_record`` runs once per distinct (variable, value,
    dated, empty patient_id) -- the only parts of a row its verdict
    depends on -- on a probe record. Valid rows are written straight into
    the set's per-patient store; only event-list keys that hold more than
    one row are sorted at the end.
    """
    source = Source(source)
    source_value = source.value
    path = Path(path)
    problems: list[str] = []
    refresh_ids: set[str] = set()
    specs = dict(schema.items())
    event_lists = {name for name, spec in specs.items() if spec.kind == VariableKind.EVENT_LIST}
    values: dict[tuple[str, str], str | float | None] = {}
    dates: dict[str, date | None] = {}
    verdicts: dict[tuple[str, str, bool, bool], str | None] = {}
    # per variable, (value, date, refresh id) cell texts -> the one leaf
    # every such row shares
    leaves: dict[str, dict[tuple[str, str, str | None], tuple[Row]]] = {name: {} for name in specs}
    by_patient: dict[str, dict[str, tuple]] = {}
    unsorted: list[tuple[dict[str, tuple], str]] = []  # event-list keys that grew past one row
    n_cells = len(LABEL_COLUMNS)
    with open(path, newline="") as fh:
        rows = _numbered_rows(path, fh, problems)
        _, header = next(rows, (1, None))
        if header is None:
            raise IngestError(path, ["file is empty (no header row)"])
        if header != LABEL_COLUMNS:
            raise IngestError(
                path,
                [f"header must be {','.join(LABEL_COLUMNS)}; got {','.join(header)}"],
            )
        for lineno, row in rows:
            if len(row) != n_cells:
                # a blank row is skipped whatever its cell count
                if "".join(row).strip():
                    problems.append(f"row {lineno}: expected {n_cells} cells, got {len(row)}")
                continue
            pid, var, value_text, date_text, source_text, refresh = map(str.strip, row)
            if not (pid or var or value_text or date_text or source_text or refresh):
                continue
            if source_text and source_text != source_value:
                problems.append(
                    f"row {lineno}: source {source_text!r} does not match declared "
                    f"{source_value!r}"
                )
                continue
            refresh = refresh or expected_refresh_id
            if expected_refresh_id is not None and refresh != expected_refresh_id:
                problems.append(
                    f"row {lineno}: refresh_id {refresh!r} does not match expected "
                    f"{expected_refresh_id!r}"
                )
                continue
            refresh = refresh or None
            spec = specs.get(var)
            if spec is None:
                problems.append(f"row {lineno}: unknown variable {var!r}")
                continue
            var = spec.name
            shared = leaves[var]
            texts = (value_text, date_text, refresh)
            # an empty patient id changes validate_record's verdict, so such a
            # row never takes a shared leaf (nor, failing, ever makes one)
            leaf = shared.get(texts) if pid else None
            if leaf is None:
                value = values.get((var, value_text), _UNSEEN)
                if value is _UNSEEN:
                    value = values[var, value_text] = _parse_value(spec, value_text)
                if value is None:
                    problems.append(f"row {lineno}: {var}: non-numeric value {value_text!r}")
                    continue
                event_date = None
                if date_text:
                    event_date = dates.get(date_text, _UNSEEN)
                    if event_date is _UNSEEN:
                        event_date = dates[date_text] = _parse_date(date_text)
                    if event_date is None:
                        problems.append(
                            f"row {lineno}: {var}: bad date {date_text!r} (want YYYY-MM-DD)"
                        )
                        continue
                verdict_key = (var, value_text, event_date is None, not pid)
                problem = verdicts.get(verdict_key, _UNSEEN)
                if problem is _UNSEEN:
                    probe = LabelRecord(pid, var, value, event_date, source, refresh)
                    problem = verdicts[verdict_key] = _schema_problem(probe, spec)
                if problem is not None:
                    problems.append(f"row {lineno}: {problem}")
                    continue
                leaf = shared[texts] = ((value, event_date, refresh),)
            own = by_patient.get(pid)
            if own is None:
                by_patient[pid] = {var: leaf}
            elif var not in own:
                own[var] = leaf
            elif var in event_lists:
                rows = own[var]
                if len(rows) == 1:
                    unsorted.append((own, var))
                own[var] = rows + leaf
            else:
                problems.append(
                    f"row {lineno}: duplicate record for patient {pid!r}, "
                    f"variable {var!r} ({spec.kind.value} admits one)"
                )
                continue
            if refresh:
                refresh_ids.add(refresh)
    if problems:
        raise IngestError(path, problems)
    for own, var in unsorted:
        own[var] = _canonical(own[var])
    if expected_refresh_id is None and len(refresh_ids) == 1:
        expected_refresh_id = refresh_ids.pop()
    return LabelSet._from_store(schema, source, by_patient, expected_refresh_id)


def _value_cell(value: str | float) -> str:
    """A label value as its file cell: a token verbatim, a number by
    ``repr``, which keeps every digit of a float."""
    return value if isinstance(value, str) else repr(value)


def label_cells(patient_id: str, variable: str, rows: Iterable[Row], source: Source) -> Iterator[list]:
    """The six ``LABEL_COLUMNS`` cells of each of one key's rows; ``read_labels`` reads them back."""
    source = source.value
    return (
        [patient_id, variable, _value_cell(value),
         event_date.isoformat() if event_date else "", source, refresh_id or ""]
        for value, event_date, refresh_id in rows
    )


def label_text(rows: Iterable[Row]) -> str:
    """One key's rows as findings print them: each row's value cell, with
    ``@YYYY-MM-DD`` when it is dated, joined by ``", "``."""
    return ", ".join(
        f"{_value_cell(value)}@{event_date.isoformat()}" if event_date else _value_cell(value)
        for value, event_date, _ in rows
    )


def write_labels(labels: LabelSet, path: str | Path) -> None:
    """Write a label file that read_labels() reproduces exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        by_patient = labels._by_patient
        for pid in sorted(by_patient):
            own = by_patient[pid]
            for var in sorted(own):
                writer.writerows(label_cells(pid, var, own[var], labels.source))


def read_attributes(path: str | Path, declared_strata: list[str]) -> dict[str, dict[str, str]]:
    """Read the patient attribute file.

    Columns beyond patient_id must be declared strata, each at most once;
    duplicated patients are errors. Patients absent from the file simply
    fall back to the missing attribute value at lookup time.
    """
    path = Path(path)
    problems: list[str] = []
    out: dict[str, dict[str, str]] = {}
    with open(path, newline="") as fh:
        rows = _numbered_rows(path, fh, problems)
        _, header = next(rows, (1, None))
        if header is None:
            raise IngestError(path, ["file is empty (no header row)"])
        header = [h.strip() for h in header]
        if not header or header[0] != "patient_id":
            raise IngestError(path, ["first column must be patient_id"])
        undeclared = [c for c in header[1:] if c not in declared_strata]
        if undeclared:
            problems.append(f"undeclared attribute column(s): {undeclared} (declared: {declared_strata})")
        repeated = sorted({c for c in header if header.count(c) > 1})
        if repeated:
            problems.append(f"duplicate column(s): {repeated}")
        if problems:
            raise IngestError(path, problems)
        for lineno, row in rows:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                problems.append(f"row {lineno}: expected {len(header)} cells, got {len(row)}")
                continue
            pid = row[0].strip()
            if not pid:
                problems.append(f"row {lineno}: empty patient_id")
                continue
            if pid in out:
                problems.append(f"row {lineno}: duplicate patient {pid!r}")
                continue
            out[pid] = {col: cell.strip() for col, cell in zip(header[1:], row[1:])}
    if problems:
        raise IngestError(path, problems)
    return out


def write_attributes(attributes: dict[str, dict[str, str]], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    strata = sorted({k for attrs in attributes.values() for k in attrs})
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["patient_id"] + strata)
        for pid in sorted(attributes):
            writer.writerow([pid] + [attributes[pid].get(s, "") for s in strata])


@dataclass(frozen=True)
class _SchemaFile:
    """``schema.yaml``: one ``VariableSpec`` per mapping under ``variables``."""

    variables: tuple[VariableSpec, ...]
    schema: Schema = field(init=False, metadata={"yaml": False})

    def __post_init__(self) -> None:
        object.__setattr__(self, "schema", Schema(self.variables))


def load_schema(path: str | Path) -> Schema:
    """Load a schema from YAML; a ``SchemaError`` lists every problem, each
    with the file and its YAML path."""
    doc = load_yaml(path)
    try:
        return read_spec(_SchemaFile, doc).schema
    except ConfigError as exc:
        raise SchemaError(str(exc.in_file(path))) from None


def save_schema(schema: Schema, path: str | Path) -> None:
    """Write ``schema`` as ``load_schema`` reads it, leaving out each unset key."""
    variables = [
        {
            "name": spec.name,
            "kind": spec.kind.value,
            "allowed_values": None if spec.allowed_values is None else sorted(spec.allowed_values),
            "unknown_token": spec.unknown_token or None,
            "date_tolerance_days": spec.date_tolerance_days,
        }
        for spec in schema.values()
    ]
    doc = {"variables": [{k: v for k, v in entry.items() if v is not None} for entry in variables]}
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
