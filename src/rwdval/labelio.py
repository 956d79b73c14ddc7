"""Delimited-file interchange for labels, attributes, and schemas.

Label files are comma-delimited with a header row naming exactly
``patient_id, variable, value, event_date, source, refresh_id``; the
event_date and refresh_id cells may be empty. Dates are ISO-8601
(YYYY-MM-DD). Attribute files carry ``patient_id`` plus one column per
declared stratum. Ingest collects every problem it finds and reports them
all with row numbers rather than stopping at the first.
"""
from __future__ import annotations

import csv
import re
from datetime import date, datetime
from pathlib import Path

import yaml

from .schema import (
    LabelRecord,
    LabelSet,
    Schema,
    SchemaError,
    Source,
    VariableKind,
    VariableSpec,
    validate_record,
)

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


def read_labels(
    path: str | Path,
    schema: Schema,
    source: Source,
    *,
    expected_refresh_id: str | None = None,
) -> LabelSet:
    """Read and validate one label file into a LabelSet.

    Rows must carry the declared source (an empty source cell inherits it).
    Row order never affects the result. Raises IngestError listing every
    unknown variable, out-of-set value, malformed date, duplicate
    single-valued record, and source mismatch with its row number.
    """
    source = Source(source)
    path = Path(path)
    problems: list[str] = []
    refresh_ids: set[str] = set()
    labels = LabelSet(schema, source, refresh_id=expected_refresh_id)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(path, ["file is empty (no header row)"]) from None
        if header != LABEL_COLUMNS:
            raise IngestError(
                path,
                [f"header must be {','.join(LABEL_COLUMNS)}; got {','.join(header)}"],
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(LABEL_COLUMNS):
                problems.append(f"row {lineno}: expected {len(LABEL_COLUMNS)} cells, got {len(row)}")
                continue
            pid, var, value_text, date_text, source_text, refresh = (c.strip() for c in row)
            if source_text and source_text != source.value:
                problems.append(
                    f"row {lineno}: source {source_text!r} does not match declared "
                    f"{source.value!r}"
                )
                continue
            try:
                spec = schema[var]
            except SchemaError:
                problems.append(f"row {lineno}: unknown variable {var!r}")
                continue
            value: str | float
            if spec.kind == VariableKind.NUMERIC:
                try:
                    value = float(value_text)
                except ValueError:
                    problems.append(f"row {lineno}: {var}: non-numeric value {value_text!r}")
                    continue
            else:
                value = value_text
            event_date: date | None = None
            if date_text:
                try:
                    event_date = parse_iso_date(date_text)
                except ValueError:
                    problems.append(f"row {lineno}: {var}: bad date {date_text!r} (want YYYY-MM-DD)")
                    continue
            rec = LabelRecord(
                patient_id=pid,
                variable=var,
                value=value,
                event_date=event_date,
                source=source,
                refresh_id=refresh or None,
            )
            try:
                labels.add(rec)
            except SchemaError as exc:
                problems.append(f"row {lineno}: {exc}")
                continue
            if refresh:
                refresh_ids.add(refresh)
    if problems:
        raise IngestError(path, problems)
    if expected_refresh_id is None and len(refresh_ids) == 1:
        labels.refresh_id = refresh_ids.pop()
    return labels


def _format_value(value: str | float) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_labels(labels: LabelSet, path: str | Path) -> None:
    """Write a label file that read_labels() reproduces exactly."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LABEL_COLUMNS)
        for rec in labels.records():
            writer.writerow(
                [
                    rec.patient_id,
                    rec.variable,
                    _format_value(rec.value),
                    rec.event_date.isoformat() if rec.event_date else "",
                    rec.source.value,
                    rec.refresh_id or "",
                ]
            )


def read_attributes(path: str | Path, declared_strata: list[str]) -> dict[str, dict[str, str]]:
    """Read the patient attribute file.

    Columns beyond patient_id must be declared strata; duplicated patients
    are errors. Patients absent from the file simply fall back to the
    missing attribute value at lookup time.
    """
    path = Path(path)
    problems: list[str] = []
    out: dict[str, dict[str, str]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(path, ["file is empty (no header row)"]) from None
        header = [h.strip() for h in header]
        if not header or header[0] != "patient_id":
            raise IngestError(path, ["first column must be patient_id"])
        undeclared = [c for c in header[1:] if c not in declared_strata]
        if undeclared:
            raise IngestError(
                path, [f"undeclared attribute column(s): {undeclared} (declared: {declared_strata})"]
            )
        for lineno, row in enumerate(reader, start=2):
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


def load_schema(path: str | Path) -> Schema:
    """Load a schema from YAML: a list of variable definitions."""
    with open(path) as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict) or "variables" not in doc:
        raise SchemaError(f"{path}: schema file needs a top-level 'variables' list")
    specs = []
    for i, entry in enumerate(doc["variables"]):
        for key in ("name", "kind"):
            if key not in entry:
                raise SchemaError(f"{path}: variables[{i}] has no {key!r}")
        allowed = entry.get("allowed_values")
        specs.append(
            VariableSpec(
                name=entry["name"],
                kind=VariableKind(entry["kind"]),
                allowed_values=frozenset(allowed) if allowed else None,
                unknown_token=entry.get("unknown_token"),
                date_tolerance_days=entry.get("date_tolerance_days"),
            )
        )
    return Schema(specs)


def save_schema(schema: Schema, path: str | Path) -> None:
    doc = {
        "variables": [
            {
                "name": spec.name,
                "kind": spec.kind.value,
                **(
                    {"allowed_values": sorted(spec.allowed_values)}
                    if spec.allowed_values is not None
                    else {}
                ),
                **({"unknown_token": spec.unknown_token} if spec.unknown_token else {}),
                **(
                    {"date_tolerance_days": spec.date_tolerance_days}
                    if spec.date_tolerance_days is not None
                    else {}
                ),
            }
            for spec in schema.values()
        ]
    }
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
