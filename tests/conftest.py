"""Shared fixtures: a compact schema covering all four variable kinds."""

from datetime import date

import pytest

from rwdval import (
    LabelRecord,
    LabelSet,
    Schema,
    Source,
    VariableKind,
    VariableSpec,
    adjudicate_from_oracle,
    find_disagreements,
)
from rwdval.labelio import load_schema, read_labels, write_labels


def make_schema() -> Schema:
    return Schema(
        [
            VariableSpec(
                "stage",
                VariableKind.CATEGORICAL,
                allowed_values=frozenset({"I", "II", "III", "unknown"}),
                unknown_token="unknown",
            ),
            VariableSpec(
                "surgery",
                VariableKind.DATE,
                allowed_values=frozenset({"yes", "no", "unknown"}),
                unknown_token="unknown",
            ),
            VariableSpec(
                "er_result",
                VariableKind.EVENT_LIST,
                allowed_values=frozenset({"positive", "negative", "unknown"}),
                unknown_token="unknown",
            ),
            VariableSpec("tumor_size_mm", VariableKind.NUMERIC),
        ]
    )


@pytest.fixture
def schema() -> Schema:
    return make_schema()


def rec(
    pid: str,
    var: str,
    value,
    day: date | None = None,
    source: Source = Source.LLM,
    refresh_id: str | None = None,
) -> LabelRecord:
    return LabelRecord(
        patient_id=pid,
        variable=var,
        value=value,
        event_date=day,
        source=source,
        refresh_id=refresh_id,
    )


def label_set(schema: Schema, source: Source, records) -> LabelSet:
    return LabelSet(schema, source, records)


def adjudicate_simulated(ws, doc: dict, mode: str) -> None:
    """Switch a ``simulate`` workspace's run config ``doc`` to ``mode`` and
    write an adjudicator file that copies abstractor 2 (the simulated
    truth) onto every open case of that mode."""
    schema = load_schema(ws / doc["schema"])

    def read(source: Source) -> LabelSet:
        return read_labels(ws / doc["labels"][source.value], schema, source)

    a2 = read(Source.ABSTRACTOR_2)
    compared = [read(Source.LLM), read(Source.ABSTRACTOR_1)]
    if mode == "triple_adjudication":
        compared.append(a2)
    tolerance = doc["tolerances"]["date_tolerance_days"]
    cases = find_disagreements(*compared, tolerance_days=tolerance)
    write_labels(adjudicate_from_oracle(cases, a2), ws / "labels_adjudicator.csv")
    doc["reference_mode"] = mode
    doc["labels"]["adjudicator"] = "labels_adjudicator.csv"


# Acceptance tests register one PASS/FAIL line each; the summary hook
# repeats them at the end of the run so they are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def acceptance_line(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
