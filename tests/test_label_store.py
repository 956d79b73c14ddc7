"""The row-backed ``LabelSet`` against the record-backed oracle it replaced.

A label set keeps (value, event_date, refresh_id) rows and builds records
only when they are read; ``oracles.RecordLabelSet`` keeps the records
themselves. Every public answer, copy and written byte must agree.
"""

from dataclasses import replace
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwdval import (
    IngestError,
    LabelSet,
    SchemaError,
    Source,
    build_double_adjudication,
    build_duplicate_abstraction,
    build_triple_adjudication,
    find_disagreements,
    read_labels,
    write_labels,
)

from conftest import make_schema, rec
from oracles import RecordLabelSet, write_records

_PATIENTS = ("p1", "p2", "p3", "p4")
_VARIABLES = ("stage", "surgery", "er_result", "tumor_size_mm")
_DAYS = st.integers(0, 40).map(lambda n: date(2020, 1, 1) + timedelta(days=n))
_ROWS = st.one_of(
    st.tuples(st.just("stage"), st.sampled_from(["I", "II", "unknown"]), st.none()),
    st.tuples(st.just("surgery"), st.sampled_from(["yes", "no"]), st.one_of(st.none(), _DAYS)),
    st.tuples(st.just("er_result"), st.sampled_from(["positive", "negative"]), _DAYS),
    st.tuples(st.just("er_result"), st.just("unknown"), st.one_of(st.none(), _DAYS)),
    st.tuples(st.just("tumor_size_mm"), st.sampled_from([0.5, 12.0, 12.25, 1e-7]), st.none()),
)
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "add", "remove"]),
        st.sampled_from(_PATIENTS[:3]),
        _ROWS,
        st.sampled_from([None, None, "1", "2"]),
    ),
    max_size=30,
)


def _apply(ops, source=Source.LLM):
    """The ops applied to a label set and to the record-backed oracle."""
    schema = make_schema()
    labels, oracle = LabelSet(schema, source), RecordLabelSet(schema, source)
    for op, pid, (var, value, day), refresh_id in ops:
        if op == "remove":
            labels.remove(pid, var)
            oracle.remove(pid, var)
            continue
        record = rec(pid, var, value, day, source=source, refresh_id=refresh_id)
        try:
            oracle.add(record)
        except SchemaError as exc:
            with pytest.raises(SchemaError) as caught:
                labels.add(record)
            assert str(caught.value) == str(exc)
            continue
        labels.add(record)
    return labels, oracle


def _assert_answers_agree(labels, oracle):
    for pid in _PATIENTS:
        for var in _VARIABLES:
            assert labels.get(pid, var) == oracle.get(pid, var)
            assert labels.get_single(pid, var) == oracle.get_single(pid, var)
    assert labels.records() == oracle.records()
    assert labels.keys() == oracle.keys()
    assert labels.patients == oracle.patients
    assert labels.variables == oracle.variables
    assert len(labels) == len(oracle)
    assert labels.source == oracle.source
    assert labels.refresh_id == oracle.refresh_id


@settings(max_examples=300, deadline=None)
@given(_OPS, _OPS, st.sampled_from([None, "r9"]))
def test_row_store_answers_as_the_record_oracle(tmp_path_factory, ops, other_ops, refresh_id):
    labels, oracle = _apply(ops)
    _assert_answers_agree(labels, oracle)
    other, other_oracle = _apply(other_ops)
    assert (labels == other) == (oracle == other_oracle)

    copy = labels.relabel(Source.REFERENCE, refresh_id)
    oracle_copy = oracle.relabel(Source.REFERENCE, refresh_id)
    _assert_answers_agree(copy, oracle_copy)
    _assert_answers_agree(labels, oracle)  # the copy left its source as it was

    folder = tmp_path_factory.mktemp("store")
    write_labels(copy, folder / "rows.csv")
    write_records(oracle_copy.records(), folder / "records.csv")
    assert (folder / "rows.csv").read_bytes() == (folder / "records.csv").read_bytes()
    back = read_labels(folder / "rows.csv", labels.schema, Source.REFERENCE)
    assert back == copy
    assert back.records() == oracle_copy.records()


@settings(max_examples=100, deadline=None)
@given(_OPS)
def test_relabel_shares_rows_and_copies_patients(ops):
    labels, _ = _apply(ops)
    copy = labels.relabel(Source.REFERENCE)
    assert copy._by_patient is not labels._by_patient
    for pid, own in labels._by_patient.items():
        assert copy._by_patient[pid] is not own
        for var, rows in own.items():
            assert copy._by_patient[pid][var] is rows
    stamped = labels.relabel(Source.REFERENCE, refresh_id="7")
    assert all(r.refresh_id == "7" for r in stamped.records())
    assert stamped.refresh_id == "7"


def test_equal_rows_of_one_file_are_one_object(tmp_path, schema):
    path = tmp_path / "labels.csv"
    path.write_text(
        "patient_id,variable,value,event_date,source,refresh_id\n"
        "p1,stage,II,,,\n"
        "p2,stage, II ,,llm,\n"
        "p1,er_result,positive,2020-01-05,,\n"
        "p2,er_result,negative,2020-03-01,,\n"
        "p2,er_result,positive,2020-01-05,,\n"
        "p3,stage,II,,,r1\n"
    )
    labels = read_labels(path, schema, Source.LLM)
    store = labels._by_patient
    assert store["p1"]["stage"] is store["p2"]["stage"]
    assert store["p3"]["stage"] is not store["p1"]["stage"]  # another refresh id
    assert store["p2"]["er_result"][0] is store["p1"]["er_result"][0]
    # each read has its own table, so two reads share nothing
    other = read_labels(path, schema, Source.LLM)
    assert other._by_patient["p1"]["stage"] is not store["p1"]["stage"]
    assert other == labels

    kept = other.records()
    labels.add(rec("p1", "er_result", "negative", date(2021, 1, 1)))
    labels.remove("p2", "stage")
    assert [r.value for r in labels.get("p2", "er_result")] == ["positive", "negative"]
    assert labels.get_single("p1", "stage").value == "II"
    assert other.records() == kept
    other.remove("p1", "stage")
    other.add(rec("p2", "er_result", "unknown"))
    assert labels.get_single("p1", "stage").value == "II"
    assert [r.value for r in labels.get("p2", "er_result")] == ["positive", "negative"]


def test_an_empty_patient_id_never_takes_a_shared_row(tmp_path, schema):
    path = tmp_path / "labels.csv"
    path.write_text(
        "patient_id,variable,value,event_date,source,refresh_id\n"
        "p1,stage,II,,,\n"
        ",stage,II,,,\n"
    )
    with pytest.raises(IngestError) as exc:
        read_labels(path, schema, Source.LLM)
    assert exc.value.problems == ["row 3: stage: empty patient_id"]


def _sources(schema):
    stage = lambda pid, value, source: rec(pid, "stage", value, source=source)
    surgery = lambda pid, value, day, source: rec(pid, "surgery", value, day, source=source)
    llm = LabelSet(schema, Source.LLM, [stage("p1", "I", Source.LLM), stage("p2", "II", Source.LLM)])
    a1 = LabelSet(
        schema,
        Source.ABSTRACTOR_1,
        [
            stage("p1", "II", Source.ABSTRACTOR_1),
            stage("p2", "II", Source.ABSTRACTOR_1),
            surgery("p2", "yes", date(2020, 1, 1), Source.ABSTRACTOR_1),
        ],
    )
    a2 = LabelSet(
        schema,
        Source.ABSTRACTOR_2,
        [
            stage("p1", "II", Source.ABSTRACTOR_2),
            stage("p2", "II", Source.ABSTRACTOR_2),
            surgery("p2", "yes", date(2020, 1, 3), Source.ABSTRACTOR_2),
        ],
    )
    return llm, a1, a2


def _mutate(labels):
    """Remove one key, add a record to a kept patient and add a new patient."""
    (pid, var), *_ = sorted(labels.keys())
    labels.remove(pid, var)
    labels.add(rec("p2", "er_result", "positive", date(2021, 5, 1), source=labels.source))
    labels.add(rec("p9", "stage", "III", source=labels.source))


def test_mutating_a_copy_or_a_reference_leaves_its_sources_unchanged(schema):
    llm, a1, a2 = _sources(schema)
    before = {labels.source: labels.records() for labels in (llm, a1, a2)}

    copy = a2.relabel(Source.REFERENCE)
    _mutate(copy)
    stamped = a1.relabel(Source.ABSTRACTOR_1, refresh_id="2")
    _mutate(stamped)

    duplicate = build_duplicate_abstraction(llm, a1, a2)
    _mutate(duplicate.labels)

    cases = find_disagreements(llm, a1, a2)
    adjudications = LabelSet(
        schema,
        Source.ADJUDICATOR,
        {replace(r, source=Source.ADJUDICATOR) for c in cases for r in c.abstractor_1},
    )
    adjudicated_before = adjudications.records()
    adjudicated = build_triple_adjudication(llm, a1, a2, adjudications)
    _mutate(adjudicated.labels)
    assert adjudications.records() == adjudicated_before
    double_cases = find_disagreements(llm, a1)
    double = build_double_adjudication(
        llm,
        a1,
        LabelSet(
            schema,
            Source.ADJUDICATOR,
            {replace(r, source=Source.ADJUDICATOR) for c in double_cases for r in c.abstractor_1},
        ),
    )
    _mutate(double.labels)

    assert {labels.source: labels.records() for labels in (llm, a1, a2)} == before

    # and the other way: mutating a source leaves its copies unchanged
    copy = a2.relabel(Source.REFERENCE)
    kept = copy.records()
    _mutate(a2)
    assert copy.records() == kept
