"""Schema validation, label set semantics, and CSV/YAML round trips."""

from datetime import date, datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwdval import (
    CohortDataset,
    IngestError,
    LabelRecord,
    LabelSet,
    Schema,
    SchemaError,
    Source,
    VariableKind,
    VariableSpec,
    load_schema,
    patient_view,
    read_attributes,
    read_labels,
    save_schema,
    survival_records,
    write_attributes,
    write_labels,
)
from rwdval.labelio import parse_iso_date
from rwdval.schema import effective_tolerance, shift_date

from conftest import make_schema, rec


# --- variable specs and schema ---


def test_categorical_requires_allowed_values():
    with pytest.raises(SchemaError):
        VariableSpec("stage", VariableKind.CATEGORICAL)


def test_numeric_rejects_allowed_values():
    with pytest.raises(SchemaError):
        VariableSpec("size", VariableKind.NUMERIC, allowed_values=frozenset({"a"}))


def test_unknown_token_must_be_allowed():
    with pytest.raises(SchemaError):
        VariableSpec(
            "stage",
            VariableKind.CATEGORICAL,
            allowed_values=frozenset({"I", "II"}),
            unknown_token="unknown",
        )


def test_negative_tolerance_rejected():
    with pytest.raises(SchemaError):
        VariableSpec(
            "surgery",
            VariableKind.DATE,
            allowed_values=frozenset({"yes", "unknown"}),
            unknown_token="unknown",
            date_tolerance_days=-1,
        )


def test_known_values_excludes_unknown_token(schema):
    assert schema["stage"].known_values == frozenset({"I", "II", "III"})
    assert schema["tumor_size_mm"].known_values is None


def test_schema_duplicate_name_rejected():
    spec = VariableSpec(
        "stage", VariableKind.CATEGORICAL, allowed_values=frozenset({"I", "unknown"})
    )
    with pytest.raises(SchemaError):
        Schema([spec, spec])


def test_schema_membership_and_lookup(schema):
    assert "stage" in schema
    assert "nope" not in schema
    assert len(schema) == 4
    with pytest.raises(SchemaError):
        schema["nope"]


def test_has_dates():
    assert VariableKind.DATE.has_dates
    assert VariableKind.EVENT_LIST.has_dates
    assert not VariableKind.CATEGORICAL.has_dates
    assert not VariableKind.NUMERIC.has_dates


# --- record validation ---


def test_date_forbidden_on_categorical(schema):
    with pytest.raises(SchemaError):
        LabelSet(schema, Source.LLM, [rec("p1", "stage", "I", date(2020, 1, 1))])


def test_event_list_needs_date_unless_unknown(schema):
    with pytest.raises(SchemaError):
        LabelSet(schema, Source.LLM, [rec("p1", "er_result", "positive")])
    # the documented-unknown token may go undated
    LabelSet(schema, Source.LLM, [rec("p1", "er_result", "unknown")])


def test_value_outside_allowed_set(schema):
    with pytest.raises(SchemaError):
        LabelSet(schema, Source.LLM, [rec("p1", "stage", "IV")])


def test_numeric_value_type(schema):
    with pytest.raises(SchemaError):
        LabelSet(schema, Source.LLM, [rec("p1", "tumor_size_mm", "twelve")])
    with pytest.raises(SchemaError):
        LabelSet(schema, Source.LLM, [rec("p1", "tumor_size_mm", True)])
    LabelSet(schema, Source.LLM, [rec("p1", "tumor_size_mm", 12.5)])


def test_empty_patient_id_rejected(schema):
    with pytest.raises(SchemaError):
        LabelSet(schema, Source.LLM, [rec("", "stage", "I")])


# --- label set semantics ---


def test_single_valued_duplicate_rejected(schema):
    labels = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    with pytest.raises(SchemaError):
        labels.add(rec("p1", "stage", "II"))


def test_event_list_admits_repeats(schema):
    labels = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "er_result", "positive", date(2020, 3, 1)),
            rec("p1", "er_result", "negative", date(2019, 1, 1)),
        ],
    )
    got = labels.get("p1", "er_result")
    assert [r.event_date for r in got] == [date(2019, 1, 1), date(2020, 3, 1)]


def test_source_mismatch_rejected(schema):
    labels = LabelSet(schema, Source.LLM)
    with pytest.raises(SchemaError):
        labels.add(rec("p1", "stage", "I", source=Source.ABSTRACTOR_1))


def test_get_single_and_remove(schema):
    labels = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    assert labels.get_single("p1", "stage").value == "I"
    assert labels.get_single("p1", "surgery") is None
    labels.remove("p1", "stage")
    assert labels.get_single("p1", "stage") is None
    labels.remove("p1", "stage")  # absent key is a no-op


def test_keys_patients_variables(schema):
    labels = LabelSet(
        schema,
        Source.LLM,
        [rec("p2", "stage", "I"), rec("p1", "surgery", "yes", date(2020, 1, 5))],
    )
    assert labels.keys() == {("p2", "stage"), ("p1", "surgery")}
    assert labels.patients == {"p1", "p2"}
    assert labels.variables == {"stage", "surgery"}
    assert len(labels) == 2


def test_relabel_changes_source_and_refresh(schema):
    labels = LabelSet(schema, Source.REFERENCE, [rec("p1", "stage", "I", source=Source.REFERENCE)])
    out = labels.relabel(Source.LLM, refresh_id="r2")
    assert out.source == Source.LLM
    assert out.refresh_id == "r2"
    assert out.get_single("p1", "stage").source == Source.LLM
    # original is untouched
    assert labels.get_single("p1", "stage").source == Source.REFERENCE


def test_equality_ignores_insertion_order(schema):
    a = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "er_result", "positive", date(2020, 3, 1)),
            rec("p1", "er_result", "negative", date(2019, 1, 1)),
        ],
    )
    b = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "er_result", "negative", date(2019, 1, 1)),
            rec("p1", "er_result", "positive", date(2020, 3, 1)),
        ],
    )
    assert a == b
    c = LabelSet(schema, Source.ABSTRACTOR_1, [rec("p1", "stage", "I", source=Source.ABSTRACTOR_1)])
    assert a != c


def test_patient_view_shapes(schema):
    labels = LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "stage", "II"),
            rec("p1", "surgery", "yes", date(2020, 2, 1)),
            rec("p1", "er_result", "positive", date(2020, 1, 10)),
            rec("p1", "er_result", "negative", date(2021, 1, 10)),
            rec("p1", "tumor_size_mm", 22.0),
        ],
    )
    view = patient_view(labels, patient_id="p1")
    assert view["stage"] == "II"
    assert view["surgery"] == ("yes", date(2020, 2, 1))
    assert view["er_result"] == (
        ("positive", date(2020, 1, 10)),
        ("negative", date(2021, 1, 10)),
    )
    assert view["tumor_size_mm"] == 22.0
    assert "death" not in view


def test_effective_tolerance_and_shift():
    spec = VariableSpec(
        "surgery",
        VariableKind.DATE,
        allowed_values=frozenset({"yes", "unknown"}),
        unknown_token="unknown",
        date_tolerance_days=7,
    )
    assert effective_tolerance(spec, 30) == 7
    plain = VariableSpec(
        "radiation",
        VariableKind.DATE,
        allowed_values=frozenset({"yes", "unknown"}),
        unknown_token="unknown",
    )
    assert effective_tolerance(plain, 30) == 30
    assert shift_date(date(2020, 1, 31), 1) == date(2020, 2, 1)
    assert shift_date(date(2020, 3, 1), -1) == date(2020, 2, 29)


# --- cohort dataset ---


def test_cohort_attribute_fallback_and_strata(schema):
    ds = CohortDataset(
        schema=schema,
        patients={"p1": {"race": "groupA"}, "p2": {"race": "groupB"}, "p3": {}},
        label_sets={},
    )
    assert ds.attribute("p1", "race") == "groupA"
    assert ds.attribute("p3", "race") == "missing"
    strata = ds.strata("race")
    assert strata == {"groupA": ["p1"], "groupB": ["p2"], "missing": ["p3"]}


# --- label file IO ---


def sample_labels(schema):
    return LabelSet(
        schema,
        Source.LLM,
        [
            rec("p1", "stage", "I"),
            rec("p1", "surgery", "yes", date(2020, 2, 1)),
            rec("p1", "er_result", "positive", date(2020, 1, 10)),
            rec("p1", "er_result", "unknown"),
            rec("p2", "tumor_size_mm", 14.5),
            rec("p2", "surgery", "unknown"),
        ],
    )


def test_write_read_round_trip(tmp_path, schema):
    labels = sample_labels(schema)
    path = tmp_path / "labels.csv"
    write_labels(labels, path)
    back = read_labels(path, schema, Source.LLM)
    assert back == labels


def test_row_order_never_changes_what_a_label_set_answers(tmp_path, schema):
    # Each patient's er_result list has two values on one date, a later
    # date and an undated unknown, so its first row as written and as
    # reversed differ; surgery gives every patient a follow-up anchor.
    records = []
    for i, first in enumerate([date(2019, 3, 1), date(2019, 6, 15), date(2020, 1, 2)]):
        pid = f"p{i}"
        records += [
            rec(pid, "er_result", "positive", first),
            rec(pid, "er_result", "negative", first),
            rec(pid, "er_result", "negative", first + timedelta(days=200)),
            rec(pid, "er_result", "unknown"),
            rec(pid, "surgery", "yes" if i % 2 else "no", date(2022, 5, 1)),
        ]
    path = tmp_path / "labels.csv"
    write_labels(LabelSet(schema, Source.LLM, records), path)
    header, *rows = path.read_text().splitlines(keepends=True)
    reversed_path = tmp_path / "labels_reversed.csv"
    reversed_path.write_text(header + "".join(reversed(rows)))

    as_written = read_labels(path, schema, Source.LLM)
    reversed_rows = read_labels(reversed_path, schema, Source.LLM)
    assert as_written == reversed_rows
    for pid, var in as_written.keys():
        assert as_written.get(pid, var) == reversed_rows.get(pid, var)
        assert as_written.get_single(pid, var) == reversed_rows.get_single(pid, var)
    for pid in as_written.patients:
        assert patient_view(as_written, pid) == patient_view(reversed_rows, pid)

    def cohort(labels):
        return survival_records(
            labels,
            index_variable="er_result",
            event_variable="surgery",
            censor_variable="surgery",
        )

    assert cohort(as_written) == cohort(reversed_rows)
    assert cohort(as_written).n_included == 3


def test_read_inherits_blank_source_cell(tmp_path, schema):
    path = tmp_path / "labels.csv"
    path.write_text(
        "patient_id,variable,value,event_date,source,refresh_id\n"
        "p1,stage,I,,,\n"
    )
    labels = read_labels(path, schema, Source.ABSTRACTOR_1)
    got = labels.get_single("p1", "stage")
    assert got.source == Source.ABSTRACTOR_1


def test_read_skips_blank_rows(tmp_path, schema):
    path = tmp_path / "labels.csv"
    path.write_text(
        "patient_id,variable,value,event_date,source,refresh_id\n"
        "\n"
        "p1,stage,I,,llm,\n"
        " , , , , , \n"
    )
    labels = read_labels(path, schema, Source.LLM)
    assert len(labels) == 1


def test_read_rejects_wrong_header(tmp_path, schema):
    path = tmp_path / "labels.csv"
    path.write_text("patient,var,value\np1,stage,I\n")
    with pytest.raises(IngestError) as err:
        read_labels(path, schema, Source.LLM)
    assert "header" in str(err.value)


def test_read_aggregates_all_problems_with_row_numbers(tmp_path, schema):
    path = tmp_path / "labels.csv"
    path.write_text(
        "patient_id,variable,value,event_date,source,refresh_id\n"
        "p1,stage,I,,llm,\n"
        "p1,stage,II,,llm,\n"  # duplicate single-valued
        "p2,bogus,I,,llm,\n"  # unknown variable
        "p3,surgery,yes,2020-13-01,llm,\n"  # bad date
        "p4,stage,I,,abstractor_1,\n"  # wrong source
        "p5,tumor_size_mm,large,,llm,\n"  # non-numeric
        "p6,stage\n"  # wrong cell count
    )
    with pytest.raises(IngestError) as err:
        read_labels(path, schema, Source.LLM)
    problems = err.value.problems
    assert len(problems) == 6
    for row_no in (3, 4, 5, 6, 7, 8):
        assert any(f"row {row_no}:" in p for p in problems)


def test_read_infers_single_refresh_id(tmp_path, schema):
    path = tmp_path / "labels.csv"
    path.write_text(
        "patient_id,variable,value,event_date,source,refresh_id\n"
        "p1,stage,I,,llm,r1\n"
        "p2,stage,II,,llm,r1\n"
    )
    labels = read_labels(path, schema, Source.LLM)
    assert labels.refresh_id == "r1"


def test_read_mixed_refresh_ids_not_inferred(tmp_path, schema):
    path = tmp_path / "labels.csv"
    path.write_text(
        "patient_id,variable,value,event_date,source,refresh_id\n"
        "p1,stage,I,,llm,r1\n"
        "p2,stage,II,,llm,r2\n"
    )
    labels = read_labels(path, schema, Source.LLM)
    assert labels.refresh_id is None


def test_attributes_round_trip(tmp_path):
    attrs = {"p1": {"race": "groupA", "site": "s1"}, "p2": {"race": "groupB", "site": "s2"}}
    path = tmp_path / "attrs.csv"
    write_attributes(attrs, path)
    back = read_attributes(path, ["race", "site"])
    assert back == attrs


def test_attributes_undeclared_column_rejected(tmp_path):
    path = tmp_path / "attrs.csv"
    path.write_text("patient_id,race\np1,groupA\n")
    with pytest.raises(IngestError):
        read_attributes(path, ["site"])


def test_attributes_duplicate_patient_rejected(tmp_path):
    path = tmp_path / "attrs.csv"
    path.write_text("patient_id,race\np1,groupA\np1,groupB\n")
    with pytest.raises(IngestError):
        read_attributes(path, ["race"])


def test_schema_yaml_round_trip(tmp_path, schema):
    path = tmp_path / "schema.yaml"
    save_schema(schema, path)
    back = load_schema(path)
    assert list(back) == list(schema)
    for name in schema:
        assert back[name] == schema[name]


def test_schema_entry_without_name_names_its_index(tmp_path):
    path = tmp_path / "schema.yaml"
    path.write_text(
        "variables:\n"
        "  - {name: tumor_size_mm, kind: numeric}\n"
        "  - {kind: numeric}\n"
    )
    with pytest.raises(SchemaError, match=r"variables\[1\] has no 'name'"):
        load_schema(path)


# --- property: any valid label set survives a write/read cycle ---

_values = {
    "stage": ["I", "II", "III", "unknown"],
    "surgery": ["yes", "no", "unknown"],
    "er_result": ["positive", "negative", "unknown"],
}


@st.composite
def random_label_sets(draw):
    schema = make_schema()
    source = draw(st.sampled_from(list(Source)))
    records = []
    n_patients = draw(st.integers(0, 6))
    for i in range(n_patients):
        pid = f"p{i:03d}"
        for var in ("stage", "surgery"):
            if draw(st.booleans()):
                value = draw(st.sampled_from(_values[var]))
                day = None
                if var == "surgery" and value != "unknown" and draw(st.booleans()):
                    day = date(2018, 1, 1) + (date(2018, 1, 2) - date(2018, 1, 1)) * draw(
                        st.integers(0, 1500)
                    )
                records.append(rec(pid, var, value, day, source=source))
        for _ in range(draw(st.integers(0, 3))):
            value = draw(st.sampled_from(_values["er_result"]))
            day = (
                None
                if value == "unknown"
                else date(2018, 1, 1) + (date(2018, 1, 2) - date(2018, 1, 1)) * draw(st.integers(0, 1500))
            )
            records.append(rec(pid, "er_result", value, day, source=source))
        if draw(st.booleans()):
            records.append(
                rec(pid, "tumor_size_mm", float(draw(st.integers(0, 400))) / 4, source=source)
            )
    return LabelSet(schema, source, records)


@settings(max_examples=60, deadline=None)
@given(random_label_sets())
def test_round_trip_property(tmp_path_factory, labels):
    path = tmp_path_factory.mktemp("rt") / "labels.csv"
    write_labels(labels, path)
    assert read_labels(path, labels.schema, labels.source) == labels


# --- ISO dates against the strptime oracle ---


def _parsed(parse, text):
    """A parser's answer for ``text``: the date, or None when it rejects it."""
    try:
        return parse(text)
    except ValueError:
        return None


def _strptime(text):
    return datetime.strptime(text, "%Y-%m-%d").date()


def _agrees_with_strptime(text):
    return _parsed(parse_iso_date, text) == _parsed(_strptime, text)


_date_like = st.builds(
    lambda y, m, d: f"{y}-{m}-{d}",
    st.text("0123456789", min_size=0, max_size=5),
    st.text("0123456789", min_size=0, max_size=3),
    st.text("0123456789", min_size=0, max_size=3),
)


@settings(max_examples=2000, deadline=None)
@given(st.one_of(st.text("0123456789-", max_size=12), _date_like))
def test_parse_iso_date_equals_strptime(text):
    assert _agrees_with_strptime(text)


@pytest.mark.parametrize(
    "text, want",
    [
        ("2020-1-5", date(2020, 1, 5)),  # strptime takes one-digit months and days
        ("2020-01-05", date(2020, 1, 5)),
        ("20200101", None),  # date.fromisoformat would take it
        ("2020-02-30", None),
        ("0000-01-01", None),
    ],
)
def test_parse_iso_date_named_cases(text, want):
    assert _parsed(parse_iso_date, text) == want
    assert _agrees_with_strptime(text)


@pytest.mark.parametrize(
    "text",
    [
        "2020-01- 5",
        "\u0662\u0660\u0662\u0660-\u0660\u0661-\u0660\u0661",  # Arabic-Indic digits
        "\uff12\uff10\uff12\uff10-\uff10\uff11-\uff10\uff11",  # full-width digits
        "2020-01-01\n",
        " 2020-01-01",
    ],
)
def test_parse_iso_date_off_the_fast_path_behaves_as_strptime(text):
    assert _agrees_with_strptime(text)
