"""Reference standard assembly: agreement, disagreement, adjudication."""

import csv
import random
import tempfile
from dataclasses import FrozenInstanceError, replace
from datetime import date, timedelta
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwdval import (
    AdjudicationError,
    DisagreementCase,
    LabelRecord,
    LabelSet,
    ReferenceMode,
    Schema,
    SchemaError,
    Source,
    VariableKind,
    VariableSpec,
    adjudicate_from_oracle,
    build_double_adjudication,
    build_duplicate_abstraction,
    build_triple_adjudication,
    find_disagreements,
    match_events,
    variable_metrics,
    write_disagreements,
)
from rwdval import refstd
from rwdval.refstd import Pair, Provenance, _agreement
from rwdval.schema import _row, effective_tolerance

from conftest import make_schema, rec
from oracles import assertions_agree


def _assertions_agree_dp(schema, variable, recs_a, recs_b, tolerance_days):
    """``assertions_agree`` with event lists matched by the exact DP matcher."""
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


def _as_reference(schema, entries):
    """The reference set holding each ((pid, var), records) entry, re-attributed:
    a store of the entries' rows, which ``get`` gave in canonical order."""
    by_patient = {}
    for (pid, var), recs in entries:
        if recs:
            by_patient.setdefault(pid, {})[var] = tuple(map(_row, recs))
    return LabelSet._from_store(schema, Source.REFERENCE, by_patient)


def two_sets(schema, llm_records, a1_records):
    llm = LabelSet(schema, Source.LLM, [r for r in llm_records])
    a1 = LabelSet(
        schema,
        Source.ABSTRACTOR_1,
        [LabelRecord(r.patient_id, r.variable, r.value, r.event_date, Source.ABSTRACTOR_1) for r in a1_records],
    )
    return llm, a1


# --- assertions_agree ---


def test_agree_missing_vs_missing(schema):
    assert assertions_agree(schema, "stage", (), (), 30)


def test_missing_vs_unknown_disagrees(schema):
    a = (rec("p1", "stage", "unknown"),)
    assert not assertions_agree(schema, "stage", a, (), 30)
    assert not assertions_agree(schema, "stage", (), a, 30)


def test_unknown_vs_unknown_agrees(schema):
    a = (rec("p1", "stage", "unknown"),)
    b = (rec("p1", "stage", "unknown", source=Source.ABSTRACTOR_1),)
    assert assertions_agree(schema, "stage", a, b, 30)


def test_date_within_tolerance_agrees(schema):
    a = (rec("p1", "surgery", "yes", date(2020, 1, 1)),)
    b = (rec("p1", "surgery", "yes", date(2020, 1, 31), source=Source.ABSTRACTOR_1),)
    assert assertions_agree(schema, "surgery", a, b, 30)
    c = (rec("p1", "surgery", "yes", date(2020, 2, 1), source=Source.ABSTRACTOR_1),)
    assert not assertions_agree(schema, "surgery", a, c, 30)


def test_date_on_one_side_only_disagrees(schema):
    a = (rec("p1", "surgery", "yes", date(2020, 1, 1)),)
    b = (rec("p1", "surgery", "yes", source=Source.ABSTRACTOR_1),)
    assert not assertions_agree(schema, "surgery", a, b, 30)


def test_value_mismatch_disagrees(schema):
    a = (rec("p1", "stage", "I"),)
    b = (rec("p1", "stage", "II", source=Source.ABSTRACTOR_1),)
    assert not assertions_agree(schema, "stage", a, b, 30)


def test_event_list_matching_respects_tokens(schema):
    a = (
        rec("p1", "er_result", "positive", date(2020, 1, 1)),
        rec("p1", "er_result", "negative", date(2021, 1, 1)),
    )
    b = (
        rec("p1", "er_result", "positive", date(2020, 1, 20), source=Source.ABSTRACTOR_1),
        rec("p1", "er_result", "negative", date(2021, 1, 10), source=Source.ABSTRACTOR_1),
    )
    assert assertions_agree(schema, "er_result", a, b, 30)
    # same dates but one token flipped: the positive on side a has no partner
    c = (
        rec("p1", "er_result", "negative", date(2020, 1, 20), source=Source.ABSTRACTOR_1),
        rec("p1", "er_result", "negative", date(2021, 1, 10), source=Source.ABSTRACTOR_1),
    )
    assert not assertions_agree(schema, "er_result", a, c, 30)


def test_event_list_extra_event_disagrees(schema):
    a = (
        rec("p1", "er_result", "positive", date(2020, 1, 1)),
        rec("p1", "er_result", "positive", date(2022, 1, 1)),
    )
    b = (rec("p1", "er_result", "positive", date(2020, 1, 1), source=Source.ABSTRACTOR_1),)
    assert not assertions_agree(schema, "er_result", a, b, 30)


def test_event_list_undated_counts_must_match(schema):
    a = (rec("p1", "er_result", "unknown"),)
    b = (
        rec("p1", "er_result", "unknown", source=Source.ABSTRACTOR_1),
        rec("p1", "er_result", "unknown", source=Source.ABSTRACTOR_1),
    )
    assert not assertions_agree(schema, "er_result", a, b, 30)


# Per-variable overrides: a date and an event list whose own tolerance
# replaces the one the caller passes.
_AGREE_SCHEMA = Schema(
    [
        *make_schema().values(),
        VariableSpec(
            "surgery_7d",
            VariableKind.DATE,
            allowed_values=frozenset({"yes", "no", "unknown"}),
            unknown_token="unknown",
            date_tolerance_days=7,
        ),
        VariableSpec(
            "er_result_5d",
            VariableKind.EVENT_LIST,
            allowed_values=frozenset({"positive", "negative", "unknown"}),
            unknown_token="unknown",
            date_tolerance_days=5,
        ),
    ]
)


@st.composite
def _bucket_pairs(draw):
    """One variable, a caller tolerance, and two canonical buckets whose
    dates sit on the tolerance edge, one day past it, or far from it; the
    second bucket is drawn on its own or shifted from the first."""
    variable = draw(st.sampled_from(sorted(_AGREE_SCHEMA)))
    tolerance = draw(st.sampled_from([0, 1, 30]))
    spec = _AGREE_SCHEMA[variable]
    tol = effective_tolerance(spec, tolerance)
    base = date(2020, 1, 1)
    day = st.sampled_from([0, 1, tol, tol + 1, 2 * tol + 1, 90]).map(lambda d: base + timedelta(days=d))
    values = [10.0, 12.5] if spec.kind == VariableKind.NUMERIC else sorted(spec.allowed_values)

    def drawn(source):
        if spec.kind != VariableKind.EVENT_LIST:
            if not draw(st.booleans()):
                return []
            when = draw(st.none() | day) if spec.kind.has_dates else None
            return [LabelRecord("p1", variable, draw(st.sampled_from(values)), when, source)]
        out = []
        for token in values:
            for _ in range(draw(st.integers(0, 5))):
                when = draw(st.none() | day) if token == spec.unknown_token else draw(day)
                out.append(LabelRecord("p1", variable, token, when, source))
        return out

    records_a = drawn(Source.LLM)
    if draw(st.booleans()):
        records_b = drawn(Source.ABSTRACTOR_1)
    else:
        # shifts within tolerance keep some pairing (maybe a crossed one) in
        # range; a shift one day past it may or may not break agreement
        shift = st.sampled_from([-tol, 0, tol] + ([-tol - 1, tol + 1] if draw(st.booleans()) else []))
        records_b = [
            LabelRecord(
                "p1",
                variable,
                r.value,
                r.event_date and r.event_date + timedelta(days=draw(shift)),
                Source.ABSTRACTOR_1,
            )
            for r in records_a
        ]
        if not draw(st.integers(0, 3)):
            records_b = records_b[: draw(st.integers(0, len(records_b)))]
        # a swapped token keeps the list's length but not its per-token counts
        flips = {"positive": "negative", "negative": "positive"}
        if spec.kind == VariableKind.EVENT_LIST and records_b and draw(st.booleans()):
            i = draw(st.integers(0, len(records_b) - 1))
            r = records_b[i]
            records_b[i] = replace(r, value=flips.get(r.value, r.value))

    def bucket(source, records):
        return LabelSet(_AGREE_SCHEMA, source, draw(st.permutations(records))).get("p1", variable)

    return variable, tolerance, bucket(Source.LLM, records_a), bucket(Source.ABSTRACTOR_1, records_b)


@settings(max_examples=1000, deadline=None)
@given(_bucket_pairs())
def test_sorted_pairing_agrees_with_the_exact_matcher(drawn):
    variable, tolerance, recs_a, recs_b = drawn
    want = _assertions_agree_dp(_AGREE_SCHEMA, variable, recs_a, recs_b, tolerance)
    agree = _agreement(_AGREE_SCHEMA[variable], tolerance)
    rows_a, rows_b = tuple(map(_row, recs_a)), tuple(map(_row, recs_b))
    assert agree(rows_a, rows_b) == want
    assert agree(rows_b, rows_a) == want
    assert assertions_agree(_AGREE_SCHEMA, variable, recs_a, recs_b, tolerance) == want


# --- find_disagreements ---


def test_find_disagreements_ordering(schema):
    llm, a1 = two_sets(
        schema,
        [rec("p2", "stage", "I"), rec("p1", "stage", "II"), rec("p1", "surgery", "yes", date(2020, 1, 1))],
        [rec("p2", "stage", "II"), rec("p1", "stage", "I"), rec("p1", "surgery", "no")],
    )
    cases = find_disagreements(llm, a1)
    assert [(c.patient_id, c.variable) for c in cases] == [
        ("p1", "stage"),
        ("p1", "surgery"),
        ("p2", "stage"),
    ]
    assert all(c.pair == Pair.LLM_VS_A1 for c in cases)


def test_find_disagreements_three_way_pairs(schema):
    llm = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    a1 = LabelSet(schema, Source.ABSTRACTOR_1, [rec("p1", "stage", "II", source=Source.ABSTRACTOR_1)])
    a2 = LabelSet(schema, Source.ABSTRACTOR_2, [rec("p1", "stage", "II", source=Source.ABSTRACTOR_2)])
    cases = find_disagreements(llm, a1, a2)
    # LLM differs from both abstractors; the abstractors agree
    assert [c.pair for c in cases] == [Pair.LLM_VS_A1, Pair.LLM_VS_A2]


def _find_disagreements_oracle(llm, abstractor_1, abstractor_2=None, *, tolerance_days=30):
    """One sweep per pair over that pair's keys, then a sort into
    (patient, variable, pair) order."""
    pairs = {Pair.LLM_VS_A1: (llm, abstractor_1)}
    if abstractor_2 is not None:
        pairs[Pair.LLM_VS_A2] = (llm, abstractor_2)
        pairs[Pair.A1_VS_A2] = (abstractor_1, abstractor_2)
    cases = []
    for pair, (set_a, set_b) in pairs.items():
        for pid, var in sorted(set_a.keys() | set_b.keys()):
            recs_a, recs_b = set_a.get(pid, var), set_b.get(pid, var)
            if _assertions_agree_dp(llm.schema, var, recs_a, recs_b, tolerance_days):
                continue
            sides = [llm.get(pid, var), abstractor_1.get(pid, var)]
            sides.append(abstractor_2.get(pid, var) if abstractor_2 is not None else ())
            cases.append(
                DisagreementCase(
                    patient_id=pid,
                    variable=var,
                    pair=pair,
                    rows=tuple(tuple(map(_row, recs)) for recs in sides),
                    sources=tuple(recs[0].source if recs else None for recs in sides),
                )
            )
    cases.sort(key=lambda c: (c.patient_id, c.variable, list(Pair).index(c.pair)))
    return cases


_SCHEMA = make_schema()
# 30 and 31 days apart straddle the default tolerance edge.
_DAYS = st.sampled_from([0, 1, 29, 30, 31, 61]).map(lambda d: date(2020, 1, 1) + timedelta(days=d))


@st.composite
def _drawn_records(draw, source):
    out = []
    for pid in ("p0", "p1", "p2"):
        if draw(st.booleans()):
            value = draw(st.sampled_from(["I", "II", "unknown"]))
            out.append(LabelRecord(pid, "stage", value, None, source))
        if draw(st.booleans()):
            value = draw(st.sampled_from(["yes", "no", "unknown"]))
            out.append(LabelRecord(pid, "surgery", value, draw(st.none() | _DAYS), source))
        for _ in range(draw(st.integers(0, 3))):
            value = draw(st.sampled_from(["positive", "negative", "unknown"]))
            day = draw(st.none() | _DAYS) if value == "unknown" else draw(_DAYS)
            out.append(LabelRecord(pid, "er_result", value, day, source))
        if draw(st.booleans()):
            out.append(LabelRecord(pid, "tumor_size_mm", draw(st.sampled_from([10.0, 12.5])), None, source))
    return out


@st.composite
def _compared_sets(draw):
    """LLM labels plus one or two abstractor sets; an abstractor either
    draws its own records or copies most of the LLM's, so keys agree,
    disagree and are held by one source only."""
    llm_records = draw(_drawn_records(Source.LLM))
    sets = [LabelSet(_SCHEMA, Source.LLM, llm_records)]
    for source in (Source.ABSTRACTOR_1, Source.ABSTRACTOR_2)[: draw(st.integers(1, 2))]:
        if draw(st.booleans()):
            records = draw(_drawn_records(source))
        else:
            records = [replace(r, source=source) for r in llm_records if draw(st.integers(0, 4))]
        sets.append(LabelSet(_SCHEMA, source, draw(st.permutations(records))))
    return sets, draw(st.sampled_from([0, 30]))


@settings(max_examples=400, deadline=None)
@given(_compared_sets())
def test_find_disagreements_equals_the_per_pair_oracle(drawn):
    sets, tolerance = drawn
    got = find_disagreements(*sets, tolerance_days=tolerance)
    want = _find_disagreements_oracle(*sets, tolerance_days=tolerance)

    # lazy cases against cases built from records: equal fields, equal worklist rows
    assert got == want
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "worklist.csv"
        write_disagreements(got, path)
        with open(path, newline="") as fh:
            assert list(csv.reader(fh))[1:] == _worklist_rows(want)


def test_a_case_keeps_no_source_for_an_empty_side(schema):
    llm, a1 = two_sets(schema, [rec("p1", "stage", "I")], [])
    (found,) = find_disagreements(llm, a1)
    assert found.sources == (Source.LLM, None, None)
    given = DisagreementCase(
        "p1",
        "stage",
        Pair.LLM_VS_A1,
        rows=((("I", None, None),), (), ()),
        sources=(Source.LLM, Source.ABSTRACTOR_1, Source.ABSTRACTOR_2),
    )
    assert given == found
    assert given.sources is found.sources  # cases share one tuple per sources pattern
    assert given.abstractor_1 == () and given.llm == llm.get("p1", "stage")


def _worklist_rows(cases):
    """The worklist rows of ``cases``, formatted from each side's records."""
    return [
        [
            r.patient_id,
            r.variable,
            r.value if isinstance(r.value, str) else repr(r.value),
            r.event_date.isoformat() if r.event_date else "",
            r.source.value,
            r.refresh_id or "",
            c.pair.value,
        ]
        for c in cases
        for recs in (c.llm, c.abstractor_1, c.abstractor_2)
        for r in recs
    ]


def test_cases_build_records_only_when_a_side_is_read(schema, tmp_path, monkeypatch):
    llm, a1 = two_sets(
        schema,
        [rec("p1", "stage", "I"), rec("p2", "er_result", "positive", date(2020, 1, 1))],
        [rec("p1", "stage", "II")],
    )
    built = []
    real = refstd._records
    monkeypatch.setattr(refstd, "_records", lambda *args: built.append(args) or real(*args))
    cases = find_disagreements(llm, a1)
    with pytest.raises(AdjudicationError) as exc:
        build_double_adjudication(llm, a1, LabelSet(schema, Source.ADJUDICATOR))
    write_disagreements(exc.value.worklist, tmp_path / "worklist.csv")
    adj = adjudicate_from_oracle(cases, llm.relabel(Source.REFERENCE))
    ref = build_double_adjudication(llm, a1, adj)
    write_disagreements(ref.cases, tmp_path / "disagreements.csv")
    assert built == []
    assert [r.value for r in ref.cases[0].abstractor_1] == ["II"]
    assert len(built) == 1


def _adjudicate_per_record(cases, oracle):
    """adjudicate_from_oracle's records, each added through ``LabelSet.add``."""
    records, seen = [], set()
    for case in cases:
        if case.key in seen:
            continue
        seen.add(case.key)
        recs = oracle.get(*case.key)
        records += [replace(r, source=Source.ADJUDICATOR) for r in recs]
        if not recs:
            unknown = oracle.schema[case.variable].unknown_token
            if unknown is None:
                raise SchemaError(f"{case.variable}: no unknown token")
            records.append(LabelRecord(case.patient_id, case.variable, unknown, None, Source.ADJUDICATOR))
    return LabelSet(oracle.schema, Source.ADJUDICATOR, records)


@settings(max_examples=200, deadline=None)
@given(_compared_sets(), st.sampled_from([None, "r2"]))
def test_bulk_copies_equal_the_validating_add(drawn, refresh_id):
    sets, tolerance = drawn
    for labels in sets:
        entries = [(key, labels.get(*key)) for key in sorted(labels.keys())]
        assert _as_reference(_SCHEMA, entries) == LabelSet(
            _SCHEMA, Source.REFERENCE, [replace(r, source=Source.REFERENCE) for r in labels.records()]
        )
        copy = labels.relabel(Source.ADJUDICATOR, refresh_id=refresh_id)
        stamped = [
            replace(r, source=Source.ADJUDICATOR, refresh_id=refresh_id or r.refresh_id)
            for r in labels.records()
        ]
        assert copy == LabelSet(_SCHEMA, Source.ADJUDICATOR, stamped)
        assert copy.refresh_id == refresh_id
    cases = find_disagreements(*sets, tolerance_days=tolerance)
    oracle = sets[-1]
    try:
        want = _adjudicate_per_record(cases, oracle)
    except SchemaError:
        with pytest.raises(SchemaError):
            adjudicate_from_oracle(cases, oracle)
        return
    assert adjudicate_from_oracle(cases, oracle) == want


def _assemble_oracle(llm, abstractor_1, abstractor_2, adjudications, tolerance):
    """The adjudicated assembly as a sorted key union, one ``get`` per key
    and source, and a regroup through ``_as_reference``."""
    cases = _find_disagreements_oracle(llm, abstractor_1, abstractor_2, tolerance_days=tolerance)
    case_keys = {c.key for c in cases}
    keys = llm.keys() | abstractor_1.keys()
    if abstractor_2 is not None:
        keys |= abstractor_2.keys()
    entries, provenance = [], {}
    for key in sorted(keys):
        if key in case_keys:
            entries.append((key, adjudications.get(*key)))
            provenance[key] = Provenance.ADJUDICATED
        else:
            entries.append((key, abstractor_1.get(*key)))
            provenance[key] = Provenance.AGREED
    patients = set()
    for labels in (llm, abstractor_1, abstractor_2, adjudications):
        if labels is not None:
            patients |= labels.patients
    return _as_reference(llm.schema, entries), provenance, cases, frozenset(patients)


def _covering_adjudications(cases, sets):
    """For each case key, the records of the last set that holds any."""
    records = {}
    for case in cases:
        holder = next(labels for labels in reversed(sets) if labels.get(*case.key))
        records[case.key] = [replace(r, source=Source.ADJUDICATOR) for r in holder.get(*case.key)]
    return LabelSet(_SCHEMA, Source.ADJUDICATOR, [r for recs in records.values() for r in recs])


def _assert_provenance_is(ref, provenance):
    """``ref.provenance`` reads as the per-key map ``provenance``, in its
    order, and ``summary()`` counts each provenance that map holds."""
    view = ref.provenance
    assert list(view.items()) == list(provenance.items())
    assert len(view) == len(provenance)
    assert all(view[key] == prov and key in view for key, prov in provenance.items())
    assert ("p9", "stage") not in view
    with pytest.raises(KeyError):
        view[("p9", "stage")]
    counted = {}
    for prov in provenance.values():
        counted[prov.value] = counted.get(prov.value, 0) + 1
    assert ref.summary()["provenance"] == counted


@settings(max_examples=300, deadline=None)
@given(_compared_sets())
def test_adjudicated_builds_equal_the_key_union_assembly(drawn):
    sets, tolerance = drawn
    found = find_disagreements(*sets, tolerance_days=tolerance)
    adjudications = _covering_adjudications(found, sets)
    if len(sets) == 2:
        got = build_double_adjudication(*sets, adjudications, tolerance_days=tolerance)
        given_cases = build_double_adjudication(*sets, adjudications, tolerance_days=tolerance, cases=found)
        labels, provenance, cases, patients = _assemble_oracle(*sets, None, adjudications, tolerance)
    else:
        got = build_triple_adjudication(*sets, adjudications, tolerance_days=tolerance)
        given_cases = build_triple_adjudication(*sets, adjudications, tolerance_days=tolerance, cases=found)
        labels, provenance, cases, patients = _assemble_oracle(*sets, adjudications, tolerance)
    # the cases a caller already found assemble the same reference
    assert given_cases == got

    def stored(labels):
        return labels.source, [(pid, list(own.items())) for pid, own in labels._by_patient.items()]

    assert got.labels == labels
    assert stored(got.labels) == stored(labels)
    _assert_provenance_is(got, provenance)
    assert [(c.key, c.pair, c.llm, c.abstractor_1, c.abstractor_2) for c in got.cases] == [
        (c.key, c.pair, c.llm, c.abstractor_1, c.abstractor_2) for c in cases
    ]
    assert got.patients == patients


@settings(max_examples=200, deadline=None)
@given(_compared_sets())
def test_duplicate_provenance_equals_the_per_key_map(drawn):
    sets, _ = drawn
    llm, a1, a2 = sets[0], sets[1], sets[-1]
    assume(len(a2))
    ref = build_duplicate_abstraction(llm, a1, a2)
    assert ref.disputed == frozenset()
    _assert_provenance_is(ref, {key: Provenance.SINGLE_SOURCE for key in sorted(a2.keys())})


# --- duplicate abstraction ---


def test_duplicate_reference_is_second_abstraction(schema):
    llm = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    a1 = LabelSet(schema, Source.ABSTRACTOR_1, [rec("p1", "stage", "I", source=Source.ABSTRACTOR_1)])
    a2 = LabelSet(
        schema,
        Source.ABSTRACTOR_2,
        [
            rec("p1", "stage", "II", source=Source.ABSTRACTOR_2),
            rec("p2", "surgery", "yes", date(2020, 5, 1), source=Source.ABSTRACTOR_2),
        ],
    )
    ref = build_duplicate_abstraction(llm, a1, a2)
    assert ref.mode == ReferenceMode.DUPLICATE_ABSTRACTION
    assert ref.labels == a2.relabel(Source.REFERENCE)
    assert set(ref.provenance.values()) == {Provenance.SINGLE_SOURCE}
    assert ref.patients == frozenset({"p1", "p2"})


def test_duplicate_empty_reference_rejected(schema):
    llm = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    a1 = LabelSet(schema, Source.ABSTRACTOR_1)
    a2 = LabelSet(schema, Source.ABSTRACTOR_2)
    with pytest.raises(ValueError):
        build_duplicate_abstraction(llm, a1, a2)


def test_scoring_the_reference_source_is_identity(schema):
    # A2 scored against the duplicate-abstraction reference must be perfect
    records = [
        rec("p1", "stage", "I", source=Source.ABSTRACTOR_2),
        rec("p1", "surgery", "yes", date(2020, 1, 1), source=Source.ABSTRACTOR_2),
        rec("p2", "stage", "II", source=Source.ABSTRACTOR_2),
    ]
    a2 = LabelSet(schema, Source.ABSTRACTOR_2, records)
    llm = LabelSet(schema, Source.LLM)
    a1 = LabelSet(schema, Source.ABSTRACTOR_1)
    ref = build_duplicate_abstraction(llm, a1, a2)
    report = variable_metrics(a2, ref, "surgery", "yes")
    assert report.value("recall") == 1.0
    assert report.value("precision") == 1.0
    assert report.value("f1") == 1.0
    assert report.value("date_accuracy") == 1.0


# --- double adjudication ---


def adjudication_inputs(schema):
    llm, a1 = two_sets(
        schema,
        [rec("p1", "stage", "I"), rec("p1", "surgery", "yes", date(2020, 1, 1)), rec("p2", "stage", "II")],
        [rec("p1", "stage", "II"), rec("p1", "surgery", "yes", date(2020, 1, 1)), rec("p2", "stage", "II")],
    )
    return llm, a1


def test_a_case_is_never_changed_after_it_is_built(schema):
    """Assembly resolves the found cases without touching them: the
    reference holds the very cases ``find_disagreements`` returned."""
    llm, a1 = adjudication_inputs(schema)
    cases = find_disagreements(llm, a1)
    before = [(c.key, c.pair, c.rows, c.sources) for c in cases]
    adj = LabelSet(schema, Source.ADJUDICATOR, [rec("p1", "stage", "I", source=Source.ADJUDICATOR)])
    ref = build_double_adjudication(llm, a1, adj, cases=cases)
    assert all(a is b for a, b in zip(ref.cases, cases, strict=True))
    assert [(c.key, c.pair, c.rows, c.sources) for c in cases] == before
    with pytest.raises(FrozenInstanceError):
        cases[0].pair = Pair.A1_VS_A2


def test_double_adjudication_resolves_disagreements(schema):
    llm, a1 = adjudication_inputs(schema)
    adj = LabelSet(
        schema,
        Source.ADJUDICATOR,
        [rec("p1", "stage", "I", source=Source.ADJUDICATOR)],
    )
    ref = build_double_adjudication(llm, a1, adj)
    assert ref.labels.get_single("p1", "stage").value == "I"
    # agreed keys carry abstractor 1's records
    assert ref.labels.get_single("p2", "stage").value == "II"
    assert ref.provenance[("p1", "stage")] == Provenance.ADJUDICATED
    assert ref.provenance[("p2", "stage")] == Provenance.AGREED
    assert ref.provenance[("p1", "surgery")] == Provenance.AGREED
    summ = ref.summary()
    assert summ["disagreements"]["total"] == 1
    assert summ["provenance"] == {"adjudicated": 1, "agreed": 2}


def test_summary_counts_each_provenance_and_leaves_out_a_zero(schema):
    llm, a1 = two_sets(
        schema,
        [rec("p1", "stage", "II"), rec("p2", "stage", "I")],
        [rec("p1", "stage", "II"), rec("p2", "stage", "II")],
    )
    adj = LabelSet(schema, Source.ADJUDICATOR, [rec("p2", "stage", "I", source=Source.ADJUDICATOR)])
    summ = build_double_adjudication(llm, a1, adj).summary()
    assert summ["provenance"] == {"agreed": 1, "adjudicated": 1}
    # a count of zero is left out
    llm, a1 = two_sets(schema, [rec("p1", "stage", "I")], [rec("p1", "stage", "II")])
    adj = LabelSet(schema, Source.ADJUDICATOR, [rec("p1", "stage", "I", source=Source.ADJUDICATOR)])
    assert build_double_adjudication(llm, a1, adj).summary()["provenance"] == {"adjudicated": 1}


def test_uncovered_disagreement_aborts_with_full_list(schema):
    llm, a1 = two_sets(
        schema,
        [rec("p1", "stage", "I"), rec("p2", "stage", "I")],
        [rec("p1", "stage", "II"), rec("p2", "stage", "II")],
    )
    adj = LabelSet(schema, Source.ADJUDICATOR)
    with pytest.raises(AdjudicationError) as err:
        build_double_adjudication(llm, a1, adj)
    assert err.value.uncovered == [("p1", "stage"), ("p2", "stage")]


def test_stale_adjudication_rejected(schema):
    llm, a1 = two_sets(schema, [rec("p1", "stage", "I")], [rec("p1", "stage", "I")])
    adj = LabelSet(
        schema, Source.ADJUDICATOR, [rec("p1", "stage", "II", source=Source.ADJUDICATOR)]
    )
    with pytest.raises(AdjudicationError) as err:
        build_double_adjudication(llm, a1, adj)
    assert err.value.stale == [("p1", "stage")]


def test_adjudications_must_come_from_adjudicator(schema):
    llm, a1 = adjudication_inputs(schema)
    wrong = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    with pytest.raises(SchemaError):
        build_double_adjudication(llm, a1, wrong)


L, A1, A2, ADJ = Source.LLM, Source.ABSTRACTOR_1, Source.ABSTRACTOR_2, Source.ADJUDICATOR


def _sources(schema, rows):
    """Label sets per source from (source, pid, var, value, date) rows."""
    out = {s: LabelSet(schema, s) for s in (L, A1, A2, ADJ)}
    for source, pid, var, value, day in rows:
        out[source].add(rec(pid, var, value, day, source=source))
    return out


@pytest.mark.parametrize("mode", ["double", "triple"])
def test_blocked_assembly_carries_its_worklist(schema, mode):
    if mode == "double":
        # p1..p3 disagree on stage; only p2 is adjudicated
        var = "stage"
        rows = [(L, p, var, "I", None) for p in ("p1", "p2", "p3")]
        rows += [(A1, p, var, "II", None) for p in ("p1", "p2", "p3")]
    else:
        # 20-day steps within a 30-day tolerance: only the llm-vs-A2 pair
        # disagrees on p1/p3 surgery; p2's stage (two pairs) is adjudicated
        var = "surgery"
        rows = [
            (source, p, var, "yes", date(2020, 1, 1) + timedelta(days=days))
            for p in ("p1", "p3")
            for source, days in ((L, 0), (A1, 20), (A2, 40))
        ]
        rows += [(L, "p2", "stage", "I", None), (A1, "p2", "stage", "II", None)]
        rows += [(A2, "p2", "stage", "II", None)]
    rows += [(ADJ, "p2", "stage", "II", None)]
    sets = _sources(schema, rows)
    with pytest.raises(AdjudicationError) as err:
        if mode == "double":
            build_double_adjudication(sets[L], sets[A1], sets[ADJ])
        else:
            build_triple_adjudication(sets[L], sets[A1], sets[A2], sets[ADJ])
    exc = err.value
    assert exc.uncovered == [("p1", var), ("p3", var)]
    assert [c.key for c in exc.worklist] == exc.uncovered


def test_triple_worklist_keeps_every_pair_of_an_open_key(schema):
    sets = _sources(
        schema,
        [(L, "p1", "stage", "I", None), (A1, "p1", "stage", "II", None), (A2, "p1", "stage", "II", None)],
    )
    with pytest.raises(AdjudicationError) as err:
        build_triple_adjudication(sets[L], sets[A1], sets[A2], sets[ADJ])
    assert err.value.uncovered == [("p1", "stage")]
    assert [(c.key, c.pair) for c in err.value.worklist] == [
        (("p1", "stage"), Pair.LLM_VS_A1),
        (("p1", "stage"), Pair.LLM_VS_A2),
    ]


def test_stale_only_block_has_an_empty_worklist(schema):
    llm, a1 = two_sets(schema, [rec("p1", "stage", "I")], [rec("p1", "stage", "I")])
    adj = LabelSet(schema, ADJ, [rec("p1", "stage", "II", source=ADJ)])
    with pytest.raises(AdjudicationError) as err:
        build_double_adjudication(llm, a1, adj)
    assert err.value.worklist == []


# --- triple adjudication ---


def test_triple_majority_does_not_shortcut_adjudication(schema):
    # A1 and A2 agree but the extraction differs: still adjudicated
    llm = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    a1 = LabelSet(schema, Source.ABSTRACTOR_1, [rec("p1", "stage", "II", source=Source.ABSTRACTOR_1)])
    a2 = LabelSet(schema, Source.ABSTRACTOR_2, [rec("p1", "stage", "II", source=Source.ABSTRACTOR_2)])
    adj = LabelSet(schema, Source.ADJUDICATOR, [rec("p1", "stage", "III", source=Source.ADJUDICATOR)])
    ref = build_triple_adjudication(llm, a1, a2, adj)
    assert ref.labels.get_single("p1", "stage").value == "III"
    assert ref.provenance[("p1", "stage")] == Provenance.ADJUDICATED


def test_triple_unanimous_keys_keep_abstractor_1(schema):
    llm = LabelSet(schema, Source.LLM, [rec("p1", "surgery", "yes", date(2020, 1, 3))])
    a1 = LabelSet(
        schema, Source.ABSTRACTOR_1, [rec("p1", "surgery", "yes", date(2020, 1, 1), source=Source.ABSTRACTOR_1)]
    )
    a2 = LabelSet(
        schema, Source.ABSTRACTOR_2, [rec("p1", "surgery", "yes", date(2020, 1, 8), source=Source.ABSTRACTOR_2)]
    )
    adj = LabelSet(schema, Source.ADJUDICATOR)
    ref = build_triple_adjudication(llm, a1, a2, adj)
    assert ref.labels.get_single("p1", "surgery").event_date == date(2020, 1, 1)
    assert ref.provenance[("p1", "surgery")] == Provenance.AGREED


# --- oracle adjudication and the worklist file ---


def test_adjudicate_from_oracle_copies_and_backfills_unknown(schema):
    cases = [
        DisagreementCase("p1", "stage", Pair.LLM_VS_A1),
        DisagreementCase("p2", "stage", Pair.LLM_VS_A1),
    ]
    oracle = LabelSet(schema, Source.REFERENCE, [rec("p1", "stage", "III", source=Source.REFERENCE)])
    adj = adjudicate_from_oracle(cases, oracle)
    assert adj.source == Source.ADJUDICATOR
    assert adj.get_single("p1", "stage").value == "III"
    # the oracle never labeled p2: resolved as documented-unknown
    assert adj.get_single("p2", "stage").value == "unknown"


def test_adjudicate_from_oracle_needs_unknown_token(schema):
    cases = [DisagreementCase("p9", "tumor_size_mm", Pair.LLM_VS_A1)]
    oracle = LabelSet(schema, Source.REFERENCE)
    with pytest.raises(SchemaError):
        adjudicate_from_oracle(cases, oracle)


def test_write_disagreements_lists_every_contributing_record(tmp_path, schema):
    llm, a1 = two_sets(schema, [rec("p1", "stage", "I")], [rec("p1", "stage", "II")])
    cases = find_disagreements(llm, a1)
    path = tmp_path / "worklist.csv"
    write_disagreements(cases, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("patient_id,variable,value,event_date,source,refresh_id,pair")
    assert len(lines) == 3  # header + one row per side
    assert any(",llm," in line for line in lines[1:])
    assert any(",abstractor_1," in line for line in lines[1:])


# --- randomized: the reference never contains fabricated content ---


def _random_label_sets(seed, schema):
    rng = random.Random(seed)
    stage_values = ["I", "II", "III", "unknown"]
    out = {}
    for source in (Source.LLM, Source.ABSTRACTOR_1, Source.ABSTRACTOR_2):
        records = []
        for i in range(rng.randint(3, 10)):
            pid = f"p{i}"
            if rng.random() < 0.9:
                records.append(
                    LabelRecord(pid, "stage", rng.choice(stage_values), None, source)
                )
            if rng.random() < 0.7:
                day = date(2020, 1, 1) + timedelta(days=rng.randint(0, 300))
                records.append(LabelRecord(pid, "surgery", "yes", day, source))
        out[source] = LabelSet(schema, source, records)
    return out[Source.LLM], out[Source.ABSTRACTOR_1], out[Source.ABSTRACTOR_2]


def _assert_no_fabrication(ref_labels, *sources):
    pool = set()
    for src in sources:
        for r in src.records():
            pool.add((r.patient_id, r.variable, r.value, r.event_date))
    for r in ref_labels.records():
        assert (r.patient_id, r.variable, r.value, r.event_date) in pool, (
            f"reference fabricated {r}"
        )


def test_reference_content_traces_to_inputs_randomized(schema):
    for seed in range(40):
        llm, a1, a2 = _random_label_sets(seed, schema)
        ref = build_duplicate_abstraction(llm, a1, a2)
        _assert_no_fabrication(ref.labels, a2)

        cases = find_disagreements(llm, a1)
        adj = adjudicate_from_oracle(cases, a2.relabel(Source.REFERENCE))
        ref2 = build_double_adjudication(llm, a1, adj)
        # adjudicated content comes from the oracle or is documented-unknown
        pool_sources = [a1, adj]
        _assert_no_fabrication(ref2.labels, *pool_sources)
