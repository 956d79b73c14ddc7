"""The column path: checks and confusion rows computed over whole cohorts.

``compile_check`` evaluates a patient check over a cohort's
``LabelSet.column``s at once, and ``metrics.patient_rows`` builds a
single-valued variable's rows from the predicted and reference columns.
Each is held, patient by patient, to the oracle that evaluates one patient
at a time: the interpreter ``oracles.evaluate`` and
``oracles.single_valued_rows``.
"""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import evaluate, single_valued_rows

from rwdval import (
    CohortDataset,
    LabelRecord,
    LabelSet,
    Schema,
    Source,
    Truth,
    VariableKind,
    VariableSpec,
    compile_check,
    patient_rows,
    patient_view,
    parse_check,
    run_all_checks,
)
from rwdval.checks.engine import CheckDefinition, CheckSuite
from rwdval.checks.lang import (
    TRUTHS,
    And,
    Cmp,
    DateOf,
    DaysBetween,
    Duration,
    Exists,
    Implies,
    Known,
    Lit,
    Not,
    Or,
    Value,
    WithinDays,
)

# one NaN object: rows that share it share one code in a column, and still
# no NaN equals any value, itself included
NAN = float("nan")


SCHEMA = Schema(
    [
        VariableSpec(
            "stage",
            VariableKind.CATEGORICAL,
            allowed_values=frozenset({"I", "II", "III", "unknown"}),
            unknown_token="unknown",
        ),
        # shares "I" and "II" with stage, in a code table of its own
        VariableSpec("grade", VariableKind.CATEGORICAL, allowed_values=frozenset({"I", "II", "x"})),
        VariableSpec(
            "surgery",
            VariableKind.DATE,
            allowed_values=frozenset({"yes", "no", "unknown"}),
            unknown_token="unknown",
        ),
        VariableSpec("radiation", VariableKind.DATE, allowed_values=frozenset({"yes", "no"})),
        VariableSpec(
            "er_result",
            VariableKind.EVENT_LIST,
            allowed_values=frozenset({"positive", "negative", "unknown"}),
            unknown_token="unknown",
        ),
        VariableSpec("tumor_size_mm", VariableKind.NUMERIC),
        VariableSpec("nodes", VariableKind.NUMERIC),
    ]
)
_BASE = date(2020, 1, 1)
_dates = st.integers(0, 90).map(lambda d: _BASE + timedelta(days=d))
_numbers = st.one_of(st.sampled_from([0.0, 1.0, 2.5, NAN]), st.integers(0, 3))
_values = {
    "stage": st.sampled_from(["I", "II", "III", "unknown"]),
    "grade": st.sampled_from(["I", "II", "x"]),
    "surgery": st.sampled_from(["yes", "no", "unknown"]),
    "radiation": st.sampled_from(["yes", "no"]),
    "tumor_size_mm": _numbers,
    "nodes": _numbers,
}
_DATED = {"surgery", "radiation"}


@st.composite
def _records(draw, pid: str) -> list[LabelRecord]:
    """One patient's records: each variable may be missing or documented
    unknown, and a dated variable's row may lack its date."""
    out = []
    for var, values in _values.items():
        if draw(st.booleans()):
            when = draw(st.one_of(st.none(), _dates)) if var in _DATED else None
            out.append(LabelRecord(pid, var, draw(values), when, Source.LLM))
    for value, when in draw(
        st.lists(st.tuples(st.sampled_from(["positive", "negative", "unknown"]), _dates), max_size=3)
    ):
        out.append(LabelRecord(pid, "er_result", value, when, Source.LLM))
    return out


@st.composite
def _cohorts(draw) -> tuple[LabelSet, list[str], dict[str, dict[str, str]]]:
    """A label set over 1-8 patients, some of whom have no rows at all, and
    each patient's ``site`` attribute, which may be missing."""
    pids = [f"p{i}" for i in range(draw(st.integers(1, 8)))]
    records = [rec for pid in pids if draw(st.booleans()) for rec in draw(_records(pid))]
    attributes = {pid: ({"site": draw(st.sampled_from(["a", "b"]))} if draw(st.booleans()) else {}) for pid in pids}
    return LabelSet(SCHEMA, Source.LLM, records), pids, attributes


_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
_date_operands = st.one_of(
    st.sampled_from([DateOf("surgery"), DateOf("radiation"), DateOf("er_result")]), _dates.map(Lit)
)
_atoms = st.one_of(
    st.sampled_from([*_values, "er_result"]).map(Exists),
    st.sampled_from([*_values, "er_result"]).map(Known),
    st.tuples(st.sampled_from(["=", "!="]), st.sampled_from(["I", "II", "III"])).map(
        lambda t: Cmp(t[0], Value("stage"), Lit(t[1]))
    ),
    # categories from two code tables, and from a single-valued and an event-list variable
    st.tuples(
        st.sampled_from(["=", "!="]),
        st.sampled_from([Value("stage"), Value("grade"), Value("surgery")]),
        st.sampled_from([Value("stage"), Value("grade"), Value("er_result")]),
    ).map(lambda t: Cmp(*t)),
    st.tuples(st.sampled_from(["=", "!="]), st.sampled_from(["positive", "negative"])).map(
        lambda t: Cmp(t[0], Value("er_result"), Lit(t[1]))
    ),
    # numbers against literals and against each other, NaN included
    st.tuples(_ops, st.sampled_from([Value("tumor_size_mm"), Value("nodes")]), _numbers.map(Lit)).map(
        lambda t: Cmp(*t)
    ),
    st.tuples(
        _ops,
        st.sampled_from([Value("tumor_size_mm"), Value("nodes")]),
        st.sampled_from([Value("tumor_size_mm"), Value("nodes")]),
    ).map(lambda t: Cmp(*t)),
    st.tuples(st.sampled_from(["before", "after", "=", "!=", "<="]), _date_operands, _date_operands).map(
        lambda t: Cmp(*t)
    ),
    st.tuples(_ops, _date_operands, _date_operands, st.integers(-60, 60)).map(
        lambda t: Cmp(t[0], DaysBetween(t[1], t[2]), Lit(Duration(t[3])))
    ),
    st.tuples(_date_operands, _date_operands, st.integers(0, 60)).map(
        lambda t: WithinDays(t[0], t[1], Duration(t[2]))
    ),
)


def _exprs(depth: int):
    if depth <= 0:
        return _atoms
    sub = _exprs(depth - 1)
    return st.one_of(
        _atoms,
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: Or(tuple(xs))),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
    )


@settings(max_examples=300, deadline=None)
@given(_exprs(2), _cohorts())
def test_a_cohort_evaluation_equals_the_interpreter_patient_by_patient(expr, cohort):
    labels, pids, _ = cohort
    check = compile_check(expr, SCHEMA)
    truths = check.over(labels, pids)
    assert truths.dtype == np.int64 and truths.shape == (len(pids),)
    for pid, code in zip(pids, truths.tolist()):
        view = patient_view(labels, pid)
        expected = evaluate(expr, view, SCHEMA)
        assert TRUTHS[code] == expected, pid
        assert check(view) == expected, pid


@settings(max_examples=150, deadline=None)
@given(_exprs(2), _cohorts(), st.integers(1, 4))
def test_check_tallies_equal_a_count_of_the_interpreter(expr, cohort, min_stratum_n):
    labels, pids, attributes = cohort
    dataset = CohortDataset(SCHEMA, attributes, {Source.LLM: labels})
    report = run_all_checks(
        CheckSuite([CheckDefinition("c", expr=expr)]), dataset, strata=["site"], min_stratum_n=min_stratum_n
    )
    result = report.result("c")
    truths = {pid: evaluate(expr, patient_view(labels, pid), SCHEMA) for pid in sorted(pids)}
    assert result.n_evaluated == len(pids)
    assert result.n_not_applicable == sum(t is Truth.UNKNOWN for t in truths.values())
    assert [f.scope for f in result.findings] == [pid for pid, t in truths.items() if t is Truth.FALSE]
    expected = {}
    for pid, truth in truths.items():
        tally = expected.setdefault(attributes[pid].get("site", "missing"), [0, 0, 0])
        tally[0] += 1
        tally[1] += truth is Truth.FALSE
        tally[2] += truth is Truth.UNKNOWN
    got = {
        stratum: [tally.n_evaluated, tally.n_flagged, tally.n_not_applicable]
        for stratum, tally in result.stratified["site"].items()
    }
    assert got == expected
    assert {s: t.suppressed for s, t in result.stratified["site"].items()} == {
        s: counts[0] < min_stratum_n for s, counts in expected.items()
    }


def test_nan_equals_nothing_though_its_rows_share_one_code():
    labels = LabelSet(
        SCHEMA,
        Source.LLM,
        [
            LabelRecord("p1", "tumor_size_mm", NAN, None, Source.LLM),
            LabelRecord("p1", "nodes", NAN, None, Source.LLM),
            LabelRecord("p2", "tumor_size_mm", NAN, None, Source.LLM),
            LabelRecord("p2", "nodes", 1.0, None, Source.LLM),
        ],
    )
    column = labels.column("tumor_size_mm", ["p1", "p2"])
    assert column.codes.tolist() == [0, 0] and len(column.values) == 1
    for text, want in [
        ("value(tumor_size_mm) = value(tumor_size_mm)", ["false", "false"]),
        ("value(tumor_size_mm) != value(tumor_size_mm)", ["true", "true"]),
        ("value(tumor_size_mm) = value(nodes)", ["false", "false"]),
        ("value(tumor_size_mm) <= value(nodes)", ["false", "false"]),
        ("value(nodes) >= 1", ["false", "true"]),
    ]:
        truths = compile_check(parse_check(text), SCHEMA).over(labels, ["p1", "p2"])
        assert [TRUTHS[t].value for t in truths] == want, text


@pytest.mark.parametrize(
    "text",
    [
        "days_between(date(surgery), date(radiation)) < 99999999999999999999d",
        "days_between(date(surgery), date(radiation)) > -99999999999999999999d",
        "99999999999999999999d = 99999999999999999998d",
        "within_days(date(surgery), date(radiation), 99999999999999999999d)",
    ],
)
def test_a_day_count_beyond_int64_compares_exactly(text):
    day = date(2020, 1, 1)
    labels = LabelSet(
        SCHEMA,
        Source.LLM,
        [LabelRecord("p1", "surgery", "yes", day, Source.LLM), LabelRecord("p1", "radiation", "yes", day, Source.LLM)],
    )
    expr = parse_check(text)
    truths = compile_check(expr, SCHEMA).over(labels, ["p1", "p2"])
    assert [TRUTHS[t] for t in truths] == [evaluate(expr, patient_view(labels, pid), SCHEMA) for pid in ("p1", "p2")]


def test_a_column_is_cached_per_cohort_and_dropped_by_a_change():
    labels = LabelSet(SCHEMA, Source.LLM, [LabelRecord("p1", "stage", "II", None, Source.LLM)])
    first = labels.column("stage", ["p1", "p2"])
    assert labels.column("stage", ("p1", "p2")) is first
    assert first.codes.tolist() == [0, -2] and first.values == ("II",)
    labels.add(LabelRecord("p2", "stage", "unknown", None, Source.LLM))
    assert labels.column("stage", ["p1", "p2"]).codes.tolist() == [0, -1]
    labels.remove("p1", "stage")
    assert labels.column("stage", ["p1", "p2"]).codes.tolist() == [-2, -1]
    assert labels.column("stage", ["p2", "p1", "p2"]).codes.tolist() == [-1, -2, -1]
    with pytest.raises(ValueError, match="event_list"):
        labels.column("er_result", ["p1"])


def _states(variable: str) -> list[tuple]:
    """Every (value, date) a patient's row of ``variable`` may hold, and
    None for no row; dates lie a day apart, at each tolerance's edge."""
    values = {
        "stage": ["I", "II", "III", "unknown"],
        "surgery": ["yes", "no", "unknown"],
        "tumor_size_mm": [0.0, 1.0, 2.5, NAN, 1],
    }[variable]
    dates = [None, _BASE, _BASE + timedelta(days=1), _BASE + timedelta(days=2)] if variable in _DATED else [None]
    return [None] + [(value, when) for value in values for when in dates]


@pytest.mark.parametrize(
    "variable, positive_class",
    [("stage", "I"), ("stage", "III"), ("surgery", "yes"), ("surgery", "no"), ("tumor_size_mm", 1.0),
     ("tumor_size_mm", NAN), ("tumor_size_mm", "1.0")],
)
@pytest.mark.parametrize("tolerance_days", [0, 1, 30])
@pytest.mark.parametrize("override", [None, 0, 1])
def test_column_rows_equal_the_per_patient_rows(variable, positive_class, tolerance_days, override):
    """One patient per pair of predicted and reference states, so every
    pair is scored; then a resample that repeats patients and names one
    without rows."""
    specs = [
        VariableSpec(s.name, s.kind, s.allowed_values, s.unknown_token, override if s.name == variable else None)
        for s in SCHEMA.values()
    ]
    schema = Schema(specs)
    pairs = [(a, b) for a in _states(variable) for b in _states(variable)]
    pids = [f"p{i}" for i in range(len(pairs))]

    def side(source: Source, which: int) -> LabelSet:
        return LabelSet(
            schema,
            source,
            [LabelRecord(pid, variable, *pair[which], source) for pid, pair in zip(pids, pairs) if pair[which]],
        )

    pred, reference = side(Source.LLM, 0), side(Source.REFERENCE, 1)
    for cohort in (pids, [pids[-1], "absent", *pids[::3], pids[-1]]):
        got = patient_rows(pred, reference, variable, positive_class, tolerance_days=tolerance_days, patients=cohort)
        want = single_valued_rows(
            pred, reference, variable, positive_class, tolerance_days=tolerance_days, patients=cohort
        )
        assert got.rows.dtype == np.int64
        assert np.array_equal(got.rows, want)
        if variable == "surgery" and cohort is pids:  # some dates are right and, with dates 2 days apart, some wrong
            tolerance = tolerance_days if override is None else override
            assert 0 < want[:, 4].sum() and (tolerance >= 2 or want[:, 4].sum() < want[:, 3].sum())
