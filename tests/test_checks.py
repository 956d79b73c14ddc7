"""Check expression language and suite execution."""

from datetime import date, timedelta
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwdval import (
    CohortDataset,
    ConfigError,
    LabelRecord,
    LabelSet,
    Source,
    Truth,
    VariableKind,
    breast_schema,
    compile_check,
    default_suite_path,
    load_suite,
    parse_check,
    refresh_stability,
    run_all_checks,
    to_text,
)
from rwdval.checks.engine import (
    CheckCategory,
    CheckDefinition,
    CheckLevel,
    CheckSuite,
    DistributionRange,
    MonthlyCountStability,
    RefreshStability,
    Severity,
    StratifiedRateRange,
    evaluate_patient_check,
    monthly_counts,
    suite_from_dict,
)
from rwdval.checks.lang import (
    And,
    CheckSyntaxError,
    CheckTypeError,
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
    referenced_variables,
    typecheck,
)
from rwdval.schema import SchemaError

from conftest import make_schema, rec
from oracles import evaluate


D0 = date(2020, 1, 1)


def day(n):
    return D0 + timedelta(days=int(n))


# --- parsing ---


def test_implies_is_right_associative():
    got = parse_check("exists(a) implies exists(b) implies exists(c)")
    assert got == Implies(Exists("a"), Implies(Exists("b"), Exists("c")))


def test_connective_precedence():
    got = parse_check("not exists(a) and exists(b) or exists(c) implies exists(d)")
    assert got == Implies(
        Or((And((Not(Exists("a")), Exists("b"))), Exists("c"))), Exists("d")
    )


def test_parenthesized_grouping():
    got = parse_check("exists(a) and (exists(b) or exists(c))")
    assert got == And((Exists("a"), Or((Exists("b"), Exists("c")))))


def test_literal_forms():
    got = parse_check("value(stage) = 'I'")
    assert got == Cmp("=", Value("stage"), Lit("I"))
    got = parse_check("date(surgery) before 2020-06-01")
    assert got == Cmp("before", DateOf("surgery"), Lit(date(2020, 6, 1)))
    got = parse_check("days_between(date(a), date(b)) >= -30d")
    assert got == Cmp(
        ">=", DaysBetween(DateOf("a"), DateOf("b")), Lit(Duration(-30))
    )
    got = parse_check("within_days(date(a), date(b), 60)")
    assert got == WithinDays(DateOf("a"), DateOf("b"), Duration(60))


def test_syntax_error_carries_position():
    with pytest.raises(CheckSyntaxError) as err:
        parse_check("exists(a) exists(b)")
    assert err.value.position == 10
    with pytest.raises(CheckSyntaxError):
        parse_check("value(stage = 'I'")
    with pytest.raises(CheckSyntaxError):
        parse_check("value(stage) = 'I' %")
    with pytest.raises(CheckSyntaxError):
        parse_check("date(a) before 2020-02-30")  # not a calendar date


def test_keywords_cannot_be_variable_names():
    with pytest.raises(CheckSyntaxError):
        parse_check("exists(and)")


# --- type checking ---


def test_typecheck_category_ordering_rejected(schema):
    with pytest.raises(CheckTypeError):
        parse_check("value(stage) < 'I'", schema)
    parse_check("value(stage) != 'I'", schema)  # equality family is fine


def test_typecheck_unknown_variable(schema):
    with pytest.raises(SchemaError):
        parse_check("exists(bogus)", schema)


def test_typecheck_literal_membership(schema):
    with pytest.raises(CheckTypeError):
        parse_check("value(stage) = 'IX'", schema)


def test_typecheck_date_of_undated_kind(schema):
    with pytest.raises(CheckTypeError):
        parse_check("date(stage) before 2020-01-01", schema)


def test_typecheck_negative_within_days(schema):
    with pytest.raises(CheckTypeError):
        parse_check("within_days(date(surgery), date(surgery), -1d)", schema)


# --- canonical text round trip ---


def test_to_text_fixed_point_examples():
    texts = [
        "value(stage) = 'IV' implies value(metastatic_dx) = 'yes'",
        "not (exists(a) and exists(b)) or known(c)",
        "days_between(date(a), date(b)) >= 0d and days_between(date(a), date(b)) <= 180d",
        "(exists(a) implies exists(b)) implies exists(c)",
        "within_days(date(a), 2001-02-03, 30d) or value(x) != 'y'",
        # floats print positionally: repr's 1e-05 and 1.2345678901234568e+17 do not lex
        "value(x) > 0.00001 and value(x) < 123456789012345678.5",
    ]
    for text in texts:
        ast = parse_check(text)
        assert parse_check(to_text(ast)) == ast


def test_to_text_doubles_a_quote_inside_a_string_literal():
    ast = Cmp("=", Value("x"), Lit("a'b"))
    assert to_text(ast) == "value(x) = 'a''b'"
    assert parse_check(to_text(ast)) == ast
    assert parse_check("value(dx) = 'Crohn''s' or value(dx) = ''''") == Or(
        (Cmp("=", Value("dx"), Lit("Crohn's")), Cmp("=", Value("dx"), Lit("'")))
    )
    with pytest.raises(CheckSyntaxError):
        parse_check("value(x) = 'a'b'")


_idents = st.sampled_from(["alpha", "beta", "gamma", "delta_var"])


def _operands(depth):
    leaf = st.one_of(
        _idents.map(Value),
        _idents.map(DateOf),
        st.text(
            st.characters(whitelist_categories=("Ll",), whitelist_characters="'", max_codepoint=122), max_size=6
        ).map(Lit),
        st.integers(-999, 999).map(Lit),
        st.floats(allow_nan=False, allow_infinity=False).map(Lit),
        st.dates(date(1900, 1, 1), date(2099, 12, 28)).map(Lit),
        st.integers(-400, 400).map(lambda n: Lit(Duration(n))),
    )
    if depth <= 0:
        return leaf
    sub = _operands(depth - 1)
    return st.one_of(leaf, st.tuples(sub, sub).map(lambda t: DaysBetween(*t)))


def _exprs(depth):
    ops = _operands(1)
    atoms = st.one_of(
        _idents.map(Exists),
        _idents.map(Known),
        st.tuples(st.sampled_from(["=", "!=", "<", "<=", ">", ">=", "before", "after"]), ops, ops).map(
            lambda t: Cmp(*t)
        ),
        st.tuples(ops, ops, st.integers(0, 400)).map(
            lambda t: WithinDays(t[0], t[1], Duration(t[2]))
        ),
    )
    if depth <= 0:
        return atoms
    sub = _exprs(depth - 1)
    return st.one_of(
        atoms,
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: And(tuple(xs))),
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: Or(tuple(xs))),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
    )


@settings(max_examples=200, deadline=None)
@given(_exprs(3))
def test_to_text_fixed_point_property(ast):
    assert parse_check(to_text(ast)) == ast


# --- evaluation ---


def view_of(schema, records):
    from rwdval import patient_view

    labels = LabelSet(schema, Source.LLM, records)
    return patient_view(labels, patient_id="p1")


def test_vacuous_implication_passes(schema):
    expr = parse_check("value(stage) = 'III' implies value(surgery) = 'yes'", schema)
    view = view_of(schema, [rec("p1", "stage", "I")])
    assert compile_check(expr, schema)(view) == Truth.TRUE


def test_unknown_antecedent_is_indeterminate(schema):
    expr = parse_check("value(stage) = 'III' implies value(surgery) = 'yes'", schema)
    # stage is documented unknown and surgery undocumented: no verdict
    view = view_of(schema, [rec("p1", "stage", "unknown")])
    assert compile_check(expr, schema)(view) == Truth.UNKNOWN


def test_missing_variable_is_indeterminate(schema):
    expr = parse_check("value(stage) = 'I'", schema)
    assert compile_check(expr, schema)({}) == Truth.UNKNOWN


def test_exists_and_known_are_determinate(schema):
    exists_expr = parse_check("exists(stage)", schema)
    known_expr = parse_check("known(stage)", schema)
    assert compile_check(exists_expr, schema)({}) == Truth.FALSE
    view = view_of(schema, [rec("p1", "stage", "unknown")])
    assert compile_check(exists_expr, schema)(view) == Truth.TRUE
    assert compile_check(known_expr, schema)(view) == Truth.FALSE
    view = view_of(schema, [rec("p1", "stage", "II")])
    assert compile_check(known_expr, schema)(view) == Truth.TRUE


def test_event_list_some_semantics(schema):
    expr_pos = parse_check("value(er_result) = 'positive'", schema)
    expr_neg = parse_check("value(er_result) = 'negative'", schema)
    no_neg = parse_check("not (value(er_result) = 'negative')", schema)
    view = view_of(
        schema,
        [
            rec("p1", "er_result", "positive", day(0)),
            rec("p1", "er_result", "negative", day(100)),
        ],
    )
    # both atoms hold: each is satisfied by SOME documented event
    assert compile_check(expr_pos, schema)(view) == Truth.TRUE
    assert compile_check(expr_neg, schema)(view) == Truth.TRUE
    assert compile_check(no_neg, schema)(view) == Truth.FALSE
    only_pos = view_of(schema, [rec("p1", "er_result", "positive", day(0))])
    assert compile_check(no_neg, schema)(only_pos) == Truth.TRUE


def test_days_between_is_signed(schema):
    expr = parse_check("days_between(date(surgery), date(er_result)) >= 0d", schema)
    view = view_of(
        schema,
        [
            rec("p1", "surgery", "yes", day(10)),
            rec("p1", "er_result", "positive", day(5)),
        ],
    )
    # er_result - surgery = -5 days; no documented pair satisfies >= 0
    assert compile_check(expr, schema)(view) == Truth.FALSE


def test_within_days_is_absolute(schema):
    expr = parse_check("within_days(date(surgery), date(er_result), 30)", schema)
    view = view_of(
        schema,
        [
            rec("p1", "surgery", "yes", day(40)),
            rec("p1", "er_result", "positive", day(15)),
        ],
    )
    assert compile_check(expr, schema)(view) == Truth.TRUE


def test_outcome_mapping(schema):
    check = compile_check(parse_check("value(stage) = 'I'", schema), schema)
    ok = view_of(schema, [rec("p1", "stage", "I")])
    bad = view_of(schema, [rec("p1", "stage", "II")])
    assert evaluate_patient_check(check, ok) == Truth.TRUE
    assert evaluate_patient_check(check, bad) == Truth.FALSE
    assert evaluate_patient_check(check, {}) == Truth.UNKNOWN


# The connectives as they were before they short-circuited: each copies its
# operands into a list and scans it; ``Implies`` evaluates both sides. Kept
# as the oracle for the compiled check's folds.


def _oracle_not(a):
    if a == Truth.TRUE:
        return Truth.FALSE
    if a == Truth.FALSE:
        return Truth.TRUE
    return Truth.UNKNOWN


def _oracle_and(values):
    values = list(values)
    if any(v == Truth.FALSE for v in values):
        return Truth.FALSE
    if any(v == Truth.UNKNOWN for v in values):
        return Truth.UNKNOWN
    return Truth.TRUE


def _oracle_or(values):
    values = list(values)
    if any(v == Truth.TRUE for v in values):
        return Truth.TRUE
    if any(v == Truth.UNKNOWN for v in values):
        return Truth.UNKNOWN
    return Truth.FALSE


def _oracle_evaluate(expr, view, schema):
    if isinstance(expr, Not):
        return _oracle_not(_oracle_evaluate(expr.item, view, schema))
    if isinstance(expr, And):
        return _oracle_and(_oracle_evaluate(i, view, schema) for i in expr.items)
    if isinstance(expr, Or):
        return _oracle_or(_oracle_evaluate(i, view, schema) for i in expr.items)
    if isinstance(expr, Implies):
        return _oracle_or(
            [
                _oracle_not(_oracle_evaluate(expr.antecedent, view, schema)),
                _oracle_evaluate(expr.consequent, view, schema),
            ]
        )
    return evaluate(expr, view, schema)  # atoms


_VARS = ["stage", "surgery", "er_result", "tumor_size_mm"]
_dates = st.integers(0, 120).map(day)
_dated_vars = st.sampled_from([DateOf("surgery"), DateOf("er_result")])
_date_operands = st.one_of(_dated_vars, _dates.map(Lit))
_order_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])

# Well-typed atoms on the test schema: ``exists`` and ``known`` are always
# determinate; the comparisons are indeterminate when a side is undocumented.
_typed_atoms = st.one_of(
    st.sampled_from(_VARS).map(Exists),
    st.sampled_from(_VARS).map(Known),
    st.tuples(st.sampled_from(["=", "!="]), st.sampled_from(["I", "II", "III"])).map(
        lambda t: Cmp(t[0], Value("stage"), Lit(t[1]))
    ),
    st.sampled_from(["positive", "negative"]).map(lambda v: Cmp("=", Value("er_result"), Lit(v))),
    st.tuples(_order_ops, st.integers(0, 60)).map(
        lambda t: Cmp(t[0], Value("tumor_size_mm"), Lit(t[1]))
    ),
    st.tuples(st.sampled_from(["before", "after"]), _dated_vars, _date_operands).map(
        lambda t: Cmp(*t)
    ),
    st.tuples(_order_ops, _dated_vars, _dated_vars, st.integers(-60, 60)).map(
        lambda t: Cmp(t[0], DaysBetween(t[1], t[2]), Lit(Duration(t[3])))
    ),
    st.tuples(_dated_vars, _date_operands, st.integers(0, 60)).map(
        lambda t: WithinDays(t[0], t[1], Duration(t[2]))
    ),
)


def _typed_exprs(depth):
    if depth <= 0:
        return _typed_atoms
    sub = _typed_exprs(depth - 1)
    return st.one_of(
        _typed_atoms,
        sub.map(Not),
        st.lists(sub, min_size=2, max_size=4).map(lambda xs: And(tuple(xs))),
        st.lists(sub, min_size=2, max_size=4).map(lambda xs: Or(tuple(xs))),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
    )


@st.composite
def _views(draw):
    """A patient's row view as ``patient_view`` returns it; any variable may
    be undocumented or documented unknown, and every row draws any refresh
    id, which evaluation ignores."""
    refresh_ids = st.one_of(st.none(), st.text(max_size=3))
    view = {}
    if draw(st.booleans()):
        value = draw(st.sampled_from(["I", "II", "III", "unknown"]))
        view["stage"] = ((value, None, draw(refresh_ids)),)
    if draw(st.booleans()):
        value = draw(st.sampled_from(["yes", "no", "unknown"]))
        view["surgery"] = ((value, draw(st.one_of(st.none(), _dates)), draw(refresh_ids)),)
    if draw(st.booleans()):
        events = draw(
            st.lists(
                st.tuples(st.sampled_from(["positive", "negative", "unknown"]), _dates, refresh_ids),
                min_size=1,
                max_size=3,
            )
        )
        view["er_result"] = tuple(sorted(events, key=lambda e: e[1]))
    if draw(st.booleans()):
        view["tumor_size_mm"] = ((draw(st.integers(0, 60)), None, draw(refresh_ids)),)
    return MappingProxyType(view)


@settings(max_examples=400, deadline=None)
@given(_typed_exprs(3), _views())
def test_short_circuit_connectives_equal_the_list_oracle(expr, view):
    schema = make_schema()
    typecheck(expr, schema)
    assert compile_check(expr, schema)(view) == _oracle_evaluate(expr, view, schema)


@settings(max_examples=400, deadline=None)
@given(_typed_exprs(3), _views())
def test_compiled_check_equals_the_interpreter(expr, view):
    schema = make_schema()
    typecheck(expr, schema)
    assert compile_check(expr, schema)(view) == evaluate(expr, view, schema)


def test_compiling_rejects_an_unknown_variable(schema):
    with pytest.raises(SchemaError, match="unknown variable 'stagex'"):
        compile_check(Cmp("=", Value("stagex"), Lit("I")), schema)


def test_referenced_variables():
    expr = parse_check(
        "value(a) = 'x' implies within_days(date(b), days_between(date(c), date(d)), 3d)"
    )
    assert referenced_variables(expr) == {"a", "b", "c", "d"}


# --- cohort checks ---


def check_of(spec, check_id="c1", severity=Severity.WARNING):
    return CheckDefinition(
        id=check_id,
        category=CheckCategory.PLAUSIBILITY,
        level=CheckLevel.COHORT,
        severity=severity,
        description="test check",
        cohort=spec,
    )


def dataset_of(schema, records, patients=None, attrs=None):
    labels = LabelSet(schema, Source.LLM, records)
    pids = patients if patients is not None else sorted(labels.patients)
    return CohortDataset(
        schema=schema,
        patients={p: (attrs or {}).get(p, {}) for p in pids},
        label_sets={Source.LLM: labels},
    )


def test_distribution_range_fractions(schema):
    records = [rec(f"p{i}", "stage", "I") for i in range(6)]
    records += [rec(f"q{i}", "stage", "II") for i in range(3)]
    records += [rec("r0", "stage", "unknown")]  # not a known value: excluded
    ds = dataset_of(schema, records)
    suite = CheckSuite(
        [
            check_of(
                DistributionRange(
                    variable="stage",
                    expected={"I": (0.5, 0.8), "II": (0.0, 0.2)},
                )
            )
        ]
    )
    report = run_all_checks(suite, ds)
    result = report.result("c1")
    # I sits at 6/9 (pass); II at 3/9 breaches (0.0, 0.2)
    assert result.n_evaluated == 2
    assert result.n_flagged == 1
    assert result.findings[0].scope == "category:II"
    assert result.prevalence == 0.5


def test_distribution_range_filter(schema):
    records = [
        rec("p1", "stage", "I"),
        rec("p1", "surgery", "yes", day(0)),
        rec("p2", "stage", "II"),  # filtered out: no surgery
    ]
    ds = dataset_of(schema, records)
    suite = CheckSuite(
        [
            check_of(
                DistributionRange(
                    variable="stage",
                    expected={"I": (0.9, 1.0)},
                    filter_expr=parse_check("value(surgery) = 'yes'"),
                )
            )
        ]
    )
    result = run_all_checks(suite, ds).result("c1")
    assert result.n_flagged == 0  # among surgical patients, I is 1/1


@pytest.mark.parametrize(
    "check, problem",
    [
        (
            check_of(DistributionRange(variable="er_result", expected={"positive": (0.0, 1.0)})),
            "checks[0].cohort.variable: er_result is an event_list variable, which holds many values per patient",
        ),
        (
            CheckDefinition(id="c1", expr=parse_check("value(stage) < 'III'")),
            "checks[0].expr: categories support only = and !=",
        ),
    ],
    ids=["distribution_over_an_event_list", "category_ordering"],
)
def test_run_all_checks_rejects_a_suite_that_does_not_fit_the_schema(schema, check, problem):
    """A suite built in code meets the schema check a loaded suite does,
    before any check runs."""
    ds = dataset_of(schema, [rec("p1", "stage", "I"), rec("p1", "er_result", "positive", day(0))])
    with pytest.raises(ConfigError) as exc:
        run_all_checks(CheckSuite([check]), ds)
    assert problem in str(exc.value)


def test_distribution_range_empty_is_not_applicable(schema):
    ds = dataset_of(schema, [rec("p1", "stage", "unknown")])
    suite = CheckSuite(
        [check_of(DistributionRange(variable="stage", expected={"I": (0.0, 1.0)}))]
    )
    result = run_all_checks(suite, ds).result("c1")
    assert result.n_not_applicable == 1
    assert result.prevalence is None


def monthly_records(counts, variable="surgery"):
    """counts[i] dated events in month i (starting 2019-01)."""
    records = []
    n = 0
    for i, c in enumerate(counts):
        y, m = divmod(i, 12)
        month_start = date(2019 + y, m + 1, 1)
        for j in range(c):
            records.append(
                rec(f"p{n:04d}", variable, "yes", month_start + timedelta(days=j % 28))
            )
            n += 1
    return records


def test_monthly_counts_zero_fill(schema):
    labels = LabelSet(
        schema,
        Source.LLM,
        [rec("p1", "surgery", "yes", date(2019, 1, 15)), rec("p2", "surgery", "yes", date(2019, 4, 2))],
    )
    months, counts = monthly_counts(labels, "surgery")
    assert months == ["2019-01", "2019-02", "2019-03", "2019-04"]
    assert counts == [1, 0, 0, 1]


def test_monthly_spike_flagged_exactly_once(schema):
    counts = [30] * 14
    counts[7] = 90
    ds = dataset_of(schema, monthly_records(counts))
    suite = CheckSuite(
        [check_of(MonthlyCountStability(variable="surgery", window_months=12, mad_k=5.0))]
    )
    result = run_all_checks(suite, ds).result("c1")
    assert result.n_flagged == 1
    assert result.findings[0].scope == "month:2019-08"


def test_monthly_poisson_noise_not_flagged(schema):
    # a tight MAD must not turn ordinary count noise into findings: the
    # robust scale is floored at the Poisson standard deviation
    counts = [30, 31, 29, 30, 31, 30, 29, 44, 30, 31, 29, 30, 31, 30]
    ds = dataset_of(schema, monthly_records(counts))
    suite = CheckSuite(
        [check_of(MonthlyCountStability(variable="surgery", window_months=12, mad_k=5.0))]
    )
    result = run_all_checks(suite, ds).result("c1")
    assert result.n_flagged == 0


def _monthly_result(schema, records):
    ds = dataset_of(schema, records)
    suite = CheckSuite(
        [check_of(MonthlyCountStability(variable="surgery", window_months=12))]
    )
    return run_all_checks(suite, ds).result("c1")


def test_monthly_window_longer_than_series_is_not_applicable(schema):
    # a series shorter than one window gives one not-applicable evaluation
    # instead of stopping the run
    result = _monthly_result(schema, monthly_records([5, 5, 5]))
    assert result.n_evaluated == 1
    assert result.n_not_applicable == 1
    assert result.n_flagged == 0


def test_monthly_without_dated_records_is_not_applicable(schema):
    result = _monthly_result(schema, [rec("p1", "surgery", "no"), rec("p2", "surgery", "unknown")])
    assert result.n_evaluated == 1
    assert result.n_not_applicable == 1
    assert result.n_flagged == 0


def test_monthly_window_below_two_rejected():
    with pytest.raises(ValueError, match="window_months: must be >= 2, got 1"):
        MonthlyCountStability(variable="surgery", window_months=1)


def test_stratified_rate_by_attribute(schema):
    records = []
    attrs = {}
    for i in range(10):
        pid = f"a{i}"
        records.append(rec(pid, "surgery", "yes" if i < 9 else "no", day(i)))
        attrs[pid] = {"site": "east"}
    for i in range(10):
        pid = f"b{i}"
        records.append(rec(pid, "surgery", "yes" if i < 5 else "no", day(i)))
        attrs[pid] = {"site": "west"}
    ds = dataset_of(schema, records, attrs=attrs)
    suite = CheckSuite(
        [
            check_of(
                StratifiedRateRange(
                    variable="surgery",
                    positive_value="yes",
                    by_attribute="site",
                    expected={"east": (0.8, 1.0), "west": (0.8, 1.0)},
                )
            )
        ]
    )
    result = run_all_checks(suite, ds).result("c1")
    assert result.n_flagged == 1
    assert result.findings[0].scope == "stratum:west"
    assert "0.5000" in result.findings[0].observed


def test_stratified_rate_by_variable(schema):
    records = [
        rec("p1", "stage", "I"),
        rec("p1", "surgery", "yes", day(0)),
        rec("p2", "stage", "I"),
        rec("p2", "surgery", "no"),
    ]
    ds = dataset_of(schema, records)
    suite = CheckSuite(
        [
            check_of(
                StratifiedRateRange(
                    variable="surgery",
                    positive_value="yes",
                    by_variable="stage",
                    expected={"I": (0.9, 1.0)},
                )
            )
        ]
    )
    result = run_all_checks(suite, ds).result("c1")
    assert result.n_flagged == 1  # 1/2 below the floor


def test_stratified_rate_requires_exactly_one_grouping():
    with pytest.raises(ValueError):
        StratifiedRateRange(
            variable="surgery",
            positive_value="yes",
            by_variable="stage",
            by_attribute="site",
            expected={"I": (0.0, 1.0)},
        )
    with pytest.raises(ValueError):
        StratifiedRateRange(
            variable="surgery", positive_value="yes", expected={"I": (0.0, 1.0)}
        )


# --- refresh stability ---


def refresh_sets(schema, v1_records, v2_records):
    v1 = LabelSet(schema, Source.LLM, v1_records, refresh_id="1")
    v2 = LabelSet(schema, Source.LLM, v2_records, refresh_id="2")
    return v1, v2


def test_refresh_change_classification(schema):
    v1, v2 = refresh_sets(
        schema,
        [
            rec("p1", "surgery", "yes", day(0)),
            rec("p2", "surgery", "yes", day(0)),
            rec("p3", "surgery", "yes", day(0)),
        ],
        [
            rec("p1", "surgery", "no"),           # value changed
            rec("p2", "surgery", "yes", day(40)),  # date moved
            # p3 removed
            rec("p4", "surgery", "yes", day(0)),   # newly added
        ],
    )
    delta = refresh_stability(v1, v2, "surgery")
    reasons = {c.patient_id: c.reason for c in delta.changed}
    assert reasons == {"p1": "value_changed", "p2": "date_moved", "p3": "removed"}
    assert delta.added == ["p4"]
    # each side prints as label text, and a side with no rows as "absent"
    assert [(c.before, c.after) for c in delta.changed] == [
        ("yes@2020-01-01", "no"),
        ("yes@2020-01-01", "yes@2020-02-10"),
        ("yes@2020-01-01", "absent"),
    ]


def test_refresh_tolerance_absorbs_small_moves(schema):
    v1, v2 = refresh_sets(
        schema,
        [rec("p1", "surgery", "yes", day(0))],
        [rec("p1", "surgery", "yes", day(3))],
    )
    assert refresh_stability(v1, v2, "surgery", tolerance_days=7).changed == []
    assert len(refresh_stability(v1, v2, "surgery").changed) == 1


def test_refresh_event_list_changes(schema):
    v1, v2 = refresh_sets(
        schema,
        [rec("p1", "er_result", "positive", day(0))],
        [
            rec("p1", "er_result", "positive", day(0)),
            rec("p1", "er_result", "negative", day(90)),
        ],
    )
    delta = refresh_stability(v1, v2, "er_result")
    assert [(c.reason, c.after) for c in delta.changed] == [
        ("events_changed", "positive@2020-01-01, negative@2020-03-31")
    ]


def test_refresh_requires_ordered_ids(schema):
    a = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")], refresh_id="2")
    b = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")], refresh_id="2")
    with pytest.raises(ValueError):
        refresh_stability(a, b, "stage")
    c = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")])
    with pytest.raises(ValueError):
        refresh_stability(c, a, "stage")
    # numeric ordering, not lexicographic: 10 follows 9
    d = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")], refresh_id="9")
    e = LabelSet(schema, Source.LLM, [rec("p1", "stage", "I")], refresh_id="10")
    assert refresh_stability(d, e, "stage").changed == []


def test_a_finding_prints_each_referenced_value_as_label_text(schema):
    expr = parse_check(
        "value(stage) = 'III' implies value(surgery) = 'yes' or value(tumor_size_mm) > 50 or not exists(er_result)",
        schema,
    )
    records = [
        rec("p1", "stage", "III"),
        rec("p1", "surgery", "no", day(0)),
        rec("p1", "tumor_size_mm", 12.5),
        rec("p1", "er_result", "positive", day(0)),
        rec("p1", "er_result", "negative", day(90)),
    ]
    check = CheckDefinition(id="c1", expr=expr)
    (finding,) = run_all_checks(CheckSuite([check]), dataset_of(schema, records)).findings()
    assert finding.observed == (
        "er_result=positive@2020-01-01, negative@2020-03-31; stage=III; surgery=no@2020-01-01; tumor_size_mm=12.5"
    )


def test_refresh_check_without_prior_snapshot_is_not_applicable(schema):
    ds = dataset_of(schema, [rec("p1", "surgery", "yes", day(0))])
    suite = CheckSuite([check_of(RefreshStability(variable="surgery"))])
    result = run_all_checks(suite, ds).result("c1")
    assert result.n_evaluated == 1
    assert result.n_not_applicable == 1
    assert result.n_flagged == 0


def test_refresh_check_with_prior_snapshot(schema):
    prior = LabelSet(
        schema,
        Source.LLM,
        [rec("p1", "surgery", "yes", day(0)), rec("p2", "surgery", "yes", day(0))],
        refresh_id="1",
    )
    current = LabelSet(
        schema,
        Source.LLM,
        [rec("p1", "surgery", "no"), rec("p2", "surgery", "yes", day(0))],
        refresh_id="2",
    )
    ds = CohortDataset(
        schema=schema,
        patients={"p1": {}, "p2": {}},
        label_sets={Source.LLM: current},
    )
    suite = CheckSuite([check_of(RefreshStability(variable="surgery"))])
    result = run_all_checks(suite, ds, previous=prior).result("c1")
    assert result.n_evaluated == 2  # patients present in the prior snapshot
    assert result.n_flagged == 1
    assert result.findings[0].observed == "value_changed: yes@2020-01-01 -> no"


# --- suite plumbing ---


def test_duplicate_check_ids_rejected(schema):
    expr = parse_check("exists(stage)", schema)
    mk = lambda: CheckDefinition(
        id="dup",
        category=CheckCategory.CONFORMANCE,
        level=CheckLevel.PATIENT,
        severity=Severity.WARNING,
        description="",
        expr=expr,
    )
    with pytest.raises(ValueError):
        CheckSuite([mk(), mk()])


def test_check_needs_exactly_one_body(schema):
    with pytest.raises(ValueError):
        CheckDefinition(
            id="x",
            category=CheckCategory.CONFORMANCE,
            level=CheckLevel.PATIENT,
            severity=Severity.WARNING,
            description="",
        )


def test_suite_from_dict_unknown_kind(schema):
    doc = {
        "checks": [
            {
                "id": "x",
                "cohort": {"kind": "nope", "variable": "stage"},
            }
        ]
    }
    with pytest.raises(ValueError):
        suite_from_dict(doc, schema)


def test_suite_from_dict_bad_range(schema):
    doc = {
        "checks": [
            {
                "id": "x",
                "cohort": {
                    "kind": "distribution_range",
                    "variable": "stage",
                    "expected": {"I": [0.9]},
                },
            }
        ]
    }
    with pytest.raises(ValueError):
        suite_from_dict(doc, schema)


def _rate_by_stage(expected):
    cohort = {
        "kind": "stratified_rate_range",
        "variable": "surgery",
        "positive_value": "yes",
        "by": {"variable": "stage"},
        "expected": expected,
    }
    return {"checks": [{"id": "x", "cohort": cohort}]}


def test_by_variable_strata_are_its_known_values_or_missing(schema):
    suite = suite_from_dict(_rate_by_stage({"I": [0.0, 1.0], "missing": [0.0, 1.0]}), schema)
    assert set(suite.checks[0].cohort.expected) == {"I", "missing"}
    with pytest.raises(ValueError, match=r"checks\[0\]\.cohort\.expected\.IIII: stage has no known value 'IIII'"):
        suite_from_dict(_rate_by_stage({"I": [0.0, 1.0], "IIII": [0.0, 1.0]}), schema)
    # the documented-unknown token is no stratum: its patients fall under missing
    with pytest.raises(ValueError, match=r"expected\.unknown: stage has no known value 'unknown'"):
        suite_from_dict(_rate_by_stage({"unknown": [0.0, 1.0]}), schema)


@pytest.mark.parametrize("variable, dated", [("stage", False), ("tumor_size_mm", False), ("surgery", True), ("er_result", True)])
def test_monthly_count_stability_needs_a_dated_variable(schema, variable, dated):
    doc = {"checks": [{"id": "x", "cohort": {"kind": "monthly_count_stability", "variable": variable}}]}
    if dated:
        assert suite_from_dict(doc, schema).checks[0].cohort.variable == variable
        return
    kind = schema[variable].kind.value
    with pytest.raises(ValueError, match=rf"checks\[0\]\.cohort\.variable: {variable} is a {kind} variable"):
        suite_from_dict(doc, schema)


def test_packaged_default_suite_loads():
    suite = load_suite(default_suite_path(), breast_schema())
    assert len(suite) == 12
    ids = [c.id for c in suite]
    assert len(set(ids)) == 12
    kinds = {type(c.cohort).__name__ for c in suite if c.cohort is not None}
    assert kinds == {
        "DistributionRange",
        "MonthlyCountStability",
        "StratifiedRateRange",
        "RefreshStability",
    }


def test_run_all_checks_stratified_tallies(schema):
    records = [rec(f"p{i}", "stage", "I" if i < 3 else "II") for i in range(6)]
    attrs = {f"p{i}": {"site": "east" if i % 2 == 0 else "west"} for i in range(6)}
    ds = dataset_of(schema, records, attrs=attrs)
    expr = parse_check("value(stage) = 'I'", schema)
    suite = CheckSuite(
        [
            CheckDefinition(
                id="stage_is_one",
                category=CheckCategory.PLAUSIBILITY,
                level=CheckLevel.PATIENT,
                severity=Severity.WARNING,
                description="",
                expr=expr,
            )
        ]
    )
    result = run_all_checks(suite, ds, strata=["site"], min_stratum_n=2).result(
        "stage_is_one"
    )
    assert result.n_evaluated == 6
    assert result.n_flagged == 3
    east = result.stratified["site"]["east"]
    assert east.n_evaluated == 3
    assert not east.suppressed
    tiny = run_all_checks(suite, ds, strata=["site"], min_stratum_n=10).result(
        "stage_is_one"
    )
    assert tiny.stratified["site"]["east"].suppressed


def test_stratum_tallies_sum_to_check_totals(schema):
    # every patient lands in exactly one stratum per attribute, so each
    # attribute's strata partition the check's three counts
    records, attrs = [], {}
    for i in range(40):
        pid = f"p{i:02d}"
        if i % 5:
            records.append(rec(pid, "stage", ["I", "II", "III", "unknown"][i % 4]))
        if i % 3:
            records.append(rec(pid, "surgery", "yes" if i % 2 else "no", day(i)))
        attrs[pid] = {"site": ["east", "west", "north"][i % 3]}
        if i % 7:
            attrs[pid]["sex"] = "F" if i % 2 else "M"  # absent reads as missing
    ds = dataset_of(schema, records, patients=sorted(attrs), attrs=attrs)
    texts = {
        "stage_one": "value(stage) = 'I'",
        "surgery_needs_stage": "value(surgery) = 'yes' implies known(stage)",
        "stage_or_surgery": "value(stage) != 'III' or exists(surgery)",
    }
    suite = CheckSuite(
        [
            CheckDefinition(
                id=cid,
                category=CheckCategory.CONSISTENCY,
                level=CheckLevel.PATIENT,
                severity=Severity.WARNING,
                description="",
                expr=parse_check(text, schema),
            )
            for cid, text in texts.items()
        ]
    )
    report = run_all_checks(suite, ds, strata=["site", "sex"], min_stratum_n=5)
    for cid in texts:
        result = report.result(cid)
        assert result.n_evaluated == 40
        assert result.n_flagged == len(result.findings)
        assert sorted(result.stratified) == ["sex", "site"]
        for attr, tallies in result.stratified.items():
            for count in ("n_evaluated", "n_flagged", "n_not_applicable"):
                total = sum(getattr(t, count) for t in tallies.values())
                assert total == getattr(result, count), (cid, attr, count)
    assert sum(r.n_flagged for r in report.results) > 0
    assert sum(r.n_not_applicable for r in report.results) > 0
