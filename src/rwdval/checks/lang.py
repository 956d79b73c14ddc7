"""Declarative patient-check expression language.

Grammar (EBNF; keywords are case-sensitive, whitespace insignificant):

    expr        = or_expr , [ "implies" , expr ] ;          (* right assoc *)
    or_expr     = and_expr , { "or" , and_expr } ;
    and_expr    = unary , { "and" , unary } ;
    unary       = "not" , unary | primary ;
    primary     = "(" , expr , ")"
                | "exists" , "(" , ident , ")"
                | "known"  , "(" , ident , ")"
                | "within_days" , "(" , operand , "," , operand , "," , duration , ")"
                | comparison ;
    comparison  = operand , ( "=" | "!=" | "<" | "<=" | ">" | ">="
                            | "before" | "after" ) , operand ;
    operand     = "value" , "(" , ident , ")"
                | "date"  , "(" , ident , ")"
                | "days_between" , "(" , operand , "," , operand , ")"
                | literal ;
    literal     = string | number | iso_date | duration ;
    string      = "'" , { any char except "'" | "''" } , "'" ;   (* '' is one ' *)
    iso_date    = YYYY-MM-DD ;
    duration    = [ "-" ] , digits , "d" ;

Semantics are three-valued. Atoms over a variable draw on the documented
known values of that variable; for event-list variables an atom holds when
SOME documented event satisfies it (negate the atom to say "no event
does"). An atom whose referenced fields are missing or documented-unknown
is indeterminate, the connectives are Kleene's, and an indeterminate check
is reported not-applicable rather than failed. ``days_between(a, b)`` is
the signed day count b - a; durations are written like ``90d``.
"""
from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from datetime import date as date_type
from enum import Enum

import numpy as np

from ..labelio import parse_iso_date
from ..schema import Column, LabelSet, RowView, Schema, Source, VariableKind


class CheckSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class CheckTypeError(ValueError):
    """Expression is well-formed but inconsistent with the schema."""


class Truth(Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class Duration:
    days: int

    def __str__(self) -> str:
        return f"{self.days}d"


# ---- AST ----


@dataclass(frozen=True)
class Value:
    var: str


@dataclass(frozen=True)
class DateOf:
    var: str


@dataclass(frozen=True)
class Lit:
    value: str | int | float | date_type | Duration


@dataclass(frozen=True)
class DaysBetween:
    left: "Operand"
    right: "Operand"


Operand = Value | DateOf | Lit | DaysBetween


@dataclass(frozen=True)
class Cmp:
    op: str  # = != < <= > >= before after
    left: Operand
    right: Operand


@dataclass(frozen=True)
class WithinDays:
    left: Operand
    right: Operand
    days: Duration


@dataclass(frozen=True)
class Exists:
    var: str


@dataclass(frozen=True)
class Known:
    var: str


@dataclass(frozen=True)
class Not:
    item: "Expr"


@dataclass(frozen=True)
class And:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["Expr", ...]


@dataclass(frozen=True)
class Implies:
    antecedent: "Expr"
    consequent: "Expr"


Expr = Cmp | WithinDays | Exists | Known | Not | And | Or | Implies


# ---- lexer ----

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<iso_date>\d{4}-\d{2}-\d{2})
  | (?P<duration>-?\d+d\b)
  | (?P<number>-?\d+(?:\.\d+)?)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "and", "or", "not", "implies", "before", "after",
    "value", "date", "exists", "known", "days_between", "within_days",
}


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise CheckSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup or ""
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise CheckSyntaxError(f"expected {want!r}, found {tok.text or 'end'!r}", tok.pos)
        return self.next()

    def at_word(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.text in words

    # expr := or_expr [ 'implies' expr ]
    def expr(self) -> Expr:
        left = self.or_expr()
        if self.at_word("implies"):
            self.next()
            return Implies(left, self.expr())
        return left

    def or_expr(self) -> Expr:
        items = [self.and_expr()]
        while self.at_word("or"):
            self.next()
            items.append(self.and_expr())
        return items[0] if len(items) == 1 else Or(tuple(items))

    def and_expr(self) -> Expr:
        items = [self.unary()]
        while self.at_word("and"):
            self.next()
            items.append(self.unary())
        return items[0] if len(items) == 1 else And(tuple(items))

    def unary(self) -> Expr:
        if self.at_word("not"):
            self.next()
            return Not(self.unary())
        return self.primary()

    def primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "lparen":
            self.next()
            inner = self.expr()
            self.expect("rparen")
            return inner
        if self.at_word("exists", "known"):
            ctor = Exists if tok.text == "exists" else Known
            self.next()
            self.expect("lparen")
            var = self.ident()
            self.expect("rparen")
            return ctor(var)
        if self.at_word("within_days"):
            self.next()
            self.expect("lparen")
            left = self.operand()
            self.expect("comma")
            right = self.operand()
            self.expect("comma")
            days = self.duration_arg()
            self.expect("rparen")
            return WithinDays(left, right, days)
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.operand()
        tok = self.peek()
        if tok.kind == "op":
            self.next()
            return Cmp(tok.text, left, self.operand())
        if tok.kind == "word" and tok.text in ("before", "after"):
            self.next()
            return Cmp(tok.text, left, self.operand())
        raise CheckSyntaxError(
            f"expected a comparison operator, found {tok.text or 'end'!r}", tok.pos
        )

    def operand(self) -> Operand:
        tok = self.peek()
        if self.at_word("value", "date"):
            ctor = Value if tok.text == "value" else DateOf
            self.next()
            self.expect("lparen")
            var = self.ident()
            self.expect("rparen")
            return ctor(var)
        if self.at_word("days_between"):
            self.next()
            self.expect("lparen")
            left = self.operand()
            self.expect("comma")
            right = self.operand()
            self.expect("rparen")
            return DaysBetween(left, right)
        if tok.kind == "string":
            self.next()
            return Lit(tok.text[1:-1].replace("''", "'"))
        if tok.kind == "iso_date":
            self.next()
            try:
                return Lit(parse_iso_date(tok.text))
            except ValueError:
                raise CheckSyntaxError(f"invalid calendar date {tok.text!r}", tok.pos) from None
        if tok.kind == "duration":
            self.next()
            return Lit(Duration(int(tok.text[:-1])))
        if tok.kind == "number":
            self.next()
            num = float(tok.text) if "." in tok.text else int(tok.text)
            return Lit(num)
        raise CheckSyntaxError(f"expected an operand, found {tok.text or 'end'!r}", tok.pos)

    def duration_arg(self) -> Duration:
        tok = self.peek()
        if tok.kind == "duration":
            self.next()
            return Duration(int(tok.text[:-1]))
        if tok.kind == "number" and "." not in tok.text:
            self.next()
            return Duration(int(tok.text))
        raise CheckSyntaxError(
            f"expected a day count, found {tok.text or 'end'!r}", tok.pos
        )

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind != "word" or tok.text in _KEYWORDS:
            raise CheckSyntaxError(
                f"expected a variable name, found {tok.text or 'end'!r}", tok.pos
            )
        return self.next().text


def parse_check(text: str) -> Expr:
    """Parse one check expression; ``compile_check`` type-checks it against a schema."""
    parser = _Parser(text)
    expr = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise CheckSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return expr


# ---- printer ----

_PREC = {Implies: 1, Or: 2, And: 3, Not: 4}


def _print_operand(op: Operand) -> str:
    if isinstance(op, Value):
        return f"value({op.var})"
    if isinstance(op, DateOf):
        return f"date({op.var})"
    if isinstance(op, DaysBetween):
        return f"days_between({_print_operand(op.left)}, {_print_operand(op.right)})"
    v = op.value
    if isinstance(v, str):  # a quote inside the literal is doubled, as in SQL
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, Duration):
        return str(v)
    if isinstance(v, date_type):
        return v.isoformat()
    if isinstance(v, float):  # positional digits and a point: the lexer reads no exponent
        from decimal import Decimal  # only here, so that a run without float literals never loads it

        text = format(Decimal(repr(v)), "f")
        return text if "." in text else f"{text}.0"
    return repr(v)


def to_text(expr: Expr) -> str:
    """Canonical text form; parsing it back yields an equal AST."""

    def render(e: Expr, parent_prec: int) -> str:
        if isinstance(e, Cmp):
            text = f"{_print_operand(e.left)} {e.op} {_print_operand(e.right)}"
        elif isinstance(e, WithinDays):
            text = (
                f"within_days({_print_operand(e.left)}, "
                f"{_print_operand(e.right)}, {e.days})"
            )
        elif isinstance(e, Exists):
            text = f"exists({e.var})"
        elif isinstance(e, Known):
            text = f"known({e.var})"
        elif isinstance(e, Not):
            text = f"not {render(e.item, _PREC[Not])}"
        elif isinstance(e, And):
            text = " and ".join(render(i, _PREC[And] + 1) for i in e.items)
        elif isinstance(e, Or):
            text = " or ".join(render(i, _PREC[Or] + 1) for i in e.items)
        elif isinstance(e, Implies):
            text = (
                f"{render(e.antecedent, _PREC[Implies] + 1)} implies "
                f"{render(e.consequent, _PREC[Implies])}"
            )
        else:
            raise TypeError(f"not an expression: {e!r}")
        own = _PREC.get(type(e), 5)
        return f"({text})" if own < parent_prec else text

    return render(expr, 0)


# ---- compilation ----

_CATEGORY, _NUMBER, _DATE, _DURATION = "category", "number", "date", "duration"
_LITERAL_TYPES = ((str, _CATEGORY), (Duration, _DURATION), (date_type, _DATE))  # else a number

# each holds element-wise on numpy arrays as on two values
_CMP_FUNCS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "before": lambda a, b: a < b,
    "after": lambda a, b: a > b,
}

# A cohort's truths are int64 codes, the index of each patient's truth here.
# The order makes Kleene's connectives arithmetic: ``and`` is the minimum of
# its items' codes, ``or`` the maximum and ``not`` the code's complement to 2.
TRUTHS = (Truth.FALSE, Truth.UNKNOWN, Truth.TRUE)
TRUTH_CODES = {truth: code for code, truth in enumerate(TRUTHS)}


@dataclass(frozen=True, eq=False)
class _Keys:
    """An operand over a cohort whose variables hold one value per patient.

    ``keys[i]`` stands for patient ``i``'s value where ``has[i]``: a
    category or number is its index in ``table``, a date is its ordinal
    and a day count is itself (those have no ``table``).
    """

    keys: np.ndarray
    has: np.ndarray
    table: tuple | None = None

    def per_patient(self) -> list[Sequence]:
        """Each patient's values, as an atom over event lists reads them."""
        keys, table = self.keys.tolist(), self.table
        has = self.has.tolist()
        if table is not None:
            keys = [table[key] if known else None for key, known in zip(keys, has)]
        return [(key,) if known else () for key, known in zip(keys, has)]


# An operand's values over (labels, patients): ``_Keys``, or for an operand
# that reads an event list, each patient's list of values (dates as ordinals).
Operands = Callable[[LabelSet, tuple], "_Keys | list[list]"]
# An expression's truth codes over (labels, patients).
Truths = Callable[[LabelSet, tuple], np.ndarray]


def _per_patient(values: "_Keys | list[list]") -> list[list]:
    return values.per_patient() if isinstance(values, _Keys) else values


def _ranks(left: _Keys, right: _Keys) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides' category or number keys as ranks in one order, and where
    either side's value is NaN, which compares unequal to every value."""
    order = sorted({v for v in left.table + right.table if v == v})
    rank = {v: i for i, v in enumerate(order)}

    def ranked(side: _Keys) -> np.ndarray:
        lookup = np.array([rank.get(v, -1) for v in side.table] + [-1], dtype=np.int64)
        return lookup[np.where(side.has, side.keys, -1)]

    a, b = ranked(left), ranked(right)
    return a, b, (a < 0) | (b < 0)


def _compile_known(var: str, spec, dates: bool) -> tuple[bool, Operands]:
    """The documented known values of ``value(var)`` (or, with ``dates``,
    ``date(var)``), and whether the variable is an event list."""
    unknown = spec.unknown_token
    if spec.kind == VariableKind.EVENT_LIST:
        if dates:
            def known(labels, patients):
                return [
                    [d.toordinal() for v, d, _ in rows if v != unknown and d is not None] if rows else rows
                    for rows in labels._rows(var, patients)
                ]
        else:
            def known(labels, patients):
                return [
                    [v for v, _, _ in rows if v != unknown] if rows else rows
                    for rows in labels._rows(var, patients)
                ]
        return True, known
    if dates:
        def known(labels, patients):
            ordinals = labels.column(var, patients).dates
            return _Keys(ordinals, ordinals > 0)
    else:
        def known(labels, patients):
            column = labels.column(var, patients)
            return _Keys(column.codes, column.known, column.values)
    return False, known


def _compile_operand(op: Operand, schema: Schema) -> tuple[str, bool, Operands]:
    """The type of ``op``, whether it reads an event list, and its values; a
    variable the schema lacks raises ``SchemaError``."""
    if isinstance(op, Value):
        spec = schema[op.var]
        kind = _NUMBER if spec.kind == VariableKind.NUMERIC else _CATEGORY
        return (kind, *_compile_known(op.var, spec, dates=False))
    if isinstance(op, DateOf):
        spec = schema[op.var]
        if not spec.kind.has_dates:
            raise CheckTypeError(f"date({op.var}): {spec.kind.value} variables carry no date")
        return (_DATE, *_compile_known(op.var, spec, dates=True))
    if isinstance(op, Lit):
        v = op.value
        kind = next((t for cls, t in _LITERAL_TYPES if isinstance(v, cls)), _NUMBER)
        if kind in (_CATEGORY, _NUMBER):
            key, table = 0, (v,)
        else:
            key, table = v.days if kind == _DURATION else v.toordinal(), None

        def literal(labels, patients):
            # a day count beyond int64 fills an object array, which compares as Python ints do
            n = len(patients)
            return _Keys(np.full(n, key), np.ones(n, dtype=bool), table)

        return kind, False, literal
    if isinstance(op, DaysBetween):
        left_listed, left = _compile_dates(op.left, schema, "days_between")
        right_listed, right = _compile_dates(op.right, schema, "days_between")
        if left_listed or right_listed:
            def days_between(labels, patients):
                lefts = _per_patient(left(labels, patients))
                rights = _per_patient(right(labels, patients))
                return [[b - a for a in la for b in rb] for la, rb in zip(lefts, rights)]

            return _DURATION, True, days_between

        def days_between(labels, patients):
            a, b = left(labels, patients), right(labels, patients)
            return _Keys(b.keys - a.keys, a.has & b.has)

        return _DURATION, False, days_between
    raise CheckTypeError(f"unsupported operand {op!r}")


def _compile_dates(op: Operand, schema: Schema, function: str) -> tuple[bool, Operands]:
    """The values of ``op``, an argument of ``function()``, which takes only dates."""
    kind, listed, values = _compile_operand(op, schema)
    if kind != _DATE:
        raise CheckTypeError(f"{function}() arguments must be dates")
    return listed, values


def _check_literal_membership(a: Operand, b: Operand, schema: Schema) -> None:
    """A string literal compared with ``value(x)`` must be a known value of x."""
    if isinstance(a, Value) and isinstance(b, Lit) and isinstance(b.value, str):
        spec = schema[a.var]
        if b.value == spec.unknown_token:
            raise CheckTypeError(
                f"{a.var}: literal {b.value!r} is the unknown token, which value() never "
                f"reads; exists({a.var}) and not known({a.var}) finds a documented unknown"
            )
        allowed = spec.allowed_values
        if allowed is not None and b.value not in allowed:
            raise CheckTypeError(f"{a.var}: literal {b.value!r} is not an allowed value ({sorted(allowed)})")


def _compile_pairs(left: Operands, right: Operands, listed: bool, holds, nan_holds: bool = False) -> Truths:
    """An atom that holds when some pair of documented known values
    satisfies ``holds``; it is UNKNOWN where either side has none.

    Over single values ``holds`` compares whole key arrays at once, and a
    NaN on either side holds exactly when ``nan_holds``. An atom over an
    event list (``listed``) tries each patient's pairs in turn.
    """
    if listed:
        def atom(labels, patients):
            lefts = _per_patient(left(labels, patients))
            rights = _per_patient(right(labels, patients))
            return np.fromiter(
                (
                    1 if not a or not b else 2 if any(holds(x, y) for x in a for y in b) else 0
                    for a, b in zip(lefts, rights)
                ),
                dtype=np.int64,
                count=len(patients),
            )

        return atom

    def atom(labels, patients):
        a, b = left(labels, patients), right(labels, patients)
        if a.table is None:
            found = holds(a.keys, b.keys)
        else:
            ranks_a, ranks_b, nan = _ranks(a, b)
            found = np.where(nan, nan_holds, holds(ranks_a, ranks_b))
        return np.where(a.has & b.has, 2 * found, 1)

    return atom


def _compile(expr: Expr, schema: Schema) -> Truths:
    """``expr`` type-checked against ``schema``, as a function of (labels,
    patients) to its truth codes; ``compile_check`` describes both."""
    if isinstance(expr, Cmp):
        lt, left_listed, left = _compile_operand(expr.left, schema)
        rt, right_listed, right = _compile_operand(expr.right, schema)
        if lt != rt:
            raise CheckTypeError(f"cannot compare {lt} with {rt}")
        if expr.op in ("before", "after") and lt != _DATE:
            raise CheckTypeError(f"{expr.op!r} applies to dates, not {lt}")
        if lt == _CATEGORY and expr.op not in ("=", "!="):
            raise CheckTypeError(f"categories support only = and !=, not {expr.op!r}")
        _check_literal_membership(expr.left, expr.right, schema)
        _check_literal_membership(expr.right, expr.left, schema)
        return _compile_pairs(
            left, right, left_listed or right_listed, _CMP_FUNCS[expr.op], nan_holds=expr.op == "!="
        )
    if isinstance(expr, WithinDays):
        left_listed, left = _compile_dates(expr.left, schema, "within_days")
        right_listed, right = _compile_dates(expr.right, schema, "within_days")
        days = expr.days.days
        if days < 0:
            raise CheckTypeError("within_days() needs a non-negative day count")
        # two bounds, not abs(): on key arrays that would page in a numpy loop nothing else in a run uses
        return _compile_pairs(
            left, right, left_listed or right_listed, lambda a, b: (b - a <= days) & (b - a >= -days)
        )
    if isinstance(expr, Exists):
        var = expr.var
        if schema[var].kind == VariableKind.EVENT_LIST:
            return lambda labels, patients: np.fromiter(
                (2 if rows else 0 for rows in labels._rows(var, patients)), dtype=np.int64, count=len(patients)
            )
        return lambda labels, patients: 2 * (labels.column(var, patients).codes != Column.MISSING)
    if isinstance(expr, Known):
        listed, values = _compile_known(expr.var, schema[expr.var], dates=False)
        if listed:
            return lambda labels, patients: np.fromiter(
                (2 if known else 0 for known in values(labels, patients)), dtype=np.int64, count=len(patients)
            )
        return lambda labels, patients: 2 * values(labels, patients).has
    if isinstance(expr, Not):
        item = _compile(expr.item, schema)
        return lambda labels, patients: 2 - item(labels, patients)
    if isinstance(expr, (And, Or)):
        items = tuple(_compile(i, schema) for i in expr.items)
        fold = np.minimum if isinstance(expr, And) else np.maximum
        return lambda labels, patients: fold.reduce([item(labels, patients) for item in items])
    if isinstance(expr, Implies):
        antecedent = _compile(expr.antecedent, schema)
        consequent = _compile(expr.consequent, schema)
        # (not a) or b
        return lambda labels, patients: np.maximum(2 - antecedent(labels, patients), consequent(labels, patients))
    raise CheckTypeError(f"not a boolean expression: {expr!r}")


class CompiledCheck:
    """A check expression compiled against a schema.

    ``over(labels, patients)`` evaluates it for every patient of a cohort
    at once; calling it on one patient's row view evaluates that view as a
    one-patient cohort through the same code.
    """

    def __init__(self, schema: Schema, truths: Truths):
        self.schema = schema
        self._truths = truths

    def over(self, labels: LabelSet, patients: Sequence[str]) -> np.ndarray:
        """The truth code (an index into ``TRUTHS``) of each of ``patients``
        in ``labels``, as an int64 array in their order."""
        return self._truths(labels, tuple(patients))

    def __call__(self, view: RowView) -> Truth:
        """The truth over one patient's rows, as ``patient_view`` returns them."""
        labels = LabelSet._from_store(self.schema, Source.LLM, {"": view} if view else {})
        return TRUTHS[self.over(labels, ("",))[0]]


def compile_check(expr: Expr, schema: Schema) -> CompiledCheck:
    """``expr`` type-checked against ``schema`` and compiled to a
    ``CompiledCheck``, which gives its three-valued truth for each patient
    of a cohort in one pass (refresh ids are ignored).

    It type-checks as it compiles, before any patient is evaluated: an
    ill-typed expression raises ``CheckTypeError`` (operands of two types,
    an order on categories, ``date()`` of an undated variable, a negative
    ``within_days``, a literal that is not a known value) and a variable
    the schema lacks raises ``SchemaError``.

    Comparison atoms hold when some pair of documented known values
    satisfies them; they are indeterminate when either side has no
    documented known value. ``exists``/``known`` are always determinate.
    Adding documentation can only move atoms from indeterminate to
    determinate, so a passing check never becomes not-applicable as charts
    accrue.

    Truths are the int64 codes of ``TRUTHS``: FALSE 0, UNKNOWN 1, TRUE 2, so
    ``and`` is an element-wise minimum, ``or`` a maximum, ``not`` is
    ``2 - x`` and ``a implies b`` is ``max(2 - a, b)``. Atoms over
    single-valued variables compare their ``LabelSet.column``s element-wise
    (categories and numbers by their rank among both sides' values); an
    atom that reads an event list tries each patient's pairs of values in
    turn. This is the one evaluator; the interpreter in
    ``tests/oracles.py`` is the oracle it is tested against.
    """
    return CompiledCheck(schema, _compile(expr, schema))


def referenced_variables(expr: Expr | Operand) -> set[str]:
    """Every variable name an expression touches."""
    if isinstance(expr, (Value, DateOf, Exists, Known)):
        return {expr.var}
    if isinstance(expr, Lit):
        return set()
    if isinstance(expr, (DaysBetween, Cmp, WithinDays)):
        return referenced_variables(expr.left) | referenced_variables(expr.right)
    if isinstance(expr, Not):
        return referenced_variables(expr.item)
    if isinstance(expr, (And, Or)):
        out: set[str] = set()
        for item in expr.items:
            out |= referenced_variables(item)
        return out
    if isinstance(expr, Implies):
        return referenced_variables(expr.antecedent) | referenced_variables(expr.consequent)
    raise TypeError(f"not an expression: {expr!r}")
