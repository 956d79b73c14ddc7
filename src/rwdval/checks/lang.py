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
from collections.abc import Callable
from dataclasses import dataclass
from datetime import date as date_type
from datetime import datetime
from decimal import Decimal
from enum import Enum

from ..schema import RowView, Schema, VariableKind


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


_NEGATION = {Truth.TRUE: Truth.FALSE, Truth.FALSE: Truth.TRUE, Truth.UNKNOWN: Truth.UNKNOWN}


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
                return Lit(datetime.strptime(tok.text, "%Y-%m-%d").date())
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


# A compiled check: the truth of one expression over one patient's row view.
CompiledCheck = Callable[[RowView], Truth]
# A compiled operand's values over one patient's row view.
Values = Callable[[RowView], list]


def _compile_known(var: str, unknown: str | None, dates: bool) -> Values:
    """The documented known values of ``value(var)`` (or, with ``dates``,
    ``date(var)``), with the variable's unknown token bound once."""
    if dates:  # rows of categorical and numeric variables carry no date
        def known(view):
            return [d for v, d, _ in view.get(var, ()) if v != unknown and d is not None]
    else:
        def known(view):
            return [v for v, _, _ in view.get(var, ()) if v != unknown]
    return known


def _compile_operand(op: Operand, schema: Schema) -> tuple[str, Values]:
    """The type of ``op`` and its values; a variable the schema lacks raises ``SchemaError``."""
    if isinstance(op, Value):
        spec = schema[op.var]
        kind = _NUMBER if spec.kind == VariableKind.NUMERIC else _CATEGORY
        return kind, _compile_known(op.var, spec.unknown_token, dates=False)
    if isinstance(op, DateOf):
        spec = schema[op.var]
        if not spec.kind.has_dates:
            raise CheckTypeError(f"date({op.var}): {spec.kind.value} variables carry no date")
        return _DATE, _compile_known(op.var, spec.unknown_token, dates=True)
    if isinstance(op, Lit):
        v = op.value
        kind = next((t for cls, t in _LITERAL_TYPES if isinstance(v, cls)), _NUMBER)
        values = [v.days if isinstance(v, Duration) else v]
        return kind, lambda view: values
    if isinstance(op, DaysBetween):
        left = _compile_dates(op.left, schema, "days_between")
        right = _compile_dates(op.right, schema, "days_between")

        def days_between(view):
            lefts, rights = left(view), right(view)
            return [(b - a).days for a in lefts for b in rights]

        return _DURATION, days_between
    raise CheckTypeError(f"unsupported operand {op!r}")


def _compile_dates(op: Operand, schema: Schema, function: str) -> Values:
    """The values of ``op``, an argument of ``function()``, which takes only dates."""
    kind, values = _compile_operand(op, schema)
    if kind != _DATE:
        raise CheckTypeError(f"{function}() arguments must be dates")
    return values


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


def _compile_pairs(left_values: Values, right_values: Values, holds) -> CompiledCheck:
    """An atom that holds when some pair of documented known values satisfies ``holds``."""
    TRUE, FALSE, UNKNOWN = Truth.TRUE, Truth.FALSE, Truth.UNKNOWN

    def atom(view):
        left = left_values(view)
        right = right_values(view)
        if not left or not right:
            return UNKNOWN
        for a in left:
            for b in right:
                if holds(a, b):
                    return TRUE
        return FALSE

    return atom


def compile_check(expr: Expr, schema: Schema) -> CompiledCheck:
    """``expr`` type-checked against ``schema`` and compiled to nested
    closures that give its three-valued truth over one patient's rows, as
    ``patient_view`` returns them (refresh ids are ignored).

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
    accrue. This is the one evaluator; the interpreter in
    ``tests/oracles.py`` is the oracle it is tested against.
    """
    TRUE, FALSE, UNKNOWN = Truth.TRUE, Truth.FALSE, Truth.UNKNOWN
    if isinstance(expr, Cmp):
        lt, left = _compile_operand(expr.left, schema)
        rt, right = _compile_operand(expr.right, schema)
        if lt != rt:
            raise CheckTypeError(f"cannot compare {lt} with {rt}")
        if expr.op in ("before", "after") and lt != _DATE:
            raise CheckTypeError(f"{expr.op!r} applies to dates, not {lt}")
        if lt == _CATEGORY and expr.op not in ("=", "!="):
            raise CheckTypeError(f"categories support only = and !=, not {expr.op!r}")
        _check_literal_membership(expr.left, expr.right, schema)
        _check_literal_membership(expr.right, expr.left, schema)
        return _compile_pairs(left, right, _CMP_FUNCS[expr.op])
    if isinstance(expr, WithinDays):
        left = _compile_dates(expr.left, schema, "within_days")
        right = _compile_dates(expr.right, schema, "within_days")
        days = expr.days.days
        if days < 0:
            raise CheckTypeError("within_days() needs a non-negative day count")
        return _compile_pairs(left, right, lambda a, b: abs((b - a).days) <= days)
    if isinstance(expr, Exists):
        var = expr.var
        schema[var]
        return lambda view: TRUE if var in view else FALSE
    if isinstance(expr, Known):
        values = _compile_known(expr.var, schema[expr.var].unknown_token, dates=False)
        return lambda view: TRUE if values(view) else FALSE
    if isinstance(expr, Not):
        item = compile_check(expr.item, schema)
        return lambda view: _NEGATION[item(view)]
    if isinstance(expr, (And, Or)):
        items = tuple(compile_check(i, schema) for i in expr.items)
        decisive = FALSE if isinstance(expr, And) else TRUE
        otherwise = _NEGATION[decisive]

        def fold(view):  # Kleene's and/or, stopping at the first decisive item
            out = otherwise
            for item in items:
                truth = item(view)
                if truth is decisive:
                    return decisive
                if truth is UNKNOWN:
                    out = UNKNOWN
            return out

        return fold
    if isinstance(expr, Implies):
        antecedent = compile_check(expr.antecedent, schema)
        consequent = compile_check(expr.consequent, schema)

        def implies(view):  # (not a) or b; a FALSE decides it without evaluating b
            a = antecedent(view)
            if a is FALSE:
                return TRUE
            b = consequent(view)
            if b is TRUE:
                return TRUE
            return UNKNOWN if a is UNKNOWN or b is UNKNOWN else FALSE

        return implies
    raise CheckTypeError(f"not a boolean expression: {expr!r}")


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
