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
    string      = "'" , { any char except "'" } , "'" ;
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
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import date as date_type
from datetime import datetime
from enum import Enum

from ..schema import Schema, VariableKind


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


def _kleene(truths: Iterable[Truth], decisive: Truth) -> Truth:
    """Kleene's strong conjunction (``decisive`` FALSE) or disjunction
    (``decisive`` TRUE) of lazily produced truths.

    Stops at the first decisive value; otherwise UNKNOWN if any value was,
    else the negation of ``decisive``.
    """
    out = _NEGATION[decisive]
    for truth in truths:
        if truth is decisive:
            return decisive
        if truth is Truth.UNKNOWN:
            out = Truth.UNKNOWN
    return out


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
  | (?P<string>'[^']*')
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
            return Lit(tok.text[1:-1])
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


def parse_check(text: str, schema: Schema | None = None) -> Expr:
    """Parse (and, given a schema, type-check) one check expression."""
    parser = _Parser(text)
    expr = parser.expr()
    tail = parser.peek()
    if tail.kind != "end":
        raise CheckSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
    if schema is not None:
        typecheck(expr, schema)
    return expr


# ---- types ----

_CATEGORY, _NUMBER, _DATE, _DURATION = "category", "number", "date", "duration"


def _operand_type(op: Operand, schema: Schema) -> str:
    if isinstance(op, Value):
        spec = schema[op.var]  # raises SchemaError -> unknown variable
        return _NUMBER if spec.kind == VariableKind.NUMERIC else _CATEGORY
    if isinstance(op, DateOf):
        spec = schema[op.var]
        if not spec.kind.has_dates:
            raise CheckTypeError(
                f"date({op.var}): {spec.kind.value} variables carry no date"
            )
        return _DATE
    if isinstance(op, DaysBetween):
        for side in (op.left, op.right):
            if _operand_type(side, schema) != _DATE:
                raise CheckTypeError("days_between() arguments must be dates")
        return _DURATION
    if isinstance(op, Lit):
        v = op.value
        if isinstance(v, str):
            return _CATEGORY
        if isinstance(v, Duration):
            return _DURATION
        if isinstance(v, date_type):
            return _DATE
        return _NUMBER
    raise CheckTypeError(f"unsupported operand {op!r}")


def _check_literal_membership(a: Operand, b: Operand, schema: Schema) -> None:
    if isinstance(a, Value) and isinstance(b, Lit) and isinstance(b.value, str):
        allowed = schema[a.var].allowed_values
        if allowed is not None and b.value not in allowed:
            raise CheckTypeError(
                f"{a.var}: literal {b.value!r} is not an allowed value "
                f"({sorted(allowed)})"
            )


def typecheck(expr: Expr, schema: Schema) -> None:
    """Raise CheckTypeError (or SchemaError for unknown variables)."""
    if isinstance(expr, Cmp):
        lt = _operand_type(expr.left, schema)
        rt = _operand_type(expr.right, schema)
        if lt != rt:
            raise CheckTypeError(f"cannot compare {lt} with {rt}")
        if expr.op in ("before", "after") and lt != _DATE:
            raise CheckTypeError(f"{expr.op!r} applies to dates, not {lt}")
        if lt == _CATEGORY and expr.op not in ("=", "!="):
            raise CheckTypeError(f"categories support only = and !=, not {expr.op!r}")
        _check_literal_membership(expr.left, expr.right, schema)
        _check_literal_membership(expr.right, expr.left, schema)
    elif isinstance(expr, WithinDays):
        for side in (expr.left, expr.right):
            if _operand_type(side, schema) != _DATE:
                raise CheckTypeError("within_days() arguments must be dates")
        if expr.days.days < 0:
            raise CheckTypeError("within_days() needs a non-negative day count")
    elif isinstance(expr, (Exists, Known)):
        schema[expr.var]
    elif isinstance(expr, Not):
        typecheck(expr.item, schema)
    elif isinstance(expr, (And, Or)):
        for item in expr.items:
            typecheck(item, schema)
    elif isinstance(expr, Implies):
        typecheck(expr.antecedent, schema)
        typecheck(expr.consequent, schema)
    else:
        raise CheckTypeError(f"not a boolean expression: {expr!r}")


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
    if isinstance(v, str):
        return f"'{v}'"
    if isinstance(v, Duration):
        return str(v)
    if isinstance(v, date_type):
        return v.isoformat()
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


# ---- evaluation ----


def _known_entries(view: dict, schema: Schema, var: str) -> list[tuple[str | float, object]]:
    """Documented, non-unknown (value, date) entries for one variable."""
    if var not in view:
        return []
    spec = schema[var]
    entry = view[var]
    if spec.kind == VariableKind.EVENT_LIST:
        pairs = list(entry)
    elif spec.kind == VariableKind.DATE:
        pairs = [entry]
    else:
        pairs = [(entry, None)]
    return [
        (v, d)
        for v, d in pairs
        if not (spec.unknown_token is not None and v == spec.unknown_token)
    ]


def _operand_values(op: Operand, view: dict, schema: Schema) -> list:
    if isinstance(op, Value):
        return [v for v, _ in _known_entries(view, schema, op.var)]
    if isinstance(op, DateOf):
        return [d for _, d in _known_entries(view, schema, op.var) if d is not None]
    if isinstance(op, Lit):
        v = op.value
        return [v.days if isinstance(v, Duration) else v]
    if isinstance(op, DaysBetween):
        lefts = _operand_values(op.left, view, schema)
        rights = _operand_values(op.right, view, schema)
        return [(b - a).days for a in lefts for b in rights]
    raise TypeError(f"not an operand: {op!r}")


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


def _exists_truth(found: bool, left: list, right: list) -> Truth:
    if not left or not right:
        return Truth.UNKNOWN
    return Truth.TRUE if found else Truth.FALSE


def evaluate(expr: Expr, view: dict, schema: Schema) -> Truth:
    """Three-valued truth of an expression over one patient view.

    Comparison atoms hold when some pair of documented known values
    satisfies them; they are indeterminate when either side has no
    documented known value. ``exists``/``known`` are always determinate.
    Adding documentation can only move atoms from indeterminate to
    determinate, so a passing check never becomes not-applicable as charts
    accrue.
    """
    if isinstance(expr, Cmp):
        left = _operand_values(expr.left, view, schema)
        right = _operand_values(expr.right, view, schema)
        fn = _CMP_FUNCS[expr.op]
        found = any(fn(a, b) for a in left for b in right)
        return _exists_truth(found, left, right)
    if isinstance(expr, WithinDays):
        left = _operand_values(expr.left, view, schema)
        right = _operand_values(expr.right, view, schema)
        found = any(abs((b - a).days) <= expr.days.days for a in left for b in right)
        return _exists_truth(found, left, right)
    if isinstance(expr, Exists):
        return Truth.TRUE if expr.var in view else Truth.FALSE
    if isinstance(expr, Known):
        return (
            Truth.TRUE if _known_entries(view, schema, expr.var) else Truth.FALSE
        )
    if isinstance(expr, Not):
        return _NEGATION[evaluate(expr.item, view, schema)]
    if isinstance(expr, And):
        return _kleene((evaluate(i, view, schema) for i in expr.items), Truth.FALSE)
    if isinstance(expr, Or):
        return _kleene((evaluate(i, view, schema) for i in expr.items), Truth.TRUE)
    if isinstance(expr, Implies):
        # (not a) or b; a FALSE decides it without evaluating b
        antecedent = evaluate(expr.antecedent, view, schema)
        if antecedent is Truth.FALSE:
            return Truth.TRUE
        consequent = evaluate(expr.consequent, view, schema)
        return _kleene((_NEGATION[antecedent], consequent), Truth.TRUE)
    raise TypeError(f"not an expression: {expr!r}")


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
