"""The one reader of ``run.yaml``, ``schema.yaml`` and check suites.

``load_yaml`` parses a file, through libyaml when PyYAML was built with
it; ``read_spec`` reads a document into one spec dataclass per mapping and
lists every problem with its YAML path from the document root;
``schema_problems`` then checks a read spec against the schema. A field
reads the YAML key of its name; its ``yaml`` metadata may say False (not
read) or a pair such as ``("by", "variable")`` (``variable`` in the
mapping under ``by``).
"""
from __future__ import annotations

import sys
from collections.abc import Callable, Iterator
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from pathlib import Path
from types import NoneType, UnionType
from typing import Annotated, Union, get_args, get_origin, get_type_hints

import yaml

from .schema import Schema, VariableKind


class ConfigError(ValueError):
    """A config, schema or check suite is malformed or references missing inputs; ``problems`` lists each."""

    def __init__(self, *problems: str):
        self.problems = list(problems)
        head = f"{len(problems)} problems:\n  " if len(problems) > 1 else ""
        super().__init__(head + "\n  ".join(problems))

    def in_file(self, path) -> ConfigError:
        """This error with each problem prefixed by the file it is in."""
        return ConfigError(*(f"{path}: {p}" for p in self.problems))


@dataclass(frozen=True, eq=False)  # hashed by identity, as typing.Union hashes its members
class OneOf:
    """A mapping that names its spec under ``key``; absent, the key reads ``default``."""

    key: str
    specs: dict[str, type]
    default: str | None = None

    def read(self, value, path: str, problems: list[str]):
        if not isinstance(value, dict):
            problems.append(f"{path}: must be a mapping, got {value!r}")
            return None
        tag = value.get(self.key, self.default)
        if isinstance(tag, str) and tag in self.specs:
            rest = {k: v for k, v in value.items() if k != self.key}
            return _parse(self.specs[tag], rest, path, problems)
        problems.append(f"{_key(path, self.key)}: must be one of {', '.join(self.specs)}, got {tag!r}")
        return None


@dataclass(frozen=True, eq=False)
class Parsed:
    """Text read by ``parse`` (a ``ValueError`` is a problem), checked by ``schema_problems`` with ``check``."""

    parse: Callable[[str], object]
    check: Callable[[object, Schema], None]

    def read(self, value, path: str, problems: list[str]):
        text = _value(str, value, path, problems)
        try:
            return None if text is None else self.parse(text)
        except ValueError as exc:
            problems.append(f"{path}: {exc}")
            return None


def token_of(
    variable: str, default=MISSING, *, default_factory=MISSING, also: frozenset[str] = frozenset()
) -> Field:
    """A field holding a category token, or a mapping keyed by tokens; each
    must be a known value of the variable that the field ``variable`` names,
    or one of ``also``."""
    metadata = {"token_of": variable, "also": also}
    return field(default=default, default_factory=default_factory, metadata=metadata)


def dated_variable() -> Field:
    """A required field naming a variable that must carry dates (date or event_list)."""
    return field(metadata={"dated": True})


def single_valued_variable(default=MISSING, *, yaml=None) -> Field:
    """A field naming a variable with one value per patient (any kind but
    event_list); required unless given a ``default``. ``yaml`` is the
    field's YAML key, when not its name."""
    metadata = {"single_valued": True} if yaml is None else {"single_valued": True, "yaml": yaml}
    return field(default=default, metadata=metadata)


def at_least(spec, minimum: int, *names: str) -> None:
    """Raise ``ValueError`` naming the first of the integer fields below ``minimum``."""
    for name in names:
        value = getattr(spec, name)
        if value is not None and value < minimum:
            raise ValueError(f"{name}: must be >= {minimum}, got {value}")


def _key(path: str, key) -> str:
    """The YAML path of ``key`` in the mapping at ``path``."""
    if isinstance(key, tuple):
        key = ".".join(map(str, key))
    return f"{path}.{key}" if path else str(key)


@cache
def _yaml_fields(cls) -> dict[object, tuple[Field, object]]:
    """(field, type hint) of each field of ``cls`` read from YAML, by YAML key."""
    hints = get_type_hints(cls, include_extras=True)
    keys = {f: f.metadata.get("yaml", f.name) for f in fields(cls)}
    return {key: (f, hints[f.name]) for f, key in keys.items() if key is not False}


def _parsed(hint) -> Parsed | None:
    """The ``Parsed`` hook of a field's type, optional or not."""
    for arg in (hint, *get_args(hint)):
        if get_origin(arg) is Annotated and isinstance(arg.__metadata__[0], Parsed):
            return arg.__metadata__[0]
    return None


# what a message says a type accepts, in the singular and the plural
_ACCEPTS = {
    str: ("a string", "strings"),
    Path: ("a path", "paths"),
    int: ("an integer", "integers"),
    float: ("a finite number", "finite numbers"),
    bool: ("true or false", "booleans"),
}
_SEQUENCES = (tuple, list, frozenset)


def _accepts(hint, plural: bool = False) -> str:
    origin, args = get_origin(hint), get_args(hint)
    if origin in _SEQUENCES:
        items = _accepts(args[0], plural=True)
        # every fixed-length tuple in the specs is a pair
        return f"a list of two {items}" if origin is tuple and args[-1] is not Ellipsis else f"a list of {items}"
    if hint in _ACCEPTS:
        return _ACCEPTS[hint][plural]
    if isinstance(hint, type) and issubclass(hint, Enum):
        return f"one of {', '.join(m.value for m in hint)}"
    return "mappings" if plural else "a mapping"


def _value(hint, value, path: str, problems: list[str]):
    """``value`` read as the type ``hint``; on a problem, record it and return None."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):  # X | None: a null value never gets here
        (hint,) = [a for a in args if a is not NoneType]
        return _value(hint, value, path, problems)
    if origin is Annotated:  # one of several specs, or parsed text
        return hint.__metadata__[0].read(value, path, problems)
    if is_dataclass(hint):
        if isinstance(value, dict):
            return _parse(hint, value, path, problems)
    elif origin in _SEQUENCES:
        fixed = origin is tuple and args[-1] is not Ellipsis
        if isinstance(value, list) and (not fixed or len(value) == len(args)):
            # a fixed-length tuple is reported whole, a list item by item
            found = [] if fixed else problems
            types = args if fixed else args[:1] * len(value)
            items = [_value(t, v, f"{path}[{i}]", found) for i, (t, v) in enumerate(zip(types, value))]
            if not (fixed and found):
                return origin(items)
    elif origin is dict:
        if isinstance(value, dict):
            return {
                _value(args[0], k, path, problems): _value(args[1], v, _key(path, k), problems)
                for k, v in value.items()
            }
    elif hint is bool:
        if isinstance(value, bool):
            return value
    elif hint is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
    elif hint is float:  # NaN fails the comparison; an int too large for a float fails it too
        if isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(value, bool):  # a token: PyYAML reads a bare yes, no, on or off as a boolean
        problems.append(f"{path}: YAML reads {value} as a boolean; quote the token")
        return None
    elif isinstance(value, (str, int, float)):  # a token: str, Path or an Enum of str
        try:
            return hint(str(value))
        except ValueError:  # not a member of the Enum
            pass
    problems.append(f"{path or 'the document'}: must be {_accepts(hint)}, got {value!r}")
    return None


def _parse(cls, value: dict, path: str, problems: list[str]):
    """The spec ``cls`` read from the mapping ``value`` at YAML ``path``.

    Every unknown key, missing required key (a field with no default) and
    ill-typed value is recorded in ``problems`` with its YAML path, and
    None is returned. A null value reads as the field's default. A spec's
    own check raises ``ValueError`` naming the field first.
    """
    known = _yaml_fields(cls)
    groups = {key[0] for key in known if isinstance(key, tuple)}
    before = len(problems)
    flat = {}  # the mapping under a key in groups is read as (key, its key) pairs
    for key, item in value.items():
        if key not in groups:
            flat[key] = item
        elif isinstance(item, dict):
            flat.update({(key, k): v for k, v in item.items()})
        elif item is not None:
            problems.append(f"{_key(path, key)}: must be a mapping, got {item!r}")
    for key in flat:
        if key not in known:
            takes = ", ".join(_key("", k) for k in known)
            problems.append(f"{_key(path, key)}: unknown key; {path or 'the document'} takes {takes}")
    kwargs = {}
    for key, (f, hint) in known.items():
        if flat.get(key) is not None:
            kwargs[f.name] = _value(hint, flat[key], _key(path, key), problems)
        elif f.default is MISSING and f.default_factory is MISSING:
            problems.append(f"{_key(path, key)}: required")
    if len(problems) > before:
        return None
    try:
        return cls(**kwargs)
    except ValueError as exc:
        problems.append(_key(path, exc))
        return None


# libyaml's parser builds the same documents as the pure-Python one, several
# times faster; both raise yaml.YAMLError naming the file and line
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path: str | Path):
    """The YAML document in the file at ``path``, read as ``yaml.safe_load`` reads it."""
    with open(path) as fh:
        return yaml.load(fh, Loader=_LOADER)


def read_spec(cls, doc):
    """The spec ``cls`` read from the YAML document ``doc``; a ``ConfigError`` lists every problem."""
    problems: list[str] = []
    spec = _value(cls, doc, "", problems)
    if problems:
        raise ConfigError(*problems)
    return spec


def _nested_specs(spec, path: str = "") -> Iterator[tuple[str, object]]:
    """(YAML path, spec) of ``spec`` and of every spec nested in it; a parsed value is not a spec."""
    yield path, spec
    for key, (f, hint) in _yaml_fields(type(spec)).items():
        value, where = getattr(spec, f.name), _key(path, key)
        if is_dataclass(value) and _parsed(hint) is None:
            yield from _nested_specs(value, where)
        elif isinstance(value, (tuple, list)):
            for i, item in enumerate(value):
                if is_dataclass(item):
                    yield from _nested_specs(item, f"{where}[{i}]")


def schema_problems(spec, schema: Schema) -> list[str]:
    """Every problem of a read ``spec`` against ``schema``, with its YAML path: a ``*variable``
    field naming no variable, a ``dated_variable`` naming one without dates, a
    ``single_valued_variable`` naming an event list, a ``Parsed`` value its ``check`` rejects,
    a ``token_of`` unknown token."""
    problems = []
    for where, item in _nested_specs(spec):
        for key, (f, hint) in _yaml_fields(type(item)).items():
            value, at, hook = getattr(item, f.name), _key(where, key), _parsed(hint)
            if value is None:
                continue
            if f.name.endswith("variable") and value not in schema:
                problems.append(f"{at}: unknown variable {value!r}")
            elif f.metadata.get("dated") and not schema[value].kind.has_dates:
                kind = schema[value].kind.value
                problems.append(f"{at}: {value} is a {kind} variable, which carries no date")
            elif f.metadata.get("single_valued") and schema[value].kind == VariableKind.EVENT_LIST:
                problems.append(f"{at}: {value} is an event_list variable, which holds many values per patient")
            elif hook is not None:
                try:
                    hook.check(value, schema)
                except ValueError as exc:  # a type error, or an unknown variable
                    problems.append(f"{at}: {exc}")
            elif "token_of" in f.metadata:
                variable = getattr(item, f.metadata["token_of"])
                known = schema[variable].known_values if variable in schema else None
                if known is not None:
                    known |= f.metadata["also"]
                tokens = {_key(at, t): t for t in value} if isinstance(value, dict) else {at: value}
                problems += [
                    f"{p}: {variable} has no known value {t!r}; known: {sorted(known)}"
                    for p, t in tokens.items()
                    if known is not None and t not in known
                ]
    return problems
