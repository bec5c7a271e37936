"""The records a session or path file holds: one rule checks every field
against its annotation, and their JSON form is read and written here."""

import dataclasses
import functools
import numbers
import typing

_KINDS = {int: "an integer", float: "a number", str: "a string", list: "an array",
          tuple: "an array", dict: "an object"}
# a bool is neither; the built-in types first spare most values the ABC check
_NUMBERS = {int: (int, numbers.Integral), float: (float, int, numbers.Real)}
# the exact types a field of each hint takes without a call to check_value
_EXACT = {int: (int,), float: (float, int), str: (str,)}


@functools.cache
def _rules(cls) -> dict:
    """Each field of `cls` by name: its hint, the exact value types that need
    no check_value call, and X if the hint is tuple[X, ...], else None."""
    return {name: (hint, _EXACT.get(hint, ()),
                   typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else None)
            for name, hint in typing.get_type_hints(cls).items()}


def check_value(name: str, hint, value) -> None:
    """Raise TypeError naming `name` and `value` unless `value` is of type
    `hint`: int, float, str, a class, tuple[X, ...] or Optional[X]."""
    origin = getattr(hint, "__origin__", None)  # typing.get_origin, without its cost
    if origin is typing.Union:  # Optional[X]
        hint = type(None) if value is None else hint.__args__[0]
        origin = getattr(hint, "__origin__", None)
    kind = origin or hint
    if isinstance(value, bool) and kind in _NUMBERS or not isinstance(value, _NUMBERS.get(kind, kind)):
        raise TypeError(f"{name} must be {_KINDS.get(kind, 'a ' + kind.__name__)}, got {value!r}")
    for i, item in enumerate(value if kind is tuple else ()):
        check_value(f"{name}[{i}]", hint.__args__[0], item)


def check_fields(record) -> None:
    """Raise TypeError naming the first field not of its annotated type."""
    for name, (hint, exact, _item) in _rules(type(record)).items():
        value = getattr(record, name)
        if type(value) not in exact:
            check_value(name, hint, value)


def from_json(cls, obj):
    """The record `cls` built from its JSON object: a field left out takes
    its default, an array becomes a tuple, built item by item if it holds
    records, and a key `cls` has no field for raises TypeError."""
    check_value(cls.__name__, dict, obj)
    fields, rules = dict(obj), _rules(cls)
    for name, value in obj.items():
        if name not in rules:
            raise TypeError(f"{cls.__name__} has no field {name!r}")
        if (item := rules[name][2]) is not None:
            check_value(name, list, value)
            if dataclasses.is_dataclass(item):
                value = [_item_from_json(f"{name}[{i}]", item, v) for i, v in enumerate(value)]
            fields[name] = tuple(value)
    return cls(**fields)


def _item_from_json(name: str, cls, obj):
    try:
        return from_json(cls, obj)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def record_dict(record) -> dict:
    """dataclasses.asdict(record) without its deep copy: fields in order,
    values shared, a tuple of records as a tuple of dicts."""
    obj = {name: getattr(record, name) for name in record.__dataclass_fields__}
    for name, value in obj.items():
        if type(value) is tuple and value and dataclasses.is_dataclass(value[0]):
            obj[name] = tuple(map(record_dict, value))
    return obj
