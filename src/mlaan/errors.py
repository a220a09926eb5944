"""Exception types shared across the package, and the config sections' type check."""

import math
import typing


class MlaanError(Exception):
    """Base class for all package errors."""


class ShapeError(MlaanError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(MlaanError):
    """Invalid configuration document, value, or operation precondition."""


class GraphError(MlaanError):
    """Misuse of the computation graph (non-scalar loss, cross-graph tensors)."""


class StateError(MlaanError):
    """A stateful component was used before it was initialized."""


class DataError(MlaanError):
    """A dataset file is malformed, truncated, or inconsistent."""


class CheckpointError(MlaanError):
    """A checkpoint file is corrupt, incompatible, or fails verification."""


class TrainingDiverged(MlaanError):
    """Training produced non-finite losses and was aborted."""


_NAMES = {int: "an integer", float: "a finite number", str: "a string"}
_FIELDS: dict = {}  # section class -> [(key, type, tuple item type or None, optional)]


def field_types(cls) -> list:
    """`cls`'s field types, resolved from its annotations once per class."""
    if cls not in _FIELDS:
        _FIELDS[cls] = []
        for key, kind in typing.get_type_hints(cls).items():
            optional = typing.get_origin(kind) is typing.Union
            kind = typing.get_args(kind)[0] if optional else kind
            item = typing.get_args(kind)[0] if typing.get_origin(kind) is tuple else None
            _FIELDS[cls].append((key, kind, item, optional))
    return _FIELDS[cls]


def _fits(value, kind) -> bool:
    """A bool fits no field; any finite int or float fits a float field."""
    ok = isinstance(value, (int, float) if kind is float else kind) and type(value) is not bool
    return ok and (kind is not float or math.isfinite(value))


def check_types(section: str, obj) -> None:
    """Check each field of config section `obj` against its annotation, naming
    `section.key` in errors. A list or tuple of the item type fits a tuple
    field and is stored as a tuple; None fits an Optional field only."""
    for key, kind, item, optional in field_types(type(obj)):
        value = getattr(obj, key)
        if item is None:
            ok, what = _fits(value, kind), _NAMES[kind]
        else:
            ok = isinstance(value, (list, tuple)) and all(_fits(v, item) for v in value)
            what = f"a list of {_NAMES[item].split()[-1]}s"
        if not (ok or optional and value is None):
            raise ConfigError(f"{section}.{key} must be {what}, got {value!r}")
        if isinstance(value, list):
            setattr(obj, key, tuple(value))
