"""Shared exception types and the JSON document reader.

Every error raised on a contract boundary carries enough location detail to
act on (parameter name, CSV row/column, layer index) so CLI wrappers can emit
a single machine-parseable line.  Every JSON file is read through parse_json,
so malformed text, unknown or missing keys, and a wrong format or version
are all SchemaError.  A dataclass is its own schema: fields_doc writes its
fields, with tuples as lists and nan as null, and fields_from reads them.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from typing import get_args, get_origin, get_type_hints


class RdsmError(Exception):
    """Base class for all package-specific failures."""


class SchemaError(RdsmError, ValueError):
    """A file or document does not match its declared schema."""


class AdmissibilityError(RdsmError, ValueError):
    """Material state violates an admissibility bound (softening would be ill-posed)."""

    def __init__(self, message: str, layer: str | None = None):
        super().__init__(message if layer is None else f"{message} (layer {layer})")


class NumericalFailureError(RdsmError, RuntimeError):
    """A simulation or training step went non-finite or did not converge."""


def parse_json(text, what: str):
    """Parsed JSON text; malformed text, a number beyond what the parser
    converts, or nesting deeper than it recurses is a SchemaError naming
    what."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise SchemaError(f"malformed {what}: {exc}") from None


def require_keys(mapping, wanted, where: str) -> None:
    """Require a JSON object holding exactly the wanted keys."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{where} must be a JSON object")
    unknown = set(mapping) - wanted
    if unknown:
        raise SchemaError(f"unknown field {sorted(unknown)[0]!r} in {where}")
    missing = wanted - set(mapping)
    if missing:
        raise SchemaError(f"missing field {sorted(missing)[0]!r} in {where}")


def read_document(source, what: str, keys, fmt: str, version: int) -> dict:
    """A versioned document (JSON text or an already parsed object) holding
    exactly keys plus the format and version it must declare."""
    doc = parse_json(source, what) if isinstance(source, (str, bytes)) else source
    require_keys(doc, {"format", "version", *keys}, what)
    if doc["format"] != fmt:
        raise SchemaError(f"unsupported {what} format {doc['format']!r}")
    if type(doc["version"]) is not int or doc["version"] != version:
        raise SchemaError(f"unsupported {what} version v{doc['version']!r}")
    return doc


def _to_json(value):
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


# the JSON values each type takes; bools are not numbers
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,), list: (list,)}


def json_value(value, kind, name: str = "value"):
    """A parsed JSON value as kind (int, float, bool, str or list), where a
    float takes any number.  A value of another type is a TypeError, and an
    int too large for a float an OverflowError."""
    if not isinstance(value, _JSON_TYPES[kind]) or isinstance(value, bool) is not (kind is bool):
        raise TypeError(f"{name} must be a JSON {kind.__name__}, got {type(value).__name__}")
    return kind(value)


def json_numbers(values, name: str = "value") -> list[float]:
    """A JSON list of numbers as floats; an entry of another type raises
    what json_value raises for it."""
    values = json_value(values, list, name)
    for v in values:
        if not (type(v) is float or type(v) is int):  # bools are not numbers
            json_value(v, float, name)
    return [float(v) for v in values]


def _from_json(value, kind, name: str):
    """value read as kind (a JSON scalar type or a tuple of one), with
    lists as tuples and null as nan in a float."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        values = json_value(value, list, name)
        if item is float:
            return tuple(json_numbers([math.nan if v is None else v for v in values], name))
        return tuple(json_value(v, item, name) for v in values)
    return math.nan if kind is float and value is None else json_value(value, kind, name)


def fields_doc(obj) -> dict:
    """A dataclass instance's fields in declaration order, JSON-ready."""
    return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}


def fields_from(cls, mapping, what: str):
    """The dataclass instance a fields_doc mapping describes; the mapping
    must hold exactly the class's fields, each a JSON value of its type."""
    kinds = get_type_hints(cls)  # every field, in declaration order
    require_keys(mapping, set(kinds), what)
    try:
        return cls(**{name: _from_json(mapping[name], kind, name) for name, kind in kinds.items()})
    except (OverflowError, TypeError, ValueError) as exc:
        raise SchemaError(f"invalid {what}: {exc}") from None
