"""Shared exception types.

Every error raised on a contract boundary carries enough location detail to
act on (parameter name, CSV row/column, layer index) so CLI wrappers can emit
a single machine-parseable line.
"""

from __future__ import annotations


class RdsmError(Exception):
    """Base class for all package-specific failures."""


class SchemaError(RdsmError, ValueError):
    """A file or document does not match its declared schema."""

    def __init__(self, message: str, row: int | None = None, column: str | int | None = None):
        self.row = row
        self.column = column
        loc = ""
        if row is not None:
            loc += f" at row {row}"
        if column is not None:
            loc += f", column {column!r}" if loc else f" at column {column!r}"
        super().__init__(message + loc)


class AdmissibilityError(RdsmError, ValueError):
    """Material state violates an admissibility bound (softening would be ill-posed)."""

    def __init__(self, message: str, layer: str | None = None):
        self.layer = layer
        super().__init__(message if layer is None else f"{message} (layer {layer})")


class NumericalFailureError(RdsmError, RuntimeError):
    """A non-finite intermediate appeared during simulation."""

    def __init__(self, where: str):
        self.where = where
        super().__init__(f"non-finite intermediate at {where}")
