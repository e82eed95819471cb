"""Tabular datasets of (inputs, mechanism energies).

A dataset row is the 41 catalog inputs followed by six energies: shear
plasticity of the ply matrices (PL), ply fiber fracture (DL), delamination
between plies (DC), disbond of the metal/composite interface (DI), substrate
plasticity (PM), and their total (TS).  The source model writes TS as the
exact float sum of the five mechanisms; a loaded CSV is taken as it is.

Every CSV the package reads or writes goes through read_csv and write_csv.
Floats are written as shortest round-trip text, so save followed by load
reproduces every value bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

from .catalog import ParameterCatalog
from .errors import SchemaError

MECHANISMS = ("PL", "DL", "DC", "DI", "PM")
ENERGY_COLUMNS = MECHANISMS + ("TS",)


def _fmt(value) -> str:
    # floats first: they are nearly every cell, and no other case is a float
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """A header line and one line per row; floats in shortest round-trip
    text, bools as true/false, None as an empty cell.  A float array skips
    _fmt: the csv module writes each float of its tolist() as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            writer.writerows(rows.tolist())
        else:
            for row in rows:
                writer.writerow([_fmt(v) for v in row])


def _rows(reader):
    """The reader's rows, a csv.Error a SchemaError naming its line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(f"unreadable CSV at line {reader.line_num}: {exc}") from None


def read_csv(path, columns) -> np.ndarray:
    """Numeric (n, len(columns)) table, C-ordered, from a CSV whose header
    holds exactly these columns in any order.

    Extra, missing, or duplicate columns and malformed rows are schema
    errors that name the 1-based row and the column, and text the csv module
    rejects (such as an over-long cell) one that names the line; a header
    with no rows under it is empty data (a plain ValueError).
    """
    with open(path, newline="") as fh:
        reader = _rows(csv.reader(fh))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError("empty file, expected a header row") from None
        seen = set()
        for h in header:
            if h in seen:
                raise SchemaError(f"duplicate column {h!r}")
            seen.add(h)
        extra = seen - set(columns)
        if extra:
            raise SchemaError(f"unexpected columns {sorted(extra)!r}")
        missing = set(columns) - seen
        if missing:
            raise SchemaError(f"missing columns {sorted(missing)!r}")
        order = [header.index(c) for c in columns]
        table = []
        for rownum, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise SchemaError(
                    f"expected {len(header)} cells, found {len(row)} at row {rownum}"
                )
            try:
                vals = [float(c) for c in row]
            except ValueError:
                for c, cell in enumerate(row):
                    try:
                        float(cell)
                    except ValueError:
                        raise SchemaError(
                            f"non-numeric cell {cell!r} at row {rownum}, column {header[c]!r}"
                        ) from None
                raise
            table.append([vals[p] for p in order])
    if not table:
        raise ValueError("no data rows")
    return np.array(table, dtype=float)


class Dataset:
    """Immutable table of inputs and energies bound to a catalog.

    The table is what save_csv writes and load_csv reads; beside it a
    dataset carries only row_ids.  row_ids survive subsetting and name
    positions; row_keys name contents, so a row keeps its key through a CSV
    round trip or into another design.
    """

    def __init__(
        self,
        catalog: ParameterCatalog,
        inputs: np.ndarray,
        energies: np.ndarray,
        row_ids: np.ndarray | None = None,
    ):
        x = np.array(inputs, dtype=float)
        y = np.array(energies, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(catalog):
            raise ValueError(f"inputs must be (n, {len(catalog)}), got {x.shape}")
        if y.shape != (x.shape[0], len(ENERGY_COLUMNS)):
            raise ValueError(f"energies must be (n, 6), got {y.shape}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite values")
        if row_ids is None:
            ids = np.arange(x.shape[0], dtype=int)
        else:
            ids = np.array(row_ids, dtype=int)
            if ids.shape != (x.shape[0],):
                raise ValueError("row_ids length mismatch")
            ordered = np.sort(ids)  # np.unique would import numpy.ma
            if np.any(ordered[1:] == ordered[:-1]):
                raise ValueError("row_ids contain duplicates")
        x.setflags(write=False)
        y.setflags(write=False)
        ids.setflags(write=False)
        self.catalog = catalog
        self.inputs = x
        self.energies = y
        self.row_ids = ids

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def energy(self, name: str) -> np.ndarray:
        """One energy column by name (PL, DL, DC, DI, PM, TS)."""
        try:
            return self.energies[:, ENERGY_COLUMNS.index(name)]
        except ValueError:
            raise KeyError(f"unknown energy column {name!r}") from None

    def input_columns(self, names) -> np.ndarray:
        return self.inputs[:, self.catalog.indices(names)]

    def row_keys(self) -> list[str]:
        """Content hash per input row; row identity that survives CSV round trips."""
        return [
            hashlib.blake2b(
                np.ascontiguousarray(row, dtype=float).tobytes(), digest_size=8
            ).hexdigest()
            for row in self.inputs
        ]

    def subset(self, index) -> "Dataset":
        """Row subset (mask or indices) preserving row ids."""
        index = np.asarray(index)
        return Dataset(self.catalog, self.inputs[index], self.energies[index], self.row_ids[index])

    def table(self) -> tuple[tuple[str, ...], np.ndarray]:
        """The CSV header, the 41 inputs then the 6 energies, and the (n, 47) rows."""
        return self.catalog.names + ENERGY_COLUMNS, np.hstack([self.inputs, self.energies])

    def save_csv(self, path) -> None:
        write_csv(path, *self.table())

    @classmethod
    def load_csv(cls, path, catalog: ParameterCatalog) -> "Dataset":
        """Load a CSV whose columns are exactly the 41 inputs plus 6 energies
        (read_csv rules: any column order, located cell errors)."""
        table = read_csv(path, catalog.names + ENERGY_COLUMNS)
        d = len(catalog)
        return cls(catalog, table[:, :d], table[:, d:])
