"""Tabular datasets of (inputs, mechanism energies).

A dataset row is the 41 catalog inputs followed by six energies: shear
plasticity of the ply matrices (PL), ply fiber fracture (DL), delamination
between plies (DC), disbond of the metal/composite interface (DI), substrate
plasticity (PM), and their total (TS).  TS is defined as the exact sum of the
five mechanisms; rows produced by the source model are checked against that
definition at 1e-9 relative, while externally supplied CSVs are loaded as-is.

CSV serialization writes shortest round-trip float text, so save followed by
load reproduces every value bit-exactly.
"""

from __future__ import annotations

import csv
import hashlib

import numpy as np

from .catalog import ParameterCatalog
from .errors import SchemaError

__all__ = ["ENERGY_COLUMNS", "Dataset", "MECHANISMS"]

MECHANISMS = ("PL", "DL", "DC", "DI", "PM")
ENERGY_COLUMNS = MECHANISMS + ("TS",)

_SUM_RTOL = 1e-9


class Dataset:
    """Immutable table of inputs and energies bound to a catalog.

    provenance is "toy_model" for rows generated by the source model (TS-sum
    invariant enforced) or "external_csv" for rows loaded from outside.
    row_ids survive subsetting and name positions; row_keys name contents,
    so a row keeps its key through a CSV round trip or into another design.
    """

    def __init__(
        self,
        catalog: ParameterCatalog,
        inputs: np.ndarray,
        energies: np.ndarray,
        provenance: str = "external_csv",
        row_ids: np.ndarray | None = None,
    ):
        if provenance not in ("toy_model", "external_csv"):
            raise ValueError(f"unknown provenance {provenance!r}")
        x = np.array(inputs, dtype=float)
        y = np.array(energies, dtype=float)
        if x.ndim != 2 or x.shape[1] != len(catalog):
            raise ValueError(f"inputs must be (n, {len(catalog)}), got {x.shape}")
        if y.shape != (x.shape[0], len(ENERGY_COLUMNS)):
            raise ValueError(f"energies must be (n, 6), got {y.shape}")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ValueError("dataset contains non-finite values")
        if provenance == "toy_model":
            total = y[:, 0] + y[:, 1] + y[:, 2] + y[:, 3] + y[:, 4]
            scale = np.maximum(np.maximum(np.abs(total), np.abs(y[:, 5])), 1e-30)
            bad = np.abs(total - y[:, 5]) > _SUM_RTOL * scale
            if np.any(bad):
                raise ValueError(
                    f"row {int(np.argmax(bad))}: TS does not equal the mechanism sum"
                )
        if row_ids is None:
            ids = np.arange(x.shape[0], dtype=int)
        else:
            ids = np.array(row_ids, dtype=int)
            if ids.shape != (x.shape[0],):
                raise ValueError("row_ids length mismatch")
            if len(np.unique(ids)) != len(ids):
                raise ValueError("row_ids contain duplicates")
        x.setflags(write=False)
        y.setflags(write=False)
        ids.setflags(write=False)
        self.catalog = catalog
        self.inputs = x
        self.energies = y
        self.provenance = provenance
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
        """Row subset (mask or indices) preserving provenance and row ids."""
        index = np.asarray(index)
        return Dataset(
            self.catalog,
            self.inputs[index],
            self.energies[index],
            self.provenance,
            self.row_ids[index],
        )

    def save_csv(self, path) -> None:
        header = list(self.catalog.names) + list(ENERGY_COLUMNS)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for xi, yi in zip(self.inputs, self.energies):
                writer.writerow([repr(float(v)) for v in xi] + [repr(float(v)) for v in yi])

    @classmethod
    def load_csv(cls, path, catalog: ParameterCatalog, provenance: str = "external_csv") -> "Dataset":
        """Load a CSV whose columns are exactly the 41 inputs plus 6 energies.

        Column order is free; extra, missing, or duplicate columns are
        rejected.  Cell-level failures report 1-based row and column name.
        """
        expected = set(catalog.names) | set(ENERGY_COLUMNS)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError("empty file, expected a header row") from None
            header = [h.strip() for h in header]
            seen = set()
            for h in header:
                if h in seen:
                    raise SchemaError(f"duplicate column {h!r}")
                seen.add(h)
            extra = seen - expected
            if extra:
                raise SchemaError(f"unexpected columns {sorted(extra)!r}")
            missing = expected - seen
            if missing:
                raise SchemaError(f"missing columns {sorted(missing)!r}")
            in_pos = [header.index(n) for n in catalog.names]
            en_pos = [header.index(n) for n in ENERGY_COLUMNS]
            xs, ys = [], []
            for rownum, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise SchemaError(
                        f"expected {len(header)} cells, found {len(row)}", row=rownum
                    )
                try:
                    vals = [float(c) for c in row]
                except ValueError:
                    for c, cell in enumerate(row):
                        try:
                            float(cell)
                        except ValueError:
                            raise SchemaError(
                                f"non-numeric cell {cell!r}",
                                row=rownum,
                                column=header[c],
                            ) from None
                    raise
                xs.append([vals[p] for p in in_pos])
                ys.append([vals[p] for p in en_pos])
        if not xs:
            raise SchemaError("no data rows")
        return cls(catalog, np.array(xs), np.array(ys), provenance)
