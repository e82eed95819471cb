"""Command-line pipeline driver emitting reproducible, plot-ready CSV runs.

Every option resolves in a fixed order: command-line flag, then config-file
entry, then built-in default.  The RDSM_OUTDIR environment variable supplies
the default output directory and nothing else.  Each run that writes files
also writes a resolved-config snapshot next to them (run_config.json in an
output directory, <file>.run.json beside a single output file), so any
artifact can be regenerated from its snapshot alone.  All randomness flows
from the seed option: the same resolved config produces byte-identical
outputs on one platform.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bend import default_specimen, load_specimen_config, simulate_dataset
from .catalog import SamplingDistribution, build_catalog
from .dataset import ENERGY_COLUMNS, Dataset
from .errors import NumericalFailureError, SchemaError
from .sampling import sample_lhs, sample_lss, sample_mc
from .sensitivity import screen_fdr_logworth, sobol_indices
from .surrogate import NetworkSpec, serialize_model
from .workflow import (
    EngagementGate,
    MechanismRDSM,
    SummedRDSM,
    compare_approaches,
    fit_direct,
    fit_summed,
    split_holdout,
    uq_sweep,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISSING_FILE = 3
EXIT_SCHEMA = 4
EXIT_DATA = 5
EXIT_NUMERICAL = 6

_EXIT_HELP = """\
exit codes:
  0  success
  2  usage error: unknown flag, bad flag value, or a missing required option
  3  missing input file or directory
  4  schema mismatch in a config file or model artifact
  5  invalid or empty data
  6  numerical failure during simulation or training
"""

_DISTRIBUTIONS = ("uniform_pm20", "normal_10std")

# the most worker processes --threads may start, and the largest --grid, whose
# N x N x N rows are built in memory before they are written
_MAX_THREADS = os.cpu_count() or 1
_MAX_GRID = 100


def _opt(name, default=None, bounds=None, **kwargs):
    """One option: config key and flag name, built-in default, inclusive
    (lo, hi) bounds (either may be None), and argparse keywords.  A help
    string may cite the default as {default}."""
    return name, default, bounds, kwargs


_THREADS = _opt(
    "threads", 1, bounds=(1, _MAX_THREADS), type=int,
    help=f"worker processes, at most {_MAX_THREADS} (default: {{default}})",
)
_OUTDIR = _opt(
    "outdir",
    help="output directory (default: $RDSM_OUTDIR, else the current directory)",
)

# each subcommand's help line and options; argparse stores None for omitted
# flags so a config file can fill the gap before the default applies
_COMMANDS: dict[str, tuple[str, tuple]] = {
    "catalog": ("write the parameter table with bounds", (
        _opt("distribution", "uniform_pm20", choices=_DISTRIBUTIONS),
        _opt("out", help="output CSV path (default: catalog.csv)"),
    )),
    "sample": ("write a sampling design CSV", (
        _opt("n", 1555, type=int, help="number of rows (default: {default})"),
        _opt("seed", 0, type=int),
        _opt("method", "lhs", choices=("lhs", "mc", "lss")),
        _opt("distribution", "uniform_pm20", choices=_DISTRIBUTIONS),
        _opt("strata", type=int, help="coarse strata per dimension (lss)"),
        _opt(
            "unit", False, action="store_true",
            help="emit the unit-cube design instead of parameter space",
        ),
        _opt("out", help="output CSV path (default: design.csv)"),
    )),
    "simulate": ("run the bend source model over a design", (
        _opt("n", 1555, type=int, help="number of rows (default: {default})"),
        _opt("seed", 7, type=int),
        _opt("design", help="simulate this design CSV instead of sampling"),
        _opt("distribution", "uniform_pm20", choices=_DISTRIBUTIONS),
        _opt("specimen", help="specimen config JSON (default: built-in)"),
        _THREADS,
        _opt("out", help="output CSV path (default: data.csv)"),
    )),
    "screen": ("rank parameters by FDR logworth", (
        _opt("data", help="dataset CSV"),
        _opt(
            "output", "TS", choices=ENERGY_COLUMNS,
            help="energy column to screen (default: {default})",
        ),
        _opt(
            "max_k", type=int,
            help="retention cap (default: 4 for TS, 3 for mechanisms)",
        ),
        _opt("out", help="output CSV path (default: screening_<output>.csv)"),
    )),
    "fit": ("fit a direct or summed model to a dataset", (
        _opt("data", help="dataset CSV"),
        _opt("route", "direct", choices=("direct", "summed")),
        _opt("seed", 0, type=int),
        _opt(
            "holdout", 0, type=int,
            help="rows to set aside as validation.csv before fitting (default: {default})",
        ),
        _opt("hidden", help="hidden layer widths, e.g. 60,80 (direct route)"),
        _opt("learning_rate", type=float),
        _opt("epochs", type=int),
        _opt("batch_size", type=int),
        _opt("split", help="train,test fractions, e.g. 0.9,0.1"),
        _opt("max_retained", 4, type=int, help="direct retention cap (default: {default})"),
        _opt("query_mode", "retrained", choices=("retrained", "frozen_full")),
        _opt(
            "resample_n", 3277, type=int,
            help="focused disbond design size (default: {default})",
        ),
        _opt("threshold", 0.03, type=float, help="engagement threshold (default: {default})"),
        _opt("threshold_mode", "relative", choices=("relative", "absolute")),
        _opt("specimen", help="specimen config JSON for resampling"),
        _THREADS,
    )),
    "sobol": ("Sobol' indices of a saved model", (
        _opt("model", help="model file or summed model directory"),
        _opt("n_base", 512, type=int, help="base sample size (default: {default})"),
        _opt("seed", 0, type=int),
        _opt("distribution", "uniform_pm20", choices=_DISTRIBUTIONS),
        _opt("n_bootstrap", 100, type=int, help="bootstrap resamples (default: {default})"),
        _opt("out", help="output CSV path (default: sobol.csv)"),
    )),
    "uq": ("prediction spread over nested parameter subsets", (
        _opt("model", help="model file or summed model directory"),
        _opt(
            "subsets",
            help="nested subsets, e.g. 'A;A,E;A,E,XS' (default: the retained ladder)",
        ),
        _opt("n", 5000, type=int, help="rows per subset (default: {default})"),
        _opt("seed", 0, type=int),
        _opt("distribution", "normal_10std", choices=_DISTRIBUTIONS),
        _opt("strata", type=int, help="coarse strata per dimension"),
        _opt("out", help="output CSV path (default: uq.csv)"),
    )),
    "gate-check": ("disbond engagement test in normalized coordinates", (
        _opt("p", type=float, help="first gate coordinate in [0, 1]"),
        _opt("xis", type=float, help="second gate coordinate in [0, 1]"),
        _opt("giii", type=float, help="third gate coordinate in [0, 1]"),
        _opt(
            "grid", bounds=(None, _MAX_GRID), type=int,
            help=f"write margins over an N x N x N grid instead of one point; "
            f"N is at most {_MAX_GRID} ({_MAX_GRID**3:,} rows)",
        ),
        _opt("out", help="grid CSV path (default: gate_grid.csv)"),
    )),
    "compare": ("direct vs summed accuracy on a validation set", (
        _opt("direct", help="direct model file"),
        _opt("summed", help="summed model directory"),
        _opt("validation", help="validation dataset CSV"),
        _opt(
            "train_rows",
            help="fit_report.json (or a JSON key list) rejecting validation rows "
            "that appeared in training",
        ),
        _opt("out", help="output CSV path (default: comparison.csv)"),
    )),
    "plot-data": ("emit plot-ready CSV series", (
        _opt("kind", "parity", choices=("parity", "energy-stack")),
        _opt("model", help="model file or summed model directory (parity)"),
        _opt("validation", help="validation dataset CSV (parity)"),
        _opt("data", help="dataset CSV (energy-stack)"),
        _opt("out", help="output CSV path"),
    )),
}


def _options(command) -> tuple:
    """Every resolved option of a subcommand, the shared --outdir last."""
    return _COMMANDS[command][1] + (_OUTDIR,)


def _flag(name) -> str:
    return "--" + name.replace("_", "-")


class _UsageError(Exception):
    """Missing or inconsistent required options, detected after parsing."""


# -- option resolution ---------------------------------------------------------


def _load_config_file(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file {p} not found")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed config file {p}: {exc}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"config file {p} must hold a JSON object")
    return doc


def _check_bounds(name, value, bounds) -> None:
    if value is None:
        return  # an unset option has no size
    lo, hi = bounds
    if lo is not None and value < lo:
        raise _UsageError(f"{_flag(name)} must be at least {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise _UsageError(f"{_flag(name)} must be at most {hi}, got {value!r}")


def _resolve(args) -> dict:
    options = _options(args.command)
    config = {}
    if args.config is not None:
        config = _load_config_file(args.config)
        unknown = sorted(set(config) - {name for name, *_ in options})
        if unknown:
            raise SchemaError(
                f"unknown config keys for {args.command}: {', '.join(unknown)}"
            )
    resolved = {"command": args.command}
    for name, default, bounds, kwargs in options:
        flag = getattr(args, name)
        value = flag if flag is not None else config.get(name, default)
        if flag is None and config.get(name) is not None and "type" in kwargs:
            # argparse typed the flags; a config value gets the same type
            kind = kwargs["type"]
            try:
                value = kind(value)
            except (ValueError, OverflowError, TypeError):
                raise _UsageError(
                    f"{_flag(name)}: invalid {kind.__name__} value {value!r}"
                ) from None
        if bounds is not None:
            _check_bounds(name, value, bounds)
        resolved[name] = value
    return resolved


def _require_opt(resolved, key):
    value = resolved[key]
    if value is None:
        raise _UsageError(f"{resolved['command']} requires {_flag(key)}")
    return value


def _outdir(resolved) -> Path:
    if resolved["outdir"] is not None:
        return Path(resolved["outdir"])
    env = os.environ.get("RDSM_OUTDIR")
    return Path(env) if env else Path(".")


def _out_path(resolved, default_name) -> Path:
    out = resolved.get("out")
    path = Path(out) if out is not None else _outdir(resolved) / default_name
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _distribution(name) -> SamplingDistribution:
    if name == "uniform_pm20":
        return SamplingDistribution.uniform_pm20()
    if name == "normal_10std":
        return SamplingDistribution.normal_10std()
    raise ValueError(f"unknown distribution {name!r}")


def _require_file(path, what) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} {p} not found")
    return p


def _load_specimen(resolved, catalog):
    path = resolved.get("specimen")
    if path is None:
        return default_specimen(catalog)
    return load_specimen_config(_require_file(path, "specimen config"), catalog)


def _load_model(path, catalog):
    """A mechanism model file or a summed model directory."""
    p = Path(path)
    if p.is_dir():
        return SummedRDSM.load(p, catalog)
    _require_file(p, "model file")
    return MechanismRDSM.load(p, catalog)


def _parse_int_list(value, what) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(int(v) for v in value)
    try:
        return tuple(int(tok) for tok in str(value).split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers") from None


def _parse_float_pair(value, what) -> tuple:
    if isinstance(value, (list, tuple)):
        parts = [float(v) for v in value]
    else:
        try:
            parts = [float(tok) for tok in str(value).split(",") if tok.strip()]
        except ValueError:
            raise ValueError(f"{what} must be comma-separated numbers") from None
    if len(parts) != 2:
        raise ValueError(f"{what} needs exactly two values")
    return tuple(parts)


def _parse_subsets(value):
    """Nested subsets: 'A;A,E;A,E,XS' or a JSON list of name lists."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        return [tuple(subset) for subset in value]
    subsets = []
    for chunk in str(value).split(";"):
        names = tuple(tok.strip() for tok in chunk.split(",") if tok.strip())
        subsets.append(names)
    return subsets


# -- output helpers --------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _num(value):
    v = float(value)
    return None if math.isnan(v) else v


def _jsonable(value):
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _write_snapshot(resolved, anchor: Path) -> None:
    """Resolved-config snapshot beside the outputs it reproduces."""
    doc = {
        "tool": "rdsm",
        "version": __version__,
        "command": resolved["command"],
        "options": {
            k: _jsonable(v) for k, v in resolved.items() if k != "command"
        },
    }
    if anchor.is_dir():
        target = anchor / "run_config.json"
    else:
        target = anchor.with_name(anchor.name + ".run.json")
    target.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def _write_screening_csv(path, result) -> None:
    rows = [
        (
            e.name,
            e.logworth,
            e.fdr_p,
            e.raw_p,
            e.zero_variance,
            e.name in result.retained,
        )
        for e in result.entries
    ]
    _write_csv(
        path,
        ("parameter", "fdr_logworth", "fdr_p", "raw_p", "zero_variance", "retained"),
        rows,
    )


def _write_telemetry(path, report) -> None:
    rows = [
        (i + 1, loss, mae)
        for i, (loss, mae) in enumerate(zip(report.loss_history, report.mae_history))
    ]
    _write_csv(path, ("epoch", "train_loss", "holdout_mae_pct"), rows)


# -- subcommands -----------------------------------------------------------------


def _cmd_catalog(resolved) -> None:
    catalog = build_catalog()
    dist = _distribution(resolved["distribution"])
    lo = hi = None
    if dist.is_bounded:
        lo, hi = dist.bounds(catalog)
    rows = [
        (
            name,
            catalog.means[i],
            None if lo is None else lo[i],
            None if hi is None else hi[i],
        )
        for i, name in enumerate(catalog.names)
    ]
    out = _out_path(resolved, "catalog.csv")
    _write_csv(out, ("parameter", "mean", "lo", "hi"), rows)
    _write_snapshot(resolved, out)


def _cmd_sample(resolved) -> None:
    catalog = build_catalog()
    n = int(resolved["n"])
    seed = int(resolved["seed"])
    method = resolved["method"]
    if method == "lhs":
        design = sample_lhs(n, len(catalog), seed)
    elif method == "mc":
        design = sample_mc(n, len(catalog), seed)
    elif method == "lss":
        strata = resolved["strata"]
        design = sample_lss(
            n, len(catalog), seed,
            strata_per_dim=None if strata is None else int(strata),
        )
    else:
        raise ValueError(f"unknown sampling method {method!r}")
    values = design.values
    if not resolved["unit"]:
        values = _distribution(resolved["distribution"]).transform(values, catalog)
    out = _out_path(resolved, "design.csv")
    _write_csv(out, catalog.names, values)
    _write_snapshot(resolved, out)


def _read_design_csv(path, catalog) -> np.ndarray:
    p = _require_file(path, "design file")
    with open(p, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"design file {p} is empty")
        if tuple(header) != catalog.names:
            raise SchemaError(
                f"design file {p} columns must match the catalog order exactly"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(catalog):
                raise SchemaError(f"design file {p} line {lineno}: wrong column count")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError:
                raise SchemaError(
                    f"design file {p} line {lineno}: non-numeric cell"
                ) from None
    if not rows:
        raise ValueError(f"design file {p} has no rows")
    return np.array(rows, dtype=float)


def _cmd_simulate(resolved) -> None:
    catalog = build_catalog()
    specimen = _load_specimen(resolved, catalog)
    if resolved["design"] is not None:
        x = _read_design_csv(resolved["design"], catalog)
    else:
        unit = sample_lhs(int(resolved["n"]), len(catalog), int(resolved["seed"])).values
        x = _distribution(resolved["distribution"]).transform(unit, catalog)
    dataset = simulate_dataset(x, specimen, threads=int(resolved["threads"]))
    out = _out_path(resolved, "data.csv")
    dataset.save_csv(out)
    _write_snapshot(resolved, out)


def _cmd_screen(resolved) -> None:
    catalog = build_catalog()
    data = _require_file(_require_opt(resolved, "data"), "data file")
    dataset = Dataset.load_csv(data, catalog)
    output = resolved["output"]
    max_k = resolved["max_k"]
    if max_k is None:
        max_k = 4 if output == "TS" else 3  # route-specific retention caps
    result = screen_fdr_logworth(
        dataset.inputs, dataset.energy(output), catalog.names, output,
        max_k=int(max_k),
    )
    out = _out_path(resolved, f"screening_{output}.csv")
    _write_screening_csv(out, result)
    _write_snapshot(resolved, out)


def _network_override(resolved, input_dim, seed):
    keys = ("hidden", "learning_rate", "epochs", "batch_size", "split")
    if all(resolved[k] is None for k in keys):
        return None
    kwargs = {}
    if resolved["hidden"] is not None:
        kwargs["hidden_layers"] = _parse_int_list(resolved["hidden"], "hidden")
    if resolved["learning_rate"] is not None:
        kwargs["learning_rate"] = float(resolved["learning_rate"])
    if resolved["epochs"] is not None:
        kwargs["epochs"] = int(resolved["epochs"])
    if resolved["batch_size"] is not None:
        kwargs["batch_size"] = int(resolved["batch_size"])
    if resolved["split"] is not None:
        kwargs["split"] = _parse_float_pair(resolved["split"], "split")
    return replace(NetworkSpec(input_dim=input_dim, seed=seed), **kwargs)


def _fit_direct_cmd(resolved, dataset, catalog, outdir, seed) -> dict:
    network = _network_override(resolved, len(catalog), seed)
    fit = fit_direct(
        dataset,
        network=network,
        max_retained=int(resolved["max_retained"]),
        query_mode=resolved["query_mode"],
        seed=seed,
    )
    (outdir / "full_model.json").write_bytes(serialize_model(fit.full_model))
    fit.rdsm.save(outdir / "direct_rdsm.json")
    _write_screening_csv(outdir / "screening_TS.csv", fit.screening)
    _write_telemetry(outdir / "telemetry_TS_full.csv", fit.full_model.report)
    if fit.rdsm.surrogate is not fit.full_model:
        _write_telemetry(outdir / "telemetry_TS.csv", fit.rdsm.surrogate.report)
    return {
        "route": "direct",
        "retained_params": list(fit.rdsm.retained_params),
        "full_model_test_mae_pct": _num(fit.full_model.report.test_mae_pct),
        "rdsm_test_mae_pct": _num(fit.rdsm.surrogate.report.test_mae_pct),
        "model_file": "direct_rdsm.json",
    }


def _fit_summed_cmd(resolved, dataset, catalog, outdir, seed) -> dict:
    specimen = _load_specimen(resolved, catalog)
    fit = fit_summed(
        dataset,
        specimen,
        seed=seed,
        resample_n=int(resolved["resample_n"]),
        threshold=float(resolved["threshold"]),
        threshold_mode=resolved["threshold_mode"],
        threads=int(resolved["threads"]),
    )
    fit.summed.save(outdir / "model")
    mechanisms = {}
    for name, mfit in fit.fits.items():
        entry = {"needs_resampling": mfit.needs_resampling, "note": mfit.note}
        if mfit.rdsm is not None:
            entry["retained_params"] = list(mfit.rdsm.retained_params)
            entry["test_mae_pct"] = _num(mfit.rdsm.surrogate.report.test_mae_pct)
            _write_telemetry(outdir / f"telemetry_{name}.csv",
                             mfit.rdsm.surrogate.report)
        if mfit.screening is not None:
            _write_screening_csv(outdir / f"screening_{name}.csv", mfit.screening)
        mechanisms[name] = entry
    if fit.disbond_base_screening is not None:
        _write_screening_csv(
            outdir / "screening_DI_base.csv", fit.disbond_base_screening
        )
    subspace = fit.subspace
    return {
        "route": "summed",
        "mechanisms": mechanisms,
        "subspace": {
            "varied_params": list(subspace.varied_params),
            "n_rows": len(subspace.dataset),
            "n_engaged": int(np.count_nonzero(subspace.engaged_mask)),
            "threshold": subspace.threshold,
            "threshold_mode": subspace.threshold_mode,
        },
        "model_dir": "model",
    }


def _cmd_fit(resolved) -> None:
    catalog = build_catalog()
    data = _require_file(_require_opt(resolved, "data"), "data file")
    dataset = Dataset.load_csv(data, catalog)
    outdir = _outdir(resolved)
    outdir.mkdir(parents=True, exist_ok=True)
    seed = int(resolved["seed"])
    holdout = int(resolved["holdout"])
    validation = None
    if holdout > 0:
        dataset, validation = split_holdout(dataset, holdout, seed)
        validation.save_csv(outdir / "validation.csv")
    route = resolved["route"]
    if route == "direct":
        report = _fit_direct_cmd(resolved, dataset, catalog, outdir, seed)
    elif route == "summed":
        report = _fit_summed_cmd(resolved, dataset, catalog, outdir, seed)
    else:
        raise ValueError(f"unknown route {route!r}")
    if validation is not None:
        report["validation_file"] = "validation.csv"
        report["holdout_row_ids"] = [int(i) for i in validation.row_ids]
    report["train_row_ids"] = [int(i) for i in dataset.row_ids]
    report["train_row_keys"] = dataset.row_keys()
    (outdir / "fit_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    _write_snapshot(resolved, outdir)


def _cmd_sobol(resolved) -> None:
    catalog = build_catalog()
    model = _load_model(_require_opt(resolved, "model"), catalog)
    dist = _distribution(resolved["distribution"])
    result = sobol_indices(
        model.predict,
        len(catalog),
        int(resolved["n_base"]),
        seed=int(resolved["seed"]),
        dist=dist,
        catalog=catalog,
        n_bootstrap=int(resolved["n_bootstrap"]),
    )
    if result.degenerate:
        order = range(len(result.names))
    else:
        order = np.argsort(-result.st, kind="stable")
    rows = [
        (
            result.names[i],
            result.st[i],
            result.s1[i],
            result.st_stderr[i],
            result.s1_stderr[i],
        )
        for i in order
    ]
    out = _out_path(resolved, "sobol.csv")
    _write_csv(
        out,
        (
            "parameter",
            "total_order",
            "first_order",
            "total_order_stderr",
            "first_order_stderr",
        ),
        rows,
    )
    _write_snapshot(resolved, out)


def _cmd_uq(resolved) -> None:
    catalog = build_catalog()
    model = _load_model(_require_opt(resolved, "model"), catalog)
    subsets = _parse_subsets(resolved["subsets"])
    if subsets is None:
        if isinstance(model, SummedRDSM):
            raise ValueError(
                "a summed model needs an explicit --subsets ladder"
            )
        retained = model.retained_params
        subsets = [retained[:k] for k in range(1, len(retained) + 1)]
    strata = resolved["strata"]
    report = uq_sweep(
        model,
        subsets,
        n=int(resolved["n"]),
        seed=int(resolved["seed"]),
        dist=_distribution(resolved["distribution"]),
        strata_per_dim=None if strata is None else int(strata),
    )
    rows = []
    for i, row in enumerate(report.rows):
        label = ", ".join(row.params) if row.params else "(baseline)"
        rows.append((label, row.mean, row.std))
        if i < len(report.diffs):
            dm, dstd = report.diffs[i]
            rows.append(("% difference", dm, dstd))
    out = _out_path(resolved, "uq.csv")
    _write_csv(out, ("parameters", "mean", "std"), rows)
    _write_snapshot(resolved, out)


def _cmd_gate_check(resolved) -> None:
    gate = EngagementGate()
    if resolved["grid"] is not None:
        k = int(resolved["grid"])
        if k < 2:
            raise ValueError("grid needs at least 2 points per axis")
        axis = np.linspace(0.0, 1.0, k)
        rows = []
        for p in axis:
            for xs in axis:
                margins = gate.boundary_margin(
                    np.full(k, p), np.full(k, xs), axis
                )
                rows.extend(
                    (p, xs, axis[j], margins[j], margins[j] >= 0.0)
                    for j in range(k)
                )
        out = _out_path(resolved, "gate_grid.csv")
        _write_csv(out, ("p", "xis", "giii", "margin", "engaged"), rows)
        _write_snapshot(resolved, out)
        return
    for key in ("p", "xis", "giii"):
        if resolved[key] is None:
            raise _UsageError("gate-check needs --p, --xis, and --giii (or --grid)")
    margin = gate.boundary_margin(
        float(resolved["p"]), float(resolved["xis"]), float(resolved["giii"])
    )
    engaged = "true" if margin >= 0.0 else "false"
    print(f"engaged={engaged} margin={margin!r}")


def _load_validation(path, catalog) -> Dataset:
    # a zero-row validation file should read as an empty validation set, not
    # as a generic dataset schema failure
    try:
        return Dataset.load_csv(path, catalog)
    except SchemaError as exc:
        if "no data rows" in str(exc):
            raise ValueError("empty validation set") from None
        raise


def _load_train_keys(path):
    if path is None:
        return None
    p = _require_file(path, "train-rows file")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed train-rows file {p}: {exc}") from None
    if isinstance(doc, dict):
        if "train_row_keys" not in doc:
            raise SchemaError(f"train-rows file {p} lacks a train_row_keys entry")
        doc = doc["train_row_keys"]
    if not isinstance(doc, list):
        raise SchemaError(f"train-rows file {p} must hold a list of row keys")
    return frozenset(str(k) for k in doc)


def _section_cells(section):
    if section is None:
        empty = (None, None, None)
        return {key: empty for key in ("n", "mean", "std", "mae", "mae_std")}
    return {
        "n": (section.n_rows, None, None),
        "mean": (section.truth_mean, section.direct.pred_mean, section.summed.pred_mean),
        "std": (section.truth_std, section.direct.pred_std, section.summed.pred_std),
        "mae": (None, section.direct.mae_pct, section.summed.mae_pct),
        "mae_std": (None, section.direct.mae_pct_std, section.summed.mae_pct_std),
    }


def _write_comparison_csv(path, report) -> None:
    all_cells = _section_cells(report.all_rows)
    engaged_cells = _section_cells(report.engaged)
    rows = [
        (metric, *all_cells[key], *engaged_cells[key])
        for metric, key in (
            ("n_rows", "n"),
            ("mean", "mean"),
            ("std", "std"),
            ("mae_pct", "mae"),
            ("mae_pct_std", "mae_std"),
        )
    ]
    _write_csv(
        path,
        (
            "metric",
            "all_truth",
            "all_direct",
            "all_summed",
            "engaged_truth",
            "engaged_direct",
            "engaged_summed",
        ),
        rows,
    )


def _cmd_compare(resolved) -> None:
    catalog = build_catalog()
    direct = _load_model(_require_opt(resolved, "direct"), catalog)
    summed_path = Path(_require_opt(resolved, "summed"))
    if not summed_path.is_dir():
        raise FileNotFoundError(f"summed model directory {summed_path} not found")
    summed = SummedRDSM.load(summed_path, catalog)
    data = _require_file(_require_opt(resolved, "validation"), "validation file")
    validation = _load_validation(data, catalog)
    train_keys = _load_train_keys(resolved["train_rows"])
    report = compare_approaches(direct, summed, validation, train_keys=train_keys)
    out = _out_path(resolved, "comparison.csv")
    _write_comparison_csv(out, report)
    _write_snapshot(resolved, out)


def _cmd_plot_data(resolved) -> None:
    catalog = build_catalog()
    kind = resolved["kind"]
    if kind == "parity":
        model = _load_model(_require_opt(resolved, "model"), catalog)
        data = _require_file(_require_opt(resolved, "validation"), "validation file")
        dataset = _load_validation(data, catalog)
        actual = dataset.energy("TS")
        predicted = model.predict(dataset.inputs)
        out = _out_path(resolved, "parity.csv")
        if isinstance(model, SummedRDSM):
            engaged = model.engaged(dataset.inputs)
            _write_csv(
                out,
                ("row_id", "actual", "predicted", "engaged"),
                zip(dataset.row_ids, actual, predicted, engaged),
            )
        else:
            _write_csv(
                out,
                ("row_id", "actual", "predicted"),
                zip(dataset.row_ids, actual, predicted),
            )
    elif kind == "energy-stack":
        data = _require_file(_require_opt(resolved, "data"), "data file")
        dataset = Dataset.load_csv(data, catalog)
        order = np.argsort(dataset.energy("TS"), kind="stable")
        rows = [(dataset.row_ids[i], *dataset.energies[i]) for i in order]
        out = _out_path(resolved, "energy_stack.csv")
        _write_csv(out, ("row_id", *ENERGY_COLUMNS), rows)
    else:
        raise ValueError(f"unknown plot kind {kind!r}")
    _write_snapshot(resolved, out)


_HANDLERS = {
    "catalog": _cmd_catalog,
    "sample": _cmd_sample,
    "simulate": _cmd_simulate,
    "screen": _cmd_screen,
    "fit": _cmd_fit,
    "sobol": _cmd_sobol,
    "uq": _cmd_uq,
    "gate-check": _cmd_gate_check,
    "compare": _cmd_compare,
    "plot-data": _cmd_plot_data,
}


# -- parser ----------------------------------------------------------------------


def _add_option(parser, name, default, bounds, kwargs) -> None:
    if "help" in kwargs:
        kwargs = dict(kwargs, help=kwargs["help"].format(default=default))
    parser.add_argument(_flag(name), default=None, **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsm",
        description=(
            "Reduced-dimension surrogate modeling pipeline: simulate the bend "
            "source model, screen parameters, fit direct or summed models, and "
            "emit plot-ready CSV series."
        ),
        epilog=_EXIT_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"rdsm {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for command, (help_line, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for option in options:
            _add_option(p, *option)
        p.add_argument("--config", help="JSON file supplying defaults for this command")
        _add_option(p, *_OUTDIR)
    return parser


def _fail(code, kind, exc) -> int:
    if isinstance(exc, KeyError) and exc.args:
        message = str(exc.args[0])
    else:
        message = str(exc)
    message = " ".join(message.split())
    print(f"rdsm: error: {kind}: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _HANDLERS[args.command](_resolve(args))
        return EXIT_OK
    except _UsageError as exc:
        return _fail(EXIT_USAGE, "usage", exc)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        return _fail(EXIT_MISSING_FILE, "missing-file", exc)
    except SchemaError as exc:
        return _fail(EXIT_SCHEMA, "schema", exc)
    except NumericalFailureError as exc:
        return _fail(EXIT_NUMERICAL, "numerical", exc)
    except (ValueError, KeyError) as exc:
        return _fail(EXIT_DATA, "invalid-data", exc)


if __name__ == "__main__":
    sys.exit(main())
