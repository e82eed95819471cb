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
import functools
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bend import DEFAULT_SPECIMEN, load_specimen_config, simulate_dataset
from .catalog import DISTRIBUTIONS, SamplingDistribution, build_catalog
from .dataset import ENERGY_COLUMNS, Dataset, read_csv, write_csv
from .errors import NumericalFailureError, SchemaError, json_value, parse_json
from .sampling import sample_lhs, sample_lss, sample_mc
from .sensitivity import screen_fdr_logworth, sobol_indices
from .surrogate import NetworkSpec, serialize_model
from .workflow import (
    ENGAGEMENT_FRACTION,
    MAX_RETAINED,
    RESAMPLE_N,
    EngagementGate,
    MechanismRDSM,
    SummedRDSM,
    compare_approaches,
    fit_direct,
    fit_summed,
    split_holdout,
    uq_sweep,
)

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

# untyped options whose config value may also be a JSON list
_LIST_OPTIONS = ("hidden", "split", "subsets")

# the most worker processes --threads may start, the largest --grid, whose
# N x N x N rows are built in memory before they are written, the most
# bootstrap resamples sobol draws, each one a full pass over the evaluations,
# and the most rows a query draws: sobol's base size, whose design holds A
# and B in the columns the model reads (2 * 11 * n_base floats on the bench
# summed model) and two tables of an output row per read column,
# while the design is built one row block of under 4096 rows at a time in a
# 41-column buffer, and a forward pass holds one such block's float32 copy and
# activations, under 4096 * 181 float32s; uq's rows per subset; and the rows
# sample and simulate draw and the summed fit's disbond resample, whose bend
# state is held one block of at most 2048 rows at a time; and the direct
# network's size: its epochs, minibatch rows, and hidden layers and widths
_MAX_THREADS = os.cpu_count() or 1
_MAX_GRID = 100
_MAX_BOOTSTRAP = 10_000
_MAX_QUERY_ROWS = 2**20
_MAX_EPOCHS = 100_000
_MAX_LAYERS = 8
_MAX_WIDTH = 1024


def _opt(name, default=None, bounds=None, route=None, **kwargs):
    """One option: config key and flag name, built-in default, inclusive
    (lo, hi) bounds (hi None for no upper bound), the fit route it alone
    applies to (listed after route; None for all), and argparse keywords.
    Its --help line states the bounds and the default."""
    return name, default, bounds, route, kwargs


_THREADS = _opt("threads", 1, bounds=(1, _MAX_THREADS), type=int, help="worker processes")
_ROWS = _opt("n", 1555, bounds=(1, _MAX_QUERY_ROWS), type=int, help="number of rows")
_OUTDIR = _opt(
    "outdir",
    help="output directory (default: $RDSM_OUTDIR, else the current directory)",
)


def _options(command) -> tuple:
    """Every resolved option of a subcommand, the shared --outdir last."""
    return _COMMANDS[command][2] + (_OUTDIR,)


def _flag(name) -> str:
    return "--" + name.replace("_", "-")


class _UsageError(Exception):
    """A command line or config the parser or the resolver rejects."""


# -- option resolution ---------------------------------------------------------


def _load_config_file(path) -> dict:
    p = _require_file(path, "config file")
    doc = parse_json(p.read_bytes(), f"config file {p}")
    if not isinstance(doc, dict):
        raise SchemaError(f"config file {p} must hold a JSON object")
    return doc


def _check_bounds(name, value, bounds) -> None:
    if value is None:
        return  # an unset option has no size
    lo, hi = bounds
    if value < lo:
        raise _UsageError(f"{_flag(name)} must be at least {lo}, got {value!r}")
    if hi is not None and value > hi:
        raise _UsageError(f"{_flag(name)} must be at most {hi}, got {value!r}")


def _config_value(name, value, kwargs):
    """A config entry held to the rule argparse applies to its flag: one of
    the choices, a JSON bool for a switch, else a JSON value of the option's
    type (a string when it has none)."""
    choices = kwargs.get("choices")
    if choices is not None:
        if value not in choices:
            raise _UsageError(
                f"{_flag(name)}: invalid choice {value!r} (choose from {', '.join(choices)})"
            )
        return value
    if name in _LIST_OPTIONS and isinstance(value, list):
        return value  # parsed like the flag's comma-separated form
    kind = bool if kwargs.get("action") == "store_true" else kwargs.get("type", str)
    try:
        return json_value(value, kind)
    except (OverflowError, TypeError):
        raise _UsageError(f"{_flag(name)}: invalid {kind.__name__} value {value!r}") from None


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
    for name, default, bounds, route, kwargs in options:
        value = getattr(args, name)  # argparse checked every flag
        if value is None and config.get(name) is not None:
            value = _config_value(name, config[name], kwargs)
        # an older fit snapshot, replayed as a config, holds the other route's defaults
        if route not in (None, resolved.get("route")):
            if getattr(args, name) is not None or value not in (None, default):
                raise _UsageError(f"{_flag(name)} applies only to --route {route}")
            continue  # the route never reads it, so the snapshot leaves it out
        if value is None:
            value = default
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
    return getattr(SamplingDistribution, name)()


def _require_file(path, what) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} {p} not found")
    return p


def _load_dataset(resolved, key, catalog) -> Dataset:
    """The dataset CSV that a required option names."""
    return Dataset.load_csv(_require_file(_require_opt(resolved, key), f"{key} file"), catalog)


def _specimen_bytes(resolved) -> bytes:
    """The specimen config a command reads: --specimen, else the shipped one."""
    path = resolved["specimen"]
    source = DEFAULT_SPECIMEN if path is None else _require_file(path, "specimen config")
    return source.read_bytes()


def _load_specimen(resolved, catalog):
    return load_specimen_config(_specimen_bytes(resolved), catalog)


def _load_model(path, catalog):
    """A mechanism model file or a summed model directory."""
    p = Path(path)
    if p.is_dir():
        return SummedRDSM.load(p, catalog)
    _require_file(p, "model file")
    return MechanismRDSM.load(p, catalog)


def _parse_numbers(value, kind, what) -> tuple:
    """A comma-separated flag value, or a config list, as a tuple of kind."""
    try:
        if isinstance(value, (list, tuple)):
            return tuple(json_value(v, kind) for v in value)
        return tuple(kind(tok) for tok in str(value).split(",") if tok.strip())
    except (OverflowError, TypeError, ValueError):
        raise ValueError(f"{what} must be comma-separated {kind.__name__} values") from None


def _parse_subsets(value):
    """Nested subsets: 'A;A,E;A,E,XS' or a JSON list of name lists."""
    if value is None:
        return None
    if isinstance(value, list):
        try:
            return [tuple(json_value(n, str) for n in json_value(sub, list)) for sub in value]
        except TypeError:
            raise ValueError("subsets must be a JSON list of parameter-name lists") from None
    return [tuple(t.strip() for t in chunk.split(",") if t.strip()) for chunk in value.split(";")]


# -- output helpers --------------------------------------------------------------


def _num(value):
    v = float(value)
    return None if math.isnan(v) else v


def _write_snapshot(resolved, anchor: Path) -> None:
    """Resolved-config snapshot beside the outputs it reproduces."""
    doc = {
        "tool": "rdsm",
        "version": __version__,
        "command": resolved["command"],
        "options": {k: v for k, v in resolved.items() if k != "command"},
    }
    if "specimen" in resolved:  # names the source model's config by its content
        doc["specimen_sha256"] = hashlib.sha256(_specimen_bytes(resolved)).hexdigest()
    if anchor.is_dir():
        target = anchor / "run_config.json"
    else:
        target = anchor.with_name(anchor.name + ".run.json")
    target.write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")


def _screening_table(result) -> tuple:
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
    return ("parameter", "fdr_logworth", "fdr_p", "raw_p", "zero_variance", "retained"), rows


def _write_telemetry(path, report) -> None:
    rows = [
        (i + 1, loss, mae)
        for i, (loss, mae) in enumerate(zip(report.loss_history, report.mae_history))
    ]
    write_csv(path, ("epoch", "train_loss", "holdout_mae_pct"), rows)


def _training(model) -> dict:
    """How one network's training ended: epochs run, the 1-based epoch whose
    weights were kept, and why it stopped (early_stop, budget, or no_holdout
    when it had no held-out rows to stop on)."""
    report = model.report
    if report.n_test == 0:
        return {"epochs_run": report.epochs_run, "best_epoch": None, "stop": "no_holdout"}
    return {
        "epochs_run": report.epochs_run,
        "best_epoch": int(np.argmin(report.mae_history)) + 1,
        "stop": "early_stop" if report.epochs_run < model.spec.epochs else "budget",
    }


# -- subcommands -----------------------------------------------------------------


def _cmd_catalog(resolved, catalog) -> tuple:
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
    return "catalog.csv", ("parameter", "mean", "lo", "hi"), rows


def _cmd_sample(resolved, catalog) -> tuple:
    n, seed, method = resolved["n"], resolved["seed"], resolved["method"]
    if method == "lss":
        values = sample_lss(n, len(catalog), seed, strata_per_dim=resolved["strata"])
    else:
        values = (sample_lhs if method == "lhs" else sample_mc)(n, len(catalog), seed)
    if not resolved["unit"]:
        values = _distribution(resolved["distribution"]).transform(values, catalog)
    return "design.csv", catalog.names, values


def _cmd_simulate(resolved, catalog) -> tuple:
    specimen = _load_specimen(resolved, catalog)
    if resolved["design"] is not None:
        x = read_csv(_require_file(resolved["design"], "design file"), catalog.names)
    else:
        unit = sample_lhs(resolved["n"], len(catalog), resolved["seed"])
        x = _distribution(resolved["distribution"]).transform(unit, catalog)
    return "data.csv", *simulate_dataset(x, specimen, threads=resolved["threads"]).table()


def _cmd_screen(resolved, catalog) -> tuple:
    dataset = _load_dataset(resolved, "data", catalog)
    output = resolved["output"]
    max_k = resolved["max_k"] or MAX_RETAINED[output]
    result = screen_fdr_logworth(dataset.inputs, dataset.energy(output), catalog.names, max_k=max_k)
    return f"screening_{output}.csv", *_screening_table(result)


def _direct_network(resolved, input_dim, seed) -> NetworkSpec:
    """The direct fit's network: NetworkSpec defaults under the set flags."""
    kwargs = {
        k: resolved[k] for k in ("learning_rate", "epochs", "batch_size") if resolved[k] is not None
    }
    if resolved["hidden"] is not None:
        widths = _parse_numbers(resolved["hidden"], int, "hidden")
        if len(widths) > _MAX_LAYERS or not all(1 <= w <= _MAX_WIDTH for w in widths):
            raise _UsageError(
                f"--hidden takes at most {_MAX_LAYERS} widths, each in [1, {_MAX_WIDTH:,}], "
                f"got {resolved['hidden']!r}"
            )
        kwargs["hidden_layers"] = widths
    if resolved["split"] is not None:
        kwargs["split"] = _parse_numbers(resolved["split"], float, "split")
    return NetworkSpec(input_dim=input_dim, seed=seed, **kwargs)


def _write_direct_fit(fit, outdir) -> dict:
    (outdir / "full_model.json").write_bytes(serialize_model(fit.full_model))
    fit.rdsm.save(outdir / "direct_rdsm.json")
    write_csv(outdir / "screening_TS.csv", *_screening_table(fit.screening))
    _write_telemetry(outdir / "telemetry_TS_full.csv", fit.full_model.report)
    if fit.rdsm.surrogate is not fit.full_model:
        _write_telemetry(outdir / "telemetry_TS.csv", fit.rdsm.surrogate.report)
    return {
        "route": "direct",
        "retained_params": list(fit.rdsm.retained_params),
        "full_model_test_mae_pct": _num(fit.full_model.report.test_mae_pct),
        "rdsm_test_mae_pct": _num(fit.rdsm.surrogate.report.test_mae_pct),
        "full_model_training": _training(fit.full_model),
        "rdsm_training": _training(fit.rdsm.surrogate),
        "model_file": "direct_rdsm.json",
    }


def _write_summed_fit(fit, outdir, resolved) -> dict:
    fit.summed.save(outdir / "model")
    mechanisms = {}
    for name, mfit in fit.fits.items():
        entry = {"needs_resampling": mfit.rdsm is None, "note": mfit.note}
        if mfit.rdsm is not None:
            entry["retained_params"] = list(mfit.rdsm.retained_params)
            entry["test_mae_pct"] = _num(mfit.rdsm.surrogate.report.test_mae_pct)
            entry["training"] = _training(mfit.rdsm.surrogate)
            _write_telemetry(outdir / f"telemetry_{name}.csv",
                             mfit.rdsm.surrogate.report)
        if mfit.screening is not None:
            write_csv(outdir / f"screening_{name}.csv", *_screening_table(mfit.screening))
        mechanisms[name] = entry
    if fit.disbond_base_screening is not None:
        write_csv(outdir / "screening_DI_base.csv", *_screening_table(fit.disbond_base_screening))
    subspace = fit.subspace
    return {
        "route": "summed",
        "mechanisms": mechanisms,
        "subspace": {
            "varied_params": list(subspace.varied_params),
            "n_rows": len(subspace.dataset),
            "n_engaged": int(np.count_nonzero(subspace.engaged_mask)),
            "threshold": resolved["threshold"],
            "threshold_mode": resolved["threshold_mode"],
        },
        "model_dir": "model",
    }


def _cmd_fit(resolved, catalog) -> Path:
    seed, holdout, route = resolved["seed"], resolved["holdout"], resolved["route"]
    network = _direct_network(resolved, len(catalog), seed) if route == "direct" else None
    dataset = _load_dataset(resolved, "data", catalog)
    outdir = _outdir(resolved)
    validation = None
    if holdout > 0:
        dataset, validation = split_holdout(dataset, holdout, seed)
    if route == "direct":
        fit = fit_direct(
            dataset,
            network=network,
            max_retained=resolved["max_retained"],
            query_mode=resolved["query_mode"],
            seed=seed,
        )
    else:
        fit = fit_summed(
            dataset,
            _load_specimen(resolved, catalog),
            seed=seed,
            resample_n=resolved["resample_n"],
            threshold=resolved["threshold"],
            threshold_mode=resolved["threshold_mode"],
            threads=resolved["threads"],
        )
    outdir.mkdir(parents=True, exist_ok=True)
    if route == "direct":
        report = _write_direct_fit(fit, outdir)
    else:
        report = _write_summed_fit(fit, outdir, resolved)
    if validation is not None:
        validation.save_csv(outdir / "validation.csv")
        report["validation_file"] = "validation.csv"
        report["holdout_row_ids"] = [int(i) for i in validation.row_ids]
    report["train_row_ids"] = [int(i) for i in dataset.row_ids]
    report["train_row_keys"] = dataset.row_keys()
    (outdir / "fit_report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True), encoding="utf-8"
    )
    return outdir


def _cmd_sobol(resolved, catalog) -> tuple:
    model = _load_model(_require_opt(resolved, "model"), catalog)
    dist = _distribution(resolved["distribution"])
    result = sobol_indices(
        model,
        len(catalog),
        resolved["n_base"],
        seed=resolved["seed"],
        dist=dist,
        catalog=catalog,
        n_bootstrap=resolved["n_bootstrap"],
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
    header = ("parameter", "total_order", "first_order", "total_order_stderr", "first_order_stderr")
    return "sobol.csv", header, rows


def _cmd_uq(resolved, catalog) -> tuple:
    model = _load_model(_require_opt(resolved, "model"), catalog)
    subsets = _parse_subsets(resolved["subsets"])
    if subsets is None:
        if isinstance(model, SummedRDSM):
            raise ValueError(
                "a summed model needs an explicit --subsets ladder"
            )
        retained = model.retained_params
        subsets = [retained[:k] for k in range(1, len(retained) + 1)]
    report = uq_sweep(
        model,
        subsets,
        n=resolved["n"],
        seed=resolved["seed"],
        dist=_distribution(resolved["distribution"]),
        strata_per_dim=resolved["strata"],
    )
    rows = []
    for i, row in enumerate(report.rows):
        label = ", ".join(row.params) if row.params else "(baseline)"
        rows.append((label, row.mean, row.std))
        if i < len(report.diffs):
            dm, dstd = report.diffs[i]
            rows.append(("% difference", dm, dstd))
    return "uq.csv", ("parameters", "mean", "std"), rows


def _cmd_gate_check(resolved, _catalog) -> tuple | None:
    gate = EngagementGate()
    if resolved["grid"] is not None:
        axis = np.linspace(0.0, 1.0, resolved["grid"])
        # rows run over giii fastest, then xis, then p
        points = [c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij")]
        rows = zip(*points, gate.boundary_margin(*points), gate.engaged(*points))
        return "gate_grid.csv", ("p", "xis", "giii", "margin", "engaged"), rows
    for key in ("p", "xis", "giii"):
        if resolved[key] is None:
            raise _UsageError("gate-check needs --p, --xis, and --giii (or --grid)")
    point = (resolved["p"], resolved["xis"], resolved["giii"])
    engaged = "true" if gate.engaged(*point) else "false"
    print(f"engaged={engaged} margin={gate.boundary_margin(*point)!r}")
    return None


def _load_train_keys(path):
    if path is None:
        return None
    p = _require_file(path, "train-rows file")
    doc = parse_json(p.read_bytes(), f"train-rows file {p}")
    if isinstance(doc, dict):
        if "train_row_keys" not in doc:
            raise SchemaError(f"train-rows file {p} lacks a train_row_keys entry")
        doc = doc["train_row_keys"]
    if not isinstance(doc, list) or not all(isinstance(k, str) for k in doc):
        raise SchemaError(f"train-rows file {p} must hold a list of string row keys")
    return frozenset(doc)


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


def _comparison_table(report) -> tuple:
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
    header = (
        "metric",
        "all_truth",
        "all_direct",
        "all_summed",
        "engaged_truth",
        "engaged_direct",
        "engaged_summed",
    )
    return header, rows


def _cmd_compare(resolved, catalog) -> tuple:
    direct = _load_model(_require_opt(resolved, "direct"), catalog)
    summed_path = Path(_require_opt(resolved, "summed"))
    if not summed_path.is_dir():
        raise FileNotFoundError(f"summed model directory {summed_path} not found")
    summed = SummedRDSM.load(summed_path, catalog)
    validation = _load_dataset(resolved, "validation", catalog)
    train_keys = _load_train_keys(resolved["train_rows"])
    report = compare_approaches(direct, summed, validation, train_keys=train_keys)
    return "comparison.csv", *_comparison_table(report)


def _cmd_plot_data(resolved, catalog) -> tuple:
    if resolved["kind"] == "parity":
        model = _load_model(_require_opt(resolved, "model"), catalog)
        dataset = _load_dataset(resolved, "validation", catalog)
        header = ["row_id", "actual", "predicted"]
        columns = [dataset.row_ids, dataset.energy("TS"), model.predict(dataset.inputs)]
        if isinstance(model, SummedRDSM):
            header.append("engaged")
            columns.append(model.engaged(dataset.inputs))
        return "parity.csv", header, zip(*columns)
    dataset = _load_dataset(resolved, "data", catalog)
    order = np.argsort(dataset.energy("TS"), kind="stable")
    rows = [(dataset.row_ids[i], *dataset.energies[i]) for i in order]
    return "energy_stack.csv", ("row_id", *ENERGY_COLUMNS), rows


# each subcommand's help line, handler, and options; the handler returns a
# table as (default file name, header, rows), which main writes, else the
# directory it wrote its outputs into, or None when it wrote none.
# argparse stores None for omitted flags so a config file can fill the gap
# before the default applies
_COMMANDS: dict[str, tuple] = {
    "catalog": ("write the parameter table with bounds", _cmd_catalog, (
        _opt("distribution", "uniform_pm20", choices=DISTRIBUTIONS),
        _opt("out", help="output CSV path (default: catalog.csv)"),
    )),
    "sample": ("write a sampling design CSV", _cmd_sample, (
        _ROWS,
        _opt("seed", 0, type=int),
        _opt("method", "lhs", choices=("lhs", "mc", "lss")),
        _opt("distribution", "uniform_pm20", choices=DISTRIBUTIONS),
        _opt("strata", bounds=(1, _MAX_QUERY_ROWS), type=int,
             help="coarse strata per dimension (lss)"),
        _opt(
            "unit", False, action="store_true",
            help="emit the unit-cube design instead of parameter space",
        ),
        _opt("out", help="output CSV path (default: design.csv)"),
    )),
    "simulate": ("run the bend source model over a design", _cmd_simulate, (
        _ROWS,
        _opt("seed", 7, type=int),
        _opt("design", help="simulate this design CSV instead of sampling"),
        _opt("distribution", "uniform_pm20", choices=DISTRIBUTIONS),
        _opt("specimen", help="specimen config JSON (default: built-in)"),
        _THREADS,
        _opt("out", help="output CSV path (default: data.csv)"),
    )),
    "screen": ("rank parameters by FDR logworth", _cmd_screen, (
        _opt("data", help="dataset CSV"),
        _opt("output", "TS", choices=ENERGY_COLUMNS, help="energy column to screen"),
        _opt(
            "max_k", bounds=(1, None), type=int,
            help="retention cap (default per energy: "
            + ", ".join(f"{energy} {k}" for energy, k in MAX_RETAINED.items()) + ")",
        ),
        _opt("out", help="output CSV path (default: screening_<output>.csv)"),
    )),
    "fit": ("fit a direct or summed model to a dataset", _cmd_fit, (
        _opt("data", help="dataset CSV"),
        _opt("route", "direct", choices=("direct", "summed")),
        _opt("seed", 0, type=int),
        _opt("holdout", 0, bounds=(0, None), type=int,
             help="rows to set aside as validation.csv before fitting"),
        _opt(
            "hidden", route="direct",
            help=f"hidden layer widths, e.g. 60,80; at most {_MAX_LAYERS} layers, "
            f"each in [1, {_MAX_WIDTH:,}] (direct route)",
        ),
        _opt("learning_rate", route="direct", type=float),
        _opt("epochs", bounds=(1, _MAX_EPOCHS), route="direct", type=int, help="training epochs"),
        _opt("batch_size", bounds=(1, _MAX_QUERY_ROWS), route="direct", type=int,
             help="minibatch rows"),
        _opt("split", route="direct", help="train,test fractions, e.g. 0.9,0.1"),
        _opt("max_retained", MAX_RETAINED["TS"], bounds=(1, None), route="direct", type=int,
             help="direct retention cap"),
        _opt("query_mode", "retrained", route="direct", choices=("retrained", "frozen_full")),
        _opt("resample_n", RESAMPLE_N, bounds=(1, _MAX_QUERY_ROWS), route="summed", type=int,
             help="focused disbond design size"),
        _opt("threshold", ENGAGEMENT_FRACTION, route="summed", type=float,
             help="engagement threshold"),
        _opt("threshold_mode", "relative", route="summed", choices=("relative", "absolute")),
        _opt("specimen", route="summed", help="specimen config JSON for resampling"),
        _THREADS,
    )),
    "sobol": ("Sobol' indices of a saved model", _cmd_sobol, (
        _opt("model", help="model file or summed model directory"),
        _opt("n_base", 512, bounds=(128, _MAX_QUERY_ROWS), type=int, help="base sample size"),
        _opt("seed", 0, type=int),
        _opt("distribution", "uniform_pm20", choices=DISTRIBUTIONS),
        _opt("n_bootstrap", 100, bounds=(2, _MAX_BOOTSTRAP), type=int, help="bootstrap resamples"),
        _opt("out", help="output CSV path (default: sobol.csv)"),
    )),
    "uq": ("prediction spread over nested parameter subsets", _cmd_uq, (
        _opt("model", help="model file or summed model directory"),
        _opt(
            "subsets",
            help="nested subsets, e.g. 'A;A,E;A,E,XS' (default: the retained ladder)",
        ),
        _opt("n", 5000, bounds=(2, _MAX_QUERY_ROWS), type=int, help="rows per subset"),
        _opt("seed", 0, type=int),
        _opt("distribution", "normal_10std", choices=DISTRIBUTIONS),
        _opt("strata", bounds=(1, _MAX_QUERY_ROWS), type=int,
             help="coarse strata per dimension"),
        _opt("out", help="output CSV path (default: uq.csv)"),
    )),
    "gate-check": ("disbond engagement test in normalized coordinates", _cmd_gate_check, (
        _opt("p", type=float, help="first gate coordinate in [0, 1]"),
        _opt("xis", type=float, help="second gate coordinate in [0, 1]"),
        _opt("giii", type=float, help="third gate coordinate in [0, 1]"),
        _opt(
            "grid", bounds=(2, _MAX_GRID), type=int,
            help="write margins over an N x N x N grid instead of one point "
            f"(at most {_MAX_GRID**3:,} rows)",
        ),
        _opt("out", help="grid CSV path (default: gate_grid.csv)"),
    )),
    "compare": ("direct vs summed accuracy on a validation set", _cmd_compare, (
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
    "plot-data": ("emit plot-ready CSV series", _cmd_plot_data, (
        _opt("kind", "parity", choices=("parity", "energy-stack")),
        _opt("model", help="model file or summed model directory (parity)"),
        _opt("validation", help="validation dataset CSV (parity)"),
        _opt("data", help="dataset CSV (energy-stack)"),
        _opt("out", help="output CSV path (default: parity.csv or energy_stack.csv, by --kind)"),
    )),
}


# -- parser ----------------------------------------------------------------------


def _add_option(parser, name, default, bounds, route, kwargs) -> None:
    """One flag, its help ending in the declared bounds and default."""
    notes = [kwargs["help"]] if "help" in kwargs else []
    if bounds is not None:
        lo, hi = bounds
        notes.append(f"at least {lo:,}" if hi is None else f"in [{lo:,}, {hi:,}]")
    text = ", ".join(notes)
    if default is not None and default is not False:  # 0 == False, yet 0 prints
        text = f"{text} (default: {default})".lstrip()
    parser.add_argument(_flag(name), default=None, **dict(kwargs, help=text or None))


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line on the one-line error channel."""

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared:
    parsing a command line returns a new namespace and changes no parser."""
    parser = _Parser(
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

    for command, (help_line, _, options) in _COMMANDS.items():
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
    try:
        args = _build_parser().parse_args(argv)
        resolved = _resolve(args)
        anchor = _COMMANDS[args.command][1](resolved, build_catalog())
        if isinstance(anchor, tuple):  # a table, written where --out or --outdir says
            default_name, header, rows = anchor
            anchor = _out_path(resolved, default_name)
            write_csv(anchor, header, rows)
        if anchor is not None:  # a failed command raised before this, so leaves none
            _write_snapshot(resolved, anchor)
        return EXIT_OK
    except SystemExit as exc:  # --help and --version
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
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
