"""End-to-end command-line tests: artifact layout, config precedence,
snapshots, determinism, and the documented exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from rdsm import bend, cli, workflow
from rdsm.catalog import build_catalog
from rdsm.cli import (
    EXIT_DATA,
    EXIT_MISSING_FILE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    main,
)
from rdsm.dataset import ENERGY_COLUMNS, Dataset, write_csv
from rdsm.workflow import MechanismRDSM, SummedRDSM
from sobol_reference import reference_sobol_indices

BENCH_FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"


def run(*args) -> int:
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def cat():
    return build_catalog()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_csv(work):
    path = work / "data.csv"
    assert run("simulate", "--n", 140, "--seed", 7, "--out", path) == EXIT_OK
    return path


@pytest.fixture(scope="module")
def direct_dir(work, data_csv):
    outdir = work / "direct"
    code = run(
        "fit", "--data", data_csv, "--route", "direct", "--outdir", outdir,
        "--holdout", 20, "--hidden", "16,16", "--epochs", 250, "--seed", 1,
    )
    assert code == EXIT_OK
    return outdir


@pytest.fixture(scope="module")
def summed_dir(work, data_csv):
    outdir = work / "summed"
    code = run(
        "fit", "--data", data_csv, "--route", "summed", "--outdir", outdir,
        "--holdout", 20, "--seed", 5, "--resample-n", 320,
    )
    assert code == EXIT_OK
    return outdir


# -- basics ----------------------------------------------------------------------


def test_version_and_help_exit_clean(capsys):
    assert run("--version") == EXIT_OK
    assert "rdsm" in capsys.readouterr().out
    assert run("screen", "--help") == EXIT_OK
    assert "--data" in capsys.readouterr().out


def test_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    capsys.readouterr()
    assert run("screen") == EXIT_USAGE  # missing required --data
    err = capsys.readouterr().err
    assert err.startswith("rdsm: error: usage:")
    assert "--data" in err
    # parser rejections share the one-line channel
    for argv in (["--no-such-flag"], ["sample", "--bogus"], ["sample", "--n", "x"],
                 ["sample", "--method", "zz"], ["nonsense"]):
        assert run(*argv) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        err = captured.err
        assert err.startswith("rdsm: error: usage:") and err.count("\n") == 1, err


def test_help_states_each_range_and_default(capsys):
    for command in cli._COMMANDS:
        assert run(command, "--help") == EXIT_OK
        # argparse wraps help lines; each flag's entry runs to the next flag
        text = " ".join(capsys.readouterr().out.split("options:", 1)[1].split())
        entries = dict(re.findall(r"(--[a-z][a-z-]*) (.*?)(?= --[a-z][a-z-]* |$)", text))
        assert "{default}" not in text, command
        for name, default, bounds, _, _ in cli._options(command):
            entry = entries[cli._flag(name)]
            if bounds is not None:
                lo, hi = bounds
                assert (f"at least {lo:,}" if hi is None else f"in [{lo:,}, {hi:,}]") in entry
            # a default of 0 is stated; only an unset option or a switch is not
            if default is not None and default is not False:
                assert entry.endswith(f"(default: {default})"), (command, entry)
    assert run("fit", "--help") == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert "--seed SEED (default: 0)" in text
    assert "before fitting, at least 0 (default: 0)" in text


def test_exit_codes_documented_in_help(capsys):
    run("--help")
    out = capsys.readouterr().out
    for line in ("2  usage error", "3  missing input file", "4  schema mismatch",
                 "5  invalid or empty data", "6  numerical failure"):
        assert line in out


def test_catalog_table(cat, work):
    out = work / "catalog.csv"
    assert run("catalog", "--out", out) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["parameter", "mean", "lo", "hi"]
    assert [r[0] for r in rows] == list(cat.names)
    i = cat.index("E")
    assert float(rows[i][1]) == cat.means[i]
    assert float(rows[i][2]) == pytest.approx(0.8 * cat.means[i])
    # unbounded marginals leave the bound cells empty
    out2 = work / "catalog_normal.csv"
    assert run("catalog", "--distribution", "normal_10std", "--out", out2) == EXIT_OK
    _, rows2 = read_csv(out2)
    assert rows2[i][2] == "" and rows2[i][3] == ""


# -- sampling and simulation -------------------------------------------------------


def test_sample_unit_and_scaled(cat, work):
    unit = work / "unit.csv"
    assert run("sample", "--n", 16, "--seed", 2, "--unit", "--out", unit) == EXIT_OK
    header, rows = read_csv(unit)
    assert header == list(cat.names)
    vals = np.array(rows, dtype=float)
    assert vals.shape == (16, len(cat))
    assert np.all((vals >= 0.0) & (vals <= 1.0))

    scaled = work / "scaled.csv"
    assert run("sample", "--n", 16, "--seed", 2, "--out", scaled) == EXIT_OK
    _, rows = read_csv(scaled)
    vals = np.array(rows, dtype=float)
    assert np.all(vals >= 0.8 * cat.means) and np.all(vals <= 1.2 * cat.means)


def test_sample_deterministic_bytes(work):
    for method in ("lhs", "lss"):
        a, b, c = (work / f"s_{method}_{n}.csv" for n in "abc")
        sample = ("sample", "--method", method, "--n", 12)
        assert run(*sample, "--seed", 4, "--out", a) == EXIT_OK
        assert run(*sample, "--seed", 4, "--out", b) == EXIT_OK
        assert run(*sample, "--seed", 5, "--out", c) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


def test_simulate_dataset_and_snapshot(cat, work, data_csv):
    ds = Dataset.load_csv(data_csv, cat)
    assert len(ds) == 140
    snapshot = json.loads((work / "data.csv.run.json").read_text())
    assert snapshot["tool"] == "rdsm"
    assert snapshot["command"] == "simulate"
    assert snapshot["options"]["n"] == 140
    assert snapshot["options"]["seed"] == 7
    assert "version" in snapshot


def test_snapshot_names_the_specimen_by_content(work, data_csv, direct_dir, summed_dir):
    shipped = hashlib.sha256((Path(cli.__file__).parent / "data" / "default_specimen.json")
                             .read_bytes()).hexdigest()
    for path in (work / "data.csv.run.json", summed_dir / "run_config.json"):
        assert json.loads(path.read_text())["specimen_sha256"] == shipped, path
    # a direct fit reads no specimen
    assert "specimen_sha256" not in json.loads((direct_dir / "run_config.json").read_text())
    # a --specimen file is named by the bytes read, while options keep its path
    spec = work / "specimen_reformatted.json"
    spec.write_text(json.dumps(_SPECIMEN, indent=1), encoding="utf-8")
    out = work / "specimen_data.csv"
    assert run("simulate", "--n", 4, "--specimen", spec, "--out", out) == EXIT_OK
    snapshot = json.loads((work / "specimen_data.csv.run.json").read_text())
    assert snapshot["specimen_sha256"] == hashlib.sha256(spec.read_bytes()).hexdigest() != shipped
    assert snapshot["options"]["specimen"] == str(spec)


def test_simulate_from_design(work):
    design = work / "design6.csv"
    assert run("sample", "--n", 6, "--seed", 9, "--out", design) == EXIT_OK
    out = work / "design6_data.csv"
    assert run("simulate", "--design", design, "--out", out) == EXIT_OK
    _, rows = read_csv(out)
    assert len(rows) == 6
    # a design with the wrong columns is a schema failure
    bad = work / "bad_design.csv"
    bad.write_text("a,b\n1,2\n")
    assert run("simulate", "--design", bad, "--out", work / "x.csv") == EXIT_SCHEMA
    # design columns may come in any order, as data columns may
    rows = [line.split(",")[::-1] for line in design.read_text().splitlines()]
    reversed_design = work / "design6_reversed.csv"
    reversed_design.write_text("".join(",".join(r) + "\n" for r in rows))
    out2 = work / "design6_reversed_data.csv"
    assert run("simulate", "--design", reversed_design, "--out", out2) == EXIT_OK
    assert out2.read_bytes() == out.read_bytes()


def test_simulate_deterministic(work):
    a, b = work / "sim_a.csv", work / "sim_b.csv"
    assert run("simulate", "--n", 10, "--seed", 3, "--out", a) == EXIT_OK
    assert run("simulate", "--n", 10, "--seed", 3, "--out", b) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# -- config resolution ---------------------------------------------------------------


def _help_keys(command, capsys) -> set:
    assert run(command, "--help") == EXIT_OK
    flags = re.findall(r"^\s+(--[a-z][a-z-]*)", capsys.readouterr().out, re.M)
    return {f[2:].replace("-", "_") for f in flags} - {"config"}


def test_help_config_and_snapshot_agree(work, data_csv, direct_dir, summed_dir, capsys):
    direct = direct_dir / "direct_rdsm.json"
    args = {
        "catalog": [],
        "sample": ["--n", 8],
        "simulate": ["--n", 8],
        "screen": ["--data", data_csv],
        "fit": ["--data", data_csv, "--hidden", "4", "--epochs", 5],
        "sobol": ["--model", direct, "--n-base", 128, "--n-bootstrap", 2],
        "uq": ["--model", direct, "--n", 50],
        "gate-check": ["--grid", 2],
        "compare": ["--direct", direct, "--summed", summed_dir / "model",
                    "--validation", direct_dir / "validation.csv"],
        "plot-data": ["--kind", "energy-stack", "--data", data_csv],
    }
    for command, extra in args.items():
        outdir = work / "agree" / command
        assert run(command, *extra, "--outdir", outdir) == EXIT_OK, command
        # one snapshot, beside the output file or in fit's output directory
        [path] = (*outdir.rglob("run_config.json"), *outdir.rglob("*.run.json"))
        assert path.parent == outdir, command
        if path.name != "run_config.json":
            assert path.with_name(path.name.removesuffix(".run.json")).is_file(), command
        options = json.loads(path.read_text())["options"]
        keys = _help_keys(command, capsys)
        if command == "fit":  # a direct fit's snapshot holds no summed-route option
            keys -= {name for name, _, _, route, _ in cli._options(command) if route == "summed"}
        assert set(options) == keys, command
        # every snapshot key is a config key: the snapshot replays as a config
        replay = dict(options, outdir=str(work / "agree" / f"{command}_replay"))
        config = work / "agree" / f"{command}.json"
        config.write_text(json.dumps(replay))
        assert run(command, "--config", config) == EXIT_OK, command
        replayed = json.loads(
            next(Path(replay["outdir"]).glob("*run*.json")).read_text()
        )
        assert replayed["options"] == replay, command


def test_resource_flags_are_bounded(work, data_csv, direct_dir, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an out-of-range size reached the command")

    # rejected sizes must stop before any pool or grid is built
    monkeypatch.setattr(cli, "simulate_dataset", never)
    monkeypatch.setattr(cli, "fit_summed", never)
    monkeypatch.setattr(cli, "EngagementGate", never)
    monkeypatch.setattr(cli, "sobol_indices", never)
    monkeypatch.setattr(cli, "uq_sweep", never)
    monkeypatch.setattr(cli, "sample_lss", never)
    too_many = (os.cpu_count() or 1) + 1
    too_fine = cli._MAX_GRID + 1
    too_long = cli._MAX_BOOTSTRAP + 1
    too_big = cli._MAX_QUERY_ROWS + 1
    model = direct_dir / "direct_rdsm.json"
    out = work / "bounded" / "out.csv"
    outdir = work / "bounded" / "fit"
    config = work / "bounded.json"
    cases = [
        ["simulate", "--n", 4, "--threads", too_many, "--out", out],
        ["simulate", "--n", 4, "--threads", 0, "--out", out],
        ["fit", "--data", data_csv, "--route", "summed", "--threads", too_many,
         "--outdir", outdir],
        ["gate-check", "--grid", too_fine, "--out", out],
        ["gate-check", "--grid", 1, "--out", out],
        # no resample, or one, leaves the standard error undefined
        *(["sobol", "--model", model, "--n-base", 128, "--n-bootstrap", n, "--out", out]
          for n in (-2, 0, 1, too_long)),
        # fewer base rows than the library accepts, or a design too big to hold
        *(["sobol", "--model", model, "--n-base", n, "--out", out]
          for n in (0, 64, 127, too_big)),
        # one row per subset has no spread
        *(["uq", "--model", model, "--n", n, "--out", out] for n in (-1, 0, 1, too_big)),
        # a design needs a row, and a bigger one than a query may draw is refused
        *([command, "--n", n, "--out", out]
          for command in ("sample", "simulate") for n in (-1, 0, too_big)),
        *(["fit", "--data", data_csv, "--route", "summed", "--resample-n", n,
           "--outdir", outdir] for n in (-1, 0, too_big)),
        # a stratified design needs a stratum per dimension, and no more than a query draws
        *([*argv, "--strata", n, "--out", out] for n in (-1, 0, too_big)
          for argv in (["sample", "--method", "lss"], ["uq", "--model", model])),
    ]
    for argv in cases:
        assert run(*argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("rdsm: error: usage:") and err.count("\n") == 1, err
    for argv, key, value in ((["simulate"], "threads", too_many),
                             (["gate-check"], "grid", too_fine),
                             (["sobol", "--model", model], "n_bootstrap", 0),
                             (["sobol", "--model", model], "n_base", 64),
                             (["sobol", "--model", model], "n_base", too_big),
                             (["uq", "--model", model], "n", 1),
                             (["uq", "--model", model], "n", too_big),
                             (["sample"], "n", 0),
                             (["uq", "--model", model], "strata", 0),
                             (["simulate"], "n", too_big)):
        config.write_text(json.dumps({key: value}))
        assert run(*argv, "--config", config, "--out", out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("rdsm: error: usage:") and err.count("\n") == 1, err
    config.write_text(json.dumps({"resample_n": 0}))
    assert run("fit", "--data", data_csv, "--route", "summed", "--config", config,
               "--outdir", outdir) == EXIT_USAGE
    assert capsys.readouterr().err == "rdsm: error: usage: --resample-n must be at least 1, got 0\n"
    assert not out.parent.exists()


def test_fit_and_screen_sizes_are_bounded(work, data_csv, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an out-of-range size read a file")

    # a negative holdout once fitted every row; a zero cap failed only after training
    monkeypatch.setattr(cli.Dataset, "load_csv", never)
    outdir = work / "sizes"
    config = work / "sizes.json"
    for command, name, value, lo, extra in (
        ("fit", "holdout", -5, 0, ()),
        ("fit", "holdout", -1, 0, ("--route", "summed")),
        ("fit", "max_retained", 0, 1, ()),
        ("fit", "max_retained", -3, 1, ()),
        ("screen", "max_k", 0, 1, ()),
        ("screen", "max_k", -1, 1, ()),
    ):
        want = f"rdsm: error: usage: {cli._flag(name)} must be at least {lo}, got {value}\n"
        base = (command, "--data", data_csv, *extra, "--outdir", outdir)
        assert run(*base, cli._flag(name), value) == EXIT_USAGE, (name, value)
        assert capsys.readouterr().err == want
        config.write_text(json.dumps({name: value}))
        assert run(*base, "--config", config) == EXIT_USAGE, (name, value)
        assert capsys.readouterr().err == want
    assert not outdir.exists()


def test_fit_snapshot_holds_its_route_options(work, direct_dir, summed_dir):
    options = cli._options("fit")
    routes = {name: route for name, _, _, route, _ in options if route}
    defaults = {name: default for name, default, *_ in options}
    snapshots = {
        route: json.loads((outdir / "run_config.json").read_text())["options"]
        for route, outdir in (("direct", direct_dir), ("summed", summed_dir))
    }
    assert "query_mode" not in snapshots["summed"] and "hidden" not in snapshots["summed"]
    assert "resample_n" not in snapshots["direct"] and "specimen" not in snapshots["direct"]
    for route, snapshot in snapshots.items():
        assert snapshot["route"] == route
        assert {name for name, r in routes.items() if r == route} <= set(snapshot)
        assert not {name for name, r in routes.items() if r != route} & set(snapshot)
        # a snapshot that also holds the other route's defaults, as older
        # snapshots do, still replays to the same options
        old = dict(snapshot, **{name: defaults[name] for name, r in routes.items() if r != route})
        config = work / f"old_snapshot_{route}.json"
        config.write_text(json.dumps(old))
        args = cli._build_parser().parse_args(["fit", "--config", str(config)])
        assert cli._resolve(args) == {"command": "fit", **snapshot}, route


def test_network_flags_are_bounded(work, data_csv, monkeypatch, capsys):
    def reached(dataset, network, **kwargs):
        raise ValueError(f"reached with {network.hidden_layers}")

    # an accepted size reaches fit_direct, which here allocates no network
    monkeypatch.setattr(cli, "fit_direct", reached)
    outdir = work / "network_bounds"
    config = work / "network_bounds.json"
    fit = ("fit", "--data", data_csv, "--outdir", outdir)
    widest = ",".join([str(cli._MAX_WIDTH)] * cli._MAX_LAYERS)
    for flags in (["--epochs", cli._MAX_EPOCHS], ["--batch-size", cli._MAX_QUERY_ROWS],
                  ["--hidden", widest], ["--hidden", "1"]):
        assert run(*fit, *flags) == EXIT_DATA, flags
        assert "reached" in capsys.readouterr().err
    for flags in (["--epochs", 0], ["--epochs", cli._MAX_EPOCHS + 1],
                  ["--batch-size", 0], ["--batch-size", cli._MAX_QUERY_ROWS + 1],
                  ["--hidden", widest + ",1"], ["--hidden", "60,0"],
                  ["--hidden", f"60,{cli._MAX_WIDTH + 1}"]):
        assert run(*fit, *flags) == EXIT_USAGE, flags
        err = capsys.readouterr().err
        assert err.startswith("rdsm: error: usage: " + flags[0]) and err.count("\n") == 1, err
    for key, value in (("epochs", cli._MAX_EPOCHS + 1), ("batch_size", 0),
                       ("hidden", [cli._MAX_WIDTH + 1])):
        config.write_text(json.dumps({key: value}))
        assert run(*fit, "--config", config) == EXIT_USAGE, key
        err = capsys.readouterr().err
        assert err.startswith("rdsm: error: usage:") and err.count("\n") == 1, err
    assert not outdir.exists()


# each route-specific fit option: its route, and a value it accepts
_ROUTED = {
    "hidden": ("direct", "8"), "learning_rate": ("direct", 0.01), "epochs": ("direct", 5),
    "batch_size": ("direct", 8), "split": ("direct", "0.8,0.2"),
    "max_retained": ("direct", 3), "query_mode": ("direct", "frozen_full"),
    "resample_n": ("summed", 100), "threshold": ("summed", 0.1),
    "threshold_mode": ("summed", "absolute"), "specimen": ("summed", "spec.json"),
}


def test_fit_rejects_options_of_the_other_route(work, data_csv, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("a fit with a foreign option read a file")

    monkeypatch.setattr(cli.Dataset, "load_csv", never)
    options = cli._options("fit")
    assert {name: route for name, _, _, route, _ in options if route} == {
        name: route for name, (route, _) in _ROUTED.items()}
    defaults = {name: default for name, default, *_ in options}
    outdir = work / "foreign"
    config = work / "foreign.json"
    for name, (route, value) in _ROUTED.items():
        other = "summed" if route == "direct" else "direct"
        fit = ("fit", "--data", data_csv, "--route", other, "--outdir", outdir)
        want = f"rdsm: error: usage: {cli._flag(name)} applies only to --route {route}\n"
        # a flag is refused even at the default its own route would use
        for flagged in {value, defaults[name]} - {None}:
            assert run(*fit, cli._flag(name), flagged) == EXIT_USAGE, name
            assert capsys.readouterr().err == want
        config.write_text(json.dumps({"route": other, name: value}))
        assert run("fit", "--data", data_csv, "--config", config, "--outdir", outdir) == EXIT_USAGE
        assert capsys.readouterr().err == want
    assert not outdir.exists()


def test_flags_override_config_overrides_defaults(work):
    config = work / "conf.json"
    config.write_text(json.dumps({"n": 12, "seed": 3}))
    flag_wins = work / "flag_wins.csv"
    assert run("sample", "--config", config, "--seed", 4, "--out", flag_wins) == EXIT_OK
    explicit = work / "explicit.csv"
    assert run("sample", "--n", 12, "--seed", 4, "--out", explicit) == EXIT_OK
    assert flag_wins.read_bytes() == explicit.read_bytes()

    config_wins = work / "config_wins.csv"
    assert run("sample", "--config", config, "--out", config_wins) == EXIT_OK
    expected = work / "expected.csv"
    assert run("sample", "--n", 12, "--seed", 3, "--out", expected) == EXIT_OK
    assert config_wins.read_bytes() == expected.read_bytes()

    # a null entry leaves its option unset, so the default applies
    config.write_text(json.dumps({"n": 12, "seed": None, "method": None}))
    null_entries = work / "null_entries.csv"
    assert run("sample", "--config", config, "--out", null_entries) == EXIT_OK
    defaults = work / "defaults.csv"
    assert run("sample", "--n", 12, "--out", defaults) == EXIT_OK
    assert null_entries.read_bytes() == defaults.read_bytes()


def test_main_calls_share_one_parser(work, monkeypatch):
    parsers = []
    parse_args = cli._Parser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_args", recorded)
    config = work / "shared_parser.json"
    config.write_text(json.dumps({"n": 12, "seed": 9, "method": "mc"}))
    first, second = work / "shared_first.csv", work / "shared_second.csv"
    assert run("sample", "--config", config, "--out", first) == EXIT_OK
    assert run("sample", "--out", second) == EXIT_OK
    assert len(parsers) == 2 and parsers[0] is parsers[1]
    # nothing of the first call's config reaches the second
    options = [json.loads(Path(f"{out}.run.json").read_text())["options"]
               for out in (first, second)]
    assert (options[0]["n"], options[0]["seed"], options[0]["method"]) == (12, 9, "mc")
    defaults = {name: default for name, default, *_ in cli._options("sample")}
    assert {k: options[1][k] for k in ("n", "seed", "method")} == {
        k: defaults[k] for k in ("n", "seed", "method")}


def test_config_schema_errors(work, capsys):
    bad_key = work / "bad_key.json"
    bad_key.write_text(json.dumps({"bogus": 1}))
    assert run("sample", "--config", bad_key, "--out", work / "y.csv") == EXIT_SCHEMA
    assert "bogus" in capsys.readouterr().err
    malformed = work / "malformed.json"
    malformed.write_text("{ nope")
    assert run("sample", "--config", malformed, "--out", work / "y.csv") == EXIT_SCHEMA
    assert run("sample", "--config", work / "nowhere.json") == EXIT_MISSING_FILE
    # an integer literal past the parser's digit limit is malformed JSON too
    capsys.readouterr()
    huge = work / "huge.json"
    huge.write_text('{"n": %s}' % ("1" * 5000))
    assert run("sample", "--config", huge, "--out", work / "y.csv") == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("rdsm: error: schema:") and err.count("\n") == 1, err
    assert not (work / "y.csv").exists()


def test_config_values_take_option_type(work, summed_dir, capsys):
    config = work / "typed.json"
    out = work / "typed" / "design.csv"
    # an int option takes a JSON integer, a float option any JSON number;
    # neither takes a bool, as neither flag would
    cases = [("sample", '{"n": %s}' % v, "--out")
             for v in ("Infinity", "NaN", '"abc"', '"12"', "12.7", "12.0", "true")]
    cases.append(("gate-check", '{"p": true, "xis": 0.5, "giii": 0.5}', "--out"))
    # a choice option takes one of its choices, a switch a JSON bool, and
    # any other option a JSON string
    cases += [
        ("sample", '{"method": "foo"}', "--out"),
        ("sample", '{"distribution": "bogus"}', "--out"),
        ("sample", '{"unit": "yes"}', "--out"),
        ("screen", '{"output": "XX"}', "--out"),
        ("plot-data", '{"kind": "pie"}', "--out"),
        ("fit", '{"route": "both"}', "--outdir"),
        ("sample", '{"out": 5}', "--outdir"),
        ("screen", '{"data": 7}', "--out"),
        ("sample", '{"outdir": ["a"]}', "--out"),
    ]
    for command, text, where in cases:
        config.write_text(text)
        target = out if where == "--out" else out.parent
        assert run(command, "--config", config, where, target) == EXIT_USAGE, text
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rdsm: error: usage:"), captured.err
        assert captured.err.count("\n") == 1, captured.err
    # a subsets list holds JSON lists of names; any other entry is bad data
    for text in ('{"subsets": [1, 2]}', '{"subsets": ["P", "P,XiS"]}'):
        config.write_text(text)
        code = run("uq", "--config", config, "--model", summed_dir / "model", "--out", out)
        assert code == EXIT_DATA, text
        captured = capsys.readouterr()
        assert captured.err.startswith("rdsm: error: invalid-data:"), captured.err
        assert captured.err.count("\n") == 1, captured.err
    assert not out.parent.exists()


def test_malformed_specimen_config_is_schema_error(work, capsys):
    bad = work / "bad_specimen.json"
    bad.write_text("{bad")
    out = work / "bad_specimen" / "data.csv"
    code = run("simulate", "--n", 4, "--specimen", bad, "--out", out)
    assert code == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("rdsm: error: schema:") and err.count("\n") == 1, err
    assert not out.parent.exists()


def test_outdir_env_default(work, data_csv, monkeypatch):
    envdir = work / "envdir"
    monkeypatch.setenv("RDSM_OUTDIR", str(envdir))
    assert run("catalog") == EXIT_OK
    assert (envdir / "catalog.csv").is_file()
    assert (envdir / "catalog.csv.run.json").is_file()
    # an explicit --outdir still wins over the environment
    flagdir = work / "flagdir"
    assert run("catalog", "--outdir", flagdir) == EXIT_OK
    assert (flagdir / "catalog.csv").is_file()


# -- screening -----------------------------------------------------------------------


def test_screen_ladder_csv(work, data_csv, cat):
    out = work / "screen_ts.csv"
    assert run("screen", "--data", data_csv, "--output", "TS", "--out", out) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["parameter", "fdr_logworth", "fdr_p", "raw_p",
                      "zero_variance", "retained"]
    assert len(rows) == len(cat)
    lw = [float(r[1]) for r in rows]
    assert lw == sorted(lw, reverse=True)
    retained = [r[0] for r in rows if r[5] == "true"]
    assert 1 <= len(retained) <= 4
    # retained parameters sit at the top of the ladder
    assert retained == [r[0] for r in rows[: len(retained)]]


def test_screen_mechanism_default_cap(work, data_csv, capsys):
    # each energy's default cap is its entry in the one cap table
    assert set(workflow.MAX_RETAINED) == set(ENERGY_COLUMNS)
    for energy, cap in workflow.MAX_RETAINED.items():
        default, capped = work / f"screen_{energy}_default.csv", work / f"screen_{energy}_cap.csv"
        screen = ("screen", "--data", data_csv, "--output", energy)
        assert run(*screen, "--out", default) == EXIT_OK
        assert run(*screen, "--max-k", cap, "--out", capped) == EXIT_OK
        assert default.read_bytes() == capped.read_bytes(), energy
    assert run("screen", "--help") == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    assert all(f"{energy} {cap}" in text for energy, cap in workflow.MAX_RETAINED.items())


def test_screen_missing_file(work, capsys):
    assert run("screen", "--data", work / "nope.csv") == EXIT_MISSING_FILE
    assert capsys.readouterr().err.startswith("rdsm: error: missing-file:")


# -- fitting -------------------------------------------------------------------------


def test_fit_direct_artifacts(direct_dir, cat):
    for name in ("direct_rdsm.json", "full_model.json", "screening_TS.csv",
                 "telemetry_TS.csv", "telemetry_TS_full.csv", "validation.csv",
                 "fit_report.json", "run_config.json"):
        assert (direct_dir / name).is_file(), name
    report = json.loads((direct_dir / "fit_report.json").read_text())
    assert report["route"] == "direct"
    assert 1 <= len(report["retained_params"]) <= 4
    assert len(report["train_row_ids"]) == 120
    assert len(report["train_row_keys"]) == 120
    assert len(report["holdout_row_ids"]) == 20
    model = MechanismRDSM.load(direct_dir / "direct_rdsm.json", cat)
    assert model.mechanism == "TS"
    assert tuple(report["retained_params"]) == model.retained_params

    header, rows = read_csv(direct_dir / "telemetry_TS.csv")
    assert header == ["epoch", "train_loss", "holdout_mae_pct"]
    assert [int(r[0]) for r in rows] == list(range(1, len(rows) + 1))
    assert all(float(r[1]) >= 0.0 for r in rows)
    for key, telemetry in (("full_model_training", "telemetry_TS_full.csv"),
                           ("rdsm_training", "telemetry_TS.csv")):
        _check_training(report[key], direct_dir / telemetry, epochs=250)


def _check_training(training, telemetry, epochs):
    """fit_report.json's stop record agrees with the network's telemetry."""
    _, rows = read_csv(telemetry)
    mae = [float(r[2]) for r in rows]
    assert training["epochs_run"] == len(rows)
    assert training["best_epoch"] == int(np.argmin(mae)) + 1
    assert training["stop"] == ("budget" if len(rows) == epochs else "early_stop")


def test_fit_summed_artifacts(summed_dir, cat):
    report = json.loads((summed_dir / "fit_report.json").read_text())
    assert report["route"] == "summed"
    assert set(report["mechanisms"]) == {"PL", "DL", "DC", "DI", "PM"}
    sub = report["subspace"]
    assert sub["n_rows"] == 320
    assert 0 <= sub["n_engaged"] <= 320
    assert (summed_dir / "screening_DI_base.csv").is_file()
    model = SummedRDSM.load(summed_dir / "model", cat)
    for mech in ("PL", "DL", "DC", "PM"):
        entry = report["mechanisms"][mech]
        assert not entry["needs_resampling"]
        assert (summed_dir / f"screening_{mech}.csv").is_file()
        assert (summed_dir / f"telemetry_{mech}.csv").is_file()
        _check_training(entry["training"], summed_dir / f"telemetry_{mech}.csv",
                        epochs=model.members[mech].surrogate.spec.epochs)
    assert np.all(np.isfinite(model.predict(np.tile(cat.means, (3, 1)))))


def test_fit_report_names_why_training_stopped(work, data_csv):
    common = ("fit", "--data", data_csv, "--route", "direct", "--hidden", 4, "--epochs", 5)
    budget, no_holdout = work / "stop_budget", work / "stop_no_holdout"
    assert run(*common, "--outdir", budget) == EXIT_OK
    assert run(*common, "--split", "1,0", "--outdir", no_holdout) == EXIT_OK
    for outdir, best, stop in ((budget, int, "budget"), (no_holdout, type(None), "no_holdout")):
        report = json.loads((outdir / "fit_report.json").read_text())
        for key in ("full_model_training", "rdsm_training"):
            training = report[key]
            assert training["epochs_run"] == 5 and training["stop"] == stop, (key, training)
            assert isinstance(training["best_epoch"], best), (key, training)


def test_fit_validation_holdout_disjoint(direct_dir, cat, data_csv):
    report = json.loads((direct_dir / "fit_report.json").read_text())
    held = Dataset.load_csv(direct_dir / "validation.csv", cat)
    assert len(held) == 20
    assert not set(report["holdout_row_ids"]) & set(report["train_row_ids"])


def test_fit_rejects_unknown_route(work, data_csv, capsys):
    config = work / "route.json"
    config.write_text(json.dumps({"route": "sideways"}))
    code = run("fit", "--data", data_csv, "--config", config,
               "--outdir", work / "r")
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "sideways" in err and err.count("\n") == 1, err
    assert not (work / "r").exists()


# -- model-query commands ---------------------------------------------------------


def test_sobol_csv_sorted_by_total_order(work, direct_dir, cat):
    out = work / "sobol.csv"
    code = run("sobol", "--model", direct_dir / "direct_rdsm.json",
               "--n-base", 128, "--n-bootstrap", 10, "--seed", 0, "--out", out)
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["parameter", "total_order", "first_order",
                      "total_order_stderr", "first_order_stderr"]
    assert len(rows) == len(cat)
    st = [float(r[1]) for r in rows]
    assert st == sorted(st, reverse=True)
    report = json.loads((direct_dir / "fit_report.json").read_text())
    # every frozen parameter scores exactly zero; the retained ones lead
    retained = set(report["retained_params"])
    for r in rows:
        if r[0] not in retained:
            assert float(r[1]) == 0.0
    assert {r[0] for r in rows[: len(retained)]} == retained


def test_sobol_support_writes_the_full_design_bytes(work, direct_dir, summed_dir, cat, monkeypatch):
    real = cli.sobol_indices
    seen = []

    def every_block(model, *args, **kwargs):
        seen.append({i for support, _ in model.terms for i in support})
        return real(model.predict, *args, **kwargs)  # all 41 pick-freeze blocks

    models = (direct_dir / "direct_rdsm.json", summed_dir / "model")
    for i, model in enumerate(models):
        for dist in ("uniform_pm20", "normal_10std"):
            argv = ["sobol", "--model", model, "--n-base", 256, "--n-bootstrap", 20,
                    "--seed", 3, "--distribution", dist]
            skipped = work / f"sobol_support_{i}_{dist}.csv"
            assert run(*argv, "--out", skipped) == EXIT_OK
            with monkeypatch.context() as m:
                m.setattr(cli, "sobol_indices", every_block)
                full = work / f"sobol_full_{i}_{dist}.csv"
                assert run(*argv, "--out", full) == EXIT_OK
            assert skipped.read_bytes() == full.read_bytes(), (model, dist)
    direct, summed = seen[0], seen[-1]
    assert 1 <= len(direct) <= 4 and len(direct) < len(summed) < len(cat)


@pytest.mark.parametrize("dist", ["uniform_pm20", "normal_10std"])
@pytest.mark.parametrize("model", ["direct_rdsm.json", "summed"])
def test_sobol_csv_matches_the_full_width_reference(work, model, dist, monkeypatch):
    # row blocks of one block below, at and above 2048 rows, and of three
    # blocks whose last one takes the remainder
    argv = ["sobol", "--model", BENCH_FIXTURE / model, "--n-bootstrap", 20, "--seed", 3,
            "--distribution", dist]
    for n_base in (2047, 2048, 2049, 6145):
        kept = work / f"sobol_kept_{model}_{dist}_{n_base}.csv"
        assert run(*argv, "--n-base", n_base, "--out", kept) == EXIT_OK
        with monkeypatch.context() as m:
            m.setattr(cli, "sobol_indices", reference_sobol_indices)
            full = work / f"sobol_reference_{model}_{dist}_{n_base}.csv"
            assert run(*argv, "--n-base", n_base, "--out", full) == EXIT_OK
        assert kept.read_bytes() == full.read_bytes(), n_base


def test_uq_ladder_layout(work, direct_dir):
    out = work / "uq.csv"
    code = run("uq", "--model", direct_dir / "direct_rdsm.json",
               "--n", 400, "--seed", 0, "--out", out)
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["parameters", "mean", "std"]
    report = json.loads((direct_dir / "fit_report.json").read_text())
    k = len(report["retained_params"])
    assert len(rows) == 2 * k - 1
    assert rows[0][0] == report["retained_params"][0]
    assert [r[0] for r in rows[1::2]] == ["% difference"] * (k - 1)
    stds = [float(r[2]) for r in rows[0::2]]
    assert stds == sorted(stds)


def test_uq_rejects_one_row(work, direct_dir, capsys):
    out = work / "uq_one" / "uq.csv"
    code = run("uq", "--model", direct_dir / "direct_rdsm.json", "--n", 1, "--out", out)
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("rdsm: error: usage: --n must be at least 2") and err.count("\n") == 1, err
    assert not out.parent.exists()


def test_uq_summed_needs_subsets(work, summed_dir, capsys):
    code = run("uq", "--model", summed_dir / "model", "--n", 200,
               "--out", work / "uq_s.csv")
    assert code == EXIT_DATA
    assert "--subsets" in capsys.readouterr().err
    code = run("uq", "--model", summed_dir / "model", "--n", 200,
               "--subsets", "P;P,XiS", "--out", work / "uq_s.csv")
    assert code == EXIT_OK
    _, rows = read_csv(work / "uq_s.csv")
    assert rows[0][0] == "P" and rows[2][0] == "P, XiS"
    # a config list of name lists is the same ladder
    config = work / "uq_subsets.json"
    config.write_text('{"subsets": [["P"], ["P", "XiS"]]}')
    code = run("uq", "--model", summed_dir / "model", "--n", 200, "--config", config,
               "--out", work / "uq_c.csv")
    assert code == EXIT_OK
    assert (work / "uq_c.csv").read_bytes() == (work / "uq_s.csv").read_bytes()


def test_model_query_missing_artifact(work, direct_dir):
    assert run("sobol", "--model", work / "ghost.json") == EXIT_MISSING_FILE
    assert run("uq", "--model", work / "ghost.json") == EXIT_MISSING_FILE
    code, err = _run_quiet("compare", "--direct", direct_dir / "direct_rdsm.json",
                           "--summed", work / "ghost",
                           "--validation", direct_dir / "validation.csv")
    assert code == EXIT_MISSING_FILE
    _assert_one_line(err)
    assert err.startswith("rdsm: error: missing-file: summed model directory"), err


def test_model_query_schema_mismatch(work, direct_dir):
    doc = json.loads((direct_dir / "direct_rdsm.json").read_text())
    doc["format"] = "something-else"
    tampered = work / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert run("uq", "--model", tampered) == EXIT_SCHEMA


@pytest.mark.parametrize("file, kind", [(["PL.json"], "list"), (5, "int"), (None, "NoneType")])
def test_manifest_file_must_be_a_string(work, summed_dir, file, kind):
    model_dir = work / f"file_{kind}"
    model_dir.mkdir()
    for src in (summed_dir / "model").iterdir():
        (model_dir / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    manifest["mechanisms"]["PL"]["file"] = file
    (model_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code, err = _run_quiet("sobol", "--model", model_dir, "--out", model_dir / "sobol.csv")
    assert code == EXIT_SCHEMA
    _assert_one_line(err)
    assert f"mechanism PL file must be a string, got {kind}" in err
    assert not (model_dir / "sobol.csv").exists()


# -- gate-check ---------------------------------------------------------------------


def test_gate_check_point(work, monkeypatch, capsys):
    # one point is printed, so nothing is written: no grid, no snapshot
    quiet = work / "gate_point"
    quiet.mkdir()
    monkeypatch.chdir(quiet)
    monkeypatch.setenv("RDSM_OUTDIR", str(quiet))
    assert run("gate-check", "--p", 0.4, "--xis", 0.0, "--giii", 0.0) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "engaged=true margin=0.0"
    assert run("gate-check", "--p", 0.1, "--xis", 0.1, "--giii", 0.1) == EXIT_OK
    assert capsys.readouterr().out.startswith("engaged=false margin=-")
    assert not any(quiet.iterdir())


def test_gate_check_grid(work):
    out = work / "grid.csv"
    assert run("gate-check", "--grid", 4, "--out", out) == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["p", "xis", "giii", "margin", "engaged"]
    assert len(rows) == 64
    for r in rows:
        assert (r[4] == "true") == (float(r[3]) >= 0.0)


def test_gate_check_rejects_bad_point(capsys):
    assert run("gate-check", "--p", 1.5, "--xis", 0.5, "--giii", 0.5) == EXIT_DATA
    assert "outside" in capsys.readouterr().err
    assert run("gate-check", "--p", 0.5) == EXIT_USAGE


# -- compare and plot-data -------------------------------------------------------


def test_compare_table_layout(work, direct_dir, summed_dir, cat):
    out = work / "comparison.csv"
    code = run(
        "compare", "--direct", direct_dir / "direct_rdsm.json",
        "--summed", summed_dir / "model",
        "--validation", direct_dir / "validation.csv",
        "--train-rows", direct_dir / "fit_report.json",
        "--out", out,
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["metric", "all_truth", "all_direct", "all_summed",
                      "engaged_truth", "engaged_direct", "engaged_summed"]
    assert [r[0] for r in rows] == ["n_rows", "mean", "std", "mae_pct",
                                    "mae_pct_std"]
    assert int(rows[0][1]) == 20
    for col in (1, 2, 3):
        assert float(rows[1][col]) > 0.0  # means populated
    assert rows[3][1] == ""  # truth column has no error entries
    assert float(rows[3][2]) < 25.0 and float(rows[3][3]) < 25.0
    # on rows the gate never engages, the engaged columns stay empty
    held = Dataset.load_csv(direct_dir / "validation.csv", cat)
    quiet = ~SummedRDSM.load(summed_dir / "model", cat).engaged(held.inputs)
    assert np.any(quiet)
    held.subset(np.flatnonzero(quiet)).save_csv(work / "never_engaged.csv")
    code = run(
        "compare", "--direct", direct_dir / "direct_rdsm.json",
        "--summed", summed_dir / "model",
        "--validation", work / "never_engaged.csv", "--out", out,
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert int(rows[0][1]) == np.count_nonzero(quiet)
    assert all(r[4:] == ["", "", ""] for r in rows)


def test_compare_train_rows_must_be_strings(work, direct_dir, summed_dir):
    compare = ("compare", "--direct", direct_dir / "direct_rdsm.json",
               "--summed", summed_dir / "model", "--validation", direct_dir / "validation.csv")
    keys = json.loads((direct_dir / "fit_report.json").read_text())["train_row_keys"]
    path = work / "bad_keys.json"
    for doc, message in (
        ([1, 2, 3], "list of string row keys"),
        ([*keys[:3], 7], "list of string row keys"),
        ({"train_row_keys": [None]}, "list of string row keys"),
        ({"row_keys": keys}, "lacks a train_row_keys entry"),
    ):
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, err = _run_quiet(*compare, "--train-rows", path, "--out", work / "never.csv")
        assert code == EXIT_SCHEMA, (doc, err)
        _assert_one_line(err)
        assert message in err, err
    assert not (work / "never.csv").exists()


def test_compare_rejects_training_rows(work, direct_dir, summed_dir, data_csv, capsys):
    code = run(
        "compare", "--direct", direct_dir / "direct_rdsm.json",
        "--summed", summed_dir / "model",
        "--validation", data_csv,
        "--train-rows", direct_dir / "fit_report.json",
        "--out", work / "never.csv",
    )
    assert code == EXIT_DATA
    assert "used for training" in capsys.readouterr().err


def test_header_only_input_is_empty_data(work, data_csv, capsys):
    header_only = work / "header_only.csv"
    header_only.write_text(data_csv.read_text().splitlines()[0] + "\n")
    design = work / "header_only_design.csv"
    design.write_text(",".join(build_catalog().names) + "\n")
    outdir = work / "header_only"
    for argv in (
        ["fit", "--data", header_only, "--outdir", outdir],
        ["screen", "--data", header_only, "--outdir", outdir],
        ["plot-data", "--kind", "energy-stack", "--data", header_only, "--outdir", outdir],
        ["simulate", "--design", design, "--outdir", outdir],
    ):
        assert run(*argv) == EXIT_DATA, argv
        err = capsys.readouterr().err
        assert err == "rdsm: error: invalid-data: no data rows\n", err
    assert not outdir.exists()


def test_failed_fit_writes_nothing(work, data_csv, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("training started before the arguments were checked")

    monkeypatch.setattr(workflow, "train_surrogate", never)
    outdir = work / "bad_threshold"
    code = run("fit", "--data", data_csv, "--route", "summed", "--threshold", -1,
               "--holdout", 5, "--outdir", outdir)
    assert code == EXIT_DATA
    assert "threshold must be positive" in capsys.readouterr().err
    assert not outdir.exists()


def test_diverging_fit_exits_numerical(work, data_csv, capsys):
    # 1e300 overflows to a non-finite loss; 1000 stays finite but never beats
    # the initial weights' held-out MAE
    for rate, reason in ((1e300, "non-finite"), (1000, "diverged")):
        outdir = work / "diverged"
        code = run("fit", "--data", data_csv, "--route", "direct", "--learning-rate", rate,
                   "--epochs", 50, "--outdir", outdir)
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("rdsm: error: numerical:") and err.count("\n") == 1, err
        assert reason in err
        assert not outdir.exists()


@pytest.mark.parametrize("name", ["P", "Aln"])
def test_nonpositive_hardening_exponent_exits_data(work, cat, capsys, name):
    design = work / f"negative_{name}.csv"
    values = np.tile(cat.means, (2, 1))
    values[1, cat.index(name)] = -0.5
    write_csv(design, cat.names, values)
    outdir = work / f"negative_{name}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("simulate", "--design", design, "--outdir", outdir)
    assert code == EXIT_DATA
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith("rdsm: error: invalid-data:") and err.count("\n") == 1, err
    assert f"hardening exponent {name} must be positive" in err
    assert not outdir.exists()
    # nor is a snapshot left beside an output file in an existing directory
    out = work / f"negative_{name}_data.csv"
    assert run("simulate", "--design", design, "--out", out) == EXIT_DATA
    assert not out.exists() and not (work / f"{out.name}.run.json").exists()


def test_unconverged_return_map_exits_numerical(work, monkeypatch, capsys):
    monkeypatch.setattr(bend, "_NEWTON_CAP", 2)
    out = work / "unconverged" / "data.csv"
    assert run("simulate", "--n", 4, "--out", out) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("rdsm: error: numerical:") and err.count("\n") == 1, err
    assert not out.parent.exists()


def test_compare_empty_validation(work, direct_dir, summed_dir, data_csv, capsys):
    empty = work / "empty.csv"
    empty.write_text(data_csv.read_text().splitlines()[0] + "\n")
    code = run(
        "compare", "--direct", direct_dir / "direct_rdsm.json",
        "--summed", summed_dir / "model", "--validation", empty,
    )
    assert code == EXIT_DATA
    assert "no data rows" in capsys.readouterr().err


def test_plot_data_parity(work, direct_dir, summed_dir, cat):
    out = work / "parity.csv"
    code = run("plot-data", "--kind", "parity",
               "--model", summed_dir / "model",
               "--validation", direct_dir / "validation.csv", "--out", out)
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["row_id", "actual", "predicted", "engaged"]
    assert len(rows) == 20
    held = Dataset.load_csv(direct_dir / "validation.csv", cat)
    model = SummedRDSM.load(summed_dir / "model", cat)
    predicted = model.predict(held.inputs)
    for row, want in zip(rows, predicted):
        assert float(row[2]) == want
    # a plain model file emits pairs without the engagement column
    out2 = work / "parity_direct.csv"
    code = run("plot-data", "--kind", "parity",
               "--model", direct_dir / "direct_rdsm.json",
               "--validation", direct_dir / "validation.csv", "--out", out2)
    assert code == EXIT_OK
    header2, _ = read_csv(out2)
    assert header2 == ["row_id", "actual", "predicted"]


def test_plot_data_energy_stack(work, data_csv):
    out = work / "stack.csv"
    code = run("plot-data", "--kind", "energy-stack", "--data", data_csv,
               "--out", out)
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header == ["row_id", "PL", "DL", "DC", "DI", "PM", "TS"]
    ts = [float(r[6]) for r in rows]
    assert ts == sorted(ts)
    parts = np.array([[float(v) for v in r[1:6]] for r in rows])
    assert np.allclose(parts.sum(axis=1), ts, rtol=1e-12, atol=1e-9)


# -- readers under generated input ----------------------------------------------------

_PROPERTY = settings(
    max_examples=50, deadline=None, database=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
_DATA_COLUMNS = build_catalog().names + ENERGY_COLUMNS
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_JSON_LISTS = st.lists(_JSON, max_size=2)
_JSON_OBJECTS = st.dictionaries(st.text(max_size=4), _JSON, max_size=2)


def _run_quiet(*args):
    """Exit code and stderr of one in-process run; a traceback propagates."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(*args)
    return code, err.getvalue()


def _assert_one_line(err):
    assert err.startswith("rdsm: error: ") and err.count("\n") == 1, err


def _is_float(text) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parsed(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


@st.composite
def _bad_data_csv(draw):
    """(CSV text, exit code): free text, a header with no rows, or rows
    under a shuffled header with one cell that is not a finite number."""
    if draw(st.booleans()):
        return draw(st.text(max_size=200)), EXIT_SCHEMA
    header = draw(st.permutations(_DATA_COLUMNS))
    values = st.floats(0.0, 1e3).map(repr)
    rows = draw(st.lists(st.lists(values, min_size=47, max_size=47), max_size=3))
    code = EXIT_DATA
    if rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        col = draw(st.integers(0, 46))
        poison = draw(st.sampled_from(("non-number", "missing", "non-finite")))
        if poison == "non-number":
            alphabet = st.characters(blacklist_characters='",\r\n')
            row[col] = draw(st.text(alphabet, max_size=6).filter(lambda c: not _is_float(c)))
            code = EXIT_SCHEMA
        elif poison == "missing":
            del row[col]
            code = EXIT_SCHEMA
        else:
            row[col] = draw(st.sampled_from(("nan", "inf", "-inf")))
    text = "".join(",".join(line) + "\n" for line in [list(header), *rows])
    return text, code


@_PROPERTY
@given(case=_bad_data_csv())
def test_data_reader_fails_on_one_line(work, case):
    text, expected = case
    path = work / "prop_data.csv"
    path.write_text(text, encoding="utf-8")
    code, err = _run_quiet("screen", "--data", path, "--out", work / "prop_screen.csv")
    assert code == expected, err
    _assert_one_line(err)


_NOT_NUMBER = st.none() | _JSON_LISTS | _JSON_OBJECTS
_NOT_JSON_NUMBER = st.text(max_size=4) | _JSON_LISTS | _JSON_OBJECTS
_FRACTIONS = st.floats(-1e3, 1e3).filter(lambda f: f != math.floor(f))

# Any field of the file or of its network: replace it with a value of
# another JSON class that can never stand in for the original.
_REPLACEMENTS = {
    "bool": _NOT_NUMBER,
    "int": _NOT_NUMBER,
    "float": _NOT_NUMBER,
    "str": st.none() | st.integers() | _JSON_LISTS | _JSON_OBJECTS,
    "list": st.none() | st.booleans() | st.floats(allow_nan=False),
    "dict": st.none() | st.integers() | st.text(max_size=4) | _JSON_LISTS,
}
# A typed field (a network's spec or report, a specimen config) must hold
# a JSON value of its declared type: bools are not numbers, an int takes no
# fraction, and only null (nan) stands in for a float.
_FIELD_REPLACEMENTS = {
    "bool": st.none() | st.integers() | st.floats(allow_nan=False) | _NOT_JSON_NUMBER,
    "int": st.none() | st.booleans() | _FRACTIONS | _NOT_JSON_NUMBER,
    "float": st.booleans() | _NOT_JSON_NUMBER,
    "NoneType": st.booleans() | _NOT_JSON_NUMBER,
    "str": _REPLACEMENTS["str"],
    "list": st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=4)
    | _JSON_OBJECTS,
    "dict": _REPLACEMENTS["dict"],
}


def _bad_number_entry(draw, value):
    """value, a number or a nested list of them, with one number replaced by
    something that is not a JSON number: a bool, a numeric string, null, or
    another string, list or object."""
    if not isinstance(value, list):
        numeric_text = st.floats(allow_nan=False).map(repr)
        return draw(st.one_of(st.booleans(), numeric_text, st.none(), _NOT_JSON_NUMBER))
    out = list(value)
    i = draw(st.integers(0, len(out) - 1))
    out[i] = _bad_number_entry(draw, out[i])
    return out


def _bad_field_value(draw, value):
    """A value a typed field must reject in place of value; a list may
    instead keep its shape and get elements of another type."""
    if isinstance(value, list) and value and draw(st.booleans()):
        bad = _FIELD_REPLACEMENTS[type(value[0]).__name__]
        return draw(st.lists(bad, min_size=1, max_size=len(value)))
    return draw(_FIELD_REPLACEMENTS[type(value).__name__])


def _mutate(draw, targets, bad_value) -> None:
    """Drop, add, or give a bad value to one key of one of the targets."""
    target = draw(st.sampled_from(targets))
    key = draw(st.sampled_from(sorted(target)))
    action = draw(st.sampled_from(("drop", "add", "replace", "replace")))
    if action == "drop":
        del target[key]
    elif action == "add":
        target[key + "_extra"] = draw(_JSON)
    else:
        target[key] = bad_value(target, target[key])


@st.composite
def _bad_model_text(draw, model_doc):
    """A model file that must not load: free text, a JSON value, the saved
    model with one field of it, of its network, or of the network's spec or
    report dropped, added, or given a value of another type, or with one
    entry of its number arrays or bounds no JSON number.  A summed model's
    member file is a network alone, with no baseline."""
    kind = draw(st.sampled_from(("text", "json") + ("mutated", "number") * 4))
    if kind == "text":
        return draw(st.text(max_size=80).filter(lambda t: not isinstance(_parsed(t), dict)))
    if kind == "json":
        return json.dumps(draw(_JSON))
    doc = json.loads(json.dumps(model_doc))
    network = doc.get("model", doc)
    typed = (network["spec"], network["report"])
    if kind == "number":
        target, key = draw(st.sampled_from(
            [(doc, "baseline")] * ("baseline" in doc)
            + [(network, k) for k in ("weights", "biases", "input_lo", "input_hi",
                                      "output_lo", "output_hi")]
        ))
        target[key] = _bad_number_entry(draw, target[key])
        return json.dumps(doc)

    def bad_value(target, value):
        if any(target is t for t in typed):
            return _bad_field_value(draw, value)
        return draw(_REPLACEMENTS[type(value).__name__])

    _mutate(draw, (doc, network, *typed), bad_value)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def model_doc(direct_dir):
    return json.loads((direct_dir / "direct_rdsm.json").read_text())


def _edited(model_doc, key, edit) -> str:
    """The model file with edit applied to one field of its network."""
    doc = json.loads(json.dumps(model_doc))
    doc["model"][key] = edit(doc["model"][key])
    return json.dumps(doc)


def _as_letters(names) -> str:
    """As many one-letter catalog names as names holds, run together: the
    string that tuple() would read as a list of that length."""
    return "EABCP"[: len(names)]


def test_model_reader_fails_on_one_line(work, model_doc, summed_dir):
    letters = _as_letters(model_doc["retained_params"])
    retained_text = json.dumps({**model_doc, "retained_params": letters})

    @_PROPERTY
    @given(text=_bad_model_text(model_doc))
    @example(text=retained_text)
    @example(text=_edited(model_doc, "output_lo", repr))
    @example(text=_edited(model_doc, "input_lo", lambda v: [repr(x) for x in v]))
    @example(text=_edited(model_doc, "weights", lambda v: [[repr(v[0][0]), *v[0][1:]], *v[1:]]))
    @example(text=_edited(model_doc, "biases", lambda v: [[True, *v[0][1:]], *v[1:]]))
    def check(text):
        path = work / "prop_model.json"
        path.write_text(text, encoding="utf-8")
        code, err = _run_quiet("uq", "--model", path, "--n", 50,
                               "--out", work / "prop_uq.csv")
        assert code == EXIT_SCHEMA, (text, err)
        _assert_one_line(err)

    check()
    assert not (work / "prop_uq.csv").exists()

    # a summed model whose manifest gives a member's retained_params as a string
    model_dir = work / "prop_summed"
    model_dir.mkdir()
    for src in (summed_dir / "model").iterdir():
        (model_dir / src.name).write_bytes(src.read_bytes())
    manifest = json.loads((model_dir / "manifest.json").read_text())
    di = manifest["mechanisms"]["DI"]
    di["retained_params"] = _as_letters(di["retained_params"])
    (model_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    code, err = _run_quiet("sobol", "--model", model_dir, "--out", work / "prop_sobol.csv")
    assert code == EXIT_SCHEMA, err
    _assert_one_line(err)
    assert not (work / "prop_sobol.csv").exists()


@st.composite
def _bad_summed_model(draw, manifest, members, model_dir):
    """A summed model directory that must not load, as its manifest text and
    an optional (mechanism, text) member file: the manifest with one field
    of it, its distribution, gate, mechanism table or a member entry
    dropped, added or given a value of another type; one baseline or gate
    vertex entry no JSON number; a member file that is no bare file name
    in model_dir; retained_params that no longer fit the member's network;
    or one member file broken as a model file may be."""
    kind = draw(st.sampled_from(("mutated", "number", "file", "retained", "member")))
    doc = json.loads(json.dumps(manifest))
    entries = [doc["mechanisms"][name] for name in sorted(doc["mechanisms"])]
    entry = draw(st.sampled_from(entries))
    names = entry["retained_params"]
    if kind == "member":
        name = draw(st.sampled_from(sorted(members)))
        return json.dumps(doc), (name, draw(_bad_model_text(members[name])))
    if kind == "mutated":
        def bad_value(target, value):
            if target is doc["distribution"]:
                return _bad_field_value(draw, value)
            return draw(_REPLACEMENTS[type(value).__name__])

        _mutate(draw, (doc, doc["distribution"], doc["gate"], doc["mechanisms"], *entries),
                bad_value)
    elif kind == "number":
        target, key = draw(st.sampled_from(((doc, "baseline"), (doc["gate"], "vertices"))))
        target[key] = _bad_number_entry(draw, target[key])
    elif kind == "file":
        own = entry["file"]
        entry["file"] = draw(st.sampled_from((
            f"../outside/{own}", str(model_dir / own), f"./{own}", f"sub/{own}", f"{own}/",
            "", ".", "..", "ghost.json",
        )))
    else:
        i = draw(st.integers(0, len(names) - 1))
        edit = draw(st.sampled_from(("letters", "unknown", "drop", "add", "repeat", "type")))
        if edit == "letters":
            entry["retained_params"] = _as_letters(names)
        elif edit == "unknown":
            names[i] = "nope"
        elif edit == "drop":
            del names[i]
        elif edit == "add":
            names.append(draw(st.sampled_from([n for n in build_catalog().names
                                               if n not in names])))
        elif edit == "repeat":
            names.insert(i, names[i])
        else:
            names[i] = draw(st.none() | st.integers() | _JSON_LISTS | _JSON_OBJECTS)
    return json.dumps(doc), None


def test_summed_model_reader_fails_on_one_line(work, summed_dir):
    source = summed_dir / "model"
    manifest = json.loads((source / "manifest.json").read_text())
    members = {name: json.loads((source / entry["file"]).read_text())
               for name, entry in manifest["mechanisms"].items()}
    root = work / "prop_summed"
    model_dir = root / "model"
    shutil.copytree(source, root / "outside")  # valid member files beside the model
    out = root / "out"
    escaped = json.loads(json.dumps(manifest))
    escaped["mechanisms"]["DI"]["file"] = "../outside/DI.json"
    boolean = json.loads(json.dumps(manifest))
    boolean["gate"]["vertices"][0][2] = False  # equals 0.0 but is no number
    unread = json.loads(json.dumps(manifest))
    unread["distribution"].update(mean_frac=None, std_frac=-7.5)  # fields its kind never reads

    @_PROPERTY
    @given(case=_bad_summed_model(manifest, members, model_dir))
    @example(case=(json.dumps(escaped), None))
    @example(case=(json.dumps(boolean), None))
    @example(case=(json.dumps(unread), None))
    def check(case):
        text, member = case
        shutil.rmtree(model_dir, ignore_errors=True)
        shutil.copytree(source, model_dir)
        (model_dir / "manifest.json").write_text(text, encoding="utf-8")
        if member is not None:
            (model_dir / f"{member[0]}.json").write_text(member[1], encoding="utf-8")
        for argv in (("sobol", "--model", model_dir, "--n-base", 128, "--n-bootstrap", 2,
                      "--out", out / "sobol.csv"),
                     ("uq", "--model", model_dir, "--subsets", "P;P,GS", "--n", 50,
                      "--out", out / "uq.csv")):
            code, err = _run_quiet(*argv)
            assert code == EXIT_SCHEMA, (case, err)
            assert err.startswith("rdsm: error: schema: ") and err.count("\n") == 1, err

    check()
    assert not out.exists()


_SAMPLE_KEYS = {name for name, *_ in cli._options("sample")}


@st.composite
def _bad_sample_config(draw):
    """(config text, exit code): text that is not a JSON object, an object
    with an unknown key, or an int option given a non-integer value."""
    kind = draw(st.sampled_from(("text", "unknown_key", "not_integer")))
    if kind == "text":
        text = draw(st.text(max_size=40).filter(lambda t: not isinstance(_parsed(t), dict)))
        return text, EXIT_SCHEMA
    if kind == "unknown_key":
        unknown = draw(st.text(max_size=8).filter(lambda k: k not in _SAMPLE_KEYS))
        doc = draw(st.dictionaries(st.sampled_from(sorted(_SAMPLE_KEYS)), _JSON, max_size=3))
        return json.dumps({**doc, unknown: draw(_JSON)}), EXIT_SCHEMA
    not_integer = st.booleans() | st.text(max_size=4) | _JSON_LISTS | _FRACTIONS
    key = draw(st.sampled_from(("n", "seed", "strata")))
    return json.dumps({key: draw(not_integer)}), EXIT_USAGE


@_PROPERTY
@given(case=_bad_sample_config())
def test_config_reader_fails_on_one_line(work, case):
    text, expected = case
    path = work / "prop_config.json"
    path.write_text(text, encoding="utf-8")
    out = work / "prop_sample" / "design.csv"
    code, err = _run_quiet("sample", "--config", path, "--out", out)
    assert code == expected, (text, err)
    _assert_one_line(err)
    assert not out.parent.exists()


_SPECIMEN = json.loads(
    (Path(cli.__file__).parent / "data" / "default_specimen.json").read_text(encoding="utf-8")
)


@st.composite
def _bad_specimen_config(draw):
    """The shipped specimen config with one key of it or of its
    shear_fraction map dropped, added, or given a value of another type."""
    doc = json.loads(json.dumps(_SPECIMEN))
    _mutate(draw, (doc, doc["shear_fraction"]), lambda _, value: _bad_field_value(draw, value))
    return json.dumps(doc)


@_PROPERTY
@given(text=_bad_specimen_config())
def test_specimen_reader_fails_on_one_line(work, text):
    path = work / "prop_specimen.json"
    path.write_text(text, encoding="utf-8")
    out = work / "prop_simulate" / "data.csv"
    code, err = _run_quiet("simulate", "--n", 2, "--specimen", path, "--out", out)
    assert code == EXIT_SCHEMA, (text, err)
    _assert_one_line(err)
    assert not out.parent.exists()


def test_undecodable_json_is_schema_error(work, direct_dir, summed_dir):
    # every JSON reader decodes through the one JSON parser, so bytes that are
    # not UTF-8 are malformed JSON like any other
    path = work / "not_utf8.json"
    path.write_bytes(b'{"n": "\xff"}')
    outdir = work / "not_utf8"
    compare = ("compare", "--direct", direct_dir / "direct_rdsm.json",
               "--summed", summed_dir / "model", "--validation", direct_dir / "validation.csv")
    for argv in (
        ("sample", "--config", path),
        ("uq", "--model", path),
        ("simulate", "--n", 2, "--specimen", path),
        (*compare, "--train-rows", path),
    ):
        code, err = _run_quiet(*argv, "--outdir", outdir)
        assert code == EXIT_SCHEMA, (argv, err)
        _assert_one_line(err)
        assert "can't decode byte 0xff" in err, err
    assert not outdir.exists()
