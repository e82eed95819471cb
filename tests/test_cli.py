"""End-to-end command-line tests: artifact layout, config precedence,
snapshots, determinism, and the documented exit codes."""

import csv
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from rdsm import cli
from rdsm.catalog import build_catalog
from rdsm.cli import (
    EXIT_DATA,
    EXIT_MISSING_FILE,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    main,
)
from rdsm.dataset import Dataset
from rdsm.workflow import MechanismRDSM, SummedRDSM


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
    assert run("--no-such-flag") == EXIT_USAGE
    assert run("nonsense") == EXIT_USAGE
    capsys.readouterr()
    assert run("screen") == EXIT_USAGE  # missing required --data
    err = capsys.readouterr().err
    assert err.startswith("rdsm: error: usage:")
    assert "--data" in err


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
    a, b, c = (work / n for n in ("s_a.csv", "s_b.csv", "s_c.csv"))
    assert run("sample", "--n", 12, "--seed", 4, "--out", a) == EXIT_OK
    assert run("sample", "--n", 12, "--seed", 4, "--out", b) == EXIT_OK
    assert run("sample", "--n", 12, "--seed", 5, "--out", c) == EXIT_OK
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
        snapshot = json.loads(next(outdir.glob("*run*.json")).read_text())
        options = snapshot["options"]
        assert set(options) == _help_keys(command, capsys), command
        # every snapshot key is a config key: the snapshot replays as a config
        replay = dict(options, outdir=str(work / "agree" / f"{command}_replay"))
        config = work / "agree" / f"{command}.json"
        config.write_text(json.dumps(replay))
        assert run(command, "--config", config) == EXIT_OK, command
        replayed = json.loads(
            next(Path(replay["outdir"]).glob("*run*.json")).read_text()
        )
        assert replayed["options"] == replay, command


def test_resource_flags_are_bounded(work, data_csv, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an out-of-range size reached the command")

    # rejected sizes must stop before any pool or grid is built
    monkeypatch.setattr(cli, "simulate_dataset", never)
    monkeypatch.setattr(cli, "fit_summed", never)
    monkeypatch.setattr(cli, "EngagementGate", never)
    too_many = (os.cpu_count() or 1) + 1
    too_fine = cli._MAX_GRID + 1
    out = work / "bounded" / "out.csv"
    outdir = work / "bounded" / "fit"
    config = work / "bounded.json"
    cases = [
        ["simulate", "--n", 4, "--threads", too_many, "--out", out],
        ["simulate", "--n", 4, "--threads", 0, "--out", out],
        ["fit", "--data", data_csv, "--route", "summed", "--threads", too_many,
         "--outdir", outdir],
        ["gate-check", "--grid", too_fine, "--out", out],
    ]
    for argv in cases:
        assert run(*argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("rdsm: error: usage:") and err.count("\n") == 1, err
    for command, key, value in (("simulate", "threads", too_many),
                                ("gate-check", "grid", too_fine)):
        config.write_text(json.dumps({key: value}))
        assert run(command, "--config", config, "--out", out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("rdsm: error: usage:") and err.count("\n") == 1, err
    assert not out.parent.exists()


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


def test_config_schema_errors(work, capsys):
    bad_key = work / "bad_key.json"
    bad_key.write_text(json.dumps({"bogus": 1}))
    assert run("sample", "--config", bad_key, "--out", work / "y.csv") == EXIT_SCHEMA
    assert "bogus" in capsys.readouterr().err
    malformed = work / "malformed.json"
    malformed.write_text("{ nope")
    assert run("sample", "--config", malformed, "--out", work / "y.csv") == EXIT_SCHEMA
    assert run("sample", "--config", work / "nowhere.json") == EXIT_MISSING_FILE


def test_config_values_take_option_type(work, capsys):
    config = work / "typed.json"
    out = work / "typed" / "design.csv"
    for value in ("Infinity", "NaN", '"abc"'):
        config.write_text('{"n": %s}' % value)
        assert run("sample", "--config", config, "--out", out) == EXIT_USAGE, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("rdsm: error: usage:"), captured.err
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


def test_screen_mechanism_default_cap(work, data_csv):
    out = work / "screen_pm.csv"
    assert run("screen", "--data", data_csv, "--output", "PM", "--out", out) == EXIT_OK
    _, rows = read_csv(out)
    assert sum(r[5] == "true" for r in rows) <= 3


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


def test_fit_summed_artifacts(summed_dir, cat):
    report = json.loads((summed_dir / "fit_report.json").read_text())
    assert report["route"] == "summed"
    assert set(report["mechanisms"]) == {"PL", "DL", "DC", "DI", "PM"}
    sub = report["subspace"]
    assert sub["n_rows"] == 320
    assert 0 <= sub["n_engaged"] <= 320
    assert (summed_dir / "screening_DI_base.csv").is_file()
    for mech in ("PL", "DL", "DC", "PM"):
        entry = report["mechanisms"][mech]
        assert not entry["needs_resampling"]
        assert (summed_dir / f"screening_{mech}.csv").is_file()
        assert (summed_dir / f"telemetry_{mech}.csv").is_file()
    model = SummedRDSM.load(summed_dir / "model", cat)
    assert np.all(np.isfinite(model.predict(np.tile(cat.means, (3, 1)))))


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
    assert code == EXIT_DATA
    assert "sideways" in capsys.readouterr().err


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
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("rdsm: error: invalid-data:") and err.count("\n") == 1, err
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


def test_model_query_missing_artifact(work):
    assert run("sobol", "--model", work / "ghost.json") == EXIT_MISSING_FILE
    assert run("uq", "--model", work / "ghost.json") == EXIT_MISSING_FILE


def test_model_query_schema_mismatch(work, direct_dir):
    doc = json.loads((direct_dir / "direct_rdsm.json").read_text())
    doc["format"] = "something-else"
    tampered = work / "tampered.json"
    tampered.write_text(json.dumps(doc))
    assert run("uq", "--model", tampered) == EXIT_SCHEMA


# -- gate-check ---------------------------------------------------------------------


def test_gate_check_point(capsys):
    assert run("gate-check", "--p", 0.4, "--xis", 0.0, "--giii", 0.0) == EXIT_OK
    out = capsys.readouterr().out.strip()
    assert out == "engaged=true margin=0.0"
    assert run("gate-check", "--p", 0.1, "--xis", 0.1, "--giii", 0.1) == EXIT_OK
    assert capsys.readouterr().out.startswith("engaged=false margin=-")


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


def test_compare_table_layout(work, direct_dir, summed_dir):
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


def test_compare_empty_validation(work, direct_dir, summed_dir, data_csv, capsys):
    empty = work / "empty.csv"
    empty.write_text(data_csv.read_text().splitlines()[0] + "\n")
    code = run(
        "compare", "--direct", direct_dir / "direct_rdsm.json",
        "--summed", summed_dir / "model", "--validation", empty,
    )
    assert code == EXIT_DATA
    assert "empty validation set" in capsys.readouterr().err


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
