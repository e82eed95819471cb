"""Score both routes over several designs and fit seeds; prints medians.

A script, not a test (pytest does not collect it).  For each design seed it
runs `rdsm simulate --n 1555 --seed <design>`, then for each fit seed
`fit --route direct` and `fit --route summed` (holdout 25, as the benchmark's
paper pipeline runs them) and `compare` on one validation design
(`simulate --n 500 --seed 7` by default), all through rdsm.cli.main in this
process.  It prints, as medians over the fits: the direct and summed TS
MAE%, each summed member's MAE (lbf-in) and mean bias (%) on the validation
rows, the gate's confusion counts against the simulated 3% engagement, the
epochs trained and the fit wall time; --per-fit prints every fit as well.

--batch-size and --rate-factor override the training settings of every
network the fits train: that minibatch size, and the declared learning rate
(the NetworkSpec default or the member's rate in workflow's table) times the
factor.  Without them the tree runs as declared.

    PYTHONPATH=src python tests/quality_sweep.py --workdir /tmp/sweep
    PYTHONPATH=src python tests/quality_sweep.py --workdir /tmp/sweep \\
        --batch-size 64 --rate-factor 0.75
"""

import argparse
import csv
import dataclasses
import json
import statistics
import time
from pathlib import Path

import numpy as np

from rdsm import cli, workflow
from rdsm.catalog import build_catalog
from rdsm.dataset import Dataset
from rdsm.workflow import MECHANISMS, SummedRDSM, engagement_mask


def _run(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"rdsm {' '.join(map(str, argv))} exited {code}")


def _override_training(batch_size, rate_factor) -> None:
    train = workflow.train_surrogate

    def patched(spec, x, y):
        changes = {"learning_rate": spec.learning_rate * rate_factor}
        if batch_size is not None:
            changes["batch_size"] = batch_size
        return train(dataclasses.replace(spec, **changes), x, y)

    workflow.train_surrogate = patched


def _epochs(*dirs) -> int:
    return sum(len(p.read_text().splitlines()) - 1 for d in dirs for p in d.glob("telemetry_*.csv"))


def score_fit(d: Path, validation: Dataset, catalog) -> dict:
    """Both routes' TS MAE% from compare, and the summed model's members
    and gate on the validation rows."""
    with open(d / "comparison.csv", encoding="utf-8") as fh:
        rows = {row["metric"]: row for row in csv.DictReader(fh)}
    summed = SummedRDSM.load(d / "summed" / "model", catalog)
    parts = summed.predict_breakdown(validation.inputs)
    gate = summed.engaged(validation.inputs)
    truth = engagement_mask(validation, "DI")
    out = {
        "direct_ts_mae_pct": float(rows["mae_pct"]["all_direct"]),
        "summed_ts_mae_pct": float(rows["mae_pct"]["all_summed"]),
        "gate_tp": int(np.count_nonzero(gate & truth)),
        "gate_fp": int(np.count_nonzero(gate & ~truth)),
        "gate_fn": int(np.count_nonzero(~gate & truth)),
    }
    for m in MECHANISMS:
        true_m = validation.energy(m)
        out[f"mae.{m}"] = float(np.mean(np.abs(parts[m] - true_m)))
        mean_true = float(np.mean(true_m))
        out[f"bias_pct.{m}"] = (
            100.0 * (float(np.mean(parts[m])) - mean_true) / mean_true if mean_true else 0.0
        )
    return out


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--designs", type=int, nargs="+", default=[11, 12, 13])
    ap.add_argument("--fit-seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--validation-seed", type=int, default=7)
    ap.add_argument("--batch-size", type=int, default=None)
    ap.add_argument("--rate-factor", type=float, default=1.0)
    ap.add_argument("--per-fit", action="store_true")
    args = ap.parse_args(argv)
    if args.batch_size is not None or args.rate_factor != 1.0:
        _override_training(args.batch_size, args.rate_factor)

    catalog = build_catalog()
    work = args.workdir
    _run("simulate", "--n", 500, "--seed", args.validation_seed, "--outdir", work / "validation")
    validation = Dataset.load_csv(work / "validation" / "data.csv", catalog)
    fits = []
    for design in args.designs:
        data = work / f"design{design}"
        _run("simulate", "--n", 1555, "--seed", design, "--outdir", data)
        for seed in args.fit_seeds:
            d = work / f"design{design}_fit{seed}"
            fit = ["--data", data / "data.csv", "--holdout", 25, "--seed", seed]
            start = time.perf_counter()
            _run("fit", "--route", "direct", *fit, "--outdir", d)
            _run("fit", "--route", "summed", *fit, "--outdir", d / "summed")
            seconds = time.perf_counter() - start
            _run("compare", "--direct", d / "direct_rdsm.json", "--summed", d / "summed" / "model",
                 "--validation", work / "validation" / "data.csv",
                 "--train-rows", d / "fit_report.json", "--out", d / "comparison.csv")
            row = {"design": design, "fit_seed": seed, "fit_s": seconds,
                   "epochs": _epochs(d, d / "summed"), **score_fit(d, validation, catalog)}
            fits.append(row)
            if args.per_fit:
                print(json.dumps(row), flush=True)
    print(f"{len(fits)} fits: designs {args.designs} x fit seeds {args.fit_seeds}, "
          f"batch {args.batch_size or 'as declared'}, rate x{args.rate_factor}")
    for key in fits[0]:
        if key not in ("design", "fit_seed"):
            print(f"  median {key:22s} {statistics.median(f[key] for f in fits):.6g}")


if __name__ == "__main__":
    main()
