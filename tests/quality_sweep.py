"""Score both routes over several designs and fit seeds; prints medians.

A script, not a test (pytest does not collect it).  For each design seed it
runs `rdsm simulate --n 1555 --seed <design>`, then for each fit seed
`fit --route direct` and `fit --route summed` (holdout 25, as the benchmark's
paper pipeline runs them) and `compare` on each validation design
(`simulate --n 500 --seed 7` by default; --validation-seed takes several),
all through rdsm.cli.main in this process.  It prints, per validation seed,
as medians over the fits: the direct and summed TS MAE%, each summed
member's MAE (lbf-in) and mean bias (%) on the validation rows, the gate's
confusion counts against the simulated 3% engagement, the epochs each
network trained, their total, the count of networks that ran their whole
epoch budget, and the fit wall time; --per-fit prints every fit as a JSON
line as well.

--baseline FILE reads the JSON lines of an earlier --per-fit run (of another
tree, say) and pairs its fits with this run's by design, fit seed and
validation seed.  For each metric it prints both medians, the median of the
per-pair changes and the worst pair: the largest increase, or for a bias
the largest growth of its magnitude, or for gate_tp the largest drop.

--batch-size and --rate-factor override the training settings of every
network the fits train: that minibatch size, and the declared learning rate
(the NetworkSpec default or the member's rate in workflow's table) times the
factor.  Without them the tree runs as declared.

    PYTHONPATH=src python tests/quality_sweep.py --workdir /tmp/sweep
    PYTHONPATH=src python tests/quality_sweep.py --workdir /tmp/sweep \\
        --batch-size 64 --rate-factor 0.75
    PYTHONPATH=src python tests/quality_sweep.py --workdir /tmp/sweep_b \\
        --validation-seed 7 8 --per-fit --baseline parent.txt
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


def training_stats(d: Path) -> dict:
    """Each network's epochs from the two routes' fit_report.json, their
    total, and how many networks ran their whole epoch budget."""
    direct = json.loads((d / "fit_report.json").read_text())
    summed = json.loads((d / "summed" / "fit_report.json").read_text())
    runs = {"TS_full": direct["full_model_training"], "TS": direct["rdsm_training"]}
    runs.update((m, e["training"]) for m, e in summed["mechanisms"].items() if "training" in e)
    out = {f"epochs.{name}": t["epochs_run"] for name, t in runs.items()}
    out["epochs"] = sum(out.values())
    out["budget_stops"] = sum(t["stop"] == "budget" for t in runs.values())
    return out


def score_fit(d: Path, comparison: Path, validation: Dataset, catalog) -> dict:
    """Both routes' TS MAE% from compare's table, and the summed model's
    members and gate on the validation rows."""
    with open(comparison, encoding="utf-8") as fh:
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


def _worse_by(key: str, base: float, new: float) -> float:
    """How much worse new is than base, in the metric's own units."""
    if key.startswith("bias_pct."):
        return abs(new) - abs(base)
    if key == "gate_tp":
        return base - new
    return new - base


def _relative(key: str, base: float, new: float) -> str:
    """The change in percent of base, blank for a bias (a percentage
    already) or a zero base."""
    if not base or key.startswith("bias_pct."):
        return ""
    return f" ({100 * (new - base) / abs(base):+.2f}%)"


def print_medians(fits: list) -> None:
    for key in fits[0]:
        if key not in ("design", "fit_seed", "validation_seed"):
            print(f"  median {key:22s} {statistics.median(f[key] for f in fits):.6g}")


def print_deltas(fits: list, baseline: list) -> None:
    """Both medians, the median per-pair change and the worst pair of each
    metric, over the fits that baseline holds too."""
    base = {(b["design"], b["fit_seed"], b["validation_seed"]): b for b in baseline}
    pairs = [(base[k], f) for f in fits
             if (k := (f["design"], f["fit_seed"], f["validation_seed"])) in base]
    print(f"  {len(pairs)} pairs with the baseline")
    if not pairs:
        return
    for key in fits[0]:
        if key in ("design", "fit_seed", "validation_seed") or key not in pairs[0][0]:
            continue
        old_med = statistics.median(b[key] for b, _ in pairs)
        new_med = statistics.median(f[key] for _, f in pairs)
        change = statistics.median(f[key] - b[key] for b, f in pairs)
        b, f = max(pairs, key=lambda pair: _worse_by(key, pair[0][key], pair[1][key]))
        print(f"  {key:22s} median {old_med:.6g} -> {new_med:.6g}"
              f"{_relative(key, old_med, new_med)}, "
              f"median pair change {change:+.6g}, worst pair design {f['design']} "
              f"fit {f['fit_seed']}: {b[key]:.6g} -> {f[key]:.6g}{_relative(key, b[key], f[key])}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--designs", type=int, nargs="+", default=[11, 12, 13])
    ap.add_argument("--fit-seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--validation-seed", type=int, nargs="+", default=[7])
    ap.add_argument("--batch-size", type=int, default=None)
    ap.add_argument("--rate-factor", type=float, default=1.0)
    ap.add_argument("--per-fit", action="store_true")
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.batch_size is not None or args.rate_factor != 1.0:
        _override_training(args.batch_size, args.rate_factor)

    catalog = build_catalog()
    work = args.workdir
    validations = {}
    for vseed in args.validation_seed:
        _run("simulate", "--n", 500, "--seed", vseed, "--outdir", work / f"validation{vseed}")
        validations[vseed] = Dataset.load_csv(work / f"validation{vseed}" / "data.csv", catalog)
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
            for vseed, validation in validations.items():
                comparison = d / f"comparison{vseed}.csv"
                _run("compare", "--direct", d / "direct_rdsm.json",
                     "--summed", d / "summed" / "model",
                     "--validation", work / f"validation{vseed}" / "data.csv",
                     "--train-rows", d / "fit_report.json", "--out", comparison)
                row = {"design": design, "fit_seed": seed, "validation_seed": vseed,
                       "fit_s": seconds, **training_stats(d),
                       **score_fit(d, comparison, validation, catalog)}
                fits.append(row)
                if args.per_fit:
                    print(json.dumps(row), flush=True)
    baseline = None
    if args.baseline is not None:
        lines = args.baseline.read_text(encoding="utf-8").splitlines()
        baseline = [json.loads(line) for line in lines if line.startswith("{")]
    print(f"{len(fits)} fits: designs {args.designs} x fit seeds {args.fit_seeds}, "
          f"batch {args.batch_size or 'as declared'}, rate x{args.rate_factor}")
    for vseed in args.validation_seed:
        group = [f for f in fits if f["validation_seed"] == vseed]
        print(f"validation seed {vseed}:")
        print_medians(group)
        if baseline is not None:
            print_deltas(group, baseline)


if __name__ == "__main__":
    main()
