"""The benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: it sends one `rdsm` command
(through `rdsm.cli.main`, in-process, `--threads 1`) and waits for it before
the next.  A pass is one round of the workload's commands.  Every input is
drawn from the workload seed; the program sees only the generated options
and files.
"""

import csv
import hashlib
import json
import math
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from rdsm import cli
from rdsm.catalog import build_catalog
from rdsm.dataset import ENERGY_COLUMNS, MECHANISMS, Dataset
from rdsm.workflow import MechanismRDSM, SummedRDSM, engagement_mask

FIXTURE = Path(__file__).resolve().parent / "fixture"

# quality of the summed model on the validation rows (paper_pipeline only)
QUALITY_METRICS = (
    "workflow.direct_ts_mae_pct", "workflow.summed_ts_mae_pct",
    "workflow.gate_precision", "workflow.gate_recall",
    "workflow.gate_tp", "workflow.gate_fp", "workflow.gate_fn",
    *(f"workflow.mech_mae.{m}" for m in MECHANISMS),
    *(f"workflow.mech_bias_pct.{m}" for m in MECHANISMS),
)

# accuracy floors of the toy end-to-end acceptance test (tests/test_acceptance.py);
# a speed change that costs more accuracy than this fails the run
MAE_FLOOR_PCT = 10.0


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a CSV written by rdsm (no quoting, no blanks)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


class Command:
    """Outcome of one CLI command: its label, wait, and whether it passed."""

    def __init__(self, label: str):
        self.label = label
        self.seconds = 0.0
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


class Run:
    """Commands, checks and timings of one benchmark run."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.commands: list[Command] = []

    def command(self, label: str, argv: list[str], measured: bool = True) -> Command:
        """Run one CLI command in-process and wait for it.

        Measured commands of a traced run open the root span under which
        the layer wrappers record.
        """
        cmd = Command(label)
        self.commands.append(cmd)
        argv = [str(a) for a in argv]
        start = time.perf_counter()
        try:
            if self.tracer is not None and measured:
                with self.tracer.span(f"cli.{label}"):
                    code = cli.main(argv)
            else:
                code = cli.main(argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc(file=sys.stderr)
            code = "exception"
        cmd.seconds = time.perf_counter() - start
        if code != 0:
            self.fail(cmd, f"rdsm {' '.join(argv)} exited with {code}")
        return cmd

    def fail(self, cmd: Command, message: str) -> None:
        cmd.failures.append(message)
        print(f"bench: check failed: {cmd.label}: {message}", file=sys.stderr)

    def check(self, cmd: Command, ok: bool, message: str) -> None:
        if not ok:
            self.fail(cmd, message)

    def guarded(self, cmd: Command, what: str, fn, *args):
        """fn(*args), with any exception counted against cmd."""
        try:
            return fn(*args)
        except Exception as exc:  # reading a broken output is a failed check
            self.fail(cmd, f"{what}: {type(exc).__name__}: {exc}")
            return None

    @property
    def attempted(self) -> int:
        return len(self.commands)

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.commands)

    def seconds(self, label: str) -> list[float]:
        return [c.seconds for c in self.commands if c.label == label]


# -- checks shared by the workloads ------------------------------------------------


def check_energies(run: Run, cmd: Command, path, n_rows: int) -> None:
    """Energies finite and TS equal to the five-term sum, bit for bit."""
    header, body = _read_csv(path)
    run.check(cmd, body.shape[0] == n_rows, f"{path} has {body.shape[0]} rows, not {n_rows}")
    e = body[:, [header.index(c) for c in ENERGY_COLUMNS]]
    run.check(cmd, bool(np.all(np.isfinite(e))), f"{path} holds non-finite energies")
    resum = e[:, 0] + e[:, 1] + e[:, 2] + e[:, 3] + e[:, 4]
    bad = int(np.count_nonzero(resum != e[:, 5]))
    run.check(cmd, bad == 0, f"{path}: TS differs from PL+DL+DC+DI+PM on {bad} rows")


def check_same(run: Run, cmd: Command, digests: list[str], what: str) -> None:
    run.check(cmd, len(set(digests)) == 1, f"{what} differs between repeats in one run")


def check_finite_table(run: Run, cmd: Command, path, n_rows: int | None = None) -> None:
    """Every numeric cell of a CSV written by rdsm is present and finite."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    run.check(cmd, bool(rows), f"{path} has no rows")
    if n_rows is not None:
        run.check(cmd, len(rows) == n_rows, f"{path} has {len(rows)} rows, not {n_rows}")
    values = [cell for row in rows for cell in row[1:]]
    numbers = np.array([float(v) if v else math.nan for v in values])
    run.check(cmd, bool(np.all(np.isfinite(numbers))), f"{path} holds empty or non-finite cells")


def check_resum(run: Run, cmd: Command, summed: SummedRDSM, x: np.ndarray) -> None:
    """predict_breakdown re-sums to predict bit for bit."""
    parts = summed.predict_breakdown(x)
    resum = parts["PL"] + parts["DL"] + parts["DC"] + parts["DI"] + parts["PM"]
    bad = int(np.count_nonzero(resum != summed.predict(x)))
    run.check(cmd, bad == 0, f"breakdown does not re-sum to predict on {bad} rows")


# -- workloads --------------------------------------------------------------------


class PaperPipeline:
    """The paper's run: simulate 1555 rows, fit direct, fit summed, compare.

    The pipeline always runs the README's design and fit seeds, so every run
    does the same work: early stopping makes the epochs trained, and so the
    time, swing by up to a quarter from one design to the next.  The
    workload seed draws the fresh 500-row validation design that set-up
    simulates; compare scores both routes on it, and the per-mechanism and
    gate quality numbers come from the same rows.
    """

    name = "paper_pipeline"
    min_passes = 2  # one pass is too short to average out the host's speed drift
    n_rows = 1555
    n_validation = 500
    holdout = 25
    resample_n = 3277

    design_seed = 11
    fit_seed = 0

    def __init__(self, seed: int):
        self.validation_seed = int(np.random.SeedSequence(seed).generate_state(1)[0] % 2**31)
        self.catalog = build_catalog()
        self.validation = None
        self.quality: list[dict] = []
        self.epochs: list[int] = []

    def setup(self, run: Run, d: Path) -> None:
        run.command("setup_simulate", [
            "simulate", "--n", self.n_validation, "--seed", self.validation_seed,
            "--threads", 1, "--outdir", d,
        ], measured=False)
        self.validation = d / "data.csv"

    def check_setup(self, run: Run, d: Path) -> str:
        cmd = run.commands[-1]
        if not cmd.ok:
            return ""
        run.guarded(cmd, "validation design", check_energies, run, cmd, self.validation,
                    self.n_validation)
        return digest(self.validation)

    def run_pass(self, run: Run, d: Path) -> None:
        fit = ["--data", d / "data.csv", "--holdout", self.holdout, "--seed", self.fit_seed,
               "--threads", 1]
        run.command("simulate", ["simulate", "--n", self.n_rows, "--seed", self.design_seed,
                                 "--threads", 1, "--outdir", d])
        run.command("fit_direct", ["fit", "--route", "direct", *fit, "--outdir", d])
        run.command("fit_summed", ["fit", "--route", "summed", *fit, "--resample-n",
                                   self.resample_n, "--outdir", d / "summed"])
        run.command("compare", ["compare", "--direct", d / "direct_rdsm.json",
                                "--summed", d / "summed" / "model",
                                "--validation", self.validation,
                                "--train-rows", d / "fit_report.json",
                                "--out", d / "comparison.csv"])

    def check_pass(self, run: Run, d: Path) -> str:
        simulate, fit_direct, fit_summed, compare = run.commands[-4:]
        if simulate.ok:
            run.guarded(simulate, "data.csv", check_energies, run, simulate,
                        d / "data.csv", self.n_rows)
        if fit_summed.ok:
            run.guarded(fit_summed, "fit_report.json", self._check_subspace, run, fit_summed, d)
        if fit_direct.ok and fit_summed.ok:
            telemetry = [*d.glob("telemetry_*.csv"), *(d / "summed").glob("telemetry_*.csv")]
            self.epochs.append(sum(len(p.read_text().splitlines()) - 1 for p in telemetry))
        if compare.ok:
            q = run.guarded(compare, "comparison", self._quality, run, compare, d)
            if q is not None:
                self.quality.append(q)
        return digest(d / "data.csv") if simulate.ok else ""

    def _check_subspace(self, run: Run, cmd: Command, d: Path) -> None:
        report = json.loads((d / "summed" / "fit_report.json").read_text())
        n_sub = report["subspace"]["n_rows"]
        run.check(cmd, n_sub == self.resample_n, f"subspace has {n_sub} rows, not {self.resample_n}")

    def _quality(self, run: Run, cmd: Command, d: Path) -> dict:
        """Accuracy of both routes and of the summed model's parts on the
        validation rows, checked against the acceptance floor."""
        with open(d / "comparison.csv", encoding="utf-8") as fh:
            rows = {row["metric"]: row for row in csv.DictReader(fh)}
        direct_mae = float(rows["mae_pct"]["all_direct"])
        summed_mae = float(rows["mae_pct"]["all_summed"])
        for route, value in (("direct", direct_mae), ("summed", summed_mae)):
            run.check(cmd, math.isfinite(value) and value <= MAE_FLOOR_PCT,
                      f"{route} TS MAE% {value} above the {MAE_FLOOR_PCT}% floor")
        validation = Dataset.load_csv(self.validation, self.catalog)
        summed = SummedRDSM.load(d / "summed" / "model", self.catalog)
        check_resum(run, cmd, summed, validation.inputs)
        parts = summed.predict_breakdown(validation.inputs)
        gate = summed.engaged(validation.inputs)
        truth = engagement_mask(validation, "DI")
        tp = int(np.count_nonzero(gate & truth))
        fp = int(np.count_nonzero(gate & ~truth))
        fn = int(np.count_nonzero(~gate & truth))
        q = {
            "workflow.direct_ts_mae_pct": float(direct_mae),
            "workflow.summed_ts_mae_pct": float(summed_mae),
            "workflow.gate_precision": tp / (tp + fp) if tp + fp else 0.0,
            "workflow.gate_recall": tp / (tp + fn) if tp + fn else 0.0,
            "workflow.gate_tp": tp,
            "workflow.gate_fp": fp,
            "workflow.gate_fn": fn,
        }
        for m in MECHANISMS:
            true_m = validation.energy(m)
            q[f"workflow.mech_mae.{m}"] = float(np.mean(np.abs(parts[m] - true_m)))
            mean_true = float(np.mean(true_m))
            q[f"workflow.mech_bias_pct.{m}"] = (
                100.0 * (float(np.mean(parts[m])) - mean_true) / mean_true if mean_true else 0.0
            )
        return q

    def summary(self, run: Run, pass_s: float) -> dict:
        out = {"pipeline_s": pass_s}
        for label in ("simulate", "fit_direct", "fit_summed", "compare"):
            out[f"{label}_s"] = median(run.seconds(label))
        out["sim_rows_per_s"] = self.n_rows / out["simulate_s"]
        if self.epochs:
            out["epochs_run"] = self.epochs[-1]
        if self.quality:
            out["direct_ts_mae_pct"] = self.quality[-1]["workflow.direct_ts_mae_pct"]
            out["summed_ts_mae_pct"] = self.quality[-1]["workflow.summed_ts_mae_pct"]
        return out


class SurrogateQuery:
    """Sobol' indices and UQ sweeps on the two fixture models.

    Only inference, Saltelli designs, the bootstrap and UQ sampling run;
    neither the bend model nor training does.
    """

    name = "surrogate_query"
    min_passes = 1
    n_base = 16384
    n_uq = 5000
    dim = 41

    def __init__(self, seed: int):
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(4) % 2**31]
        self.catalog = build_catalog()
        self.models = None
        self.loaded = None
        self.ladder = ""
        self.uq_subsets = 0
        self.quality: list[dict] = []

    def setup(self, run: Run, d: Path) -> None:
        cmd = Command("setup_fixture")
        run.commands.append(cmd)
        start = time.perf_counter()
        shutil.copytree(FIXTURE, d / "fixture")
        self.models = d / "fixture"
        self.loaded = run.guarded(cmd, "fixture", lambda: (
            SummedRDSM.load(d / "fixture" / "summed", self.catalog),
            MechanismRDSM.load(d / "fixture" / "direct_rdsm.json", self.catalog),
        ))
        cmd.seconds = time.perf_counter() - start

    def check_setup(self, run: Run, d: Path) -> str:
        cmd = run.commands[-1]
        if self.loaded is None:
            return ""
        run.guarded(cmd, "fixture", self._check_fixture, run, cmd, *self.loaded)
        return digest(self.models / "direct_rdsm.json")

    def _check_fixture(self, run: Run, cmd: Command, summed, direct) -> None:
        """Writing the loaded models back reproduces the fixture byte for
        byte; a change to the model format fails here, loudly."""
        f = self.models
        summed.save(f / "summed_check")
        direct.save(f / "direct_check.json")
        pairs = [(f / "direct_rdsm.json", f / "direct_check.json")]
        pairs += [(p, f / "summed_check" / p.name) for p in sorted((f / "summed").iterdir())]
        for original, written in pairs:
            if original.name == "manifest.json":  # its mechanism order follows the fit
                same = json.loads(written.read_text()) == json.loads(original.read_text())
            else:
                same = written.read_bytes() == original.read_bytes()
            run.check(cmd, same, f"fixture {original.relative_to(f)} no longer round-trips: the "
                      "model format changed; regenerate the fixture with bench/make_fixture.py")
        rng = np.random.default_rng(self.seeds[0])
        lo, hi = summed.dist.bounds(self.catalog)
        check_resum(run, cmd, summed, lo + rng.random((1000, self.dim)) * (hi - lo))
        # a nested UQ ladder over the parameters the summed members retain
        names = list(dict.fromkeys(p for m in MECHANISMS for p in summed.members[m].retained_params))
        rungs = min(4, len(names))
        self.ladder = ";".join(",".join(names[:k]) for k in range(1, rungs + 1))
        self.uq_subsets = rungs + len(direct.retained_params)

    def run_pass(self, run: Run, d: Path) -> None:
        f = self.models
        for label, model, seed in (("sobol", f / "summed", self.seeds[0]),
                                   ("sobol", f / "direct_rdsm.json", self.seeds[1])):
            run.command(label, ["sobol", "--model", model, "--n-base", self.n_base, "--seed", seed,
                                "--out", d / f"sobol_{Path(model).stem}.csv"])
        run.command("uq", ["uq", "--model", f / "summed", "--subsets", self.ladder,
                           "--n", self.n_uq, "--seed", self.seeds[2], "--out", d / "uq_summed.csv"])
        run.command("uq", ["uq", "--model", f / "direct_rdsm.json", "--n", self.n_uq,
                           "--seed", self.seeds[3], "--out", d / "uq_direct_rdsm.csv"])

    def check_pass(self, run: Run, d: Path) -> str:
        cmds = run.commands[-4:]
        outputs = ("sobol_summed.csv", "sobol_direct_rdsm.csv", "uq_summed.csv", "uq_direct_rdsm.csv")
        for cmd, name in zip(cmds, outputs):
            if cmd.ok:
                rows = self.dim if name.startswith("sobol") else None
                run.guarded(cmd, name, check_finite_table, run, cmd, d / name, rows)
        if not all(c.ok for c in cmds):
            return ""
        return "".join(digest(d / name) for name in outputs)

    def summary(self, run: Run, pass_s: float) -> dict:
        # model evaluations per pass: two Saltelli designs of n_base * (dim + 2)
        # rows, and n_uq rows for each non-empty subset of both UQ ladders
        evals = 2 * self.n_base * (self.dim + 2) + self.n_uq * self.uq_subsets
        return {"query_s": pass_s, "query_evals_per_s": evals / pass_s}


def median(values: list[float]) -> float:
    return float(np.median(values)) if values else math.nan


WORKLOADS = {w.name: w for w in (PaperPipeline, SurrogateQuery)}
