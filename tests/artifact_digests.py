"""Print the sha256 of every file a fixed-seed set of rdsm commands writes.

A script, not a test (pytest does not collect it).  Inside the directory it
is given, which must be empty or absent, it copies the bench fixture models
to fixture/ and runs, through rdsm.cli.main in this process: catalog,
sample --method lss, simulate, screen, gate-check over a grid and on one
point, sobol and uq on both fixture models, sobol on the summed one at
n_base 16384 (long enough for OpenBLAS to split a bootstrap dot product over
threads), fit --route direct (retrained and frozen_full) and --route
summed, compare, and plot-data of both kinds.
Every path it passes is relative, so the resolved-config snapshots do not
record where the run happened.  It prints "sha256  relative/path" for every
file under the directory, sorted by path, then the gate-check point line.

Two runs of one tree print the same lines, and so do two trees whose
artifacts are byte-identical; compare the listings with diff:

    PYTHONPATH=src python tests/artifact_digests.py /tmp/digests_a > a.txt
    PYTHONPATH=src python tests/artifact_digests.py /tmp/digests_b > b.txt
    diff a.txt b.txt
"""

import contextlib
import hashlib
import io
import os
import shutil
import sys
from pathlib import Path

from rdsm.cli import main

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "fixture"

_FIT = ("fit", "--data", "data.csv", "--holdout", 20, "--seed", 1)
_DIRECT = (*_FIT, "--route", "direct", "--hidden", "16,16", "--epochs", 200)
_VALIDATION = "fit_direct/validation.csv"  # both fits hold out the same rows

COMMANDS = (
    ("catalog", "--out", "catalog.csv"),
    ("sample", "--n", 64, "--seed", 3, "--method", "lss", "--strata", 4, "--out", "design.csv"),
    ("simulate", "--n", 140, "--seed", 7, "--out", "data.csv"),
    ("screen", "--data", "data.csv", "--out", "screening_TS.csv"),
    ("gate-check", "--grid", 5, "--out", "gate_grid.csv"),
    *(("sobol", "--model", f"fixture/{model}", "--n-base", 256, "--n-bootstrap", 20,
       "--seed", 2, "--out", f"sobol_{name}.csv")
      for name, model in (("direct", "direct_rdsm.json"), ("summed", "summed"))),
    ("sobol", "--model", "fixture/summed", "--n-base", 16384, "--out", "sobol_summed_16384.csv"),
    ("uq", "--model", "fixture/direct_rdsm.json", "--n", 500, "--out", "uq_direct.csv"),
    ("uq", "--model", "fixture/summed", "--subsets", "P;P,GS", "--n", 500, "--strata", 5,
     "--out", "uq_summed.csv"),
    (*_DIRECT, "--outdir", "fit_direct"),
    (*_DIRECT, "--query-mode", "frozen_full", "--outdir", "fit_frozen"),
    (*_FIT, "--route", "summed", "--resample-n", 320, "--outdir", "fit_summed"),
    ("compare", "--direct", "fit_direct/direct_rdsm.json", "--summed", "fit_summed/model",
     "--validation", _VALIDATION, "--train-rows", "fit_direct/fit_report.json",
     "--out", "comparison.csv"),
    ("plot-data", "--kind", "parity", "--model", "fit_summed/model",
     "--validation", _VALIDATION, "--out", "parity.csv"),
    ("plot-data", "--kind", "energy-stack", "--data", "data.csv", "--out", "energy_stack.csv"),
)
GATE_POINT = ("gate-check", "--p", 0.4, "--xis", 0.25, "--giii", 0.1)


def _run(*argv) -> None:
    code = main([str(a) for a in argv])
    if code != 0:
        raise SystemExit(f"rdsm {' '.join(map(str, argv))} exited {code}")


def print_digests(outdir: Path) -> None:
    if outdir.exists() and any(outdir.iterdir()):
        raise SystemExit(f"{outdir} is not empty")
    shutil.copytree(FIXTURE, outdir / "fixture")
    os.chdir(outdir)
    for argv in COMMANDS:
        _run(*argv)
    point = io.StringIO()
    with contextlib.redirect_stdout(point):
        _run(*GATE_POINT)
    files = sorted(p for p in Path(".").rglob("*") if p.is_file())
    for path in files:
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.as_posix()}")
    print(point.getvalue(), end="")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: artifact_digests.py OUTDIR")
    print_digests(Path(sys.argv[1]))
