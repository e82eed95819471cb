"""Regenerate the two models the surrogate_query workload queries.

Run from the repository root:

    python3 bench/make_fixture.py

It runs the paper's pipeline through the CLI (simulate 1555 rows with seed
11, then fit the direct and the summed route with a 25-row holdout and seed
0) in .bench_work/fixture-build and copies the two models into
bench/fixture/: direct_rdsm.json and the summed model directory summed/.
Training takes about half a minute on a 2-core machine.  Regenerate only
when the model format changes on purpose; the workload checks that the
committed files still load and write back byte for byte.
"""

import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from rdsm import cli

    build = ROOT / ".bench_work" / "fixture-build"
    shutil.rmtree(build, ignore_errors=True)
    build.mkdir(parents=True)
    fit = ["--data", str(build / "data.csv"), "--holdout", "25", "--seed", "0", "--threads", "1"]
    for argv in (
        ["simulate", "--n", "1555", "--seed", "11", "--threads", "1", "--outdir", str(build)],
        ["fit", "--route", "direct", *fit, "--outdir", str(build)],
        ["fit", "--route", "summed", *fit, "--outdir", str(build / "summed")],
    ):
        code = cli.main(argv)
        if code != 0:
            print(f"make_fixture: rdsm {' '.join(argv)} exited with {code}", file=sys.stderr)
            return 1
    fixture = BENCH / "fixture"
    shutil.rmtree(fixture, ignore_errors=True)
    fixture.mkdir()
    shutil.copyfile(build / "direct_rdsm.json", fixture / "direct_rdsm.json")
    shutil.copytree(build / "summed" / "model", fixture / "summed")
    shutil.rmtree(build)
    for path in sorted(fixture.rglob("*.json")):
        print(f"{path.relative_to(ROOT)}  {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
