"""rdsm benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 bench/run.py --workload paper_pipeline --seed 1 --seconds 25 --trace 0

The workload runs in this process against the sources in src/.  Set-up
time is the import of rdsm plus the median of three repeats of the
workload's set-up; then passes of the workload's commands repeat until
--seconds of measured time have passed and the workload's minimum number of
passes has run.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 the layer wrappers of
bench/tracing.py are installed and the line holds the per-layer metrics.
Every run also writes .bench_results/<workload>-s<seed>-t<trace>.json with
the machine block, every timing and the per-workload numbers, and a
traced run writes its spans beside it.
"""

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("paper_pipeline", "surrogate_query")
SETUP_REPEATS = 3
# stop starting passes after this much wall time, whatever --seconds says,
# so one run always ends well inside its time limit
PASS_WALL_LIMIT_S = 120.0


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_quota() -> str | None:
    """The cgroup CPU quota as quota/period, or None when unlimited or absent."""
    v2 = _read("/sys/fs/cgroup/cpu.max")
    if v2 is not None:
        quota, _, period = v2.partition(" ")
        return None if quota == "max" else f"{quota}/{period}"
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is None or quota.startswith("-"):
        return None
    return f"{quota}/{period}"


def _blas(np) -> dict:
    """BLAS library from numpy's build record, and its live thread count."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    maps = _read("/proc/self/maps") or ""
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    # scipy may load an OpenBLAS of its own; numpy's is the one rdsm's matmuls use
    libs = sorted(libs, key=lambda lib: "numpy" not in lib)
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(ROOT / ".git" / ref)
    if loose is not None:
        return loose
    for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine(np) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cgroup_cpu_quota": _cpu_quota(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(np),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def _declared(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "rdsm" / "__init__.py").is_file():
        print(f"bench: error: no rdsm sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import numpy as np
    import rdsm
    import rdsm.cli  # noqa: F401  the commands the workloads call
    import_s = time.perf_counter() - started

    if Path(rdsm.__file__).resolve().parent != (SRC / "rdsm").resolve():
        print(f"bench: error: imported rdsm from {rdsm.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    tracer = tracing.Tracer(run_id=f"{tag}-{os.getpid()}") if args.trace else None
    run = workloads.Run(tracer)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    try:
        setup_s, setup_digests = [], []
        for k in range(SETUP_REPEATS):
            d = work / f"setup{k}"
            d.mkdir(parents=True)
            start = time.perf_counter()
            workload.setup(run, d)
            setup_s.append(time.perf_counter() - start)
            setup_digests.append(workload.check_setup(run, d))
        workloads.check_same(run, run.commands[-1], setup_digests, "set-up output")

        patches = tracing.Patches(tracer) if tracer else None
        pass_s, pass_digests = [], []
        wall = time.perf_counter()
        try:
            while len(pass_s) < workload.min_passes or (
                    sum(pass_s) < args.seconds and time.perf_counter() - wall < PASS_WALL_LIMIT_S):
                d = work / f"pass{len(pass_s)}"
                d.mkdir()
                start = time.perf_counter()
                with tracer.span("pass") if tracer else nullcontext():
                    workload.run_pass(run, d)
                pass_s.append(time.perf_counter() - start)
                pass_digests.append(workload.check_pass(run, d))
        finally:
            if patches:
                patches.restore()
        workloads.check_same(run, run.commands[-1], pass_digests, "pass output")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = {
        "setup_s": import_s + statistics.median(setup_s),
        "pass_s": statistics.median(pass_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    summary = workload.summary(run, e2e["pass_s"])
    summary["failed_ops_ratio"] = run.failed / run.attempted
    quality = dict.fromkeys(workloads.QUALITY_METRICS, 0.0)
    if workload.quality:
        quality.update(workload.quality[-1])
    if tracer:
        metrics = {**tracing.layer_metrics(tracer.spans, len(pass_s)), **quality}
    else:
        metrics = e2e

    declared = _declared(args.trace)
    if sorted(declared) != sorted(metrics):
        print("bench: error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(declared) ^ set(metrics))}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(np), "import_s": import_s,
        "setup_repeats_s": setup_s, "passes_s": pass_s,
        "metrics": metrics, "end_to_end": e2e,
        "summary": summary, "quality": quality,
        "commands": [{"label": c.label, "seconds": c.seconds, "failures": c.failures}
                     for c in run.commands],
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer:
        tracer.write(results / f"{tag}-spans.jsonl")

    for k, v in summary.items():
        print(f"{k} = {v:.6g}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
