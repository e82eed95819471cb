"""Summarize benchmark results files into medians, quartiles and spreads.

Run from the repository root after some runs of bench/run.py:

    python3 bench/summarize.py [--results .bench_results] [--out FILE]

For each workload it prints every end-to-end metric over the untraced runs
(count, median, first and third quartile, and the spread: quartile distance
over median, the figure each metric's bound in BENCHMARK.json is set
against), the per-workload summary numbers, the median of every per-layer
metric over the traced runs, and the tracing overhead: median traced pass
time minus median untraced pass time.  --out writes the same as JSON.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stats(values: list[float]) -> dict:
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def summarize(results: Path) -> dict:
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(results.glob("*-t[01].json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    doc = {"machine": None, "workloads": {}}
    for (workload, trace), records in sorted(runs.items()):
        doc["machine"] = doc["machine"] or records[0]["machine"]
        entry = doc["workloads"].setdefault(workload, {})
        seeds = sorted(r["seed"] for r in records)
        failed = sum(sum(bool(c["failures"]) for c in r["commands"]) for r in records)
        attempted = sum(len(r["commands"]) for r in records)
        block = {"seeds": seeds, "attempted": attempted, "failed": failed}
        block["metrics"] = {k: _stats([r["metrics"][k] for r in records])
                            for k in records[0]["metrics"]}
        if not trace:
            keys = set.intersection(*(set(r["summary"]) for r in records))
            block["summary"] = {k: _stats([r["summary"][k] for r in records]) for k in sorted(keys)}
        entry["traced" if trace else "untraced"] = block
        if "traced" in entry and "untraced" in entry:
            entry["tracing_overhead_s"] = (entry["traced"]["metrics"]["trace.pass_s"]["median"]
                                           - entry["untraced"]["metrics"]["pass_s"]["median"])
    return doc


def _print(doc: dict) -> None:
    for workload, entry in doc["workloads"].items():
        for mode in ("untraced", "traced"):
            if mode not in entry:
                continue
            block = entry[mode]
            print(f"== {workload} ({mode}) seeds={block['seeds']} "
                  f"failed={block['failed']}/{block['attempted']}")
            for group in ("metrics", "summary"):
                for k, s in block.get(group, {}).items():
                    spread = f"  spread {s['spread']:.3f}" if "spread" in s else ""
                    print(f"  {k:36s} median {s['median']:<12.6g}{spread}")
        if "tracing_overhead_s" in entry:
            print(f"  tracing overhead: {entry['tracing_overhead_s']:+.3f} s per pass")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--results", default=str(ROOT / ".bench_results"))
    p.add_argument("--out", help="write the summary as JSON here")
    args = p.parse_args(argv)
    doc = summarize(Path(args.results))
    if not doc["workloads"]:
        print(f"summarize: no results files in {args.results}", file=sys.stderr)
        return 1
    _print(doc)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
