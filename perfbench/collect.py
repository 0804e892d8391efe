"""Repeat benchmark runs over seeds and summarize them, e.g. for a baseline.

    python3 perfbench/collect.py --runs 10 > perfbench/baseline.json

``repeat.json`` is a second set made the same way on the same commit.

For every workload in BENCHMARK.json it makes ``--runs`` untraced runs of
``run_seconds`` on seeds 1..runs and one traced run on seed ``--runs + 1``,
then reports per end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound (the ungated failed_ops_frac is summarized
too); plus the traced run's per-layer metrics and its tracing overhead.
Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    bench = spec.load()
    seconds = bench["run_seconds"]
    summary = {"runs": args.runs, "seconds": seconds, "workloads": {}}
    metrics = [(m["name"], m["unit"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [(name, unit, None) for name, unit in spec.REPORTED.items()]
    for workload in (w["name"] for w in bench["workloads"]):
        results, measured = [], []
        for seed in range(1, args.runs + 1):
            result, report = run(workload, seed, seconds, 0)
            results.append(result)
            summary.setdefault("meta", json.loads(report[1].removeprefix("# meta ")))
            values = {k: v["value"] for k, v in result["metrics"].items()}
            for line in report:  # the reported, ungated metrics
                name, *rest = line.split() or [""]
                if name in spec.REPORTED:
                    values[name] = float(rest[0])
            measured.append(values)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v:.5g}" for k, v in values.items()), file=sys.stderr)
        entry = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        for name, unit, bound in metrics:
            values = [m[name] for m in measured]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else None
            entry["end_to_end"][name] = {
                "unit": unit, "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }
            if bound is not None:
                print(f"{workload} {name}: median {median:.5g} {unit}, spread "
                      f"{spread:.2%} (bound {bound:.0%})", file=sys.stderr)
        traced, report = run(workload, args.runs + 1, seconds, 1)
        entry["traced_seed"] = args.runs + 1
        entry["tracing"] = [line.removeprefix("# ") for line in report
                            if line.startswith(("# tracing overhead", "# self times"))]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{workload} traced: {entry['tracing'][0]}", file=sys.stderr)
        summary["workloads"][workload] = entry
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
