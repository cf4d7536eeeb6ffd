"""Run the benchmark over several seeds and print every metric by name.

    python3 perfbench/record.py --seeds 1-10                  # all workloads, untraced
    python3 perfbench/record.py --seeds 1-10 --trace-seeds 1 --out perfbench/BENCH_1.json

Each (workload, seed) is one ``run.py`` invocation, run one after another.
For every end-to-end metric the table gives the median over the seeds, the
quartiles, and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json; the failed-check fraction is given with its base.  Traced
seeds add the per-layer metrics.  ``--out`` writes all of it, with the
environment, as one point of the benchmark trajectory (BENCH_<k>.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if not text:
        return []
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return {"env": lines[0]["env"], "details": lines[1]["details"], "result": lines[-1]}


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help='e.g. "1-10" or "1,4,9"')
    parser.add_argument("--trace-seeds", default="", help="seeds of the traced runs")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None, help="write the results to this JSON file")
    args = parser.parse_args(argv)

    report = {"run_seconds": args.seconds, "seeds": parse_seeds(args.seeds),
              "trace_seeds": parse_seeds(args.trace_seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, args.seconds, 0) for s in report["seeds"]]
        traced = [run_once(workload, s, args.seconds, 1) for s in report["trace_seeds"]]
        report.setdefault("env", (runs or traced)[0]["env"])
        entry = {"end_to_end": {}, "per_layer": {}}
        attempted = sum(r["result"]["attempted"] for r in runs + traced)
        failed = sum(r["result"]["failed"] for r in runs + traced)
        entry["fail_frac"] = {"value": failed / attempted, "failed": failed,
                              "attempted": attempted}
        if runs:
            details = runs[0]["details"]
            entry["item_tail"] = {"percentile": details["item_tail_percentile"],
                                  "samples_per_run": details["item_samples"]}
            print(f"\n{workload}: {len(runs)} runs, fail_frac {failed}/{attempted}, "
                  f"item_tail_s = p{details['item_tail_percentile']:g} of "
                  f"{details['item_samples']} items per run")
            print(f"  {'metric':14s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
                  f"{'spread':>7s} {'bound':>6s}")
            for name, meta in runs[0]["result"]["metrics"].items():
                summary = summarize([r["result"]["metrics"][name]["value"] for r in runs])
                entry["end_to_end"][name] = {"unit": meta["unit"], **summary}
                print(f"  {name:14s} {meta['unit']:5s} {summary['median']:10.4g} "
                      f"{summary['q1']:10.4g} {summary['q3']:10.4g} "
                      f"{summary['spread']:7.3f} {bounds.get(name, float('nan')):6.2f}")
        if traced:
            print(f"  per layer, median of {len(traced)} traced runs:")
            for name, meta in traced[0]["result"]["metrics"].items():
                values = [r["result"]["metrics"][name]["value"] for r in traced]
                entry["per_layer"][name] = {"unit": meta["unit"],
                                            "value": statistics.median(values),
                                            "values": values}
                print(f"    {name:45s} {meta['unit']:6s} {statistics.median(values):12.6g}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
