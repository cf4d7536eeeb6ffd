"""Benchmark of the wba package: one workload, one seed, one result line.

    python3 perfbench/run.py --workload projector-build --seed 1 --seconds 12 --trace 0

A run makes round(seconds / nominal pass time) passes of the workload, at
least one.  Every pass is a fresh worker process (perfbench/worker.py) with
its own inputs drawn from (seed, pass index): each pass pays the imports
and cold caches a command-line user pays, ``ru_maxrss`` is the pass's own,
and the run's medians cover several input draws.  With ``--trace 0`` the
end-to-end metrics are reported.  With ``--trace 1`` half as many passes
run twice, untraced and traced, and the per-layer metrics of the traced
passes are reported with the tracing overhead.  Latencies are scaled to a
reference host speed measured between items (see worker.calibrate).

stdout: one line with the environment, one line with the sample counts
behind the latency percentiles and the failed-check fraction with its base,
then the result object as the last line.  Exits non-zero without a result
when the package source is missing or a worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
TAIL_BEYOND = 10       # samples that must lie above the tail percentile
SETUP_SAMPLES = 9      # set-ups per run behind the setup_s median
BLAS_THREADS = 1       # single-threaded BLAS keeps runs on a shared host steady
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text()
    except OSError:
        return None


def _commit() -> str | None:
    """HEAD of the checkout's git metadata, when there is any."""
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None:
        return None
    head = head.strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read_text(ROOT / ".git" / ref)
    if direct:
        return direct.strip()
    for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read_text(Path("/proc/cpuinfo")) or "").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    mem_kb = next((int(line.split()[1])
                   for line in (_read_text(Path("/proc/meminfo")) or "").splitlines()
                   if line.startswith("MemAvailable:")), None)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "seed": seed,
        "mem_available_mb": round(mem_kb / 1024.0) if mem_kb else None,
    }


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(args, deadline: float, pass_index: int, traced: bool = False,
          setup_only: bool = False, spans: Path | None = None) -> dict:
    """Run one worker pass and return its result, timed from the spawn."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(pass_index)]
    cmd += ["--trace"] if traced else []
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--spans", str(spans)] if spans else []
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              env=_worker_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker exceeded the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and worker
    result["setup_s"] = result["setup_end"] - spawned
    return result


def latency(item: dict) -> float:
    """Item latency at the reference speed (see worker.calibrate)."""
    return (item["end"] - item["start"]) * worker.CALIBRATION_REF_S / item["calibration"]


def pass_wall(result: dict) -> float:
    """Timed phase of a pass at the reference speed: its item latencies."""
    return sum(latency(item) for item in result["items"])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples above it, and
    that percentile; the minimum when there are too few samples."""
    ordered = sorted(latencies)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def tally(results: list[dict]) -> tuple[int, int]:
    """Output checks attempted and failed over the passes' item records."""
    items = [item for r in results for item in r["items"]]
    return sum(i["checks"] for i in items), sum(i["failed"] for i in items)


def measure(args) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    nominal = workloads.NOMINAL_PASS_S[args.workload]
    passes = 1 if args.tiny else max(1, round(args.seconds / nominal))
    plain, traced, setups = [], [], []
    if args.trace:
        # each traced pass pairs with an untraced pass on the same inputs;
        # half as many pairs keep a traced run about as long as an untraced one
        pairs = max(1, passes // 2)
        spans_dir = HERE / "out"
        spans_dir.mkdir(exist_ok=True)
        for i in range(pairs):
            plain.append(spawn(args, deadline, i))
            last = i == pairs - 1
            traced.append(spawn(args, deadline, i, traced=True,
                                spans=spans_dir / f"spans-{args.workload}.json.gz"
                                if last else None))
    else:
        plain = [spawn(args, deadline, i) for i in range(passes)]
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, deadline, 0, setup_only=True)["setup_s"])

    attempted, failed = tally(plain + traced)
    latencies = [latency(item) for r in plain for item in r["items"]]
    tail_s, tail_pct = tail(latencies)
    wall = statistics.median(pass_wall(r) for r in plain)
    details = {
        "workload": args.workload, "passes": len(plain), "traced_passes": len(traced),
        "item_samples": len(latencies), "item_tail_percentile": round(tail_pct, 1),
        "fail_frac": failed / attempted if attempted else 0.0,
        "checks_attempted": attempted, "checks_failed": failed,
        "raw_wall_s": statistics.median(
            sum(item["end"] - item["start"] for item in r["items"]) for r in plain),
        "calibration_s": statistics.median(
            item["calibration"] for r in plain for item in r["items"]),
        "counters": {name: sum(r["counters"].get(name, 0) for r in plain + traced)
                     for name in sorted({n for r in plain + traced for n in r["counters"]})},
    }
    if args.trace:
        units = tracing.metric_units()
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in units if name in traced[0]["layers"]}
        values["wba_algebra.terms"] = statistics.median(
            r["counters"].get("terms", 0) for r in traced)
        traced_wall = statistics.median(pass_wall(r) for r in traced)
        values["trace.overhead_frac"] = traced_wall / wall - 1.0
    else:
        units = END_TO_END_UNITS
        values = {
            "wall_s": wall,
            "item_p50_s": statistics.median(latencies),
            "item_tail_s": tail_s,
            "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in plain),
            "setup_s": statistics.median(setups),
        }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wba benchmark: one workload run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one pass, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wba" / "__init__.py").is_file():
        print(f"error: package source {ROOT / 'src' / 'wba'} not found", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(args.seed)}), flush=True)
    try:
        details, result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
