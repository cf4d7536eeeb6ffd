"""One pass of a workload, in its own process.

Imports the package from ``src/`` of the checkout, generates the pass's
inputs from the seed, optionally installs the tracer, then runs every item
in order, timing each one from outside and timing a calibration kernel
between items.  The last line of stdout is one JSON object: when set-up
ended, each item's interval, calibration and check results, ``ru_maxrss``
and, when traced, the per-layer metrics.

    python3 perfbench/worker.py --workload bcs-scan --seed 3 --pass-index 0 [--trace]
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# calibrate() on the reference host (2-core Xeon, single-threaded BLAS) in
# its faster regimes; only the scale of the reported times depends on it
CALIBRATION_REF_S = 0.003


@functools.cache
def _calibration_matrix():
    import numpy as np

    a = np.random.default_rng(0).standard_normal((32, 32))
    return a + a.T


def calibrate() -> float:
    """Seconds a fixed mix of interpreter work and small LAPACK calls takes
    right now (median of five repetitions).

    On a shared host the speed the process gets drifts in regimes of several
    seconds; identical work can take 45% longer in a slow one.  Timing this
    kernel between items tracks that speed, and run.py scales every item
    latency by CALIBRATION_REF_S / calibration to report it at the
    reference speed.
    """
    import numpy as np

    a = _calibration_matrix()

    def once() -> float:
        start = time.perf_counter()
        table = {}
        for i in range(10000):
            table[(i, i & 7)] = i * 3 % 11
        for _ in range(10):
            np.linalg.eigh(a)
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(5))


def import_package():
    """Import every layer module of the checkout's own ``src/wba``."""
    import tracing

    sys.path.insert(0, str(ROOT / "src"))
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"wba.{layer}")
        if not Path(module.__file__).resolve().is_relative_to(ROOT / "src"):
            raise ImportError(f"wba imported from {module.__file__}, not from {ROOT / 'src'}")


def run_items(items, tracer=None, corrupt=None) -> dict:
    """Run every item, then check the outputs.  Checks run after the timed
    phase and after the tracer is removed, so their own calls into the
    package count neither in the pass time nor in the spans.
    ``corrupt(item, output)`` may replace an output before it is checked
    (used by the self-test)."""
    records, outputs = [], []
    clock = time.perf_counter
    calibrate()  # the first call also builds the matrix and warms LAPACK up
    speed = calibrate()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = index
        start = clock()
        try:
            code, out = item.run()
        except Exception:  # a crashing item is a failed item, not a failed run
            traceback.print_exc()
            code, out = None, None
        end = clock()
        speed_after = calibrate()
        records.append({"label": item.label, "start": start, "end": end,
                        "calibration": (speed + speed_after) / 2})
        speed = speed_after
        outputs.append((code, out))
    if tracer is not None:
        tracer.uninstall()

    counters: dict[str, int] = {}
    for item, record, (code, out) in zip(items, records, outputs):
        if corrupt is not None:
            out = corrupt(item, out)
        checks = item.check(code, out) if code is not None else [("item raised", False)]
        failed = [what for what, ok in checks if not ok]
        for what in failed:
            print(f"check failed: {item.label}: {what} {item.info}", file=sys.stderr)
        record.update(checks=len(checks), failed=len(failed))
        if item.count is not None:
            for name, value in item.count(out).items():
                counters[name] = counters.get(name, 0) + value
    return {"items": records, "counters": counters}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--pass-index", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans to this gzip file")
    args = parser.parse_args(argv)

    import tracing
    import workloads

    import_package()
    items = workloads.build_items(args.workload, args.seed, args.pass_index, args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    result = {"setup_end": time.perf_counter()}
    if not args.setup_only:
        result.update(run_items(items, tracer))
        result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
