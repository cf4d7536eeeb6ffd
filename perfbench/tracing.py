"""Span tracing of the wba layers from outside the package.

``Tracer.install()`` replaces every public function of the layer modules by
a wrapper that records one span per call: function name, start, end, parent
span and the id of the benchmark item that was running.  A function is
replaced at every module attribute that binds it (``wba.cli.f_projector``
and ``wba.wba_algebra.f_projector`` are the same function imported twice),
so calls made through any import path are seen.  Calls that go through a
module global, such as ``WbaElement.__mul__`` calling ``compose_diagrams``,
are seen too, because the global is one of those attributes.

``uninstall()`` puts the originals back.  Spans stay in memory; ``write``
dumps them once the pass is over and ``layer_metrics`` reduces them to the
per-layer metrics.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("sym_core", "wba_algebra", "dense_ops", "multilinear_maps",
          "entanglement", "verification", "cli")

# per-layer metrics: (name, unit).  Functions named here that a later
# version of the package no longer has simply report zero calls.
TIMED = (
    ("wba_algebra", "compose_diagrams"), ("wba_algebra", "f_projector"),
    ("wba_algebra", "element_to_json"), ("wba_algebra", "realize"),
    ("sym_core", "young_projector"),
    ("multilinear_maps", "evaluate_oracle"),
    ("dense_ops", "partial_trace"),
    ("entanglement", "product_state_minimize"), ("entanglement", "werner_state"),
    ("verification", "proposition_suite"),
)
COUNTED = (
    ("wba_algebra", "compose_diagrams"), ("wba_algebra", "realize"),
    ("sym_core", "character"),
    ("multilinear_maps", "fast_evaluate"), ("multilinear_maps", "evaluate_oracle"),
    ("entanglement", "check_block_positive"), ("entanglement", "product_state_minimize"),
    ("entanglement", "product_state_value"), ("entanglement", "werner_state"),
    ("dense_ops", "min_eigenvalue"),
)
SELF_TIMED = ("wba_algebra", "sym_core", "multilinear_maps", "entanglement",
              "verification", "cli", "dense_ops")

_RSS_WATCHED = "wba_algebra.realize"
_VERDICT_WATCHED = "entanglement.check_block_positive"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for mod, fn in TIMED:
        units[f"{mod}.{fn}.s"] = "s"
    for mod, fn in COUNTED:
        units[f"{mod}.{fn}.calls"] = "count"
    for mod in SELF_TIMED:
        units[f"{mod}.self_s"] = "s"
    units.update({
        "wba_algebra.terms": "count",
        "wba_algebra.realize.rss_growth_mb": "MB",
        "multilinear_maps.closed_form_share": "ratio",
        "entanglement.search_share": "ratio",
        "entanglement.inconclusive_share": "ratio",
        "trace.overhead_frac": "ratio",
    })
    return units


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Records spans of calls into the wba layer modules."""

    def __init__(self):
        self.names: list[str] = []
        # span: [name index, start, end, parent span index, item id]
        self.spans: list[list] = []
        self.item = -1
        self.rss_growth_mb = 0.0
        self.verdicts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._bound: list[tuple[object, str, object]] = []

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        watch_rss = qualname == _RSS_WATCHED
        watch_verdict = qualname == _VERDICT_WATCHED

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            rss0 = _maxrss_mb() if watch_rss else 0.0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if watch_rss:
                self.rss_growth_mb += _maxrss_mb() - rss0
            if watch_verdict:
                self.verdicts[str(getattr(result, "classification", "?"))] += 1
            return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Wrap the public functions of every layer module wherever bound."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"wba.{layer}"]
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for modname, module in list(sys.modules.items()):
            if modname != "wba" and not modname.startswith("wba."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, original in self._bound:
            setattr(module, attr, original)
        self._bound.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "names": self.names, "spans": self.spans}, handle)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans."""
        names, spans = self.names, self.spans
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        oracle_under_fast: set[int] = set()
        for index, (name_id, start, end, parent, _item) in enumerate(spans):
            name = names[name_id]
            calls[name] += 1
            self_s[name.split(".", 1)[0]] += (end - start) - child_time[index]
            # inclusive time counts only the outermost span of a function
            outer, ancestor = True, parent
            while ancestor >= 0:
                ancestor_name = names[spans[ancestor][0]]
                if ancestor_name == name:
                    outer = False
                if (name == "multilinear_maps.evaluate_oracle"
                        and ancestor_name == "multilinear_maps.fast_evaluate"):
                    oracle_under_fast.add(ancestor)
                ancestor = spans[ancestor][3]
            if outer:
                inclusive[name] += end - start

        out: dict[str, float] = {}
        for mod, fn in TIMED:
            out[f"{mod}.{fn}.s"] = inclusive[f"{mod}.{fn}"]
        for mod, fn in COUNTED:
            out[f"{mod}.{fn}.calls"] = calls[f"{mod}.{fn}"]
        for mod in SELF_TIMED:
            out[f"{mod}.self_s"] = self_s[mod]
        out["wba_algebra.realize.rss_growth_mb"] = self.rss_growth_mb
        fast = calls["multilinear_maps.fast_evaluate"]
        out["multilinear_maps.closed_form_share"] = (
            (fast - len(oracle_under_fast)) / fast if fast else 0.0)
        checks = calls["entanglement.check_block_positive"]
        out["entanglement.search_share"] = (
            calls["entanglement.product_state_minimize"] / checks if checks else 0.0)
        verdicts = sum(self.verdicts.values())
        out["entanglement.inconclusive_share"] = (
            self.verdicts.get("INCONCLUSIVE", 0) / verdicts if verdicts else 0.0)
        return out
