"""The four benchmark workloads: their items, inputs and output checks.

An item is one call into the package's public entry points, almost always
``wba.cli.main(argv)`` with stdout captured.  Every input (row seeds, Werner
parameter vectors, ``--seed`` values) is generated here from the workload
seed and the pass index; the package sees only the generated inputs.  Each item's output is
parsed and checked against the thresholds the README pins; a failed check
is counted, never raised.

Why these workloads:

* ``projector-build`` builds F_mu(alpha) for the five (6,1) label pairs at
  d=2 and for (7,1) [4,2]/[3,2]: the diagram algebra dominates (the (7,1)
  item alone makes 231,648 compositions), realizations stay at 128^2 or
  smaller and no search runs.
* ``projector-dense`` builds the 288-term F_[2,2]([2]) at n=6, k=2, d=3 and
  evaluates its map for 1, 3 and 5 inputs: the algebra is idle while dense
  realization at 729^2 and map evaluation set time and memory.
* ``bcs-scan`` scans the Bardet-Collins-Sapra family one alpha row per call:
  the two-block see-saw search dominates and every realization is 27^2.
* ``crosscheck`` runs verify-props, ew-maps, werner-ppt and
  proposition1_check: many small cached realizations, the oracle on kernels
  of at most 5 sites and the 1|2|3 three-block search, which no other
  workload runs.  A change that wins on large cases but costs per call
  shows up here.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# seconds one pass takes with single-threaded BLAS on a 2-core Xeon; a run
# makes round(--seconds / nominal) passes, at least one
NOMINAL_PASS_S = {
    "projector-build": 10.0,
    "projector-dense": 15.0,
    "bcs-scan": 5.0,
    "crosscheck": 4.0,
}
WORKLOADS = tuple(NOMINAL_PASS_S)

# output thresholds, as the README pins them
IDEMPOTENCE_TOL = 1e-10
COMMUTANT_TOL = 1e-9
MAP_MIN_EIG_TOL = -1e-8
PRODUCT_BAND = 1e-7       # see-saw product minimum band
BLOCK_POSITIVE = ("PSD", "WITNESS_CANDIDATE")

SUBSETS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
# proposition1_check runs on this many states per pass, with the restart
# count scan-bcs uses by default; at the library default of 64 restarts the
# slowest states (about one in 16) take ten times the median and swamp the pass
P1_STATES = 2
P1_RESTARTS = 16


@dataclass
class Item:
    """One timed call, the checks on its output, and counters read from it."""

    label: str
    run: Callable[[], tuple[int, object]]
    check: Callable[[int, object], list[tuple[str, bool]]]
    info: dict = field(default_factory=dict)
    count: Callable[[object], dict[str, int]] | None = None


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``wba.cli.main(argv)`` with stdout captured; looked up at call time so
    that traced wrappers are used."""
    import wba.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = wba.cli.main(argv)
    return code, buf.getvalue()


def _cli_item(label: str, argv: list[str], check, count=None) -> Item:
    return Item(label, lambda: run_cli(argv), check, {"argv": argv}, count)


def _json_or_none(text):
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _float(value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_projector(code: int, out) -> list[tuple[str, bool]]:
    report = _json_or_none(out)
    if not isinstance(report, dict):
        report = {}
    return [
        ("exit code 0", code == 0),
        ("idempotence residual", _float(report.get("idempotence_residual")) <= IDEMPOTENCE_TOL),
        ("commutant residual", _float(report.get("commutant_residual")) <= COMMUTANT_TOL),
        ("map output min eigenvalue",
         _float(report.get("map_output_min_eig")) >= MAP_MIN_EIG_TOL),
    ]


def count_projector_terms(out) -> dict[str, int]:
    report = _json_or_none(out)
    return {"terms": int(report.get("terms", 0)) if isinstance(report, dict) else 0}


def make_scan_check(alpha: float, betas: list[float]):
    """Checks of one scan-bcs row: the grid, and class in {PSD, witness
    candidate} exactly when the analytic condition holds."""
    from wba.entanglement import bcs_positivity_condition

    def check(code: int, out) -> list[tuple[str, bool]]:
        lines = out.strip().splitlines() if isinstance(out, str) else []
        rows = [line.split(",") for line in lines[1:]]
        results = [("exit code 0", code == 0),
                   ("row count", len(rows) == len(betas) and all(len(r) == 6 for r in rows))]
        for j, beta in enumerate(betas):
            ok = False
            if j < len(rows) and len(rows[j]) == 6:
                a, b, analytic, _min_eig, _prod, cls = rows[j]
                expected = bcs_positivity_condition(alpha, beta, 3)
                ok = (abs(_float(a) - alpha) < 1e-9 and abs(_float(b) - beta) < 1e-9
                      and analytic == str(expected).lower()
                      and (cls in BLOCK_POSITIVE) == expected)
            results.append((f"point alpha={alpha:g} beta={beta:g}", ok))
        return results

    return check


def check_verify_props(code: int, out) -> list[tuple[str, bool]]:
    cases = _json_or_none(out)
    if not isinstance(cases, list) or not cases:
        return [("exit code 0", code == 0), ("case list", False)]
    return [("exit code 0", code == 0)] + [
        (str(case.get("name")), case.get("passed") is True) for case in cases]


def check_ew_maps(code: int, out) -> list[tuple[str, bool]]:
    payload = _json_or_none(out)
    passed = isinstance(payload, dict) and payload.get("passed") is True
    return [("exit code 0", code == 0), ("ew-maps passed", passed)]


def check_werner_ppt(code: int, out) -> list[tuple[str, bool]]:
    payload = _json_or_none(out)
    consistent = isinstance(payload, dict) and payload.get("consistent") is True
    return [("exit code 0", code == 0), ("werner-ppt consistent", consistent)]


def make_proposition1_check(params, subset):
    """Checks of one proposition1_check call that hold whatever the search
    budget: a NOT_BLOCK_POSITIVE verdict carries a product state that the
    benchmark re-evaluates below -band; a sampled map output with a negative
    eigenvalue (a proof that the map is not positive) is never met by a
    block-positive verdict; and f_S block-positive implies g_S block-positive.

    The one disagreement the function lists that these checks let pass is a
    sampled map minimum >= -band against a NOT_BLOCK_POSITIVE verdict whose
    product state is confirmed: the random full-rank PSD inputs missed the
    negative direction the search found.  Those are counted, not failed.
    """
    from wba.dense_ops import partial_transpose
    from wba.entanglement import werner_state

    def violation_confirmed(verdict) -> bool:
        vectors = getattr(verdict, "violating_product_state", None)
        if not vectors:
            return False
        full = vectors[0]
        for v in vectors[1:]:
            full = np.kron(full, v)
        mat = partial_transpose(werner_state(params), subset).mat
        return float(np.real(np.vdot(full, mat @ full))) < -PRODUCT_BAND

    def check(code: int, out) -> list[tuple[str, bool]]:
        if code != 0 or not isinstance(out, dict):
            return [("proposition1_check result", False)]
        results = []
        positive = {}
        for side in ("f", "g"):
            verdict = out[f"{side}_verdict"]
            cls = verdict.classification
            positive[side] = cls in BLOCK_POSITIVE
            if cls == "NOT_BLOCK_POSITIVE":
                results.append((f"{side} violating product state confirmed",
                                violation_confirmed(verdict)))
            results.append((f"{side} sampled negativity matched by the verdict",
                            out[f"{side}_sample_min"] >= -PRODUCT_BAND or not positive[side]))
        results.append(("f block-positive implies g block-positive",
                        positive["g"] or not positive["f"]))
        return results

    return check


def count_disagreements(out) -> dict[str, int]:
    listed = out.get("contradictions", []) if isinstance(out, dict) else []
    return {"proposition1_disagreements": len(listed)}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


def werner_rs(rng: np.random.Generator) -> tuple[float, ...]:
    """A valid Werner r-vector: simplex weights for (r+, r-, r0) and a
    uniform point of the radius-r0 ball for (r1, r2, r3)."""
    rp, rm, r0 = rng.dirichlet((1.0, 1.0, 1.0))
    direction = rng.standard_normal(3)
    direction /= np.linalg.norm(direction)
    r1, r2, r3 = r0 * rng.random() ** (1.0 / 3.0) * direction
    return tuple(float(x) for x in (rp, rm, r0, r1, r2, r3))


def _projector_argv(n, k, d, mu, alpha, emit_map, seed) -> list[str]:
    return ["projector", "--n", str(n), "--k", str(k), "--d", str(d), "--mu", mu,
            "--alpha", alpha, "--format", "json", "--emit-map", str(emit_map),
            "--seed", str(seed)]


def projector_build(rng, tiny: bool) -> list[Item]:
    if tiny:
        cases = [(4, "[3]", "[2]"), (4, "[2,1]", "[2]")]
    else:
        cases = [(6, "[5]", "[4]"), (6, "[4,1]", "[4]"), (6, "[4,1]", "[3,1]"),
                 (6, "[3,2]", "[3,1]"), (6, "[3,2]", "[2,2]"), (7, "[4,2]", "[3,2]")]
    seeds = _seeds(rng, len(cases))
    return [_cli_item(f"projector n={n} k=1 d=2 {mu}/{alpha}",
                      _projector_argv(n, 1, 2, mu, alpha, n - 1, seed), check_projector,
                      count_projector_terms)
            for (n, mu, alpha), seed in zip(cases, seeds)]


def projector_dense(rng, tiny: bool) -> list[Item]:
    n, k, mu, alpha = (4, 1, "[2,1]", "[2]") if tiny else (6, 2, "[2,2]", "[2]")
    maps = (1, 3) if tiny else (1, 3, 5)
    seeds = _seeds(rng, len(maps))
    return [_cli_item(f"projector n={n} k={k} d=3 {mu}/{alpha} map {m}",
                      _projector_argv(n, k, 3, mu, alpha, m, seed), check_projector,
                      count_projector_terms)
            for m, seed in zip(maps, seeds)]


def bcs_scan(rng, tiny: bool) -> list[Item]:
    alphas = [0.0, 1.0] if tiny else [i / 10 for i in range(11)]
    beta_range = "-0.5:0.1:0.3" if tiny else "-0.5:0.1:0.05"
    start, stop, step = (float(x) for x in beta_range.split(":"))
    betas = [round(start + j * step, 12) for j in range(int(round((stop - start) / step)) + 1)]
    seeds = _seeds(rng, len(alphas))
    return [_cli_item(f"scan-bcs alpha={alpha:g}",
                      ["scan-bcs", "--d", "3", f"--alpha={alpha:g}:{alpha:g}:0.1",
                       f"--beta={beta_range}", "--seed", str(seed)],
                      make_scan_check(alpha, betas))
            for alpha, seed in zip(alphas, seeds)]


def crosscheck(rng, tiny: bool) -> list[Item]:
    from wba.entanglement import SearchBudget, WernerParams, proposition1_check

    verify_seed, ew_seed = _seeds(rng, 2)
    verify = ["verify-props", "--format", "json", "--seed", str(verify_seed)]
    ew = ["ew-maps", "--seed", str(ew_seed)]
    if tiny:
        verify += ["--only", "prop5", "--tuples", "2"]
        ew += ["--row", "f1", "--instances", "2"]
    items = [_cli_item("verify-props", verify, check_verify_props),
             _cli_item("ew-maps", ew, check_ew_maps)]

    ppt_states = [werner_rs(rng) for _ in range(1 if tiny else 2)]
    for i, rs in enumerate(ppt_states):
        r_text = ",".join(repr(x) for x in rs)
        items.append(_cli_item(f"werner-ppt state {i}",
                               ["werner-ppt", f"--r={r_text}", "--d", "3"],
                               check_werner_ppt))

    subsets = SUBSETS[:1] if tiny else SUBSETS
    for i in range(1 if tiny else P1_STATES):
        params = WernerParams.from_rs(werner_rs(rng), 3)
        for s, seed in zip(subsets, _seeds(rng, len(subsets))):
            def call(params=params, s=s, seed=seed):
                budget = SearchBudget(restarts=P1_RESTARTS, seed=seed)
                return 0, proposition1_check(params, s, budget)
            items.append(Item(f"proposition1_check state {i} S={s}", call,
                              make_proposition1_check(params, s),
                              {"rs": params.rs, "subset": s, "seed": seed}, count_disagreements))
    return items


_BUILDERS = {
    "projector-build": projector_build,
    "projector-dense": projector_dense,
    "bcs-scan": bcs_scan,
    "crosscheck": crosscheck,
}


def build_items(workload: str, seed: int, pass_index: int = 0,
                tiny: bool = False) -> list[Item]:
    """The items of one pass.  Each pass of a run draws its own inputs from
    (seed, pass index), so a run's medians cover several input draws; the
    same seed gives the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), pass_index])
    return _BUILDERS[workload](rng, tiny)
