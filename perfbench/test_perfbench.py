"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload, counter", [
    ("projector-build", "wba_algebra.compose_diagrams.calls"),
    ("crosscheck", "entanglement.check_block_positive.calls"),
])
def test_exact_counts_repeat_for_the_same_seed(workload, counter):
    first, second = (result_of(bench(workload, 1))["metrics"] for _ in range(2))
    counts = [n for n in first if n.endswith(".calls") or n == "wba_algebra.terms"]
    assert first[counter]["value"] > 0
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_inputs_follow_the_seed():
    worker.import_package()
    argv = [[i.info["argv"] for i in workloads.build_items("bcs-scan", seed)] for seed in (1, 1, 2)]
    assert argv[0] == argv[1] != argv[2]


def test_flipped_scan_class_is_counted_as_failed():
    worker.import_package()
    items = workloads.build_items("bcs-scan", 5, tiny=True)

    def flip_first_class(item, out):
        header, first, *rest = out.splitlines()
        cells = first.split(",")
        cells[-1] = "NOT_BLOCK_POSITIVE" if cells[-1] in workloads.BLOCK_POSITIVE else "PSD"
        return "\n".join([header, ",".join(cells), *rest]) + "\n"

    clean = worker.run_items(items)
    corrupted = worker.run_items(items[:1], corrupt=flip_first_class)
    assert run.tally([clean]) == (sum(i["checks"] for i in clean["items"]), 0)
    attempted, failed = run.tally([corrupted])
    assert failed == 1 and attempted == corrupted["items"][0]["checks"]


def test_corrupted_projector_residual_is_counted_as_failed():
    worker.import_package()
    items = workloads.build_items("projector-build", 5, tiny=True)[:1]

    def break_idempotence(item, out):
        return json.dumps(dict(json.loads(out), idempotence_residual="0.5"))

    assert run.tally([worker.run_items(items, corrupt=break_idempotence)])[1] == 1


def test_block_positive_verdict_against_sampled_negativity_is_counted_as_failed():
    worker.import_package()
    items = [i for i in workloads.build_items("crosscheck", 5, tiny=True)
             if i.label.startswith("proposition1_check")]

    def claim_psd_despite_negativity(item, out):
        verdict = dataclasses.replace(out["f_verdict"], classification="PSD")
        return dict(out, f_verdict=verdict, f_sample_min=-1.0)

    assert run.tally([worker.run_items(items)])[1] == 0
    assert run.tally([worker.run_items(items, corrupt=claim_psd_despite_negativity)])[1] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("bcs-scan", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
