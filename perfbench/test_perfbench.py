"""Tests of the benchmark itself, on its reduced (--smoke) inputs.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
import spans  # noqa: E402


def smoke(workload: str, seed: int, trace: int, root: Path = ROOT):
    cmd = [
        sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=root)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_passes_and_reports_every_metric(workload, trace):
    proc = smoke(workload, 0, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        accounted = sum(values[k] for k in spans.SELF_METRICS) + values["trace.unattributed_s"]
        assert accounted == pytest.approx(values["trace.wall_s"], abs=1e-9)


def test_checks_pass_on_a_second_seed():
    # candidates ignores the seed; verdicts relabels its n=10 inputs by it
    proc = smoke("verdicts", 1, 0)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("verdicts", 0, 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_binding():
    from kssearch.graphs import Graph
    from kssearch import pipeline

    def bindings():
        return {
            (mod, attr): getattr(importlib.import_module(f"kssearch.{mod}"), attr)
            for mod, attr, *_ in spans.LAYERS
        }

    before = bindings()
    with spans.Tracer() as tracer:
        pipeline.evaluate_graph(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert bindings() == before
    assert [s[0] for s in tracer.spans] == [
        "pipeline.evaluate", "colouring.k_colourable", "colouring.k_colourable",
    ]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
