"""Self-tests of the benchmark: output schema, span coverage, smoke runs.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Which workload is meant to exercise each span (suite exercises the rest).
LADDER_SPANS = {
    "glue-ladder": {
        "serial.parse_instance", "glue.validate_gluing_datum", "glue.glue",
        "glue.GluedModule.embed", "glue.GluedModule.project", "numlin.kernel_basis",
    },
    "descent-ladder": {
        "glue.descent_identities_check", "glue.glue", "glue.GluedModule.embed",
        "tensor.delta_map", "tensor.epsilon_map", "tensor.lift_to_triple",
        "tensor.eta_minus_delta_matrix", "tensor.eta_minus_delta_tensor_id_matrix",
        "tensor.glued_tensor_subspace_basis", "numlin.kernel_basis", "numlin.subspace_gap",
    },
}
NONZERO_COUNTS = {
    "glue-ladder": {"glue.constraint_bytes", "glue.guard_bytes", "numlin.kernel_basis.in_glue.total_s"},
    "descent-ladder": {"tensor.descent_matrix_bytes", "numlin.kernel_basis.in_descent.total_s",
                       "numlin.subspace_gap.in_descent.total_s"},
    "suite": set(),
}


def spans_for(workload):
    if workload in LADDER_SPANS:
        return LADDER_SPANS[workload]
    return {name for name, _, _ in tracer.SPANS} - set().union(*LADDER_SPANS.values())


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def test_benchmark_json_matches_the_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["perfbench"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == tracer.per_layer_metric_units()
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]] + [
        w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in BENCH["end_to_end"] + BENCH["per_layer"])
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_passes_its_checks(workload):
    result = result_of(bench(workload, trace=0))
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_covers_its_spans(workload):
    result = result_of(bench(workload, trace=1))
    metrics = result["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == tracer.per_layer_metric_units()
    for span in spans_for(workload):
        key = f"{span}.total_s" if span.startswith("suite.") else f"{span}.calls"
        assert metrics[key]["value"] >= (1 if key.endswith(".calls") else 1e-9), key
    for key in NONZERO_COUNTS[workload]:
        assert metrics[key]["value"] > 0, key
    assert (HERE / "out" / f"spans-{workload}-seed3.json").is_file()


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("glue-ladder", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
