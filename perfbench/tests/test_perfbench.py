"""Tests of the benchmark itself. Run from the root of the repository:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
import simplexnest  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from simplexnest import vlad  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, float) and np.isfinite(value)
        assert any(line.startswith(f"metric {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines)
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "desk_sweep", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _projection_calls(B, X, **kwargs) -> int:
    tracer = tracing.Tracer()
    with tracer:
        vlad.simplex_least_squares(B, X, **kwargs)
    return tracer.counts[None]["vlad.project_rows_onto_simplex.calls"]


def test_projection_calls_equal_iteration_count():
    rng = np.random.default_rng(0)
    B = rng.normal(size=(5, 3))
    X = rng.normal(size=(4, 5))
    # A negative tolerance is never met, so the loop runs to its cap.
    assert _projection_calls(B, X, tol=-1.0, max_iter=7) == 7
    # With B = I and rows already on the simplex, iteration 1 lands on the
    # rows and iteration 2 confirms a zero gradient mapping.
    rows = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    assert _projection_calls(np.eye(3), rows) == 2


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_and_untraced_ops_are_bit_identical(workload, tmp_path):
    spec = workloads.WORKLOADS[workload]
    state = spec.setup(5, "smoke", spec.sizes["smoke"], tmp_path)
    untraced = spec.op(state)
    originals = {name: getattr(vlad, name) for name in ("fit", "fit_auto", "simplex_least_squares")}
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer:
        assert vlad.fit is not originals["fit"]
        traced = spec.op(state)
    assert run.same_outputs(untraced.outputs, traced.outputs)
    assert untraced.accuracy == traced.accuracy
    assert tracer.spans and tracer.counts[0]
    for name, original in originals.items():
        assert getattr(vlad, name) is original
    assert simplexnest.fit is originals["fit"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["vlad.fit", 0.0, 10.0, -1, 0],
        ["numerics.truncated_svd", 1.0, 7.0, 0, 0],
        ["numerics.kmeans", 7.0, 9.0, 0, 0],
    ]
    stats = tracer.per_op_median([0], ["vlad.fit.self_s", "vlad.fit.total_s",
                                       "numerics.kmeans.self_s", "baselines.spa.self_s"])
    assert stats == {"vlad.fit.self_s": 2.0, "vlad.fit.total_s": 10.0,
                     "numerics.kmeans.self_s": 2.0, "baselines.spa.self_s": 0.0}
    assert tracer.root_time(0) == 10.0
