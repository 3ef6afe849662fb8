"""Smoke test of the benchmark itself, on tiny grids.

    python3 -m pytest -q -p no:cacheprovider nlbench/test_smoke.py

Checks that every named metric is printed with its unit, that a perturbed
solution is counted as a failure (so the correctness checks are not
vacuous), that the computed kernel counts repeat exactly, and that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = (
    "linsys.lu_solve.calls",
    "linsys.factorizations_per_solve",
    "linsys.flop_computed",
    "linsys.bytes_computed",
    "assembly.build_arrays.calls",
    "assembly.build_arrays.wide_calls",
    "expr.differentiate.calls",
    "expr.differentiate.nodes_out",
    "expr.differentiate.unique_ratio",
    "chain.reduce_chain.g_nodes",
)


def run(root: Path, workload: str, *flags: str, trace: int = 0, seed: int = 3):
    command = [
        sys.executable, str(root / "nlbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *flags,
    ]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_pass_prints_every_metric_with_its_unit(workload, trace):
    out = result(run(ROOT, workload, "--smoke", trace=trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_solutions_are_counted_as_failures(workload):
    out = result(run(ROOT, workload, "--smoke", "--perturb"))
    assert not out["correct"]
    assert out["failed"] == out["attempted"] > 0


def test_kernel_counts_repeat_exactly():
    first, second = (result(run(ROOT, "ring", "--smoke", trace=1))["metrics"] for _ in range(2))
    assert {k: first[k]["value"] for k in COUNTS} == {k: second[k]["value"] for k in COUNTS}
    assert first["linsys.factorizations_per_solve"]["value"] == 3


def test_refuses_to_run_without_program_sources():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = run(bare, "tables")
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(bare)
