"""nlosc benchmark: one workload, measured from outside the program.

Usage, from the root of a checkout:

    python3 nlbench/run.py --workload fine-grid|tables|ring --seed N \
        --seconds S --trace 0|1

Each run starts fresh worker processes (worker.py) with BLAS threads capped
at the number of usable cores.  SETUP_SAMPLES of them only set up, and one
also runs the workload for about S seconds in passes.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, times in nominal
seconds (see speed.py):

    setup_s          median time from spawning a worker to its first solve
                     call: interpreter start, import nlosc, building inputs
    wall_s           median wall time of one pass over the workload
    solve_ms_p50     median latency of one solve request over the run
    accuracy_digits  mean over solves of -log10(max-abs error)
    peak_rss_mb      peak resident memory of the worker

With --trace 1 the worker alternates untraced and traced passes and the
metrics are per layer (see spans.py), each the median over traced passes,
plus trace.overhead_s = median traced wall_s - median untraced wall_s.

A line starting with "provenance " precedes the result, and the full record
(provenance, every pass) goes to .bench_out/result-<workload>-seed<N>-trace<T>.json.
--smoke runs tiny grids and --perturb shifts every solution, so that each
solve must fail its check; both exist for test_smoke.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# setup_s is the median over this many fresh processes plus the measured one
SETUP_SAMPLES = 8
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_TIMEOUT_S = 60.0
# a run stops starting passes at --seconds; this covers the last pass
RUN_GRACE_S = 100.0


class BenchmarkError(RuntimeError):
    """The run could not produce a result."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, blas_threads: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "blas_threads": blas_threads,
        "blas_thread_vars": list(BLAS_THREAD_VARS),
    }


def _worker(args, env: dict, extra: list[str], timeout: float) -> tuple[dict, float]:
    """Run one worker; return its report and its spawn stamp."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    command += ["--smoke"] * args.smoke + ["--perturb"] * args.perturb + extra
    spawned = time.monotonic()
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker timed out after {timeout:.0f}s") from exc
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchmarkError(f"worker exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no report")
    return json.loads(lines[-1]), spawned


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict], setup: list[float], peak_rss_mb: float) -> dict:
    latencies = [s for p in passes for s in p["latencies_s"]]
    digits = [d for p in passes for d in p["digits"]]
    return {
        "setup_s": {"value": _median(setup), "unit": "s"},
        "wall_s": {"value": _median([p["wall_s"] for p in passes]), "unit": "s"},
        "solve_ms_p50": {"value": 1000.0 * _median(latencies), "unit": "ms"},
        "accuracy_digits": {"value": statistics.fmean(digits) if digits else 0.0, "unit": "digits"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = {"value": _median([p["layers"][name] for p in traced]), "unit": _unit(name)}
    overhead = _median([p["wall_s"] for p in traced]) - _median([p["wall_s"] for p in plain])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("flop_computed"):
        return "flop"
    if name.endswith("bytes_computed"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nlosc benchmark: run one workload")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for the smoke test")
    parser.add_argument("--perturb", action="store_true", help="shift every solution, for the smoke test")
    args = parser.parse_args(argv)

    blas_threads = _nproc()
    env = dict(os.environ)
    env.update({var: str(blas_threads) for var in BLAS_THREAD_VARS})
    OUT_DIR.mkdir(exist_ok=True)

    try:
        raw_setup, setup = [], []
        for extra in [["--setup-only"]] * SETUP_SAMPLES + [[]]:
            timeout = SETUP_TIMEOUT_S if extra else args.seconds + RUN_GRACE_S
            factor = speed.factor()
            report, spawned = _worker(args, env, extra, timeout)
            raw_setup.append(report["ready"] - spawned)
            setup.append(raw_setup[-1] * factor)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = report["passes"]
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setup, report["peak_rss_mb"])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "provenance": provenance(args, blas_threads),
        "setup_samples_s": setup,
        "raw_setup_samples_s": raw_setup,
        "peak_rss_mb": report["peak_rss_mb"],
        "passes": passes,
        "result": result,
    }
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
