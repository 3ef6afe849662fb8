"""One benchmark process: import nlosc, build a workload's inputs, run passes.

Started by run.py, once per setup sample with --setup-only and once for the
measured run.  It reports, as the last line of its standard output, one JSON
object with the time.monotonic() stamp at which set-up finished (the clock
is shared by all processes, so run.py can subtract its spawn stamp) and,
for a measured run, every pass it made.

Untraced passes time each solve request from outside.  With --trace 1 the
passes alternate untraced and traced, and the traced ones record spans at
every layer boundary (see spans.py); their per-layer metrics are returned
per pass.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# a probe costs about 8 ms and disturbs the caches, so requests shorter than
# this share one
PROBE_INTERVAL_S = 0.1


class Requests:
    """Latency, spans and failures of the solve requests in one pass.

    Times are kept raw and in nominal seconds (see speed.py).  The reference
    kernel runs when the pass starts, before a request once PROBE_INTERVAL_S
    has passed since the last probe, and when the pass ends.  The speed
    factor is interpolated linearly between probes, and a stretch of time in
    nominal seconds is the factor's integral over it.  Probes and the
    benchmark's own checks run untimed, off the pass clock and off the span
    clock.
    """

    def __init__(self, recorder: spans.SpanRecorder | None):
        self.recorder = recorder
        self.digits: list[float] = []
        self.attempted = 0
        self.failed = 0
        self._probes: list[tuple[float, float]] = []  # (time, factor)
        self._timed: list[tuple[float, float]] = []  # stretches the pass clock counts
        self._requests: list[tuple[float, float]] = []
        self._segment = time.perf_counter()
        self._probe()

    @contextmanager
    def untimed(self):
        now = time.perf_counter()
        self._timed.append((self._segment, now))
        try:
            yield
        finally:
            self._segment = time.perf_counter()
            if self.recorder is not None:
                self.recorder.skip(self._segment - now)

    def _probe(self) -> None:
        with self.untimed():
            factor = speed.factor()
            self._probes.append((time.perf_counter(), factor))

    def call(self, fn, *args, **kwargs):
        if time.perf_counter() - self._probes[-1][0] >= PROBE_INTERVAL_S:
            self._probe()
        span = self.recorder.begin("request") if self.recorder else None
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._requests.append((start, time.perf_counter()))
            if span is not None:
                self.recorder.end(span)

    def end(self) -> dict:
        """Close the pass; its wall time and request latencies, raw and nominal."""
        self._probe()
        times = np.array([t for t, _ in self._probes])
        factors = np.array([f for _, f in self._probes])

        def nominal(start: float, end: float) -> float:
            inside = times[(times > start) & (times < end)]
            points = np.concatenate(([start], inside, [end]))
            values = np.interp(points, times, factors)
            return float(np.sum((values[1:] + values[:-1]) / 2 * np.diff(points)))

        return {
            "wall_s": sum(nominal(s, e) for s, e in self._timed),
            "raw_wall_s": sum(e - s for s, e in self._timed),
            "latencies_s": [nominal(s, e) for s, e in self._requests],
            "raw_latencies_s": [e - s for s, e in self._requests],
            "speed_factors": factors.tolist(),
        }

    def outcome(self, ok: bool, error: float | None) -> None:
        self.attempted += 1
        if ok and error is not None:
            self.digits.append(workloads.digits(error))
        else:
            self.failed += 1


class FineGrid:
    """Four built-in cases at n = 512 and 1024, through Method.solve."""

    def __init__(self, seed: int, smoke: bool, perturb: bool, workdir: Path):
        self.plan = workloads.fine_grid_plan(seed, smoke)
        self.perturb = perturb

    def setup(self) -> None:
        from nlosc.verify import METHODS, builtin_cases

        cases = {case.case_id: case for case in builtin_cases()}
        self.inputs = [(cases[c], METHODS[m], n) for c, m, n in self.plan]

    def run_pass(self, requests: Requests) -> None:
        for case, method, n in self.inputs:
            try:
                solution = requests.call(method.solve, case.ivp, n)
                with requests.untimed():
                    y = solution.y + workloads.PERTURBATION if self.perturb else solution.y
                    error, scale = workloads.direct_error(solution.t, y, workloads.EXACT[case.case_id])
            except Exception as exc:  # a raising solve is a failed solve
                print(f"fine-grid case {case.case_id} n={n}: {exc!r}", file=sys.stderr)
                requests.outcome(False, None)
                continue
            requests.outcome(workloads.direct_ok(error, scale), error)


class Tables:
    """All eight tables through reproduce_table and render_table, as
    `nlosc table` runs them; every Method.solve inside is one request."""

    def __init__(self, seed: int, smoke: bool, perturb: bool, workdir: Path):
        self.plan = workloads.table_plan(seed, smoke)
        self.perturb = perturb

    def setup(self) -> None:
        self.verify = importlib.import_module("nlosc.verify")

    def run_pass(self, requests: Requests) -> None:
        Method = self.verify.Method
        original = Method.solve
        captured: list = []

        def timed_solve(method, ivp, n):
            solution = requests.call(original, method, ivp, n)
            captured.append(solution)
            return solution

        Method.solve = timed_solve
        try:
            for table_id in self.plan:
                captured.clear()
                self._one_table(table_id, captured, requests)
        finally:
            Method.solve = original

    def _one_table(self, table_id: int, captured: list, requests: Requests) -> None:
        _, ns, columns = workloads.TABLE_LAYOUT[table_id]
        try:
            table = self.verify.reproduce_table(table_id)
            self.verify.render_table(table)
        except Exception as exc:  # every cell of a raising table fails
            print(f"table {table_id}: {exc!r}", file=sys.stderr)
            for _ in range(len(ns) * len(columns)):
                requests.outcome(False, None)
            return
        with requests.untimed():
            self._check_table(table_id, table, captured, requests)

    def _check_table(self, table_id: int, table, captured: list, requests: Requests) -> None:
        exact = workloads.EXACT[workloads.TABLE_LAYOUT[table_id][0]]
        errors: dict[tuple[int, str], float] = {}
        for solution in captured:
            y = solution.y + workloads.PERTURBATION if self.perturb else solution.y
            errors[(solution.n, solution.method)] = workloads.direct_error(solution.t, y, exact)[0]
        verdict = workloads.table_cells_ok(table_id, errors)
        for (n, column), ok in verdict.items():
            error = errors.get((n, column))
            if error is not None:
                # the table the program prints must carry the error we measured
                reported = table.cell(n, column)
                ok = ok and abs(reported - error) <= 1e-13 + 1e-6 * error
            requests.outcome(ok, error)


class Ring:
    """`nlosc solve` in-process on generated ring configs, CSV to a temp dir."""

    def __init__(self, seed: int, smoke: bool, perturb: bool, workdir: Path):
        self.plan = workloads.ring_plan(seed, smoke)
        self.perturb = perturb
        self.workdir = workdir

    def setup(self) -> None:
        self.cli = importlib.import_module("nlosc.cli")
        self.inputs = []
        for i, solve in enumerate(self.plan):
            config = self.workdir / f"config{i}.json"
            config.write_text(json.dumps(solve.config), encoding="utf-8")
            self.cli.load_config(str(config))  # validated as the CLI reads it
            self.inputs.append((solve, str(config), str(self.workdir / f"grid{i}.csv")))

    def run_pass(self, requests: Requests) -> None:
        for solve, config, out in self.inputs:
            try:
                status = requests.call(self.cli.main, ["solve", "--config", config, "--out", out])
                if status != 0:
                    raise RuntimeError(f"nlosc solve exited with {status}")
                with requests.untimed():
                    errors, ok = self._check(solve, out)
            except Exception as exc:  # a raising or unreadable solve fails
                print(f"ring {solve.name}: {exc!r}", file=sys.stderr)
                requests.outcome(False, None)
                continue
            requests.outcome(ok, max(errors))

    def _check(self, solve: workloads.RingSolve, out: str) -> tuple[list[float], bool]:
        with open(out, encoding="utf-8") as handle:
            header = handle.readline().strip().split(",")
            data = np.loadtxt(handle, delimiter=",", ndmin=2)
        count = len(solve.exact)
        paths = np.stack([data[:, header.index(f"y{k}")] for k in range(1, count + 1)])
        if self.perturb:
            paths = paths + workloads.PERTURBATION
        return workloads.ring_errors(data[:, header.index("t")], paths, solve.exact)


WORKLOAD_CLASSES = {"fine-grid": FineGrid, "tables": Tables, "ring": Ring}


def run_passes(workload, seconds: float, trace: bool, out_name: str) -> list[dict]:
    """Passes until the next would end past `seconds`; with tracing,
    alternate untraced and traced passes, at least one of each."""
    recorder = spans.SpanRecorder()
    boundaries = spans.Boundaries(recorder)
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        first_span = len(recorder.spans)
        requests = Requests(recorder if traced else None)
        if traced:
            boundaries.install()
        try:
            workload.run_pass(requests)
        finally:
            boundaries.remove()
        record = {
            "traced": traced,
            **requests.end(),
            "digits": requests.digits,
            "attempted": requests.attempted,
            "failed": requests.failed,
        }
        if traced:
            record["layers"] = spans.layer_metrics(recorder.spans[first_span:], len(record["latencies_s"]))
        passes.append(record)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if trace else 1)
        if enough and elapsed + elapsed / len(passes) > seconds:
            break
    if trace:
        recorder.write(OUT_DIR / f"spans-{out_name}.json")
    return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--perturb", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "nlosc" / "__init__.py").is_file():
        print(f"no nlosc sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    import nlosc  # noqa: F401  (set-up cost: part of what setup_s measures)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, args.smoke, args.perturb, Path(workdir))
        workload.setup()
        ready = time.monotonic()
        report: dict = {"ready": ready}
        if not args.setup_only:
            out_name = f"{args.workload}-seed{args.seed}"
            report["passes"] = run_passes(workload, args.seconds, bool(args.trace), out_name)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
