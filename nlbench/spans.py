"""Span recorder and layer boundaries for the traced benchmark run.

Spans are recorded from outside the program: each boundary function is
replaced, at every name an `nlosc` module bound it to, by a wrapper that
opens a span around the call.  A boundary the program no longer has reads as
zero calls.  Spans stay in memory and are written out when the run ends.

Kernel counts (factorizations, flops, matrix bytes, expression-tree sizes)
are computed from call arguments and results.  The time spent computing them
is taken off the span clock, so it shows only in trace.overhead_s.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict

LAYERS = ("expr", "chain", "assembly", "linsys", "spline4", "spline6", "verify", "cli")

# Every count hook may meet a later signature of the function it inspects;
# these are the errors that means, and the count is then left out.
_SHAPE_ERRORS = (AttributeError, TypeError, IndexError, KeyError, ValueError)


class SpanRecorder:
    """Spans as [id, name, start, end, parent, counts], in call order."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self._paused = 0.0

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        span = [len(self.spans), name, self.now(), None, parent, None]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = self.now()
        self._stack.pop()

    def skip(self, seconds: float) -> None:
        """Take time spent outside the program off the span clock."""
        self._paused += seconds

    def count(self, span: list, hook, args, kwargs, result) -> None:
        """Attach hook(args, kwargs, result) to the span, off the clock."""
        start = time.perf_counter()
        try:
            span[5] = hook(args, kwargs, result)
        except _SHAPE_ERRORS:
            span[5] = None
        self.skip(time.perf_counter() - start)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "counts"], "spans": self.spans},
                handle,
                default=repr,
            )


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] += span[3] - span[2]
    return {span[0]: span[3] - span[2] - child_time[span[0]] for span in spans}


# ---------------------------------------------------------------------------
# expression trees, walked generically so no node type is hard-coded
# ---------------------------------------------------------------------------


def _children(node):
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            yield value


def tree_size(root) -> int:
    """Node count of the expression as a tree (shared subtrees counted
    every time they occur), computed over the shared DAG."""
    memo: dict[int, int] = {}

    def size(node) -> int:
        key = id(node)
        if key not in memo:
            memo[key] = 1 + sum(size(child) for child in _children(node))
        return memo[key]

    return size(root)


def fingerprint(root) -> int:
    """Structural hash of an expression, equal for equal trees."""
    memo: dict[int, int] = {}

    def walk(node) -> int:
        key = id(node)
        if key not in memo:
            leaves = tuple(
                getattr(node, f.name)
                for f in dataclasses.fields(node)
                if not dataclasses.is_dataclass(getattr(node, f.name))
            )
            memo[key] = hash((type(node).__name__, leaves, tuple(walk(c) for c in _children(node))))
        return memo[key]

    return walk(root)


# ---------------------------------------------------------------------------
# count hooks: (args, kwargs, result) -> dict
# ---------------------------------------------------------------------------


def _lu_counts(args, kwargs, result):
    system = args[0] if args else kwargs["system"]
    return {"n": int(system.size), "bytes": int(system.matrix.nbytes)}


def _build_counts(args, kwargs, result):
    matrix = result[0]
    return {"bytes": int(matrix.nbytes), "wide": matrix.dtype.itemsize > 8}


def _differentiate_counts(args, kwargs, result):
    expression = args[0] if args else kwargs["e"]
    k = args[1] if len(args) > 1 else kwargs.get("k", 1)
    return {"nodes": tree_size(result), "key": [fingerprint(expression), int(k)]}


def _reduce_counts(args, kwargs, result):
    return {"g_nodes": tree_size(result.g)}


# (span name, defining module, attribute, count hook)
BOUNDARIES = (
    ("linsys.lu_solve", "nlosc.linsys", "lu_solve", _lu_counts),
    ("assembly.build_arrays", "nlosc._assembly", "build_arrays", _build_counts),
    ("assembly.solve_collocation", "nlosc._assembly", "solve_collocation", None),
    ("expr.parse", "nlosc.expr", "parse", None),
    ("expr.differentiate", "nlosc.expr", "differentiate", _differentiate_counts),
    ("expr.as_array_function", "nlosc.expr", "as_array_function", None),
    ("expr.values_on_grid", "nlosc.expr", "values_on_grid", None),
    ("spline4.solve4", "nlosc.spline4", "solve4", None),
    ("spline6.solve6", "nlosc.spline6", "solve6", None),
    ("spline6.series_start", "nlosc.spline6", "_series_start_rows", None),
    ("chain.reduce_chain", "nlosc.chain", "reduce_chain", _reduce_counts),
    ("chain.initial_derivatives", "nlosc.chain", "initial_derivatives", None),
    ("chain.recover_trajectories", "nlosc.chain", "recover_trajectories", None),
    ("verify.reproduce_table", "nlosc.verify", "reproduce_table", None),
    ("verify.max_abs_error", "nlosc.verify", "max_abs_error", None),
    ("cli.load_config", "nlosc.cli", "load_config", None),
    ("cli.main", "nlosc.cli", "main", None),
)


def _wrap(recorder: SpanRecorder, name: str, fn, hook):
    def wrapper(*args, **kwargs):
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if hook is not None:
            recorder.count(span, hook, args, kwargs, result)
        return result

    return wrapper


class Boundaries:
    """Installs span wrappers at every binding of each boundary function."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "nlosc" and m]
        for name, module_name, attr, hook in BOUNDARIES:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = _wrap(self.recorder, name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def remove(self) -> None:
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(spans: list[list], requests: int) -> dict[str, float]:
    """Per-layer metrics of the spans of one pass with `requests` solves."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, list] = defaultdict(list)
    for span in spans:
        calls[span[1]] += 1
        self_s[span[1]] += own[span[0]]
        if span[5] is not None:
            counts[span[1]].append(span[5])

    out: dict[str, float] = {}
    for name, *_ in BOUNDARIES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    out["requests.total_s"] = sum(span[3] - span[2] for span in spans if span[1] == "request")

    lu = counts["linsys.lu_solve"]
    built = counts["assembly.build_arrays"]
    derivs = counts["expr.differentiate"]
    out["linsys.factorizations_per_solve"] = calls["linsys.lu_solve"] / requests if requests else 0.0
    out["linsys.flop_computed"] = sum(2 * c["n"] ** 3 / 3 for c in lu)
    out["linsys.bytes_computed"] = sum(c["bytes"] for c in lu) + sum(c["bytes"] for c in built)
    out["assembly.build_arrays.wide_calls"] = sum(1 for c in built if c["wide"])
    out["expr.differentiate.nodes_out"] = sum(c["nodes"] for c in derivs)
    distinct = {tuple(c["key"]) for c in derivs}
    out["expr.differentiate.unique_ratio"] = len(distinct) / len(derivs) if derivs else 0.0
    out["chain.reduce_chain.g_nodes"] = sum(c["g_nodes"] for c in counts["chain.reduce_chain"])
    return out
