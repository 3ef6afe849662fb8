"""Command-line front end.

Subcommands
-----------
reduce       print the reduced initial value problem of a chain config (JSON)
solve        solve a chain or ivp config and write a grid CSV
table        recompute one of the built-in benchmark tables (1..8)
convergence  observed convergence slopes for a built-in case and method

Configs are JSON documents; every mathematical quantity may be written as
a closed-form expression string (forces, f, g, the exact solution) and
numeric initial data may be given either as JSON numbers or as expression
strings, which are evaluated at the interval's left endpoint.  Weight sets
are exact rationals written "p/q".  CSV output uses 17 significant digits,
'.' as the decimal separator and '\\n' line endings.

:func:`main` may be called many times in one process.  Later calls reuse
the argument parser, what the solver built once per scheme (float
weights, closure rows, head matrices, series tables, recovery rows) and
the built-in cases parsed by the first ``table`` or ``convergence`` call,
and write the same bytes as a fresh process, also after a call that
failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nlosc.chain import OscillatorChain, recover_trajectories, reduce_chain
from nlosc.expr import Expression, ExpressionError, evaluate, parse, to_text, values_on_grid
from nlosc.spline import HighOrderIVP, Method, WeightSet
from nlosc.verify import (
    METHODS,
    REFERENCE_MAX_ERRORS,
    builtin_cases,
    case_by_id,
    convergence_order,
    render_table,
    reproduce_table,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "main"]


class ConfigError(ValueError):
    """Invalid run configuration; ``path`` points at the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return obj[key]


def _expr_field(value, path: str) -> Expression:
    if not isinstance(value, str):
        raise ConfigError(path, "expected an expression string")
    try:
        return parse(value)
    except ExpressionError as exc:
        raise ConfigError(path, str(exc)) from exc


def _finite(value, path: str) -> float:
    """A JSON number inside the float range, as a float."""
    # type(), not isinstance(): a JSON true is a bool, which is an int;
    # the bound rejects inf, nan and ints past the float range
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(path, "expected a finite number")
    return float(value)


def _number_field(value, path: str, at: float) -> float:
    """A finite JSON number, or a closed-form expression evaluated at ``at``."""
    if isinstance(value, str):
        try:
            value = evaluate(parse(value), at)
        except ExpressionError as exc:
            raise ConfigError(path, str(exc)) from exc
    return _finite(value, path)


def _rational_field(value, path: str) -> Fraction:
    """An integer or a "p/q" string inside the float range, exactly."""
    # a JSON true is a bool, which is an int
    if type(value) is not int and not isinstance(value, str):
        raise ConfigError(path, 'expected an integer or a "p/q" string')
    try:
        q = Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, str(exc)) from exc
    # the solver takes the weights in floats
    if abs(q) > sys.float_info.max:
        raise ConfigError(path, "outside the float range")
    return q


def _entries(raw: dict, key: str, count: int | None, read) -> tuple:
    """``raw[key]``: a JSON list of ``count`` entries, or of at least two
    when ``count`` is None, each read as ``read(entry, "$.key[i]")``."""
    value = _need(raw, key, "$")
    if not isinstance(value, list) or (len(value) < 2 if count is None else len(value) != count):
        expected = "at least two" if count is None else count
        raise ConfigError(f"$.{key}", f"expected a list of {expected} entries")
    return tuple(read(entry, f"$.{key}[{i}]") for i, entry in enumerate(value))


def _interval_field(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(path, "expected [a, b]")
    a, b = (_finite(v, path) for v in value)
    if not a < b:
        raise ConfigError(path, f"empty interval [{a}, {b}]")
    return a, b


# method-object keys of each family: its weights from the outermost in, the
# key that names the closure, and the closure it defaults to
_FAMILIES = {
    "spline4": (("alpha", "beta", "gamma"), "end_variant", "standard"),
    "spline6": (("alpha", "beta", "gamma", "delta"), "closure", "printed"),
}


def _method_field(value, path: str) -> Method:
    if isinstance(value, str):
        if value not in METHODS:
            known = ", ".join(sorted(METHODS))
            raise ConfigError(path, f"unknown method preset {value!r} (known: {known})")
        return METHODS[value]
    if not isinstance(value, dict):
        raise ConfigError(path, "expected a preset name or a method object")
    family = _need(value, "family", path)
    if not isinstance(family, str) or family not in _FAMILIES:
        raise ConfigError(f"{path}.family", f"unknown family {family!r}")
    names, closure_key, default = _FAMILIES[family]
    known = ("family", *names, closure_key)
    for key in value:
        if key not in known:
            raise ConfigError(f"{path}.{key}", f"unknown key; {family} takes {', '.join(known)}")
    half = tuple(_rational_field(_need(value, name, path), f"{path}.{name}") for name in names)
    try:
        weights = WeightSet(half)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    try:
        return Method(f"custom-{family}", weights, value.get(closure_key, default))
    except ValueError as exc:
        raise ConfigError(f"{path}.{closure_key}", str(exc)) from exc


def _check_order(method: Method, order: int, path: str) -> None:
    """``ConfigError`` at ``path`` unless ``method`` solves problems of ``order``."""
    if method.order != order:
        raise ConfigError(
            path,
            f"method {method.name!r} solves order {method.order}, "
            f"but the problem has order {order}",
        )


@dataclass
class RunConfig:
    """A loaded config; ``ivp`` is the problem to solve, for a chain config
    the chain's reduction.  ``chain`` is None for an ivp config."""

    chain: OscillatorChain | None
    ivp: HighOrderIVP
    method: Method | None
    n: int | None
    exact: Expression | None
    raw: dict


def load_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration."""
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an int past 4300 digits
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")

    mode = _need(raw, "mode", "$")
    if mode not in ("chain", "ivp"):
        raise ConfigError("$.mode", f"expected 'chain' or 'ivp', got {mode!r}")

    interval = _interval_field(_need(raw, "interval", "$"), "$.interval")
    number = functools.partial(_number_field, at=interval[0])
    chain = None
    if mode == "chain":
        omegas = _entries(raw, "omegas", None, _finite)
        for i, w in enumerate(omegas):
            if w <= 0.0:
                raise ConfigError(f"$.omegas[{i}]", "all frequencies must be positive")
        count = len(omegas)
        forces = _entries(raw, "forces", count, _expr_field)
        positions = _entries(raw, "positions", count, number)
        velocities = _entries(raw, "velocities", count, number)
        chain = OscillatorChain(omegas, forces, interval, positions, velocities)
        try:  # the ring's coefficients now; its jets wait for the method check
            order = 2 * len(chain.coefficients)
        except ValueError as exc:  # a coefficient overflows
            raise ConfigError("$.omegas", str(exc)) from exc
    else:
        order = _need(raw, "order", "$")
        if type(order) is not int:
            raise ConfigError("$.order", "expected an integer")
        if order < 4 or order % 2 != 0:
            raise ConfigError("$.order", f"order must be an even integer >= 4, got {order}")
        u = _entries(raw, "u", order, number)
        f, g = (_expr_field(_need(raw, key, "$"), f"$.{key}") for key in ("f", "g"))
        ivp = HighOrderIVP(f=f, g=g, interval=interval, u=u)

    method = _method_field(raw["method"], "$.method") if "method" in raw else None
    n = raw.get("n")
    if n is not None and (type(n) is not int or n < 1):
        raise ConfigError("$.n", "expected a positive integer")
    exact = _expr_field(raw["exact"], "$.exact") if "exact" in raw else None
    if method is not None:
        _check_order(method, order, "$.method")
        if n is not None and n < method.min_n:
            raise ConfigError("$.n", f"method {method.name!r} needs n >= {method.min_n}")
    if chain is not None:
        ivp = reduce_chain(chain)
    return RunConfig(chain=chain, ivp=ivp, method=method, n=n, exact=exact, raw=raw)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_reduce(args) -> int:
    config = load_config(args.config)
    if config.chain is None:
        raise ConfigError("$.mode", "reduce expects a chain config")
    ivp = config.ivp
    payload = {
        "mode": "ivp",
        "order": ivp.order,
        "f": to_text(ivp.f),
        "g": to_text(ivp.g),
        "interval": list(ivp.interval),
        "u": list(ivp.u),
    }
    for key in ("method", "n", "exact"):
        if key in config.raw:
            payload[key] = config.raw[key]
    print(json.dumps(payload, indent=2))
    return 0


def _solve_config(config: RunConfig):
    if config.method is None:
        raise ConfigError("$.method", "missing required field")
    if config.n is None:
        raise ConfigError("$.n", "missing required field")
    solution = config.method.solve(config.ivp, config.n)
    columns = [("t", solution.t), ("y", solution.y)]
    if config.chain is not None:
        paths = recover_trajectories(config.chain, solution)
        columns += [(f"y{k}", path) for k, path in enumerate(paths, start=1)]
    if config.exact is not None:
        reference = values_on_grid(config.exact, solution.t)
        columns.append(("error", abs(reference - solution.y)))
    return columns


def _write_csv(columns, stream) -> None:
    """Write ``(name, values)`` columns as CSV, each value "%.17g"."""
    stream.write(",".join(name for name, _ in columns) + "\n")
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    values = [np.asarray(v).tolist() for _, v in columns]
    stream.writelines(row % line for line in zip(*values))


def _write_csv_file(columns, path: str, flag: str) -> None:
    """Write the columns as CSV to ``path``; a file that cannot be opened
    is a ``ConfigError`` naming ``flag``."""
    try:
        handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(flag, f"cannot write CSV: {exc}") from exc
    with handle:
        _write_csv(columns, handle)


def _cmd_solve(args) -> int:
    columns = _solve_config(load_config(args.config))
    if args.out:
        _write_csv_file(columns, args.out, "--out")
    else:
        _write_csv(columns, sys.stdout)
    return 0


def _cmd_table(args) -> int:
    table = reproduce_table(args.id)
    csv_columns = [("n", table.ns), *zip(table.columns, table.values.T)]
    # a --csv path that cannot be written fails before anything is printed
    if args.csv:
        _write_csv_file(csv_columns, args.csv, "--csv")
    print(render_table(table))
    if not args.csv:
        print()
        _write_csv(csv_columns, sys.stdout)
    return 0


def _grid_sizes(text: str, method: Method) -> list[int]:
    """The ``--n`` list: at least two comma-separated integers, strictly
    increasing, each at least ``method.min_n``; ``ConfigError`` naming
    ``--n`` otherwise."""
    try:
        ns = [int(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError("--n", f"expected comma-separated integers, got {text!r}") from None
    if len(ns) < 2:
        raise ConfigError("--n", f"a slope needs at least two grid sizes, got {text!r}")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ConfigError("--n", f"grid sizes must be strictly increasing, got {text!r}")
    if ns[0] < method.min_n:
        raise ConfigError(
            "--n", f"grid too coarse: n={ns[0]} but {method.name} needs n >= {method.min_n}"
        )
    return ns


def _cmd_convergence(args) -> int:
    case = case_by_id(args.case)
    method = _method_field(args.method, "--method")
    _check_order(method, case.ivp.order, "--method")
    ns = _grid_sizes(args.n, method)
    slopes = convergence_order(case, method, ns)
    print(f"case {case.case_id} ({case.label}), method {method.name}")
    for (na, nb), slope in zip(zip(ns, ns[1:]), slopes):
        print(f"n={na}->{nb}: slope {slope:.3f}")
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="nlosc",
        description="Nonlocal oscillator rings via high-order spline collocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_reduce = sub.add_parser("reduce", help="print the reduced problem of a chain config")
    p_reduce.add_argument("--config", required=True)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_solve = sub.add_parser("solve", help="solve a config and emit a grid CSV")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", help="CSV output path (default: stdout)")
    p_solve.set_defaults(func=_cmd_solve)

    p_table = sub.add_parser("table", help="recompute a benchmark table")
    p_table.add_argument("--id", type=int, required=True, choices=sorted(REFERENCE_MAX_ERRORS))
    p_table.add_argument("--csv", help="also write the table as CSV to this path")
    p_table.set_defaults(func=_cmd_table)

    p_conv = sub.add_parser("convergence", help="observed convergence slopes")
    case_ids = [case.case_id for case in builtin_cases()]
    p_conv.add_argument("--case", type=int, required=True, choices=case_ids)
    p_conv.add_argument("--method", required=True)
    p_conv.add_argument("--n", required=True, help="comma-separated grid sizes, e.g. 6,12,24")
    p_conv.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ExpressionError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
