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

The environment variable NLOSC_ORACLE_STEPS overrides the default
resolution of the reference integrator in :mod:`nlosc.verify`.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from nlosc.chain import HighOrderIVP, OscillatorChain, recover_trajectories, reduce_chain
from nlosc.expr import Expression, ExpressionError, evaluate, parse, to_text, values_on_grid
from nlosc.spline import WeightSet
from nlosc.verify import (
    METHODS,
    Method,
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


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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


def _number_field(value, path: str, at: float) -> float:
    """A JSON number, or a closed-form expression evaluated at ``at``."""
    if isinstance(value, bool):
        raise ConfigError(path, "expected a number")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return evaluate(parse(value), at)
        except ExpressionError as exc:
            raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, "expected a number or expression string")


def _rational_field(value, path: str) -> Fraction:
    try:
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(path, 'expected an integer or a "p/q" string')


def _interval_field(value, path: str) -> tuple[float, float]:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(path, "expected [a, b]")
    a, b = (float(v) for v in value)
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
    weights = WeightSet(half)
    try:
        return Method(f"custom-{family}", weights, value.get(closure_key, default))
    except ValueError as exc:
        raise ConfigError(f"{path}.{closure_key}", str(exc)) from exc


@dataclass
class RunConfig:
    """A loaded config; ``ivp`` is the problem to solve, for a chain config
    the chain's reduction."""

    mode: str
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
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")

    mode = _need(raw, "mode", "$")
    if mode not in ("chain", "ivp"):
        raise ConfigError("$.mode", f"expected 'chain' or 'ivp', got {mode!r}")

    chain = None
    if mode == "chain":
        interval = _interval_field(_need(raw, "interval", "$"), "$.interval")
        omegas = _need(raw, "omegas", "$")
        if not isinstance(omegas, list) or len(omegas) < 2:
            raise ConfigError("$.omegas", "expected a list of at least two frequencies")
        count = len(omegas)
        forces_raw = _need(raw, "forces", "$")
        if not isinstance(forces_raw, list) or len(forces_raw) != count:
            raise ConfigError("$.forces", f"expected {count} force expressions")
        forces = tuple(
            _expr_field(text, f"$.forces[{i}]") for i, text in enumerate(forces_raw)
        )
        positions_raw = _need(raw, "positions", "$")
        velocities_raw = _need(raw, "velocities", "$")
        for name, seq in (("positions", positions_raw), ("velocities", velocities_raw)):
            if not isinstance(seq, list) or len(seq) != count:
                raise ConfigError(f"$.{name}", f"expected {count} entries")
        positions = tuple(
            _number_field(v, f"$.positions[{i}]", interval[0])
            for i, v in enumerate(positions_raw)
        )
        velocities = tuple(
            _number_field(v, f"$.velocities[{i}]", interval[0])
            for i, v in enumerate(velocities_raw)
        )
        try:
            chain = OscillatorChain(
                omegas=tuple(float(w) for w in omegas),
                forces=forces,
                interval=interval,
                positions=positions,
                velocities=velocities,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("$", str(exc)) from exc
        ivp = reduce_chain(chain)
    else:
        interval = _interval_field(_need(raw, "interval", "$"), "$.interval")
        order = _need(raw, "order", "$")
        if not isinstance(order, int):
            raise ConfigError("$.order", "expected an integer")
        u_raw = _need(raw, "u", "$")
        if not isinstance(u_raw, list):
            raise ConfigError("$.u", "expected a list")
        u = tuple(_number_field(v, f"$.u[{i}]", interval[0]) for i, v in enumerate(u_raw))
        try:
            ivp = HighOrderIVP(
                order=order,
                f=_expr_field(_need(raw, "f", "$"), "$.f"),
                g=_expr_field(_need(raw, "g", "$"), "$.g"),
                interval=interval,
                u=u,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError("$", str(exc)) from exc

    method = _method_field(raw["method"], "$.method") if "method" in raw else None
    n = raw.get("n")
    if n is not None and (not isinstance(n, int) or n < 1):
        raise ConfigError("$.n", "expected a positive integer")
    exact = _expr_field(raw["exact"], "$.exact") if "exact" in raw else None

    config = RunConfig(
        mode=mode, chain=chain, ivp=ivp, method=method, n=n, exact=exact, raw=raw
    )
    if method is not None:
        order = ivp.order
        if method.order != order:
            raise ConfigError(
                "$.method",
                f"method {method.name!r} solves order {method.order}, "
                f"but the problem has order {order}",
            )
        if n is not None and n < method.min_n:
            raise ConfigError("$.n", f"method {method.name!r} needs n >= {method.min_n}")
    return config


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_reduce(args) -> int:
    config = load_config(args.config)
    if config.mode != "chain":
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
    if config.mode == "chain":
        paths = recover_trajectories(config.chain, solution)
        for k in range(1, config.chain.size + 1):
            columns.append((f"y{k}", paths.oscillator(k)))
    if config.exact is not None:
        reference = values_on_grid(config.exact, solution.t)
        columns.append(("error", abs(reference - solution.y)))
    return columns


def _write_csv(columns, stream) -> None:
    stream.write(",".join(name for name, _ in columns) + "\n")
    length = len(columns[0][1])
    for i in range(length):
        stream.write(",".join(_fmt(values[i]) for _, values in columns) + "\n")


def _cmd_solve(args) -> int:
    columns = _solve_config(load_config(args.config))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            _write_csv(columns, handle)
    else:
        _write_csv(columns, sys.stdout)
    return 0


def _cmd_table(args) -> int:
    table = reproduce_table(args.id)
    print(render_table(table))
    csv_columns = [("n", list(table.ns))]
    for j, name in enumerate(table.columns):
        csv_columns.append((name, [table.values[i, j] for i in range(len(table.ns))]))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as handle:
            _write_csv(csv_columns, handle)
    else:
        print()
        _write_csv(csv_columns, sys.stdout)
    return 0


def _cmd_convergence(args) -> int:
    case = case_by_id(args.case)
    if args.method not in METHODS:
        raise ConfigError("--method", f"unknown method preset {args.method!r}")
    method = METHODS[args.method]
    ns = [int(part) for part in args.n.split(",")]
    if case.ivp.order != method.order:
        raise ConfigError(
            "--method", f"case {args.case} has order {case.ivp.order}, method solves {method.order}"
        )
    slopes = convergence_order(case, method, ns)
    print(f"case {case.case_id} ({case.label}), method {method.name}")
    for (na, nb), slope in zip(zip(ns, ns[1:]), slopes):
        print(f"n={na}->{nb}: slope {slope:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlosc",
        description="Nonlocal oscillator rings via high-order spline collocation.",
        epilog="NLOSC_ORACLE_STEPS overrides the reference-integrator resolution.",
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
    p_table.add_argument("--id", type=int, required=True, choices=range(1, 9))
    p_table.add_argument("--csv", help="also write the table as CSV to this path")
    p_table.set_defaults(func=_cmd_table)

    p_conv = sub.add_parser("convergence", help="observed convergence slopes")
    p_conv.add_argument("--case", type=int, required=True, choices=range(1, 5))
    p_conv.add_argument("--method", required=True)
    p_conv.add_argument("--n", required=True, help="comma-separated grid sizes, e.g. 6,12,24")
    p_conv.set_defaults(func=_cmd_convergence)

    args = parser.parse_args(argv)
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
