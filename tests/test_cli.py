"""Tests for the command-line front end."""

import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import nlosc
from conftest import exact_ring, integrate_chain, mp_elimination, rk_oracle
from nlosc.chain import reduce_chain
from nlosc.cli import ConfigError, _write_csv, load_config, main
from nlosc.expr import Const, evaluate, parse, to_text, values_on_grid
from nlosc.verify import METHODS, case_by_id
from test_spline6 import product_ring


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def chain_config():
    return {
        "mode": "chain",
        "omegas": [1.0, 1.0],
        "forces": ["0", "-4*cos(t)"],
        "interval": [-1, 1],
        "positions": ["-2*cos(1)-2*sin(1)", "-2*sin(1)"],
        "velocities": ["-sin(1)+2*cos(1)", "2*cos(1)+sin(1)"],
        "method": "improved4",
        "n": 48,
        "exact": "(1-t)*sin(t)",
    }


def case_config(case_id, method, n):
    """An ivp config of a built-in case."""
    case = case_by_id(case_id)
    ivp = case.ivp
    return {
        "mode": "ivp",
        "order": ivp.order,
        "f": to_text(ivp.f),
        "g": to_text(ivp.g),
        "interval": list(ivp.interval),
        "u": list(ivp.u),
        "method": method,
        "n": n,
        "exact": to_text(case.exact),
    }


def package_env():
    """The environment of a subprocess that imports the nlosc under test,
    the source tree's or an installed copy."""
    root = str(Path(nlosc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def read_csv(text):
    lines = [line for line in text.strip().split("\n") if line]
    header = lines[0].split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    return header, np.array(rows)


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_prints_reduced_problem(tmp_path, capsys):
    path = write_config(tmp_path, chain_config())
    assert main(["reduce", "--config", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 4
    assert payload["f"] == "-1"
    g = parse(payload["g"])
    for t in np.linspace(-1, 1, 7):
        assert evaluate(g, t) == pytest.approx(4 * math.cos(t), rel=1e-14)
    assert payload["u"][0] == pytest.approx(-2 * math.sin(1.0), abs=1e-15)
    assert payload["mode"] == "ivp" and payload["method"] == "improved4"


def test_reduce_prints_what_symbolic_elimination_prints(tmp_path, capsys):
    config = chain_config()
    path = write_config(tmp_path, config)
    assert main(["reduce", "--config", path]) == 0
    chain = load_config(path).chain
    u, c, g = mp_elimination(chain)
    payload = json.loads(capsys.readouterr().out)
    expected = {
        "mode": "ivp",
        "order": 4,
        "f": to_text(Const(c)),
        "g": payload["g"],
        "interval": list(chain.interval),
        "u": list(u),
        **{key: config[key] for key in ("method", "n", "exact")},
    }
    assert payload == expected
    # g is printed with diff(e, k); the reference takes its values at 40 digits
    grid = np.linspace(*chain.interval, 9)
    assert values_on_grid(parse(payload["g"]), grid) == pytest.approx(
        g(grid), rel=1e-14, abs=1e-14
    )


def test_reduced_forcing_text_of_a_product_ring_is_symbolic():
    chain, _ = product_ring()
    ivp = reduce_chain(chain)
    u, _, g = mp_elimination(chain)
    text = to_text(ivp.g)
    assert to_text(parse(text)) == text
    grid = np.linspace(*chain.interval, 9)
    assert values_on_grid(parse(text), grid) == pytest.approx(g(grid), rel=1e-12)
    # u comes from force jets in double: y'''(0) and y^(4)(0) are 1 ulp from
    # the values the 40-digit force derivatives give
    assert ivp.u == pytest.approx(u, rel=1e-14)


def ring_config(size, force):
    """A ring of ``size`` oscillators, every one driven by ``force``."""
    return {
        "mode": "chain",
        "omegas": [1.0 + 0.25 * k for k in range(size)],
        "forces": [force] * size,
        "interval": [0, 1],
        "positions": [0.5 * k for k in range(size)],
        "velocities": [1.0] * size,
    }


def test_reduced_three_ring_solves_bit_identically(tmp_path, capsys):
    config = {**ring_config(3, "exp(t)*sin(t)/(1+t^2)"), "method": "improved6", "n": 32}
    chain_path = write_config(tmp_path, config)
    assert main(["reduce", "--config", chain_path]) == 0
    ivp_path = write_config(tmp_path, json.loads(capsys.readouterr().out), name="reduced.json")
    columns = []
    for path in (chain_path, ivp_path):
        assert main(["solve", "--config", path]) == 0
        header, rows = read_csv(capsys.readouterr().out)
        columns.append(rows[:, header.index("y")])
    assert columns[0].tobytes() == columns[1].tobytes()


def test_reduced_five_ring_prints_compactly(tmp_path, capsys):
    # no method solves order 10, but reduce needs none
    path = write_config(tmp_path, ring_config(5, "exp(t)*sin(t)/(1+t^2)"))
    start = time.perf_counter()
    assert main(["reduce", "--config", path]) == 0
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert len(out.encode()) < 2048
    assert json.loads(out)["order"] == 10
    assert elapsed < 1.0


def test_reduce_rejects_ivp_config(tmp_path, capsys):
    cfg = {
        "mode": "ivp",
        "order": 4,
        "f": "-1",
        "g": "4*cos(t)",
        "interval": [-1, 1],
        "u": [0, 0, 0, 0],
    }
    path = write_config(tmp_path, cfg)
    assert main(["reduce", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_zero_chain_emits_zero_columns(tmp_path, capsys):
    cfg = {
        "mode": "chain",
        "omegas": [1.0, 1.0],
        "forces": ["0", "0"],
        "interval": [0, 1],
        "positions": [0, 0],
        "velocities": [0, 0],
        "method": "improved4",
        "n": 12,
    }
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["t", "y", "y1", "y2"]
    assert rows.shape == (13, 4)
    assert np.max(np.abs(rows[:, 1:])) == 0.0


def test_solve_reports_error_column(tmp_path, capsys):
    path = write_config(tmp_path, chain_config())
    assert main(["solve", "--config", path]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert header == ["t", "y", "y1", "y2", "error"]
    assert np.max(rows[:, -1]) <= 1e-9  # improved4 at n=48 on case 1


def test_solve_round_trip_is_bitwise(tmp_path, capsys):
    """solve on the config emitted by reduce reproduces the chain run's
    shared columns byte for byte."""
    chain_path = write_config(tmp_path, chain_config())
    assert main(["reduce", "--config", chain_path]) == 0
    reduced = json.loads(capsys.readouterr().out)
    ivp_path = write_config(tmp_path, reduced, name="reduced.json")

    out_chain = tmp_path / "chain.csv"
    out_ivp = tmp_path / "ivp.csv"
    assert main(["solve", "--config", chain_path, "--out", str(out_chain)]) == 0
    assert main(["solve", "--config", ivp_path, "--out", str(out_ivp)]) == 0

    chain_lines = out_chain.read_text().strip().split("\n")
    ivp_lines = out_ivp.read_text().strip().split("\n")
    chain_cols = [line.split(",") for line in chain_lines]
    ivp_cols = [line.split(",") for line in ivp_lines]
    # chain CSV carries extra recovered columns; t, y and error must agree
    header = chain_cols[0]
    t_i, y_i, e_i = header.index("t"), header.index("y"), header.index("error")
    for row_chain, row_ivp in zip(chain_cols[1:], ivp_cols[1:]):
        assert row_chain[t_i] == row_ivp[0]
        assert row_chain[y_i] == row_ivp[1]
        assert row_chain[e_i] == row_ivp[2]


def test_solve_quotient_ring_matches_oracle(tmp_path):
    # the series start needs g^(7) of a forcing built from 1/(2+t): as trees
    # these derivatives are far too large to walk
    cfg = {
        "mode": "chain",
        "omegas": [1, 1, 1],
        "forces": ["1/(2+t)"] * 3,
        "interval": [0, 1],
        "positions": [0, 0, 0],
        "velocities": [0, 0, 0],
        "method": "improved6",
        "n": 64,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "grid.csv"
    start = time.perf_counter()
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    _, rows = read_csv(out.read_text())
    oracle = rk_oracle(load_config(path).ivp, steps=12800, grid_n=64)
    assert np.max(np.abs(rows[:, 1] - oracle.y)) <= 1e-9
    assert elapsed < 5.0


# improved4's half-stencil with the series closure: no preset has it
SERIES4 = {
    "family": "spline4",
    "alpha": "-1/720",
    "beta": "31/180",
    "gamma": "79/120",
    "end_variant": "series",
}


@pytest.mark.parametrize(
    "poles, n",
    [(False, 48), (False, 64), (False, 256), (False, 1024), (True, 256), (True, 1024)],
    ids=["entire-48", "entire-64", "entire-256", "entire-1024", "poles-256", "poles-1024"],
)
@pytest.mark.parametrize(
    "size, method", [(2, SERIES4), (3, "improved6")], ids=["ring2-series4", "ring3-improved6"]
)
def test_exact_rings_solve_to_their_closed_form_paths(tmp_path, size, method, poles, n):
    """Every y{k} column of ``nlosc solve`` on a closed-form ring, written
    as config text, is within 1e-12 of its path relative to the largest
    |y|: the recovered oscillators too, over windows of 13 nodes."""
    chain, paths = exact_ring(size, size, poles=poles)
    config = {
        "mode": "chain",
        "omegas": list(chain.omegas),
        "forces": [to_text(g) for g in chain.forces],
        "interval": list(chain.interval),
        "positions": list(chain.positions),
        "velocities": list(chain.velocities),
        "method": method,
        "n": n,
    }
    out = tmp_path / "ring.csv"
    assert main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    header, rows = read_csv(out.read_text())
    exact = [path(rows[:, header.index("t")]) for path in paths]
    scale = max(np.max(np.abs(y)) for y in exact)
    for k, y in enumerate(exact, start=1):
        assert np.max(np.abs(rows[:, header.index(f"y{k}")] - y)) <= 1e-12 * scale, k


def test_solve_csv_uses_17_significant_digits(tmp_path, capsys):
    path = write_config(tmp_path, chain_config())
    main(["solve", "--config", path])
    out = capsys.readouterr().out
    assert "\r" not in out
    first_value = out.split("\n")[1].split(",")[1]
    assert float(first_value) == -2 * math.sin(1.0)
    assert len(first_value.replace("-", "").replace(".", "")) >= 16


def test_csv_rows_equal_per_value_formatting():
    values = np.array([-0.0, 5e-324, 1e16, 1 / 3])
    columns = [
        ("n", [6, 12, 24, 48]),
        ("x", values),
        ("y", list(-values)),
        ("z", np.arange(4)),
    ]
    stream = io.StringIO()
    _write_csv(columns, stream)
    rows = ["n,x,y,z"]
    rows += [",".join(f"{v[i]:.17g}" for _, v in columns) for i in range(4)]
    assert stream.getvalue() == "\n".join(rows) + "\n"
    assert stream.getvalue().split("\n")[1] == "6,-0,0,0"


@pytest.mark.parametrize("method, order", [("improved4", 4), ("improved6", 6)])
def test_forcing_infinite_at_a_node_fails_without_output(tmp_path, capsys, method, order):
    # g = 1/t is infinite at t_0 = 0; improved6 takes the series closure
    cfg = {
        "mode": "ivp",
        "order": order,
        "f": "-1",
        "g": "1/t",
        "interval": [0, 1],
        "u": [0] * order,
        "method": method,
        "n": 16,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "grid.csv"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: system contains non-finite entries\n"
    assert not out.exists()


def test_overflowing_march_fails_without_output(tmp_path, capsys):
    # c_2 = -1e300 is finite, but the march overflows from node 11 on
    cfg = {**chain_config(), "omegas": [1e150, 1.0], "positions": [1, 1], "velocities": [0, 0]}
    del cfg["exact"]
    out = tmp_path / "grid.csv"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the solution is not finite from node 11 (t=-0.5416666666666667) on\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "method, order, b, n", [("improved4", 4, 1e100, 8), ("improved6", 6, 1e30, 16)]
)
def test_grid_spacing_whose_powers_overflow_is_an_error(tmp_path, capsys, method, order, b, n):
    # improved4 overflows at h^4 in the tabulated head, improved6 at h^m in
    # the series start
    cfg = {
        "mode": "ivp",
        "order": order,
        "f": "-1",
        "g": "0",
        "interval": [0, b],
        "u": [1] + [0] * (order - 1),
        "method": method,
        "n": n,
    }
    out = tmp_path / "grid.csv"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: grid spacing h={b / n!r} is too large: its powers overflow\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_grid_size_past_the_float_range_is_an_error(tmp_path, capsys, command):
    # (b - a) / n converts n to a float first, which overflows
    n = 10**400
    out = tmp_path / "grid.csv"
    if command == "solve":
        config = write_config(tmp_path, {**chain_config(), "n": n})
        argv = ["solve", "--config", config, "--out", str(out)]
    else:
        argv = ["convergence", "--case", "1", "--method", "improved4", "--n", f"12,{n}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: grid size n={n} is past the float range\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "convergence"])
def test_grid_size_past_memory_is_an_error(tmp_path, capsys, command):
    # n + 1 float64 nodes would take 8 EB, which numpy refuses at once
    n = 10**18
    out = tmp_path / "grid.csv"
    if command == "solve":
        config = write_config(tmp_path, {**chain_config(), "n": n})
        argv = ["solve", "--config", config, "--out", str(out)]
    else:
        argv = ["convergence", "--case", "1", "--method", "improved4", "--n", f"12,{n}"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: grid size n={n} does not fit in memory\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("field", ["g", "forces"])
def test_derivative_order_past_the_float_range_is_an_expression_error(tmp_path, capsys, field):
    # 171! does not convert to a float
    if field == "g":
        cfg = {**case_config(1, "improved4", 16), "g": "diff(sin(t), 171)"}
    else:
        cfg = {**chain_config(), "forces": ["0", "diff(sin(t), 171)"]}
    out = tmp_path / "grid.csv"
    assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("expression error: derivative of order 171: "), err
    assert not out.exists()


# a force too deep for Python's recursion limit: a long sum parses (the
# parser loops over it) but cannot be evaluated; deep parentheses and a long
# run of unary minuses cannot be parsed, which names the field
DEEP_FORCES = {
    "sum-3000": ("+".join(["t"] * 3000), "expression error: expression nested too deeply"),
    "parens-400": ("(" * 400 + "t" + ")" * 400, "config error: $.forces[1]: expression nested"),
    "minus-2000": ("-" * 2000 + "t", "config error: $.forces[1]: expression nested too deeply"),
}


@pytest.mark.parametrize("command", ["reduce", "solve"])
@pytest.mark.parametrize("name", sorted(DEEP_FORCES))
def test_deep_or_long_force_exits_2_without_a_traceback(tmp_path, capsys, name, command):
    force, prefix = DEEP_FORCES[name]
    config = write_config(tmp_path, {**chain_config(), "forces": ["0", force]})
    out = tmp_path / "grid.csv"
    argv = [command, "--config", config] + (["--out", str(out)] if command == "solve" else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(prefix), captured.err
    assert captured.out == ""
    assert not out.exists()


def test_a_450_term_sum_still_reduces_and_solves(tmp_path, capsys):
    configs = {
        name: write_config(tmp_path, {**chain_config(), "forces": ["0", force]}, f"{name}.json")
        for name, force in (("long", "+".join(["t"] * 450)), ("short", "450*t"))
    }
    g, csv = {}, {}
    for name, config in configs.items():
        assert main(["reduce", "--config", config]) == 0
        g[name] = parse(json.loads(capsys.readouterr().out)["g"])
        assert main(["solve", "--config", config]) == 0
        csv[name] = read_csv(capsys.readouterr().out)[1]
    for t in (-1.0, 0.25, 1.0):
        assert evaluate(g["long"], t) == pytest.approx(evaluate(g["short"], t), rel=1e-12)
    assert np.allclose(csv["long"], csv["short"], rtol=1e-12, atol=1e-12)


def diverging_ring(n):
    """A 3-ring on [0, 8] whose forces have poles at t = +-i, so the series
    start about t = 0 has radius 1: at n = 32 it reaches out to
    (p - 1)h = 1.25."""
    return {
        "mode": "chain",
        "omegas": [1, 1, 1],
        "forces": ["exp(t)*sin(t)/(1+t^2)"] * 3,
        "interval": [0, 8],
        "positions": [0.1, 0.2, 0.3],
        "velocities": [0, 0, 0],
        "method": "improved6",
        "n": n,
    }


def test_diverging_series_start_is_an_error(tmp_path, capsys):
    # a silent answer here had its pivot off by 27 times max|y| = 41
    out = tmp_path / "grid.csv"
    path = write_config(tmp_path, diverging_ring(32))
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: the series start about t=0.0 grows out to t=1.25 instead of "
        "converging there: a finer grid is needed\n"
    )
    assert not out.exists()


def test_diverging_ring_solves_on_a_finer_grid(tmp_path):
    # 10240 steps agree with 40960 to 1e-13 relative on this ring
    out = tmp_path / "grid.csv"
    path = write_config(tmp_path, diverging_ring(256))
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    _, rows = read_csv(out.read_text())
    _, history = integrate_chain(load_config(path).chain, 0.0, 8.0, 10240)
    pivot = history[::40, 4]
    assert np.max(np.abs(rows[:, 1] - pivot)) <= 1e-5 * np.max(np.abs(pivot))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 3, table half: at n = 64 the series start passes the "
    "divergence rule unconverged; the adaptive degree that mends it waits on a ruling",
)
def test_diverging_ring_on_a_coarse_grid_solves_or_fails(tmp_path):
    # exit non-zero with no CSV, or a pivot within 1e-8 max|y|; today the
    # run exits 0 with the pivot off by 2.2e-1 max|y| (max|y| = 41.1)
    out = tmp_path / "grid.csv"
    path = write_config(tmp_path, diverging_ring(64))
    if main(["solve", "--config", path, "--out", str(out)]) != 0:
        assert not out.exists()
        return
    _, rows = read_csv(out.read_text())
    _, history = integrate_chain(load_config(path).chain, 0.0, 8.0, 10240)
    pivot = history[::160, 4]
    assert np.max(np.abs(rows[:, 1] - pivot)) <= 1e-8 * np.max(np.abs(pivot))


@pytest.mark.parametrize("power", [11, 12, 13])
def test_series_that_ends_early_is_not_diverging(tmp_path, power):
    # y = t^power about t = 0 has no terms of degree 8..10 in the
    # degree-13 series start: zeros there are no sign of growth
    out = tmp_path / "grid.csv"
    rate = math.factorial(power) // math.factorial(power - 6)
    config = {
        "mode": "ivp",
        "order": 6,
        "f": "0",
        "g": f"{rate}*t^{power - 6}",
        "interval": [0, 2],
        "u": [0] * 6,
        "method": "improved6",
        "n": 16,
    }
    assert main(["solve", "--config", write_config(tmp_path, config), "--out", str(out)]) == 0
    _, rows = read_csv(out.read_text())
    exact = rows[:, 0] ** power
    assert np.max(np.abs(rows[:, 1] - exact)) <= 1e-14 * np.max(exact)


def test_singular_system_is_a_solver_error(tmp_path, capsys):
    # h = 1/8, alpha = -1/16 and f = 2^16 make the y_n coefficient of the
    # last consistency row, the only row holding y_n, exactly 1 - 1 = 0
    cfg = {
        "mode": "ivp",
        "order": 4,
        "f": "65536",
        "g": "0",
        "interval": [0, 1],
        "u": [1, 0, 0, 0],
        "method": {"family": "spline4", "alpha": "-1/16", "beta": "0", "gamma": "9/8"},
        "n": 8,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "grid.csv"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert "solver error" in capsys.readouterr().err
    assert not out.exists()


def test_singular_block_past_the_first_is_a_solver_error(tmp_path, capsys):
    # h = 2^-8, alpha = -1/16 and f = 2^36 give h^4 * alpha * f = -1, so the
    # y_n column, which only the last row holds, is exactly zero; at n = 256
    # that row lies past the first solve block
    cfg = {
        "mode": "ivp",
        "order": 4,
        "f": "68719476736",
        "g": "0",
        "interval": [0, 1],
        "u": [1, 0, 0, 0],
        "method": {"family": "spline4", "alpha": "-1/16", "beta": "0", "gamma": "9/8"},
        "n": 256,
    }
    path = write_config(tmp_path, cfg)
    out = tmp_path / "grid.csv"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert "solver error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# table and convergence
# ---------------------------------------------------------------------------


def test_table_2_command(capsys):
    assert main(["table", "--id", "2"]) == 0
    out = capsys.readouterr().out
    assert "Benchmark table 2" in out
    _, rows = read_csv(out.split("\n\n")[-1])
    reference = [1.7e-3, 1.17e-5, 7.19e-8, 7.72e-11]
    for row, ref in zip(rows, reference):
        assert ref / 5 <= row[1] <= ref * 5


def test_table_csv_file(tmp_path, capsys):
    target = tmp_path / "table1.csv"
    assert main(["table", "--id", "1", "--csv", str(target)]) == 0
    header, rows = read_csv(target.read_text())
    assert header == ["n", "table1-col1", "table1-col2", "table1-col3"]
    assert rows.shape == (4, 4)


def test_convergence_command(capsys):
    assert main(["convergence", "--case", "1", "--method", "improved4", "--n", "6,12,24"]) == 0
    out = capsys.readouterr().out
    slopes = [float(line.rsplit(" ", 1)[1]) for line in out.strip().split("\n")[1:]]
    assert len(slopes) == 2 and all(s >= 5.5 for s in slopes)


def test_convergence_slopes_on_grids_that_do_not_double(capsys):
    # 12->18 and 18->24 read 7.35 and 7.34; the bare log2 error ratios
    # are 4.30 and 3.05
    assert main(["convergence", "--case", "1", "--method", "improved4", "--n", "6,12,18,24"]) == 0
    out = capsys.readouterr().out
    slopes = [float(line.rsplit(" ", 1)[1]) for line in out.strip().split("\n")[1:]]
    assert len(slopes) == 3 and all(6.5 <= s <= 8 for s in slopes), slopes


def test_convergence_through_the_series_start(capsys):
    # improved6 closes with the series start; 16->32 reads 6.921
    assert main(["convergence", "--case", "3", "--method", "improved6", "--n", "16,32"]) == 0
    out = capsys.readouterr().out
    slopes = [float(line.rsplit(" ", 1)[1]) for line in out.strip().split("\n")[1:]]
    assert len(slopes) == 1 and slopes[0] >= 6.5, slopes


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["solve", "--config", None, "--out"], "--out"),
        (["table", "--id", "2", "--csv"], "--csv"),
    ],
    ids=["solve", "table"],
)
def test_unwritable_output_path_is_a_config_error(tmp_path, capsys, argv, flag):
    config = write_config(tmp_path, chain_config())
    target = str(tmp_path / "missing" / "x.csv")
    argv = [config if arg is None else arg for arg in argv] + [target]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"config error: {flag}: cannot write CSV: ") and target in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command, flag", [("convergence", "--case"), ("table", "--id")])
def test_unknown_id_lists_the_valid_ones(capsys, command, flag):
    argv = [command, flag, "9"]
    if command == "convergence":
        argv += ["--method", "improved4", "--n", "8,16"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    choices = "1, 2, 3, 4" if command == "convergence" else "1, 2, 3, 4, 5, 6, 7, 8"
    assert f"argument {flag}: invalid choice: 9 (choose from {choices})" in capsys.readouterr().err


def test_convergence_order_mismatch(capsys):
    assert main(["convergence", "--case", "3", "--method", "improved4", "--n", "8,16"]) == 2
    assert "order" in capsys.readouterr().err


def test_convergence_unknown_method_lists_choices(capsys):
    assert main(["convergence", "--case", "1", "--method", "nope", "--n", "8,16"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --method: unknown method preset 'nope'")
    assert "improved4" in err


@pytest.mark.parametrize(
    "grid, message",
    [
        ("16", "at least two grid sizes"),
        ("16,abc", "expected comma-separated integers"),
        ("16,,32", "expected comma-separated integers"),
        ("32,16", "strictly increasing"),
        ("16,16", "strictly increasing"),
        ("4,8", "improved6 needs n >= 8"),
        ("0,16", "improved6 needs n >= 8"),
    ],
)
def test_convergence_bad_grid_sizes_are_config_errors(capsys, grid, message):
    assert main(["convergence", "--case", "3", "--method", "improved6", "--n", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --n: ") and message in err


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_missing_field_reports_path(tmp_path, capsys):
    cfg = chain_config()
    del cfg["forces"]
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2
    assert "$.forces" in capsys.readouterr().err


def test_bad_expression_reports_path(tmp_path, capsys):
    cfg = chain_config()
    cfg["forces"] = ["0", "sin("]
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2
    assert "$.forces[1]" in capsys.readouterr().err


def test_method_order_mismatch_is_config_error(tmp_path, capsys):
    cfg = chain_config()
    cfg["method"] = "improved6"
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2
    assert "order" in capsys.readouterr().err


def test_grid_below_method_minimum(tmp_path, capsys):
    cfg = chain_config()
    cfg["n"] = 4
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2
    assert "$.n" in capsys.readouterr().err


@pytest.mark.parametrize("interval", ["[null, 1]", '["zero", 1]', "[0, 1e400]", "[true, 2]"])
def test_interval_entries_must_be_finite_numbers(tmp_path, capsys, interval):
    cfg = chain_config()
    cfg["interval"] = "INTERVAL"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"INTERVAL"', interval))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: $.interval: ")


@pytest.mark.parametrize(
    "mode, key, entry, error",
    [
        ("chain", "velocities", "1" + "0" * 400, "$.velocities[0]: expected a finite number"),
        ("chain", "omegas", "1e400", "$.omegas[0]: expected a finite number"),
        ("chain", "omegas", "null", "$.omegas[0]: expected a finite number"),
        ("chain", "positions", "1e400", "$.positions[0]: expected a finite number"),
        ("ivp", "u", "-1e400", "$.u[0]: expected a finite number"),
        ("chain", "n", "true", "$.n: expected a positive integer"),
        ("ivp", "order", "true", "$.order: expected an integer"),
        ("chain", "method", "true", '$.method.alpha: expected an integer or a "p/q" string'),
        ("ivp", "order", "3", "$.order: order must be an even integer >= 4, got 3"),
        ("chain", "omegas", "0", "$.omegas[0]: all frequencies must be positive"),
    ],
    ids=[
        "huge-int-velocity",
        "infinite-omega",
        "null-omega",
        "infinite-position",
        "infinite-u",
        "bool-n",
        "bool-order",
        "bool-weight",
        "odd-order",
        "zero-omega",
    ],
)
def test_numeric_fields_must_be_finite_numbers(tmp_path, capsys, mode, key, entry, error):
    cfg = chain_config() if mode == "chain" else case_config(1, "improved4", 16)
    if key == "method":
        # read as the weight 1, these weights would sum to 1 and load
        cfg[key] = {"family": "spline4", "alpha": "ENTRY", "beta": "0", "gamma": "-1"}
    elif isinstance(cfg[key], list):
        cfg[key][0] = "ENTRY"
    else:
        cfg[key] = "ENTRY"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg).replace('"ENTRY"', entry))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["solve", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


@pytest.mark.parametrize("command", ["reduce", "solve"])
@pytest.mark.parametrize("omegas", [[1e200, 1.0], [1e100, 1e100, 1e100]], ids=["2", "3"])
def test_overflowing_frequencies_are_a_config_error(tmp_path, capsys, omegas, command):
    # c_2 = -omega_2^2 omega_1^2 leaves the float range: 1e200 ** 2 raises
    # OverflowError, 1e200 * 1e200 is inf
    size = len(omegas)
    cfg = {**chain_config(), "omegas": omegas, "forces": ["0"] * size}
    cfg.update(positions=[0] * size, velocities=[0] * size)
    assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: $.omegas: ") and "not finite" in err
    assert "Traceback" not in err


def test_a_ring_too_large_for_its_method_fails_before_its_reduction(tmp_path, capsys, monkeypatch):
    # the reduction of 160 oscillators would take derivatives of order 318,
    # past the float range of their factorial factors
    def no_reduction(chain):
        raise AssertionError("the ring was reduced")

    monkeypatch.setattr("nlosc.cli.reduce_chain", no_reduction)
    cfg = {**chain_config(), "omegas": [1.0] * 160, "forces": ["exp(t)*sin(t)/(1+t^2)"] * 160}
    cfg.update(positions=[0] * 160, velocities=[0] * 160, interval=[0, 1])
    del cfg["exact"]
    assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err == (
        "config error: $.method: method 'improved4' solves order 4, but the problem has order 320\n"
    )


def test_unknown_preset_lists_choices(tmp_path, capsys):
    cfg = chain_config()
    cfg["method"] = "mystery"
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 2
    assert "improved4" in capsys.readouterr().err


def test_explicit_rational_method(tmp_path, capsys):
    cfg = chain_config()
    cfg["method"] = {
        "family": "spline4",
        "alpha": "-1/720",
        "beta": "31/180",
        "gamma": "79/120",
        "end_variant": "improved",
    }
    path = write_config(tmp_path, cfg)
    assert main(["solve", "--config", path]) == 0
    header, rows = read_csv(capsys.readouterr().out)
    assert np.max(rows[:, -1]) <= 1e-9


def method_object(name):
    """The explicit method object of preset ``name``."""
    method = METHODS[name]
    obj = {"family": f"spline{method.order}"}
    obj.update(zip(("alpha", "beta", "gamma", "delta"), map(str, method.coefficients.half)))
    obj["end_variant" if method.order == 4 else "closure"] = method.closure
    return obj


@pytest.mark.parametrize("name", sorted(METHODS))
def test_every_preset_round_trips_as_a_method_object(tmp_path, name):
    case_id = 1 if METHODS[name].order == 4 else 3
    outputs = []
    for label, method in (("preset", name), ("object", method_object(name))):
        path = write_config(tmp_path, case_config(case_id, method, 16), name=f"{label}.json")
        out = tmp_path / f"{label}.csv"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


IMPROVED4 = {"family": "spline4", "alpha": "-1/720", "beta": "31/180", "gamma": "79/120"}
T5_COL1 = {
    "family": "spline6",
    "alpha": "1/120",
    "beta": "15/120",
    "gamma": "1/4",
    "delta": "28/120",
}


@pytest.mark.parametrize(
    "case_id, method, key",
    [
        (1, {**IMPROVED4, "end_varient": "improved"}, "end_varient"),
        (1, {**IMPROVED4, "closure": "improved"}, "closure"),
        (3, {**T5_COL1, "end_variant": "printed"}, "end_variant"),
        (1, {**IMPROVED4, "end_variant": "voodoo"}, "end_variant"),
        (3, {**T5_COL1, "closure": "voodoo"}, "closure"),
        (3, {**T5_COL1, "closure": ["printed"]}, "closure"),
        (1, {**IMPROVED4, "end_variant": "printed"}, "end_variant"),
        (3, {**T5_COL1, "closure": "improved"}, "closure"),
        (1, {"family": "spline4", "alpha": "1/2", "beta": "1/2", "gamma": "1/2"}, None),
        (1, {"family": "spline4", "alpha": "1e400", "beta": "-1e400", "gamma": "1"}, "alpha"),
        (3, {**T5_COL1, "alpha": "1e400", "beta": "-1e400", "gamma": "0", "delta": "1"}, "alpha"),
    ],
    ids=[
        "misspelt-key",
        "closure-key-on-spline4",
        "end-variant-key-on-spline6",
        "unknown-end-variant",
        "unknown-closure",
        "closure-not-a-name",
        "order-6-closure-on-spline4",
        "order-4-closure-on-spline6",
        "weights-not-summing-to-1",
        "spline4-weight-past-the-float-range",
        "spline6-weight-past-the-float-range",
    ],
)
def test_method_object_errors_name_their_key(tmp_path, capsys, case_id, method, key):
    # a fault of the weights as a whole names the method object itself
    expected = f"$.method.{key}" if key else "$.method"
    path = write_config(tmp_path, case_config(case_id, method, 16))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.path == expected
    assert main(["solve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {expected}: ")


@pytest.mark.parametrize(
    "key, value",
    [("f", None), ("g", None), ("f", 3), ("g", "sin("), ("u", [0, 0, 0]), ("g", "1e400*t")],
    ids=["missing-f", "missing-g", "f-not-a-string", "g-unparsable", "u-too-short",
         "g-number-past-the-float-range"],
)
def test_ivp_expression_errors_name_their_field_once(tmp_path, capsys, key, value):
    cfg = case_config(1, "improved4", 16)
    if value is None:
        del cfg[key]
    else:
        cfg[key] = value
    assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: $.{key}: "), err


def _chain_config_without(key):
    return {k: v for k, v in chain_config().items() if k != key}


@pytest.mark.parametrize(
    "config, prefix",
    [
        (None, "config error: {path}: cannot read config: "),
        ("{", "config error: {path}: invalid JSON: "),
        ([], "config error: $: config must be a JSON object"),
        ({**chain_config(), "mode": "tree"}, "config error: $.mode: expected 'chain' or 'ivp'"),
        ({**chain_config(), "interval": [0, 1, 2]}, "config error: $.interval: expected [a, b]"),
        ({**chain_config(), "interval": [1, 0]}, "config error: $.interval: empty interval"),
        ({**chain_config(), "positions": ["1/0", "0"]}, "config error: $.positions[0]: "),
        (
            {**chain_config(), "method": {**IMPROVED4, "alpha": "1/0"}},
            "config error: $.method.alpha: ",
        ),
        ({**chain_config(), "method": []}, "config error: $.method: expected a preset name"),
        ({**chain_config(), "method": {"family": "spline5"}}, "config error: $.method.family: "),
        (_chain_config_without("method"), "config error: $.method: missing required field"),
        (_chain_config_without("n"), "config error: $.n: missing required field"),
        ({**chain_config(), "forces": ["0", "1/t"], "interval": [0, 1]}, "expression error: "),
        # json.load refuses an int of more than 4300 digits with a plain ValueError
        (
            json.dumps(chain_config()).replace('"n": 48', '"n": 1' + "0" * 4400),
            "config error: {path}: invalid JSON: ",
        ),
    ],
    ids=[
        "missing-file",
        "bad-json",
        "not-an-object",
        "bad-mode",
        "interval-of-three",
        "empty-interval",
        "position-1/0",
        "weight-1/0",
        "method-list",
        "unknown-family",
        "no-method",
        "no-n",
        "force-1/t",
        "n-of-4401-digits",
    ],
)
def test_config_errors_exit_2_with_their_message(tmp_path, capsys, config, prefix):
    path = tmp_path / "config.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config))
    assert main(["solve", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(prefix.format(path=path)), err
    assert out == ""


def test_series_start_at_order_4_from_a_method_object(tmp_path, capsys):
    cfg = case_config(1, {**IMPROVED4, "end_variant": "series"}, 24)
    assert main(["solve", "--config", write_config(tmp_path, cfg)]) == 0
    _, rows = read_csv(capsys.readouterr().out)
    assert np.max(rows[:, -1]) <= 1e-9  # 4.3e-10; the improved closure gives 7.2e-8


def test_load_config_round_trips_initial_expressions(tmp_path):
    config = load_config(write_config(tmp_path, chain_config()))
    assert config.chain.positions[1] == pytest.approx(-2 * math.sin(1.0), abs=1e-16)


def test_cli_import_loads_no_heavy_numerics():
    # importing scipy.linalg.lapack alone costs about twice numpy's import
    # time, so a stray import would show in every nlosc start-up
    code = (
        "import sys, nlosc.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'sympy', 'mpmath'}))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == "[]"


def test_closure_rows_are_derived_on_the_first_solve_not_at_load(tmp_path):
    # nlosc.verify builds its tabulated presets at import, and load_config
    # checks a method's closure; neither may derive a row, which takes
    # milliseconds per closure, or build a head's matrices
    config = write_config(tmp_path, case_config(3, "table5-col1", 16))
    code = (
        "import sys, nlosc.cli\n"
        "from nlosc.spline import _derived_rows as derived, _head_matrices as kept\n"
        "nlosc.cli.load_config(sys.argv[1])\n"
        "print(derived.cache_info().currsize, kept.cache_info().currsize)\n"
        "assert nlosc.cli.main(['solve', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "before = derived.cache_info()\n"
        "derived('printed')\n"
        "after = derived.cache_info()\n"
        "print(after.currsize, after.hits - before.hits, after.misses - before.misses,"
        " kept.cache_info().currsize)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, config, str(tmp_path / "out.csv")],
        env=package_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    # empty after loading; after the solve, the printed closure only, and
    # one head's matrices
    assert run.stdout.split("\n") == ["0 0", "1 1 0 1", ""]


def test_main_after_a_failing_call_matches_fresh_processes(tmp_path, capsys):
    # main reuses one argument parser per process; an argparse error, a
    # config error and a solve in a row must each give what a fresh
    # process gives: exit code, stderr and CSV bytes
    good = write_config(tmp_path, {**chain_config(), "n": 256})
    bad = write_config(tmp_path, {**chain_config(), "n": 4}, name="bad.json")
    calls = [["solve"], ["solve", "--config", bad], ["solve", "--config", good, "--out", "{}"]]
    for k, argv in enumerate(calls * 2):
        here, fresh = tmp_path / f"here-{k}.csv", tmp_path / f"fresh-{k}.csv"
        try:
            code = main([str(here) if a == "{}" else a for a in argv])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        run = subprocess.run(
            [sys.executable, "-m", "nlosc", *(str(fresh) if a == "{}" else a for a in argv)],
            env=package_env(),
            capture_output=True,
            text=True,
        )
        assert (code, err) == (run.returncode, run.stderr), argv
        assert here.exists() == fresh.exists(), argv
        if here.exists():
            assert here.read_bytes() == fresh.read_bytes()
