"""Tests for the command-line front end."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from nlosc.cli import ConfigError, load_config, main
from nlosc.expr import evaluate, parse, to_text
from nlosc.verify import METHODS, case_by_id, rk_oracle


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


def test_solve_csv_uses_17_significant_digits(tmp_path, capsys):
    path = write_config(tmp_path, chain_config())
    main(["solve", "--config", path])
    out = capsys.readouterr().out
    assert "\r" not in out
    first_value = out.split("\n")[1].split(",")[1]
    assert float(first_value) == -2 * math.sin(1.0)
    assert len(first_value.replace("-", "").replace(".", "")) >= 16


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


def test_convergence_order_mismatch(capsys):
    assert main(["convergence", "--case", "3", "--method", "improved4", "--n", "8,16"]) == 2
    assert "order" in capsys.readouterr().err


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
    ],
)
def test_method_object_errors_name_their_key(tmp_path, capsys, case_id, method, key):
    path = write_config(tmp_path, case_config(case_id, method, 16))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert info.value.path == f"$.method.{key}"
    assert main(["solve", "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: $.method.{key}: ")


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
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import sys, nlosc.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'sympy', 'mpmath'}))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.strip() == "[]"
