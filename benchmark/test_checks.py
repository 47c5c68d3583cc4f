"""Each output check must pass on the program's output and fail on a planted error.

Run from the root of the repository:  python3 -m pytest benchmark/test_checks.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from fprw import cli  # noqa: E402


def _run(tmp_path, op):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(op["config"]))
    out = tmp_path / "out.txt"
    assert cli.main(op["argv"] + ["--config", str(config), "--out", str(out)]) == 0
    return out.read_text(), str(config)


@pytest.fixture(scope="module")
def oracle():
    return checks.Oracle()


def test_series_coefficient_off_by_1e6(tmp_path, oracle):
    op = wl.op("C2*C2*C2", "series", [wl.flip()] * 3, [1 / 3] * 3,
               ["--order", "400", "--format", "json"])
    text, config = _run(tmp_path, op)
    assert checks.check(op, text, config, oracle) == []
    out = json.loads(text)
    out["coefficients"][300] *= 1 + 1e-6
    problems = checks.check(op, json.dumps(out), config, oracle)
    assert any("tree series disagrees at n = [300]" in p for p in problems)


def test_series_low_order_coefficient_off_by_1e6(tmp_path, oracle):
    op = wl.op("C2*C3", "series", [wl.flip(), {"type": "cyclic", "n": 3, "mu": [0, 0.4, 0.6]}],
               [0.45, 0.55], ["--order", "100", "--format", "json"])
    text, config = _run(tmp_path, op)
    assert checks.check(op, text, config, oracle) == []
    out = json.loads(text)
    out["coefficients"][9] *= 1 + 1e-6
    problems = checks.check(op, json.dumps(out), config, oracle)
    assert any("word convolution disagrees at n = [9]" in p for p in problems)


def test_analyze_wrong_law_label(tmp_path, oracle):
    op = wl.op("Z5*Z6", "analyze", [wl.lattice(5), wl.lattice(6)], [0.5, 0.5])
    text, config = _run(tmp_path, op)
    assert checks.check(op, text, config, oracle) == []
    out = json.loads(text)
    assert out["law"]["kind"] == "inherited"
    out["law"].update(kind="three-halves", factor_index=None, label="n^-3/2")
    out["law"]["lambda"] = 1.5
    problems = checks.check(op, json.dumps(out), config, oracle)
    assert any("expected inherited" in p for p in problems)


def test_analyze_wrong_factor_value(tmp_path, oracle):
    op = wl.op("Z3*C3", "analyze", [wl.lattice(3), {"type": "cyclic", "n": 3, "mu": [0.2, 0.3, 0.5]}],
               [0.5, 0.5])
    text, config = _run(tmp_path, op)
    assert checks.check(op, text, config, oracle) == []
    out = json.loads(text)
    out["factors"][0]["g_at_radius"] *= 1 + 1e-6
    problems = checks.check(op, json.dumps(out), config, oracle)
    assert any("factor 0 g_at_radius" in p for p in problems)


def test_phase_shifted_alpha_c(tmp_path, oracle):
    op = wl.op("Z5*Z6", "phase", [wl.lattice(5), wl.lattice(6)], [0.5, 0.5], ["--grid", "8"])
    text, config = _run(tmp_path, op)
    assert checks.check(op, text, config, oracle) == []
    out = json.loads(text)
    out["alpha_c"] += 2e-8
    problems = checks.check(op, json.dumps(out), config, oracle)
    assert any(p.startswith("alpha_c") for p in problems)


def test_phase_wrong_case_and_point_law(tmp_path, oracle):
    op = wl.op("Z2*Z7", "phase", [wl.lattice(2), wl.lattice(7)], [0.5, 0.5], ["--grid", "8"])
    text, config = _run(tmp_path, op)
    assert checks.check(op, text, config, oracle) == []
    out = json.loads(text)
    assert out["case"] == "B"
    out["case"] = "C"
    point = next(p for p in out["grid"] if p["upsilon"] < 0)
    point.update(kind="inherited", factor_index=1, kappa=0)
    point["lambda"] = 3.5
    problems = checks.check(op, json.dumps(out), config, oracle)
    assert "case C, expected B" in problems
    assert any("<= 0 but law inherited" in p for p in problems)


def test_simulate_exact_column_off_by_1e6(tmp_path, oracle):
    op = wl.op("C2*C2*C2", "simulate", [wl.flip()] * 3, [1 / 3] * 3,
               ["--steps", "14", "--walks", "2000", "--seed", "3"])
    text, config = _run(tmp_path, op)
    assert checks.check(op, text, config, oracle) == []
    lines = text.splitlines()
    row = lines[2 + 9].split(",")  # n = 10
    row[2] = repr(float(row[2]) * (1 + 1e-6))
    lines[2 + 9] = ",".join(row)
    problems = checks.check(op, "\n".join(lines) + "\n", config, oracle)
    assert any(p.startswith("n=10: exact") for p in problems)


def test_watson_integral():
    # G_3(1) of the simple cubic lattice (Watson 1939)
    g = checks.oracles.lattice_green_at_radius((1 / 3,) * 3, (0.5,) * 3)
    assert abs(g - 1.5163860591519780) < 1e-13
