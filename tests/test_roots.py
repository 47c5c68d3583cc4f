import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

import fprw
from fprw import cli, factors, phase, roots
from fprw.errors import NanValue, NoConvergence, RootNotBracketed

# (xtol, rtol, maxiter) of the five call sites
SITE_TOLERANCES = [
    (factors._ROOT_XTOL, factors._ROOT_RTOL, 200),  # factors.invert_w
    (1e-300, 1e-13, 200),  # product._solve_branch
    (phase._ROOT_XTOL, phase._ROOT_RTOL, 200),  # phase.phase_roots, both pieces
    (1e-12, phase._ROOT_RTOL, 100),  # phase.tune_axis_weights
]


def counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def outcome(solve, f, a, b, tol):
    """(root bits or error kind, calls to f); scipy's errors mapped to ours."""
    g = counted(f)
    xtol, rtol, maxiter = tol
    try:
        return solve(g, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter).hex(), g.calls
    except (ValueError, RootNotBracketed):
        return "not bracketed", g.calls
    except (RuntimeError, NoConvergence):
        return "no convergence", g.calls


def family(kind, c, s):
    if kind == "tanh":
        return lambda x: math.tanh(s * (x - c))
    if kind == "cubic":
        return lambda x: (x - c) ** 3 + 1e-3 * s * (x - c)
    if kind == "exp":
        return lambda x: math.expm1(s * (x - c))
    if kind == "flat":  # f vanishes on a whole interval around c
        return lambda x: max(x - c - 0.1, 0.0) + min(x - c + 0.1, 0.0) * s
    # oscillating: several sign changes inside the bracket, or none
    return lambda x: math.sin(9.0 * s * x) + 0.3 * (x - c)


unit = st.floats(0.0, 1.0)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["tanh", "cubic", "exp", "flat", "oscillating"]),
    c=unit,
    s=st.floats(0.05, 8.0),
    lo=st.floats(-1.0, 0.5),
    log_width=st.floats(-9.0, 0.3),
    scale=st.sampled_from([1.0, 1e-6, 1e6]),
    root_at=st.sampled_from(["inside", "lo", "hi", "middle"]),
    swap=st.booleans(),
    tol=st.sampled_from(SITE_TOLERANCES),
)
# the extrapolation's divisor underflows to 0 near x = 1e-284
@example(kind="cubic", c=9.383218749448647e-291, s=0.05, lo=0.0, log_width=0.0, scale=1e6,
         root_at="inside", swap=False, tol=SITE_TOLERANCES[1])
def test_brent_is_brentq_bit_for_bit(kind, c, s, lo, log_width, scale, root_at, swap, tol):
    # brackets from 1e-9 wide, where the step floor delta decides, to 2 wide
    width = 10.0**log_width
    if root_at == "lo":
        lo = c
    elif root_at == "hi":
        lo = c - width
    elif root_at == "middle":  # |f(a)| = |f(b)| for the odd families
        lo = c - width / 2
    f0 = family(kind, c, s)
    f = lambda x: f0(x / scale)
    a, b = lo * scale, (lo + width) * scale
    if swap:
        a, b = b, a
    assert outcome(roots.brent, f, a, b, tol) == outcome(brentq, f, a, b, tol)


@settings(max_examples=100, deadline=None)
@given(c=unit, s=st.floats(0.05, 8.0), maxiter=st.integers(0, 6))
def test_brent_is_brentq_when_the_iterations_run_out(c, s, maxiter):
    f = family("oscillating", c, s)
    tol = (1e-15, 1e-13, maxiter)
    assert outcome(roots.brent, f, -1.0, 2.0, tol) == outcome(brentq, f, -1.0, 2.0, tol)


def test_root_at_an_endpoint_costs_two_calls():
    f = counted(lambda x: x - 0.5)
    assert roots.brent(f, 0.5, 2.0, xtol=1e-12, rtol=1e-13, maxiter=100) == 0.5
    assert f.calls == 2


class TestFailuresAreTyped:
    def test_same_sign_is_not_bracketed(self):
        with pytest.raises(RootNotBracketed):
            roots.brent(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12, rtol=1e-13, maxiter=100)

    def test_iteration_cap(self):
        with pytest.raises(NoConvergence, match="after 3 iterations"):
            roots.brent(math.atan, -1.0, 1e9, xtol=1e-15, rtol=1e-13, maxiter=3)

    @pytest.mark.parametrize(
        "is_nan", [lambda x: x == 1.0, lambda x: 0.0 < x < 1.0], ids=["endpoint", "inside"]
    )
    def test_nan(self, is_nan):
        f = lambda x: math.nan if is_nan(x) else x - 0.25
        with pytest.raises(NanValue, match="NaN"):
            roots.brent(f, 0.0, 1.0, xtol=1e-12, rtol=1e-13, maxiter=100)


def test_cli_reports_a_nan_root_function_as_a_numeric_failure(tmp_path, capsys, monkeypatch):
    def brent_on_nan(f, a, b, **tol):
        return roots.brent(lambda x: math.nan, a, b, **tol)

    monkeypatch.setattr(factors, "brent", brent_on_nan)
    path = tmp_path / "config.json"
    path.write_text('{"factors": [{"type": "lattice", "dim": 5}, {"type": "lattice", "dim": 6}], '
                    '"weights": [0.5, 0.5]}')
    code = cli.main(["analyze", "--config", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("numeric failure (NanValue):")
    assert "Traceback" not in err
