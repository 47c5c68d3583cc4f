import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import fprw
from fprw import cli, factors, mc, product, selftest
from fprw.errors import NoConvergence

Z3 = {"type": "lattice", "dim": 3}
Z5 = {"type": "lattice", "dim": 5}
Z6 = {"type": "lattice", "dim": 6}
C2 = {"type": "cyclic", "n": 2, "mu": [0.0, 1.0]}
C3 = {"type": "cyclic", "n": 3, "mu": [0.0, 0.5, 0.5]}
EXPLICIT_Z1 = {  # Z^1: 1/sqrt(1 - z^2), recurrent
    "type": "explicit", "coeffs": [1.0, 0.0, 0.5, 0.0, 0.375], "radius": 1.0,
    "g_at_r": "inf", "gprime_at_r": "inf", "sing": None, "period": 2,
}


def run(tmp_path, capsys, config, *argv):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main([*argv, "--config", str(path)])
    return code, capsys.readouterr()


# an integer field that int() would truncate is named in the message
NOT_INTEGRAL = {
    "tree-degree-not-integral": "factors[0].q must be an integer",
    "lattice-dim-not-integral": "factors[0].dim must be an integer",
    "tree-degree-a-bool": "factors[0].q must be an integer",
    "order-not-integral": "options.order must be an integer",
    "explicit-sing-k-not-integral": "factors[0].sing[1] must be an integer",
}


@pytest.mark.parametrize(
    "config",
    [
        {"factors": [Z3, Z5], "weights": [0.5, 0.5], "options": {"order": "abc"}},
        {"factors": [{"type": "cyclic", "n": 3}, Z5], "weights": [0.5, 0.5]},
        {"factors": [{"type": "lattice", "dim": 0}, Z5], "weights": [0.5, 0.5]},
        {"factors": [Z3, Z5], "weights": ["x", 0.5]},
        {"factors": [Z3, Z5], "weights": [0.5, 0.5], "options": {"order": -5}},
        {"factors": [{"type": "lattice", "beta": [0.5, "x"], "p": [0.5, 0.5]}, Z5], "weights": [0.5, 0.5]},
        {"factors": [{"type": "tree", "q": [3]}, Z5], "weights": [0.5, 0.5]},
        {"factors": [Z3, Z5], "weights": [0.5, 0.5], "options": []},
        {"factors": [{**EXPLICIT_Z1, "sing": []}, Z5], "weights": [0.5, 0.5]},
        {"factors": [{**EXPLICIT_Z1, "sing": [0.5]}, Z5], "weights": [0.5, 0.5]},
        {"factors": [{**EXPLICIT_Z1, "sing": [2, 0]}, Z5], "weights": [0.5, 0.5]},
        {"factors": [{**EXPLICIT_Z1, "sing": [math.inf, 0]}, Z5], "weights": [0.5, 0.5]},
        {"factors": [{"type": "tree", "q": 3.7}, Z5], "weights": [0.5, 0.5]},
        {"factors": [{"type": "lattice", "dim": 2.5}, Z5], "weights": [0.5, 0.5]},
        {"factors": [{"type": "tree", "q": True}, Z5], "weights": [0.5, 0.5]},
        {"factors": [Z3, Z5], "weights": [0.5, 0.5], "options": {"order": 10.9}},
        {"factors": [{**EXPLICIT_Z1, "sing": [0.5, 1.5]}, Z5], "weights": [0.5, 0.5]},
        {"factors": [Z3, Z5], "weights": [True, 0.5]},
    ],
    ids=[
        "order-not-a-number",
        "cyclic-without-mu",
        "lattice-dim-0",
        "weight-not-a-number",
        "negative-order",
        "axis-weight-not-a-number",
        "tree-degree-a-list",
        "options-not-an-object",
        "explicit-sing-empty",
        "explicit-sing-one-number",
        "explicit-sing-analytic",
        "explicit-sing-infinite",
        *NOT_INTEGRAL,
        "weight-a-bool",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, config, request):
    code, out = run(tmp_path, capsys, config, "series")
    assert code == 2
    assert out.err.startswith("config error:")
    assert NOT_INTEGRAL.get(request.node.callspec.id, "") in out.err
    assert "Traceback" not in out.err
    assert out.out == ""


NOT_FINITE_OR_BOOL = {
    "axis-weight-nan": {"type": "lattice", "beta": [math.nan, 0.5], "p": [0.5, 0.5]},
    "cyclic-mu-nan": {"type": "cyclic", "n": 3, "mu": [math.nan, 0.5, 0.5]},
    "explicit-g-at-r-nan": {**EXPLICIT_Z1, "g_at_r": math.nan},
    "explicit-radius-inf": {**EXPLICIT_Z1, "radius": "inf"},
    "explicit-radius-a-bool": {**EXPLICIT_Z1, "radius": True},
    "explicit-g-at-r-a-bool": {**EXPLICIT_Z1, "g_at_r": True},
    "lattice-dim-too-large": {"type": "lattice", "dim": 10**11},
}
C1 = {"type": "cyclic", "n": 1, "mu": [1.0]}
BAD_PRODUCTS = {
    **{name: [factor, Z5] for name, factor in NOT_FINITE_OR_BOOL.items()},
    "trivial-group-with-C2": [C1, C2],
    "trivial-group-with-Z3": [C1, Z3],
}


@pytest.mark.parametrize("command", ["analyze", "series", "phase", "simulate"])
@pytest.mark.parametrize("factors", BAD_PRODUCTS.values(), ids=BAD_PRODUCTS)
def test_non_finite_or_bool_number_exits_2(tmp_path, capsys, factors, command):
    # NaN fails every range check, the radius must be finite, a bool is not a
    # number, Z^d with more than 524,287 axes is refused before its axis
    # weights are built, and a factor of one element makes no free product
    tracemalloc.start()
    start = time.perf_counter()
    code, out = run(tmp_path, capsys, {"factors": factors, "weights": [0.5, 0.5]}, command)
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2
    assert out.err.startswith("config error:")
    assert "Traceback" not in out.err
    assert out.out == ""
    assert elapsed < 1.0 and peak < 1 << 20
    if "dim" in factors[0]:
        assert "dim must be at most 524287, got 100000000000: Z^d has 2d support steps" in out.err
    if factors[0] is C1:
        assert "a finite group needs at least two elements" in out.err


def test_simulate_on_an_explicit_factor_exits_2(tmp_path, capsys):
    # an explicit factor is a series, not a group: it has no steps to walk
    code, out = run(tmp_path, capsys, {"factors": [EXPLICIT_Z1, C3], "weights": [0.5, 0.5]}, "simulate")
    assert code == 2
    assert out.err == "config error: explicit-series factors carry no group elements\n"
    assert out.out == ""


def test_simulate_refuses_a_support_too_large_for_one_word(tmp_path, capsys):
    # the 10^11-regular tree: its q steps are counted, never built
    config = {"factors": [Z3, {"type": "tree", "q": 10**11}], "weights": [0.5, 0.5]}
    tracemalloc.start()
    start = time.perf_counter()
    code, out = run(tmp_path, capsys, config, "simulate")
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 2
    assert out.err.startswith("config error: the product's support has 100000000006 steps")
    assert elapsed < 1.0 and peak < 1 << 20


def test_simulate_on_a_wide_lattice_builds_no_coordinate_tuples(tmp_path, capsys):
    # Z^2000 * C2 walks on letter stacks: its 4,000 step codes +-29^j hold
    # about 2.4 MB in all, where 4,000 coordinate tuples of length 2,000 took
    # 64 MiB and 38 s under tracemalloc (0.3-0.4 s and 3.2 MiB now, on 2
    # cores); the output is that of the tuples, byte for byte
    config = {"factors": [{"type": "lattice", "dim": 2000}, C2], "weights": [0.5, 0.5]}
    tracemalloc.start()
    start = time.perf_counter()
    code, out = run(tmp_path, capsys, config, "simulate", "--steps", "14", "--walks", "64")
    elapsed = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert code == 0 and out.err.startswith("warning: exact column stops at n = 1,")
    digest = "75f433fb531e1deb2746f6be1db5e5e2de8ade771f7c02283a750e6b987e7e43"
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest
    assert elapsed < 2.0 and peak < 16 << 20


def test_integral_floats_are_integers(tmp_path, capsys):
    # a float with an integral value is the integer it names
    plain = {"factors": [{"type": "tree", "q": 3}, Z5], "weights": [0.5, 0.5], "options": {"order": 10}}
    floats = {"factors": [{"type": "tree", "q": 3.0}, Z5], "weights": [0.5, 0.5], "options": {"order": 10.0}}
    assert run(tmp_path, capsys, plain, "series") == run(tmp_path, capsys, floats, "series")


def test_analyze_has_no_csv_format(tmp_path, capsys):
    config = {"factors": [Z5, Z6], "weights": [0.5, 0.5]}
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, capsys, config, "analyze", "--format", "csv")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'csv'" in err
    assert "Traceback" not in err


def test_explicit_factor_off_its_period_exits_2(tmp_path, capsys):
    # a period-2 factor with a nonzero coefficient at n = 3
    explicit = {**EXPLICIT_Z1, "coeffs": [1.0, 0.0, 0.5, 0.125, 0.375]}
    code, out = run(tmp_path, capsys, {"factors": [explicit, Z5], "weights": [0.5, 0.5]}, "series")
    assert code == 2
    assert out.err == (
        "config error: factors[0]: explicit series coefficient 3 is nonzero, but 3 is not a multiple of the period 2\n"
    )
    assert out.out == ""


KLEIN_TABLE = [[x ^ y for y in range(4)] for x in range(4)]
C4_TABLE = [[(x + y) % 4 for y in range(4)] for x in range(4)]
C3_P = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
C3_TABLE = [[(x + y) % 3 for y in range(3)] for x in range(3)]
# every message a factor's construction raises, with a factor that raises it
CONSTRUCTION_ERRORS = {
    "P must be square": {"type": "finite", "P": [[1.0, 0.0]], "id": 0, "table": [[0, 1]]},
    "a finite group needs at least two elements": C1,
    "Cayley table must match the order of P": {"type": "finite", "P": C3_P, "id": 0, "table": [[0, 1], [1, 0]]},
    "identity index out of range": {"type": "finite", "P": C3_P, "id": 3, "table": C3_TABLE},
    "P must be row-stochastic": {"type": "finite", "P": [[0.0, 0.5, 0.4], *C3_P[1:]], "id": 0, "table": C3_TABLE},
    "identity row/column malformed": {"type": "finite", "P": C3_P, "id": 1, "table": C3_TABLE},
    "Cayley table rows/columns must be permutations": {
        "type": "finite", "P": C3_P, "id": 0, "table": [[0, 1, 2], [1, 1, 0], [2, 0, 1]]},
    "Cayley table is not associative": {  # a Latin square with identity 0 that is no group
        "type": "finite", "P": [[0.2] * 5] * 5, "id": 0,
        "table": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]},
    "P is not group-invariant": {
        "type": "finite", "P": [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.25, 0.75, 0.0]], "id": 0, "table": C3_TABLE},
    "support of the walk must generate the group": {
        "type": "finite", "P": [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]],
        "id": 0, "table": KLEIN_TABLE},
    "mu must list a probability per residue": {"type": "cyclic", "n": 3, "mu": [0.5, 0.5]},
    "tree degree must be at least 2": {"type": "tree", "q": 1},
    "beta and p must be equal-length, nonempty": {"type": "lattice", "beta": [0.5, 0.5], "p": [0.5]},
    "axis weights must be positive and sum to 1": {"type": "lattice", "beta": [0.5, 0.6], "p": [0.5, 0.5]},
    "axis up-probabilities must lie strictly in (0,1)": {"type": "lattice", "beta": [0.5, 0.5], "p": [0.5, 1.0]},
    "explicit series must start with coefficient 1": {**EXPLICIT_Z1, "coeffs": [0.5, 0.0, 0.5]},
    "explicit series coefficients must be probabilities": {**EXPLICIT_Z1, "coeffs": [1.0, 0.0, 1.5]},
    "radius must be positive and finite": {**EXPLICIT_Z1, "radius": 0.0},
    "finite G' at the radius needs finite G": {**EXPLICIT_Z1, "gprime_at_r": 1.0},
    "G at the radius is at least 1": {**EXPLICIT_Z1, "g_at_r": 0.5, "gprime_at_r": 1.0},
    "G' at the radius is nonnegative": {**EXPLICIT_Z1, "g_at_r": 2.0, "gprime_at_r": -1.0},
    "singularity descriptor:": {**EXPLICIT_Z1, "sing": [1.0, 0]},
    "period must be a positive integer": {**EXPLICIT_Z1, "period": 0},
    "explicit series coefficient 3 is nonzero": {**EXPLICIT_Z1, "coeffs": [1.0, 0.0, 0.5, 0.125]},
}


@pytest.mark.parametrize("factor", CONSTRUCTION_ERRORS.values(), ids=CONSTRUCTION_ERRORS)
def test_construction_error_names_its_factor(tmp_path, capsys, factor, request):
    # the message of a factor's own check comes with the factor's index, as
    # a field's message does
    message = request.node.callspec.id
    code, out = run(tmp_path, capsys, {"factors": [Z3, factor], "weights": [0.5, 0.5]}, "analyze")
    assert code == 2
    assert out.err.startswith(f"config error: factors[1]: {message}")
    assert out.err.count("factors[1]") == 1
    assert "Traceback" not in out.err
    assert out.out == ""


def test_series_csv_beyond_float_range_of_radius_power(tmp_path, capsys):
    # radius 1.7735: radius**n overflows from n = 1239
    config = {"factors": [Z5, Z6], "weights": [0.5, 0.5]}
    code, csv_out = run(tmp_path, capsys, config, "series", "--order", "1500")
    assert code == 0
    rows = [line.split(",") for line in csv_out.out.splitlines()[2:]]
    assert len(rows) == 1501
    code, json_out = run(tmp_path, capsys, config, "series", "--order", "1500", "--format", "json")
    assert code == 0
    coeffs = json.loads(json_out.out)["coefficients"]
    assert [float(r[1]) for r in rows] == coeffs
    scaled = [float(r[2]) for r in rows]
    assert all(math.isfinite(v) for v in scaled)
    # mu_n radius^n is solved for, not rebuilt from mu_n: positive on every
    # even n, including those past n ~ 1280 where mu_n itself underflows to 0
    assert all((v > 0.0) == (n % 2 == 0) for n, v in enumerate(scaled))
    assert any(c == 0.0 for c in coeffs[::2])


def test_series_order_zero_is_one_coefficient(tmp_path, capsys):
    code, out = run(tmp_path, capsys, {"factors": [Z5, Z6], "weights": [0.5, 0.5]}, "series", "--order", "0")
    assert code == 0
    assert out.out.splitlines()[1:] == ["n,mu_n,mu_n_radius_n", "0,1,1"]


def test_phase_grid_zero_exits_2(tmp_path, capsys):
    code, out = run(tmp_path, capsys, {"factors": [Z5, Z6], "weights": [0.5, 0.5]}, "phase", "--grid", "0")
    assert code == 2
    assert out.err == "config error: grid needs at least 3 points\n"
    assert out.out == ""


def test_phase_on_the_recurrent_product_exits_4(tmp_path, capsys):
    # the phase diagram is not defined for (Z/2Z)*(Z/2Z), as for m != 2: no
    # numeric step failed, so it is no exit 3
    code, out = run(tmp_path, capsys, {"factors": [C2, C2], "weights": [0.5, 0.5]}, "phase", "--grid", "16")
    assert code == 4
    assert out.err == "error: (Z/2Z)*(Z/2Z) is recurrent; its phase diagram is degenerate\n"
    assert out.out == ""


def test_analyze_reuses_factor_analytics_across_weights(tmp_path, capsys):
    factors.analyze_factor.cache_clear()
    for a in (0.5, 0.4, 0.3):
        code, _ = run(tmp_path, capsys, {"factors": [Z5, Z6], "weights": [a, 1.0 - a]}, "analyze")
        assert code == 0
    assert factors.analyze_factor.cache_info().misses == 2


def test_series_output_round_trips_as_explicit_factor(tmp_path, capsys):
    # z**n overflows past n ~ 1239 at radius 1.77: the explicit factor's
    # derivatives must not come out NaN
    config = {"factors": [Z5, Z6], "weights": [0.5, 0.5]}
    code, out = run(tmp_path, capsys, config, "series", "--order", "1500", "--format", "json")
    assert code == 0
    series = json.loads(out.out)
    code, out = run(tmp_path, capsys, config, "analyze")
    assert code == 0
    explicit = {
        "type": "explicit",
        "coeffs": series["coefficients"],
        "radius": series["radius"],
        "g_at_r": json.loads(out.out)["g_at_radius"],
        "gprime_at_r": "inf",
        "sing": [0.5, 0],
        "period": series["period"],
    }
    code, out = run(tmp_path, capsys, {"factors": [explicit, Z5], "weights": [0.5, 0.5]}, "phase", "--grid", "16")
    assert code == 0, out.err
    assert "Traceback" not in out.err


GOLDEN_CONFIGS = json.loads((Path(__file__).parent / "golden" / "configs.json").read_text())


@pytest.mark.parametrize("name", GOLDEN_CONFIGS)
def test_series_text_matches_the_reference_encoders(tmp_path, capsys, name):
    # JSON as json.dumps(_present(payload), indent=2) writes it, and CSV as
    # a row per n from PowerSeries.__getitem__
    config = GOLDEN_CONFIGS[name]
    (tmp_path / "c.json").write_text(json.dumps(config))
    spec, _ = cli.load_config(str(tmp_path / "c.json"))
    g = product.product_green_series(spec, 200)
    radius, scaled = product.normalized_green_series(spec, 200)
    period = product.product_period(spec)
    payload = {"radius": radius, "period": period, "coefficients": list(g.coeffs)}
    code, out = run(tmp_path, capsys, config, "series", "--order", "200", "--format", "json")
    assert code == 0 and out.out == json.dumps(cli._present(payload), indent=2) + "\n"
    rows = [f"# radius={cli._fmt(radius)} period={period}", "n,mu_n,mu_n_radius_n"]
    rows += [f"{n},{cli._fmt(g[n])},{cli._fmt(scaled[n])}" for n in range(201)]
    code, out = run(tmp_path, capsys, config, "series", "--order", "200")
    assert code == 0 and out.out == "\n".join(rows) + "\n"


@pytest.fixture(scope="module")
def critical_config():
    """Tuned Z^7 * Z^8 at its critical weight, where Psi(theta-bar) = 0."""
    return GOLDEN_CONFIGS["Z7xZ8-critical"]


def test_sqrt_coefficient_numeric_failure_reports_null(tmp_path, capsys, monkeypatch, critical_config):
    code, out = run(tmp_path, capsys, critical_config, "analyze")
    assert code == 0
    assert json.loads(out.out)["sqrt_coefficient"] is not None

    def fails(*args):
        raise NoConvergence("planted")

    monkeypatch.setattr(product, "_sqrt_coefficient", fails)
    code, out = run(tmp_path, capsys, critical_config, "analyze")
    assert code == 0
    assert json.loads(out.out)["sqrt_coefficient"] is None


def test_sqrt_coefficient_programming_error_propagates(tmp_path, capsys, monkeypatch, critical_config):
    def broken(*args):
        raise TypeError("planted")

    monkeypatch.setattr(product, "_sqrt_coefficient", broken)
    with pytest.raises(TypeError, match="planted"):
        run(tmp_path, capsys, critical_config, "analyze")


def test_simulate_cuts_exact_column_to_budget(tmp_path, capsys):
    # order 14 on Z5*Z6 would enumerate about 3.9e8 words
    config = {"factors": [Z5, Z6], "weights": [0.5, 0.5]}
    start = time.perf_counter()
    code, out = run(tmp_path, capsys, config, "simulate")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 10.0
    assert out.err.startswith("warning: exact column stops at n = ")
    rows = [line.split(",") for line in out.out.splitlines()[2:]]
    assert len(rows) == cli._DEFAULTS["steps"]
    cut = sum(1 for r in rows if r[2] != "")
    assert 1 <= cut < 14
    assert all(r[2] != "" for r in rows[:cut]) and all(r[2] == r[3] == "" for r in rows[cut:])
    assert f"n = {cut}," in out.err


@pytest.mark.parametrize("walks, walked_on_ball", [(40_000, True), (100, True)])
def test_simulate_builds_one_ball(tmp_path, capsys, monkeypatch, walks, walked_on_ball):
    # at --steps 14 the ball of Z2*C3 (26,739 words) fits the budget; the
    # exact column builds it first, and the walks run on that cached ball,
    # even 100 walks, which alone would not pay for building it
    builds = []
    build = mc._build_ball
    monkeypatch.setattr(mc, "_build_ball", lambda *args: builds.append(args) or build(*args))
    walked = []
    ball_block = mc._ball_block
    monkeypatch.setattr(mc, "_ball_block", lambda *args: walked.append(args) or ball_block(*args))
    mc._last_ball.clear()
    config = {"factors": [{"type": "lattice", "dim": 2}, C3], "weights": [0.5, 0.5]}
    code, out = run(tmp_path, capsys, config, "simulate", "--steps", "14", "--walks", str(walks))
    assert code == 0 and out.err == ""
    assert [order for _, order in builds] == [14]
    assert bool(walked) is walked_on_ball


def test_simulate_walks_on_the_exact_columns_ball(tmp_path, capsys, monkeypatch):
    # 20,000 walks alone do not pay for the order-14 ball of Z2*C3 (the cost
    # model charges 33 ms of build against 23 ms of walk saved), but the
    # exact column builds it anyway, so the walks run on it; the output is
    # that of the letter-stack walk, byte for byte (its sha256 before the
    # exact column came first)
    config = {"factors": [{"type": "lattice", "dim": 2}, C3], "weights": [0.5, 0.5]}
    (tmp_path / "spec.json").write_text(json.dumps(config))
    spec, _ = cli.load_config(str(tmp_path / "spec.json"))
    pairs = mc.word_count_bound(spec, 14) * mc.support_size(spec)
    assert not mc._ball_pays(pairs, 14, 20_000)
    builds, walked = [], []
    build, ball_block = mc._build_ball, mc._ball_block
    monkeypatch.setattr(mc, "_build_ball", lambda *args: builds.append(args) or build(*args))
    monkeypatch.setattr(mc, "_ball_block", lambda *args: walked.append(args) or ball_block(*args))
    monkeypatch.setattr(mc, "_simulate_block", None)  # the stack walk is not called
    mc._last_ball.clear()
    code, out = run(tmp_path, capsys, config, "simulate", "--steps", "14", "--walks", "20000")
    assert code == 0 and out.err == ""
    assert [order for _, order in builds] == [14]
    assert len(walked) == -(-20_000 // mc._SIM_BLOCK)
    digest = "a431f5170a02213382f693be9d97c3351af4fc6d67cfe042a3901a5b6ec6db47"
    assert hashlib.sha256(out.out.encode()).hexdigest() == digest


def test_simulate_on_a_ball_past_the_exact_column_within_budget(tmp_path, capsys, monkeypatch):
    # --steps 17 on Z2*C3: the exact column on the ball of order 14, then
    # the walks on the ball of order 17 (forced: 64 walks do not pay for it),
    # built once the first is dropped: the peak stays within the larger
    # ball's bound, plus one block's walk arrays (as in tests/test_mc.py's
    # bound for simulate on the ball)
    monkeypatch.setattr(mc, "_ball_pays", lambda *args: True)
    config = {"factors": [{"type": "lattice", "dim": 2}, C3], "weights": [0.5, 0.5]}
    (tmp_path / "spec.json").write_text(json.dumps(config))
    spec, _ = cli.load_config(str(tmp_path / "spec.json"))
    words = mc.word_count_bound(spec, 17)
    bound = words * mc._STATE_BYTES + words * 6 * mc._PAIR_BYTES + mc._SIM_BLOCK * (10 * 17 + 24)
    mc._last_ball.clear()
    tracemalloc.start()
    try:
        code, out = run(tmp_path, capsys, config, "simulate", "--steps", "17", "--walks", "64")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and out.err == ""
    assert list(mc._last_ball) == [(spec, 17)]
    assert peak <= bound


def test_analyze_solves_the_psi_root_once(tmp_path, capsys, monkeypatch):
    # Psi(theta-bar) < 0 on Z3*Z4: the radius sits at the root of Psi, and
    # the law and the printed numbers read the same root solve
    solves = []
    real = product.brent

    def counting(*args, **kwargs):
        solves.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(product, "brent", counting)
    config = {"factors": [Z3, {"type": "lattice", "dim": 4}], "weights": [0.5, 0.5]}
    code, out = run(tmp_path, capsys, config, "analyze")
    assert code == 0
    report = json.loads(out.out)
    assert report["psi_bar"] < 0 and report["law"]["kind"] == "three-halves"
    assert len(solves) == 1


@pytest.mark.parametrize("criteria", ["abc", "42", "0,1"])
def test_selftest_bad_criteria_exits_2(capsys, criteria):
    with pytest.raises(SystemExit) as exc:
        cli.main(["selftest", "--criteria", criteria])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"criteria in 1-{len(selftest.CRITERIA)}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("seed", [2**64, -(2**63) - 1, 2**63, 2**64 - 1])
def test_seed_outside_philox_range_exits_2(tmp_path, capsys, seed):
    config = {"factors": [C2, C3], "weights": [0.5, 0.5]}
    argv = ("simulate", "--steps", "2", "--walks", "10")
    for cfg, flag in ((config, ("--seed", str(seed))), ({**config, "options": {"seed": seed}}, ())):
        code, out = run(tmp_path, capsys, cfg, *argv, *flag)
        assert code == 2
        assert out.err == f"config error: seed must lie in [-2^63, 2^63) for the Philox key, got {seed}\n"
        assert out.out == ""


@pytest.mark.parametrize("seed", [2**63 - 1, -(2**63)])
def test_seed_at_the_ends_of_the_range_runs(tmp_path, capsys, seed):
    config = {"factors": [C2, C3], "weights": [0.5, 0.5], "options": {"seed": seed}}
    code, out = run(tmp_path, capsys, config, "simulate", "--steps", "2", "--walks", "10")
    assert code == 0
    assert out.out.startswith(f"# walks=10 seed={seed}\n")


NO_SCIPY_RUN = """
import contextlib, io, json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import fprw.cli
configs = json.loads(sys.argv[1])
for name, config in configs.items():
    with open(name + ".json", "w") as f:
        json.dump(config, f)
loaded = set(sys.modules)
for name in configs:
    path = name + ".json"
    for argv in (["analyze"], ["series", "--order", "60"], ["phase", "--grid", "8"],
                 ["simulate", "--steps", "6", "--walks", "200"]):
        with contextlib.redirect_stdout(io.StringIO()):
            code = fprw.cli.main([*argv, "--config", path])
        print(name, argv[0], code, sorted(set(sys.modules) - loaded))
"""


def test_commands_run_without_scipy_and_load_no_module_after_import(tmp_path):
    # scipy is a test extra only, and every module a command needs is loaded
    # by `import fprw.cli`, so none of its cost moves into the first command
    T3 = {"type": "tree", "q": 3}
    configs = {
        "Z5xZ6": {"factors": [Z5, Z6], "weights": [0.5, 0.5]},
        "C2xC3": {"factors": [C2, C3], "weights": [0.5, 0.5]},
        "Z5xT3": {"factors": [Z5, T3], "weights": [0.5, 0.5]},
    }
    env = {**os.environ, "PYTHONPATH": str(Path(fprw.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_RUN, json.dumps(configs)],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    lines = out.stdout.splitlines()
    assert len(lines) == 4 * len(configs)
    for line in lines:
        name, command, code, loaded = line.split(" ", 3)
        assert (code, loaded) == ("0", "[]"), line


HELPER_CPU_RUN = """
import contextlib, io, resource, sys, time
import fprw.cli
time.sleep(0.5)  # let the spin after numpy's import end

def others():
    s, t = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_THREAD)
    return s.ru_utime + s.ru_stime - t.ru_utime - t.ru_stime

for argv in (["simulate", "--steps", "14", "--walks", "4096", "--config", sys.argv[1]],
             ["series", "--order", "12000", "--config", sys.argv[2]]):
    before = others()
    with contextlib.redirect_stdout(io.StringIO()):
        code = fprw.cli.main(argv)
    end = time.perf_counter() + 0.05  # busy, so that a spin after the call is counted
    while time.perf_counter() < end:
        pass
    print(argv[0], code, others() - before)
"""


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs per-thread CPU times")
def test_commands_leave_no_helper_thread_cpu(tmp_path):
    # a BLAS dot past 10,000 terms runs on OpenBLAS's thread pool, whose helper
    # thread then spins for about 130 ms of CPU.  As np.dot, bfs_convolution's
    # escape sum over the 26,739 words of Z2*C3 left 53 ms behind `simulate`,
    # and the tree recurrence 199 ms behind `series --order 12000` on T3*C3
    T3 = {"type": "tree", "q": 3}
    configs = [
        {"factors": [{"type": "lattice", "dim": 2}, C3], "weights": [0.5, 0.5]},
        {"factors": [T3, C3], "weights": [0.5, 0.5]},
    ]
    paths = []
    for i, config in enumerate(configs):
        paths.append(tmp_path / f"config{i}.json")
        paths[-1].write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": str(Path(fprw.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", HELPER_CPU_RUN, *map(str, paths)],
        env=env, cwd=tmp_path, capture_output=True, text=True, check=True,
    )
    lines = [line.split() for line in out.stdout.splitlines()]
    assert [line[:2] for line in lines] == [["simulate", "0"], ["series", "0"]]
    for command, _, seconds in lines:
        assert float(seconds) < 0.005, command
