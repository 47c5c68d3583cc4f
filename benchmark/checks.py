"""Checks of the CLI's outputs, run after the timed window.

Each check compares an output with values computed apart from the program
(oracles.py) or with properties the method must have; none compares with a
stored copy of an earlier output.  Where a check needs a second route through
fprw itself (word convolution, the direct m-factor classification, the
product series), it names that route, and it runs in the benchmark process,
never in a timed round.

The CLI prints floats to 12 significant digits, which is up to 5e-12 relative,
so a relative tolerance `rel` is applied as rel + 5e-12 of the reference.
"""

from __future__ import annotations

import json
import math
import sys

import oracles

PRINT_REL = 5e-12
TINY = sys.float_info.min  # smallest normal float
SIGN_TOL = 1e-9  # fprw counts |Upsilon| <= 1e-9 as zero
CRIT_TOL = 1e-8  # fprw counts |Psi(theta-bar)| <= 1e-8 as critical
CASE_F_TOL = 1e-6  # Upsilon(alpha_c) this close to 0 is the tuned case F
Z_LIMIT = 5.0
LATTICE_BFS_ORDER = 6
WORD_BFS_ORDER = 14


def close(value, reference, rel) -> bool:
    """value within rel (plus print rounding) of reference; "inf" strings count as inf."""
    value, reference = float(value), float(reference)
    if math.isinf(reference):
        return value == reference
    return abs(value - reference) <= (rel + PRINT_REL) * abs(reference)


def _flag(op, name: str) -> int:
    argv = op["argv"]
    return int(argv[argv.index(name) + 1])


def _inherits(kind, index, lam, kappa, candidates, lams) -> bool:
    """An inherited law from a candidate factor with the smallest exponent."""
    best = min(lams[i] for i in candidates)
    return (
        kind == "inherited"
        and index in candidates
        and lams[index] == best
        and lam == best
        and kappa == 0
    )


class Oracle:
    """Reference values for one run, each computed once."""

    def __init__(self):
        self._facts = {}
        self._program = {}

    def facts(self, factor_cfg: dict) -> dict:
        key = json.dumps(factor_cfg, sort_keys=True)
        if key not in self._facts:
            self._facts[key] = oracles.factor_facts(factor_cfg)
        return self._facts[key]

    def program(self, route: str, config_path: str, arg=None):
        """Second route through fprw: 'bfs' (word convolution), 'series' or 'direct'."""
        key = (route, config_path, arg)
        if key not in self._program:
            from fprw import classify, mc, product
            from fprw.cli import load_config

            spec, _ = load_config(config_path)
            if route == "bfs":
                value = mc.bfs_convolution(spec, arg).coeffs
            elif route == "series":
                value = product.product_green_series(spec, arg).coeffs
            else:
                value = classify.classify_multi(spec, method="direct")
            self._program[key] = value
        return self._program[key]


def check(op: dict, text: str, config_path: str, oracle: Oracle) -> list:
    """Problems found in one operation's output; empty when it passes."""
    command = op["argv"][0]
    fn = {
        "phase": check_phase,
        "series": check_series,
        "analyze": check_analyze,
        "simulate": check_simulate,
    }[command]
    try:
        return fn(op, text, config_path, oracle)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# phase


def regime(f1: dict, f2: dict) -> str:
    """The A-F label of the V-shaped Upsilon from the factors' theta and Psi limits."""
    th1, th2 = f1["theta"], f2["theta"]
    p1, p2 = f1["psi_at_radius"], f2["psi_at_radius"]
    middle = p1 + p2 - 1.0
    if math.isinf(th1) and math.isinf(th2):
        return "E" if middle < 0 else "undefined"
    at0 = middle if math.isinf(th2) else p2
    at1 = middle if math.isinf(th1) else p1
    interior = math.isfinite(th1) and math.isfinite(th2)
    bottom = middle if interior else min(at0, at1)
    if interior and abs(bottom) <= CASE_F_TOL:
        return "F"
    if bottom > 0:
        return "D"
    if at0 <= 0 and at1 <= 0:
        return "E"
    if at0 > 0 and at1 > 0:
        return "A"
    return "B" if at0 > 0 else "C"


def critical_weight(th1: float, th2: float):
    if math.isinf(th1) and math.isinf(th2):
        return None
    if math.isinf(th1):
        return 1.0
    if math.isinf(th2):
        return 0.0
    return th1 / (th1 + th2)


def check_phase(op, text, config_path, oracle):
    out = json.loads(text)
    f1, f2 = (oracle.facts(f) for f in op["config"]["factors"])
    problems = []
    expected = regime(f1, f2)
    if out["case"] != expected:
        problems.append(f"case {out['case']}, expected {expected}")
    ac = critical_weight(f1["theta"], f2["theta"])
    if (ac is None) != (out["alpha_c"] is None) or (
        ac is not None and abs(out["alpha_c"] - ac) > 1e-8
    ):
        problems.append(f"alpha_c {out['alpha_c']}, expected {ac}")
    grid = out["grid"]
    if len(grid) != _flag(op, "--grid"):
        problems.append(f"{len(grid)} grid points")
    split = 0.5 if ac is None else ac
    for a, b in zip(grid, grid[1:]):
        ua, ub = a["upsilon"], b["upsilon"]
        slack = 1e-11 * max(1.0, abs(ua), abs(ub))
        if b["alpha1"] <= split and ub > ua + slack:
            problems.append(f"Upsilon rises before alpha_c at {b['alpha1']}")
        if a["alpha1"] >= split and ub < ua - slack:
            problems.append(f"Upsilon falls after alpha_c at {b['alpha1']}")
    lams = (f1["lam"], f2["lam"])
    for p in grid:
        problems += _point_law(p, f1["theta"], f2["theta"], lams)
    return problems


def _point_law(p, th1, th2, lams):
    ups, alpha = p["upsilon"], p["alpha1"]
    where = f"alpha1={alpha}"
    if ups <= 0 or (ups <= SIGN_TOL and p["kind"] == "three-halves"):
        if (p["kind"], p["lambda"], p["kappa"]) != ("three-halves", 1.5, 0):
            return [f"{where}: Upsilon {ups} <= 0 but law {p['kind']} n^-{p['lambda']}"]
        return []
    ratios = (th1 / alpha, th2 / (1.0 - alpha))
    tied = [i for i in (0, 1) if ratios[i] <= min(ratios) * (1.0 + 1e-9)]
    if not _inherits(p["kind"], p["factor_index"], p["lambda"], p["kappa"], tied, lams):
        return [f"{where}: law {p['kind']} from factor {p['factor_index']} n^-{p['lambda']},"
                f" expected inherited n^-{min(lams[i] for i in tied)} from {tied}"]
    return []


# ---------------------------------------------------------------------------
# series


def parse_series(text: str):
    """(radius, period, coefficients) from the JSON or the CSV output."""
    if text.startswith("#"):
        lines = text.splitlines()
        head = dict(item.split("=") for item in lines[0][1:].split())
        coeffs = [float(line.split(",")[1]) for line in lines[2:]]
        return float(head["radius"]), int(head["period"]), coeffs
    out = json.loads(text)
    return float(out["radius"]), out["period"], [float(c) for c in out["coefficients"]]


def _is_lattice_product(factors) -> bool:
    return any(f["type"] == "lattice" for f in factors)


def _is_tree_walk(op) -> bool:
    """The product of q flips with equal weights is the uniform q-regular tree walk."""
    factors = op["config"]["factors"]
    weights = op["config"]["weights"]
    return (
        len(factors) >= 3
        and all(f == {"type": "cyclic", "n": 2, "mu": [0.0, 1.0]} for f in factors)
        and max(weights) - min(weights) <= 1e-12 * max(weights)
    )


def check_series(op, text, config_path, oracle):
    radius, period, c = parse_series(text)
    order = _flag(op, "--order")
    factors = op["config"]["factors"]
    problems = []
    if len(c) != order + 1:
        return [f"{len(c)} coefficients for order {order}"]
    expected_period = math.gcd(*(oracle.facts(f)["period"] for f in factors))
    if period != expected_period:
        problems.append(f"period {period}, expected {expected_period}")
    outside = [n for n, x in enumerate(c) if not 0.0 <= x <= 1.0]
    if outside:
        problems.append(f"coefficients outside [0, 1] at n = {outside[:5]}")
    off = [n for n, x in enumerate(c) if n % expected_period and x != 0.0]
    if off:
        problems.append(f"nonzero coefficients off the period lattice at n = {off[:5]}")
    bfs_order = LATTICE_BFS_ORDER if _is_lattice_product(factors) else WORD_BFS_ORDER
    words = oracle.program("bfs", config_path, min(bfs_order, order))
    bad = [n for n, w in enumerate(words) if not close(c[n], w, 1e-12)]
    if bad:
        problems.append(f"word convolution disagrees at n = {bad[:5]}")
    if _is_tree_walk(op):
        q = len(factors)
        tree = oracles.tree_series(q, order)
        bad = [n for n, t in enumerate(tree) if t >= TINY and not close(c[n], t, 1e-12)]
        if bad:
            problems.append(f"{q}-regular tree series disagrees at n = {bad[:5]}")
        if not close(radius, oracles.tree_radius(q), 1e-10):
            problems.append(f"radius {radius}, expected {oracles.tree_radius(q)}")
    return problems


# ---------------------------------------------------------------------------
# analyze


_REPORT_FIELDS = ("radius", "g_at_radius", "gprime_at_radius", "theta", "psi_at_radius")


def check_analyze(op, text, config_path, oracle):
    out = json.loads(text)
    factors = op["config"]["factors"]
    facts = [oracle.facts(f) for f in factors]
    problems = []
    for i, (rep, ref) in enumerate(zip(out["factors"], facts)):
        for field in _REPORT_FIELDS:
            if not close(rep[field], ref[field], 1e-10):
                problems.append(f"factor {i} {field} {rep[field]}, expected {ref[field]}")
        if rep["period"] != ref["period"]:
            problems.append(f"factor {i} period {rep['period']}, expected {ref['period']}")
    law = out["law"]
    got = (law["kind"], law["lambda"], law["kappa"])
    if len(factors) == 2 and all(f["type"] == "cyclic" and f["n"] == 2 for f in factors):
        if got != ("one-half-degenerate", 0.5, 0):
            problems.append(f"(Z/2Z)*(Z/2Z) law {got}, expected n^-1/2")
        return problems
    weights = op["config"]["weights"]
    ratios = [f["theta"] * sum(weights) / w for f, w in zip(facts, weights)]
    lowest = min(ratios)
    if math.isinf(lowest):
        must = may = set(range(len(factors)))
    else:
        must = {i for i, r in enumerate(ratios) if r <= lowest * (1.0 + 1e-10)}
        may = {i for i, r in enumerate(ratios) if r <= lowest * (1.0 + 1e-8)}
    argmin = set(out["argmin_set"])
    if not must <= argmin <= may:
        problems.append(f"argmin set {sorted(argmin)}, expected {sorted(must)}")
    psi = float(out["psi_bar"])
    lams = [f["lam"] for f in facts]
    if psi > CRIT_TOL:
        if not _inherits(law["kind"], law["factor_index"], law["lambda"], law["kappa"],
                         argmin, lams):
            problems.append(f"Psi(theta-bar) = {psi} > 0 but law {got} from"
                            f" {law['factor_index']}, expected inherited"
                            f" n^-{min(lams[i] for i in argmin)}")
    elif got != ("three-halves", 1.5, 0):
        problems.append(f"Psi(theta-bar) = {psi} <= 0 but law {got}, expected n^-3/2")
    if len(factors) >= 3:
        direct = oracle.program("direct", config_path)
        want = (direct.kind, direct.lam, direct.kappa, direct.factor_index)
        if (law["kind"], law["lambda"], law["kappa"], law["factor_index"]) != want:
            problems.append(f"fold law {got} differs from the direct classification {want}")
    return problems


# ---------------------------------------------------------------------------
# simulate


def check_simulate(op, text, config_path, oracle):
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[2:]]
    steps = _flag(op, "--steps")
    if len(rows) != steps:
        return [f"{len(rows)} rows for {steps} steps"]
    exact_order = min(steps, WORD_BFS_ORDER)
    series = oracle.program("series", config_path, exact_order)
    tree = oracles.tree_series(len(op["config"]["factors"]), exact_order) if _is_tree_walk(op) else None
    problems = []
    for row in rows[:exact_order]:
        n, empirical, exact, z = int(row[0]), float(row[1]), float(row[2]), float(row[3])
        if not close(exact, series[n], 1e-12):
            problems.append(f"n={n}: exact {exact}, product series {series[n]}")
        if tree is not None and not close(exact, tree[n], 1e-12):
            problems.append(f"n={n}: exact {exact}, tree series {tree[n]}")
        if exact > 0 and abs(z) > Z_LIMIT:
            problems.append(f"n={n}: Monte Carlo z-score {z}")
        if exact == 0 and empirical != 0:
            problems.append(f"n={n}: {empirical} of the walks returned where no return is possible")
    return problems
