"""Seeded inputs of the four workloads.

An operation is one `fprw` CLI command: a config (factors, weights) and the
command's arguments.  Each workload has a fixed make-up, so that every seed
asks for about the same work; the seed draws the continuous parameters
(mixing weights, step distributions, axis weights, Monte Carlo seeds) and
the order of the operations.
"""

from __future__ import annotations

import itertools
import math
import random

import oracles

WORKLOADS = ("phase-diagram", "exact-series", "law-catalog", "oracle-profile")

PHASE_GRID = 16
SIM_STEPS = 14
SIM_WALKS = 40_000
TREE_EXPLICIT_ORDER = 256


def lattice(d: int) -> dict:
    return {"type": "lattice", "dim": d}


def axis_lattice(beta, p=None) -> dict:
    return {"type": "lattice", "beta": list(beta), "p": list(p or [0.5] * len(beta))}


def tree(q: int) -> dict:
    return {"type": "tree", "q": q}


def flip() -> dict:
    return {"type": "cyclic", "n": 2, "mu": [0.0, 1.0]}


def cyclic(rng: random.Random, n: int) -> dict:
    """Z/nZ with a random step law that puts mass on every residue."""
    raw = [rng.uniform(0.2, 1.0) for _ in range(n)]
    total = sum(raw)
    mu = [x / total for x in raw]
    mu[-1] = 1.0 - sum(mu[:-1])
    return {"type": "cyclic", "n": n, "mu": mu}


def klein_four(rng: random.Random) -> dict:
    """Z/2Z x Z/2Z with a random step law on its three non-identity elements."""
    table = [[x ^ y for y in range(4)] for x in range(4)]
    raw = [0.0] + [rng.uniform(0.2, 1.0) for _ in range(3)]
    mu = [x / sum(raw) for x in raw]
    P = [[mu[table[x][y]] for y in range(4)] for x in range(4)]
    return {"type": "finite", "P": P, "id": 0, "table": table}


def symmetric_three(rng: random.Random) -> dict:
    """S_3 (permutations of three points) with a random step law on it."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms]
    raw = [rng.uniform(0.2, 1.0) for _ in perms]
    mu = [x / sum(raw) for x in raw]
    inv = [table[x].index(0) for x in range(6)]
    P = [[mu[table[inv[x]][y]] for y in range(6)] for x in range(6)]
    return {"type": "finite", "P": P, "id": 0, "table": table}


def explicit_tree(q: int) -> dict:
    """The q-regular tree walk given as an explicit series with its metadata."""
    return {
        "type": "explicit",
        "coeffs": list(oracles.tree_series(q, TREE_EXPLICIT_ORDER)),
        "radius": oracles.tree_radius(q),
        "g_at_r": oracles.tree_green_at_radius(q),
        "gprime_at_r": "inf",
        "sing": [0.5, 0],
        "period": 2,
    }


def tuned_family(d: int, delta: float) -> dict:
    """Mass 1 - delta on the first axis, the rest spread evenly."""
    return axis_lattice([1.0 - delta] + [delta / (d - 1)] * (d - 1))


def op(name, command, factors, weights, args=(), **meta) -> dict:
    return {
        "name": name,
        "argv": [command, *args],
        "config": {"factors": factors, "weights": [float(w) for w in weights]},
        "meta": meta,
    }


def build(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    ops = {
        "phase-diagram": _phase_diagram,
        "exact-series": _exact_series,
        "law-catalog": _law_catalog,
        "oracle-profile": _oracle_profile,
    }[workload](rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------


def _tuned_pair(d1: int, d2: int, psi1: float, psi2: float):
    """Two lattices tuned by fprw's own axis-weight search to Psi(theta) targets.

    Only the inputs come from the program; every check on these products
    uses the oracle's values.
    """
    from fprw import phase

    f1 = phase.tune_axis_weights(d1, psi1)
    f2 = phase.tune_axis_weights(d2, psi2)
    return axis_lattice(f1.beta, f1.p), axis_lattice(f2.beta, f2.p)


def _phase_diagram(rng):
    grid = ["--grid", str(PHASE_GRID)]
    pairs = [
        ("Z5*Z6", [lattice(5), lattice(6)]),
        ("Z3*Z4", [lattice(3), lattice(4)]),
        ("Z2*Z7", [lattice(2), lattice(7)]),
        ("Z7*Z2", [lattice(7), lattice(2)]),
        ("Z5*T3", [lattice(5), tree(3)]),
    ]
    u = rng.uniform(-0.05, 0.05)
    pairs.append(("tuned-Z5*Z6", list(_tuned_pair(5, 6, 0.5 + u, 0.5 - u))))
    mixed = [lattice(rng.choice((5, 6, 7, 8))), cyclic(rng, rng.choice((3, 4, 5)))]
    if rng.random() < 0.5:
        mixed.reverse()
    pairs.append(("lattice*cyclic", mixed))
    out = []
    for name, factors in pairs:
        a = rng.uniform(0.2, 0.8)  # phase ignores the weights; the config needs them
        out.append(op(name, "phase", factors, [a, 1.0 - a], grid))
    return out


def _exact_series(rng):
    a = rng.uniform(0.3, 0.7)
    x = rng.uniform(0.3, 0.7)
    c3 = {"type": "cyclic", "n": 3, "mu": [0.0, x, 1.0 - x]}
    b = rng.uniform(0.35, 0.65)
    w3 = [0.4 + rng.uniform(-0.03, 0.03), 0.4 + rng.uniform(-0.03, 0.03)]
    w3.append(1.0 - sum(w3))
    f7, f8 = _tuned_pair(7, 8, 0.5, 0.5)
    th7 = oracles.factor_facts(f7)["theta"]
    th8 = oracles.factor_facts(f8)["theta"]
    ac = th7 / (th7 + th8)
    js = ["--format", "json"]
    return [
        op("C2*C3", "series", [flip(), c3], [a, 1.0 - a], ["--order", "2000", *js]),
        op("C2*C2*C2", "series", [flip(), flip(), flip()], [1 / 3] * 3, ["--order", "2000", *js]),
        op("Z5*Z6", "series", [lattice(5), lattice(6)], [b, 1.0 - b], ["--order", "1500", *js]),
        op("Z5*Z6*T3", "series", [lattice(5), lattice(6), tree(3)], w3, ["--order", "1000", *js]),
        op("tuned-Z7*Z8", "series", [f7, f8], [ac, 1.0 - ac], ["--order", "3000", *js]),
        # the CLI's default CSV output overflows radius**n here (radius 1.77,
        # n >= 1239) on every seed; kept so the fault stays counted
        op("Z5*Z6-csv", "series", [lattice(5), lattice(6)], [0.5, 0.5], ["--order", "1500"],
           expect_failure=True),
    ]


JITTER = 0.04  # log-weight jitter: keeps each weight on its side of the critical weight


def _weight_scan(name, factors, rng, offsets):
    """One `analyze` per offset vector: weights proportional to theta_i e^{offset_i}.

    With every theta_i finite, offset 0 ties all ratios theta_i/alpha_i (the
    critical weight); a positive offset on factor i moves the argmin away from
    it.  Factor sets with an infinite theta start from equal weights.  The
    offsets are fixed per factor set and the seed only jitters them, so each
    seed asks for the same mix of Psi(theta-bar) signs and of nested solves.
    """
    thetas = [oracles.factor_facts(f)["theta"] for f in factors]
    base = thetas if all(math.isfinite(t) for t in thetas) else [1.0] * len(factors)
    out = []
    for k, offset in enumerate(offsets):
        w = [b * math.exp(o + rng.uniform(-JITTER, JITTER)) for b, o in zip(base, offset)]
        out.append(op(f"{name}@{k}", "analyze", factors, [x / sum(w) for x in w]))
    return out


def _law_catalog(rng):
    q3, q4 = tree(3), tree(4)
    around = [(-0.3, 0.0), (-0.1, 0.0), (0.2, 0.0)]
    return [
        *_weight_scan("Z5*Z7", [lattice(5), lattice(7)], rng, around),
        *_weight_scan("Z6*Z8", [lattice(6), lattice(8)], rng, around),
        *_weight_scan("tuned-Z5*T3", [tuned_family(5, rng.uniform(0.15, 0.25)), q3], rng,
                      [(-0.6, 0.0), (-0.2, 0.0), (0.6, 0.0)]),
        *_weight_scan("tuned-Z7*Z6", [tuned_family(7, rng.uniform(0.15, 0.25)), lattice(6)],
                      rng, [(-0.2, 0.0), (0.2, 0.0)]),
        *_weight_scan("T3*T4", [q3, q4], rng, [(-0.5, 0.0), (0.5, 0.0)]),
        *_weight_scan("X3*Z6", [explicit_tree(3), lattice(6)], rng, [(-0.5, 0.0), (-0.2, 0.0)]),
        *_weight_scan("X4*C4", [explicit_tree(4), cyclic(rng, 4)], rng, [(0.0, 0.0)]),
        *_weight_scan("Z3*C3", [lattice(3), cyclic(rng, 3)], rng, [(0.0, 0.0)]),
        *_weight_scan("Z3*S3", [lattice(3), symmetric_three(rng)], rng, [(0.0, 0.0)]),
        *_weight_scan("C5*T4", [cyclic(rng, 5), q4], rng, [(0.0, 0.0)]),
        *_weight_scan("V4*Z8", [klein_four(rng), lattice(8)], rng, [(0.0, 0.0)]),
        *_weight_scan("Z5*Z6*T3", [lattice(5), lattice(6), q3], rng,
                      [(0.0, 0.0, -0.4), (0.0, 0.0, 0.4)]),
        *_weight_scan("T4*C2*Z7", [q4, flip(), lattice(7)], rng, [(0.0, 0.0, 0.0)]),
        *_weight_scan("X3*T4*Z8", [explicit_tree(3), q4, lattice(8)], rng, [(0.0, 0.0, 0.5)]),
        *_weight_scan("C2*C2", [flip(), flip()], rng, [(0.0, 0.0)]),
    ]


def _oracle_profile(rng):
    def run_args():
        return ["--steps", str(SIM_STEPS), "--walks", str(SIM_WALKS),
                "--seed", str(rng.randrange(2**31))]

    # narrow weight ranges: the cost of a simulated step depends on them
    def pair():
        a = rng.uniform(0.45, 0.55)
        return [a, 1.0 - a]

    x = rng.uniform(0.45, 0.55)
    c3 = lambda: {"type": "cyclic", "n": 3, "mu": [0.0, x, 1.0 - x]}
    return [
        op("C2*C3", "simulate", [flip(), c3()], pair(), run_args()),
        op("C2*C2*C2", "simulate", [flip(), flip(), flip()], [1 / 3] * 3, run_args()),
        op("Z1*Z1", "simulate", [lattice(1), lattice(1)], pair(), run_args()),
        op("Z1*C2", "simulate", [lattice(1), flip()], pair(), run_args()),
        op("Z2*C3", "simulate", [lattice(2), c3()], pair(), run_args()),
    ]
