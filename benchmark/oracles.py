"""Reference values computed apart from the fprw code.

Lattice Green functions at the radius come from mpmath quadrature of the
Laplace form G(rho) = int_0^inf prod_j e^{-a_j s} I0(a_j s) ds, a_j = c_j rho,
sum_j a_j = 1.  Each Bessel factor is scaled by its own exponential, so no
exponent cancels at large s; the tail s > 100 is mapped by s = 100 / v^2, which
turns the algebraic decay s^{-k/2} into a smooth integrand on (0, 1].
Tree values come from the closed form of the q-regular tree and its
first-passage series; finite-group values from dense linear algebra.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

import mpmath as mp
import numpy as np

_DPS = 20
_TAIL_START = 100


# ---------------------------------------------------------------------------
# Z^d lattices


def lattice_coupling(beta, p):
    """c_j = 2 beta_j sqrt(p_j (1 - p_j)) per axis, as exact as mpmath allows."""
    return [2 * mp.mpf(b) * mp.sqrt(mp.mpf(x) * (1 - mp.mpf(x))) for b, x in zip(beta, p)]


@lru_cache(maxsize=None)
def _lattice_at_radius(beta: tuple, p: tuple, deriv: int) -> float:
    with mp.workdps(_DPS):
        groups = Counter(zip(beta, p))
        c = [lattice_coupling([b], [x])[0] for b, x in groups]
        mult = list(groups.values())
        total = mp.fsum(cj * m for cj, m in zip(c, mult))
        a = [cj / total for cj in c]
        # force sum_j m_j a_j = 1 exactly: the damping factor is then 1
        a[-1] = (1 - mp.fsum(x * m for x, m in zip(a[:-1], mult[:-1]))) / mult[-1]

        def f(s):
            scale = [mp.exp(-aj * s) for aj in a]
            i0 = [mp.besseli(0, aj * s) * e for aj, e in zip(a, scale)]
            base = mp.fprod(v**m for v, m in zip(i0, mult))
            if deriv == 0:
                return base
            i1 = [mp.besseli(1, aj * s) * e for aj, e in zip(a, scale)]
            # d/dz at z = rho: each axis gives c_j s I1/I0
            return base * s * total * mp.fsum(
                m * aj * v1 / v0 for v0, v1, aj, m in zip(i0, i1, a, mult)
            )

        head = mp.quad(f, [0, 1, 10, _TAIL_START])
        tail = mp.quad(lambda v: f(_TAIL_START / v**2) * 2 * _TAIL_START / v**3, [0, 1])
        return float(head + tail)


def lattice_radius(beta, p) -> float:
    with mp.workdps(_DPS):
        return float(1 / mp.fsum(lattice_coupling(beta, p)))


def lattice_green_at_radius(beta, p, deriv: int = 0) -> float:
    """G(rho) (deriv 0) or G'(rho) (deriv 1); inf where the integral diverges."""
    d = len(beta)
    if d - 2 * deriv <= 2:
        return math.inf
    return _lattice_at_radius(tuple(map(float, beta)), tuple(map(float, p)), deriv)


# ---------------------------------------------------------------------------
# q-regular trees (free product of q copies of Z/2Z, uniform steps)


def tree_radius(q: int) -> float:
    return q / (2.0 * math.sqrt(q - 1.0))


def tree_green_at_radius(q: int) -> float:
    return math.inf if q == 2 else 2.0 * (q - 1.0) / (q - 2.0)


@lru_cache(maxsize=None)
def tree_series(q: int, order: int) -> tuple:
    """Return probabilities of the q-regular tree walk, n = 0..order.

    First passage from a neighbour to the root is f_{2k+1} = C_k (q-1)^k /
    q^{2k+1} (Catalan numbers C_k); a return is one step out and a first
    passage back, U = z F, and G = 1 / (1 - U).  Every term is positive, so
    30-digit arithmetic keeps every coefficient to full double precision.
    """
    with mp.workdps(30):
        u = [mp.mpf(0)] * (order + 1)
        catalan = mp.mpf(1)
        for k in range(order // 2):
            u[2 * k + 2] = catalan * mp.mpf(q - 1) ** k / mp.mpf(q) ** (2 * k + 1)
            catalan = catalan * 2 * (2 * k + 1) / (k + 2)
        g = [mp.mpf(0)] * (order + 1)
        g[0] = mp.mpf(1)
        for n in range(2, order + 1, 2):
            g[n] = mp.fdot(u[2 : n + 1 : 2], g[n - 2 :: -2])
        return tuple(float(x) for x in g)


# ---------------------------------------------------------------------------
# finite groups


def finite_matrix(order: int, mu, table) -> np.ndarray:
    """P[x][y] = mu(x^-1 y) from a Cayley table with identity 0."""
    inv = [table[x].index(0) for x in range(order)]
    return np.array(
        [[mu[table[inv[x]][y]] for y in range(order)] for x in range(order)], dtype=float
    )


def finite_radius(P: np.ndarray) -> float:
    return float(1.0 / np.max(np.abs(np.linalg.eigvals(P))))


def finite_period(P: np.ndarray) -> int:
    """gcd of the n <= 2|G| with P^n(e, e) > 0 (e = index 0)."""
    g = 0
    row = np.zeros(P.shape[0])
    row[0] = 1.0
    for n in range(1, 2 * P.shape[0] + 1):
        row = row @ P
        if row[0] > 1e-12:
            g = math.gcd(g, n)
    return g


# ---------------------------------------------------------------------------
# one description per factor config


def factor_facts(cfg: dict) -> dict:
    """radius, G(radius), G'(radius), theta, Psi limit, period and law exponent.

    `lam` is the exponent of the inherited law n^-lam (inf when the factor has
    no singular term a product can inherit).
    """
    kind = cfg["type"]
    if kind == "lattice":
        if "dim" in cfg:
            d = cfg["dim"]
            beta, p = (1.0 / d,) * d, (0.5,) * d
        else:
            beta, p = tuple(cfg["beta"]), tuple(cfg["p"])
        d = len(beta)
        r = lattice_radius(beta, p)
        g = lattice_green_at_radius(beta, p, 0)
        gp = lattice_green_at_radius(beta, p, 1)
        psi = 0.0 if math.isinf(gp) else g * g / (r * gp + g)
        lam = d / 2.0 if d >= 5 else math.inf
        return _facts(r, g, gp, psi, 2, lam)
    if kind == "tree":
        q = cfg["q"]
        return _facts(tree_radius(q), tree_green_at_radius(q), math.inf, 0.0, 2, 1.5)
    if kind == "explicit":
        sing = cfg.get("sing")
        lam = math.inf if sing is None else sing[0] + 1.0
        g = float(cfg["g_at_r"])  # "inf" is written as a string
        gp = float(cfg["gprime_at_r"])
        psi = 0.0 if math.isinf(gp) else g * g / (cfg["radius"] * gp + g)
        return _facts(cfg["radius"], g, gp, psi, cfg["period"], lam)
    if kind == "cyclic":
        n = cfg["n"]
        P = finite_matrix(n, cfg["mu"], [[(x + y) % n for y in range(n)] for x in range(n)])
    elif kind == "finite":
        P = np.array(cfg["P"], dtype=float)
    else:
        raise ValueError(f"unknown factor type {kind!r}")
    return _facts(finite_radius(P), math.inf, math.inf, 1.0 / P.shape[0], finite_period(P), math.inf)


def _facts(r, g, gp, psi, period, lam) -> dict:
    theta = r * g if math.isfinite(g) else math.inf
    return {
        "radius": r,
        "g_at_radius": g,
        "gprime_at_radius": gp,
        "theta": theta,
        "psi_at_radius": psi,
        "period": period,
        "lam": lam,
    }
