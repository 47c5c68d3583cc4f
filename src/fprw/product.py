"""Free-product layer: theta-bar, Psi and Phi over the analysed factors,
the spectral radius of the product walk, the exact product Green series from
one first-visit (zeta) system over all m factors, and the square-root
coefficient at criticality.

Every product-level Psi or Phi value comes from `psi_of` or `phi_of`, and
`_solve_branch` finds the branch in one pass: theta-bar, Psi there and the
argument theta of the radius.  `analyze_product` is its only caller and
the one source of every product fact; `phase` reads `psi_of` alone.

The first-visit system is solved in y = (z/R)^d, where d is the period of
the product walk: every return coefficient off multiples of d is an exact
zero, so the solve runs at a d-th of the order.  It makes the same
cancellation-free Newton passes over the nonzero coefficients alone, and its
relative error stays near roundoff (`normalized_green_series`).  Each pass
forms its Jacobian at half the pass's order (`_zeta_series`).  A factor's
kernel is composed with the unknowns by Brent-Kung, or for a finite group
at high orders evaluated from its closed rational form by the same
cancellation-free elimination as the Jacobian (`_eliminated`).

Conventions for infinite values follow the ratio rules c/(c+inf) = 0 and
inf/(inf+c) = 1; Psi_i at an infinite argument uses the factor's stored limit
(0 for null-recurrent factors, the stationary mass 1/|Gamma_i| for finite
groups), which keeps every branch a total function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConfigError, FprwError, RootNotBracketed
from .factors import (
    FiniteGroup,
    analyze_factor,
    invert_w,
    phi_at,
    psi_at_argument,
)
from .roots import brent
from .series import (
    _SPLIT_ORDER,
    PowerSeries,
    series_compose,
    series_derivative,
    series_mul,
    series_reciprocal,
)

_CRIT_TOL = 1e-8  # |Psi(theta-bar)| below this counts as exactly critical
_WARN_TOL = 1e-4  # near-critical warning band
_TIE_RTOL = 1e-9  # relative tie tolerance for the argmin of theta_i/alpha_i


@dataclass(frozen=True)
class FreeProductSpec:
    """m >= 2 factors with positive mixing weights (normalized on construction)."""

    factors: tuple
    weights: tuple

    def __post_init__(self):
        factors = tuple(self.factors)
        weights = tuple(float(w) for w in self.weights)
        if len(factors) < 2:
            raise ConfigError("a free product needs at least two factors")
        if len(weights) != len(factors):
            raise ConfigError("one weight per factor required")
        if any(w <= 0 for w in weights) or not math.isfinite(sum(weights)):
            raise ConfigError("weights must be positive and finite")
        total = sum(weights)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "weights", tuple(w / total for w in weights))

    @property
    def m(self) -> int:
        return len(self.factors)


def is_two_by_two(spec: FreeProductSpec) -> bool:
    """True for (Z/2Z)*(Z/2Z), the single recurrent (degenerate) product."""
    return spec.m == 2 and all(
        isinstance(f, FiniteGroup) and f.order == 2 for f in spec.factors
    )


def factor_analytics(spec: FreeProductSpec):
    """Analyzed factors of the product; analyze_factor caches each factor."""
    return tuple(analyze_factor(f) for f in spec.factors)


def product_period(spec: FreeProductSpec) -> int:
    return math.gcd(*(an.period for an in factor_analytics(spec)))


def theta_bar_of(ans, weights):
    """(theta-bar, argmin set) for theta-bar = min_i theta_i / alpha_i."""
    ratios = [an.theta / a for an, a in zip(ans, weights)]
    tbar = min(ratios)
    if math.isinf(tbar):
        return math.inf, tuple(range(len(ratios)))
    argmin = tuple(i for i, r in enumerate(ratios) if r <= tbar * (1.0 + _TIE_RTOL))
    return tbar, argmin


def psi_of(ans, weights, t: float) -> float:
    """Psi(t) = 1 + sum_i (Psi_i(alpha_i t) - 1) over analysed factors,
    totalized at infinity."""
    return 1.0 + sum(psi_at_argument(an, a * t) - 1.0 for an, a in zip(ans, weights))


def phi_of(ans, weights, t: float, deriv: int = 0) -> float:
    """Phi^(deriv)(t) for Phi(t) = sum_i Phi_i(alpha_i t) - (m - 1), with
    Phi_i(w(z)) = G_i(z): deriv 1 and 2 sum alpha_i Phi_i' and alpha_i^2
    Phi_i''.  NeedsDerivative propagates."""
    total = 1.0 - len(ans) if deriv == 0 else 0.0
    for an, a in zip(ans, weights):
        total += (1.0, a, a * a)[deriv] * phi_at(an, invert_w(an, a * t), deriv)
    return total


def _solve_branch(ans, weights):
    """(theta-bar, argmin set, Psi(theta-bar), theta, Phi(theta)) of a product
    that is not (Z/2Z)*(Z/2Z).

    Psi(theta-bar) >= 0: theta = theta-bar.  Psi(theta-bar) < 0: theta is the
    root theta* of Psi on (0, theta-bar), where the branch point sits.  The
    radius is theta / Phi(theta), and Phi(theta) is G there.
    """
    tbar, argmin = theta_bar_of(ans, weights)
    pb = psi_of(ans, weights, tbar)
    theta = tbar
    if pb < -_CRIT_TOL:
        f = lambda t: psi_of(ans, weights, t)
        if math.isfinite(tbar):
            hi = tbar
        else:
            hi = 1.0
            while f(hi) > 0.0:
                hi *= 2.0
                if hi > 1e12:
                    raise RootNotBracketed("Psi does not change sign on (0, inf)")
        lo = hi * 1e-9
        while f(lo) <= 0.0:
            lo *= 1e-3
            if lo < 1e-300:
                raise RootNotBracketed("Psi is nonpositive arbitrarily close to 0")
        theta = brent(f, lo, hi, xtol=1e-300, rtol=1e-13, maxiter=200)
    return tbar, argmin, pb, theta, phi_of(ans, weights, theta)


def _visit_kernel(g: PowerSeries) -> PowerSeries:
    """K(y) = U(y)/y from a return series G = 1/(1-U): nonnegative
    first-return coefficients."""
    return PowerSeries(np.maximum(-series_reciprocal(g).coeffs[1:], 0.0))


def _pass_orders(order: int):
    """The order each Newton pass of `_zeta_series` reaches: 2c + 2 after a
    pass that reached c, from c = 0, up to `order`; at least one pass."""
    cur, out = 0, []
    while not out or cur < order:
        cur = min(2 * cur + 2, order)
        out.append(cur)
    return out


def _zeta_series(kernels, consts, period: int, order: int):
    """The first-visit series V_1..V_m of the product in y = u^d, d =
    `period`, solved by Newton.

    In u, zeta_i (1 - P_i) = s_i u with P_i = sum_{j != i} V_j and V_j =
    s_j u T_j(zeta_j) (Woess, Random Walks on Infinite Graphs and Groups,
    2000, section 9); the product's return series is 1 / (1 - sum_j V_j).
    A walk of period d returns only at multiples of d, so each factor's
    kernel is T_j(x) = x^(d-1) K_j(x^d), where K_j is the kernel of the
    decimated return series, and zeta_i = u Z_i(y).  The unknowns are the
    Z_i, with Z_i (1 - P_i) = s_i and V_j = s_j y Z_j^(d-1) K_j(y Z_j^d),
    all series in y, so every product, composition and reciprocal runs at
    order N // d instead of N.  The Jacobian has diagonal 1 - P_i and
    off-diagonal -Z_i W_j with W_j = s_j y Z_j^(d-2) ((d-1) K_j + d y Z_j^d
    K_j'), which for d = 1 reads s_j y^2 K_j': no power Z^0 is ever
    multiplied.  Gaussian elimination keeps each diagonal as 1 -
    (nonnegative series) and each off-diagonal as -(nonnegative series), so
    every multiplier and reciprocal has nonnegative coefficients: no step
    cancels and every coefficient keeps its relative accuracy.  For the same
    reason P_i is a direct sum over j != i, never (sum_j V_j) - V_i.  Each
    `_Kernel` gives K_j(y Z_j^d) and K_j'(y Z_j^d).  The error is that of
    the same sums in u with their zero terms left out: on the benchmark's
    products the normalized coefficients agree with a solve in u to 1.6e-14
    relative.

    The residual's quadratic part carries the factor y of V, so a pass that
    starts from Z correct through y^(lo-1) ends correct through y^cur, cur =
    2 lo (`_pass_orders`).  Its residual f is O(y^lo), so the correction D =
    J^-1 f needs the Jacobian only through y^h, h = cur - lo: K' is composed,
    and W, the off-diagonals, the pivots and their reciprocals are formed,
    at order h, while K, V, P and f are at order cur.  The elimination's
    updates of f, the back substitution and the final V - W D run at order
    cur on the order-h factors padded with zeros.  The residual keeps its
    rounding-level part below y^lo, which the correction removes: cut off,
    C2 * C2 * C2 met its closed form to 1.1e-14 relative at order 2000 and
    2.1e-14 at 4000, against 2.5e-15 and 6.5e-15 with it.  The pass that
    reaches `order` is the last: its correction
    D is O(y^lo), y D^2 lies past the order, and V takes D as the
    first-order update V - W D, exact through `order`, instead of a fresh
    composition.
    """
    m = len(kernels)
    zs = [PowerSeries([s]) for s in consts]  # correct through y^0
    lo = 1
    for cur in _pass_orders(order):  # at least one pass, so that orders 0 and 1 get V and W too
        h = max(cur - lo, 0)
        zs = [z.truncate(cur) for z in zs]
        v, w = [], []
        for kernel, s, z in zip(kernels, consts, zs):
            pw = [None, z]  # pw[e] = Z^e; None is Z^0 = 1, never multiplied
            for _ in range(2, period + 1):
                pw.append(series_mul(pw[-1], z))
            inner = pw[period].shift()
            kz, kpz = kernel.at(inner, h)
            v.append(_times(kz, pw[period - 1]).shift() * s)
            if period == 1:
                slope = kpz.shift()
            else:
                slope = _times((period - 1) * kz.truncate(h) + period * series_mul(inner, kpz), pw[period - 2])
            w.append(slope.shift() * s)
        # J d = f with J_ii = 1 - p[i] and J_ij = -b[i][j], J through y^h
        p = [sum(v[j] for j in range(m) if j != i) for i in range(m)]
        f = [series_mul(z, 1.0 - pi) - s for z, pi, s in zip(zs, p, consts)]
        b = [[series_mul(zs[i], w[j]) if j != i else None for j in range(m)] for i in range(m)]
        d = _solve(*_factor([pi.truncate(h) for pi in p], b), b, f)
        if cur == order:
            break
        zs = [z - di for z, di in zip(zs, d)]
        lo = cur + 1
    return [vj - _mul(wj, dj) for vj, wj, dj in zip(v, w, d)]


def _mul(a, b):
    """a b, where a float stands for a constant series and two series of
    different orders multiply as if the lower were padded with zeros."""
    if not isinstance(a, PowerSeries) or not isinstance(b, PowerSeries):
        return a * b
    n = max(a.order, b.order)
    return series_mul(a.pad(n), b.pad(n))


def _factor(p, b):
    """LU factors of J = diag(1 - p) - b, in place: the pivots' reciprocals
    and the multipliers low[i][k], with U's off-diagonal left in b.

    The entries are series or float constants.  With p and b nonnegative,
    every multiplier and every update is a sum of nonnegative terms."""
    m = len(p)
    inv, low = [], [[None] * m for _ in range(m)]
    for k in range(m):
        pivot = 1.0 - p[k]
        inv.append(series_reciprocal(pivot) if isinstance(pivot, PowerSeries) else 1.0 / pivot)
        for i in range(k + 1, m):
            lik = low[i][k] = _mul(b[i][k], inv[k])
            p[i] = p[i] + _mul(lik, b[k][i])
            for j in range(k + 1, m):
                if j != i:
                    b[i][j] = b[i][j] + _mul(lik, b[k][j])
    return inv, low


def _solve(inv, low, b, f):
    """d with J d = f for the factors of `_factor`: forward elimination on
    f, then back substitution."""
    m = len(f)
    f = list(f)
    for k in range(m):
        for i in range(k + 1, m):
            f[i] = f[i] + _mul(low[i][k], f[k])
    d = [None] * m
    for i in reversed(range(m)):
        rhs = f[i]
        for j in range(i + 1, m):
            rhs = rhs + _mul(b[i][j], d[j])
        d[i] = _mul(rhs, inv[i])
    return d


def _cut(x, order: int):
    """x through y^order, where x is a series, a float constant, None or a
    nested list of them."""
    if isinstance(x, list):
        return [_cut(e, order) for e in x]
    return x.truncate(order) if isinstance(x, PowerSeries) else x


def _eliminated(form, inner: PowerSeries, h: int):
    """(K(inner), K'(inner) through y^h) of a finite group's kernel in its
    closed form (a, r, Q, c), K(y) = a + y r^T (I - yQ)^-1 c
    (`FiniteGroup.first_return_form`).

    With M = I - inner Q and x = M^-1 c, K(inner) = a + inner (r . x) and
    K'(inner) = r^T M^-2 c = r . (M^-1 x).  M has diagonal 1 -
    (nonnegative) and off-diagonal -(nonnegative), as the Jacobian of
    `_zeta_series`, so the same elimination stays free of cancellation, and
    the second solve reuses its pivots and multipliers at order h.  A zero
    entry of Q stays a float zero and costs no product."""
    a, r, q, c = form
    size = len(r)
    entry = lambda x: inner * x if x != 0.0 else 0.0
    p = [entry(q[i, i]) for i in range(size)]
    b = [[entry(q[i, j]) if j != i else None for j in range(size)] for i in range(size)]
    inv, low = _factor(p, b)
    x = _solve(inv, low, b, c.tolist())
    kz = _mul(inner, sum(_mul(xi, ri) for xi, ri in zip(x, r.tolist()))) + a
    x2 = _solve(_cut(inv, h), _cut(low, h), _cut(b, h), _cut(x, h))
    kpz = PowerSeries.zero(h) + sum(_mul(xi, ri) for xi, ri in zip(x2, r.tolist()))
    return kz, kpz


def _product_us(n: int) -> float:
    """Estimated microseconds of a truncated product at order n, as
    `series._trunc_mul` forms it: 1.5 per np.convolve call and 16,000
    multiply-adds per microsecond, (n + 1)^2 of them below the split order,
    the low halves' h^2 and two products at order n - h past it."""
    if n < _SPLIT_ORDER:
        return 1.5 + (n + 1) ** 2 / 16000.0
    h = n // 2 + 1
    return 1.5 + h * h / 16000.0 + 2.0 * _product_us(n - h)


def _reciprocal_us(n: int) -> float:
    """Estimated microseconds of a reciprocal at order n: its Newton steps
    (`series_reciprocal`), the step to order t two truncated products, at
    orders t and t - t // 2 - 1."""
    tops = [n >> j for j in range(n.bit_length())]
    return sum(_product_us(t) + _product_us(t - t // 2 - 1) for t in tops)


def _eliminates(form, order: int) -> bool:
    """Whether a pass at `order` evaluates a finite group's kernel, given
    by its closed form `form` (None for other factors), by elimination
    rather than by composing its series.

    An operation count weighted by unit costs decides.  With k = len(r),
    elimination takes k reciprocals (k - 1 when Q(0, 0) = 0, whose pivot
    stays the constant 1) and about (k^3 + 3 k^2) / 3 products at `order`,
    plus 20 k^2 us of small-series overhead; Brent-Kung takes about
    0.75 (m + 2 nblocks) products.  Both routes were timed at orders 62,
    126, 254, 510, 1022, 2000 and 4000 (2 cores, Python 3.11, numpy 2.4) on
    C3 (steps +-1), C3 with Q(0, 0) > 0 (mu = 0.1, 0.5, 0.4), the Klein
    four-group (0.1, 0.3, 0.4, 0.2), C5 (0, 0.3, 0.2, 0.2, 0.3), a lazy S3,
    C8 (0, 0.3, 0.1, 0.05, 0.1, 0.05, 0.1, 0.3) and C4 (0, 0.3, 0, 0.7)
    watched every second step, and the rule picks the faster route at all
    49 points.  Elimination / Brent-Kung in ms at the orders around each
    crossover: C3 0.15 / 0.10 and 0.17 / 0.26 at 126 and 254, with Q(0, 0)
    > 0 0.19 / 0.10 and 0.24 / 0.26; Klein 0.49 / 0.26 and 0.81 / 0.89 at
    254 and 510; C5 1.24 / 0.96 and 2.8 / 3.8 at 510 and 1022; S3 5.1 / 4.0
    and 13.3 / 16.7 at 1022 and 2000; C8 97 / 77 at 4000; the period-2 C4
    0.066 / 0.053 and 0.074 / 0.104 at 62 and 126.  The rule keeps on
    Brent-Kung C3 below order 209 (237 with Q(0, 0) > 0), Klein below 400,
    C5 below 667, S3 below 1369, C8 below 6006 and the period-2 C4 below 90.
    A kernel that is a polynomial (Q nilpotent: every walk off e is back
    within k steps) stays on Horner's rule, which is cheaper than either."""
    if form is None:
        return False
    _, r, q, _ = form
    k = len(r)
    if not np.linalg.matrix_power((q > 0.0).astype(float), k).any():
        return False
    reciprocals = k - (q[0, 0] == 0.0)
    elimination = (
        reciprocals * _reciprocal_us(order) + (k**3 + 3 * k * k) / 3 * _product_us(order) + 20.0 * k * k
    )
    m = math.isqrt(order) + 1
    return elimination < 0.75 * (m + 2 * -(-(order + 1) // m)) * _product_us(order)


class _Kernel:
    """A factor's first-visit kernel K in y, composed with an inner series.

    `series` is K through the order its route needs, and `at` composes K and
    K' with one table of powers (`series_compose`).  A finite group's kernel
    also has its closed form (`FiniteGroup.first_return_form`); past the
    series' order `at` evaluates that form by elimination (`_eliminated`)."""

    def __init__(self, series: PowerSeries, form=None):
        self.series = series
        self.slope = series_derivative(series)
        self.form = form

    def at(self, inner: PowerSeries, h: int):
        """(K(inner) through the inner's order, K'(inner) through y^h)."""
        if self.form is not None and inner.order > self.series.order:
            return _eliminated(self.form, inner, h)
        return series_compose((self.series.truncate(inner.order), self.slope.truncate(h)), inner)


def _times(a: PowerSeries, power) -> PowerSeries:
    """a * power, where a power of None stands for 1."""
    return a if power is None else series_mul(a, power)


def product_green_series(spec: FreeProductSpec, order: int) -> PowerSeries:
    """Exact return-probability series c_0..c_order of the product walk.

    It is c_n = c^_n R^-n from `normalized_green_series`, with R^-n applied
    as two half powers.  c_n decays like R^-n n^-lambda and leaves the
    normal floats near n = 708 / log R: c_2196 is the last normal one for
    the tuned Z^7 * Z^8 at its critical weight (R = 1.374), c_1202 for
    equal-weight Z^5 * Z^6 (R = 1.774).  Past that point c_n is subnormal or
    zero and carries no relative accuracy, while c^_n is still a normal
    float (about 1e-5 and 2e-10 at n = 3000 for those two products) with
    the relative accuracy stated there.  Fits of the coefficient asymptotics
    belong on c^_n.
    """
    radius, ghat = normalized_green_series(spec, order)
    half = radius ** (-0.5 * np.arange(order + 1))
    return PowerSeries(ghat.coeffs * half * half)


def _split(a: np.ndarray):
    """Veltkamp's split a = hi + lo, each half of at most 26 significant
    bits, so that a product of two halves is exact."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _rounding(ratios, near: float):
    """(the largest relative rounding error of the constants q_i R~, the
    constants), in exact rational arithmetic."""
    exact = [q * Fraction(near) for q in ratios]
    consts = [float(x) for x in exact]
    return max(abs(Fraction(c) / x - 1) for c, x in zip(consts, exact)), consts


def _near_radius(ratios, radius: float):
    """(R~, the constants q_i R~ as floats) for the float R~ within 128 ulps
    of `radius` whose constants round least: the smallest largest relative
    rounding error, the first in the order 0, -1, 1, -2, ... of steps away
    from `radius` among equals.

    One numpy pass estimates every candidate's error.  Each q_i is a
    double-double q_hi + q_lo taken from its Fraction; q_hi R~ = p + e
    exactly, by Dekker's two-product on Veltkamp's split, and the tail t =
    e + q_lo R~ is within 4 2^-105 p of q_i R~ - p.  The distance to the
    nearest double changes by at most as much, and that of p + t is |(p - c)
    + t|, with c = p + t rounded in one addition and p - c exact; divided by
    p it is the relative error to within 2^-102.  Only
    the candidates whose estimate lies within twice the bound `_EST_TOL` of
    the smallest can hold the smallest error, and these are decided as in
    `_rounding`, in the same order, stopping at the first exact zero, so
    R~ and the constants are those the exact search over all candidates
    gives.  Where a value leaves the range in which the two-product is exact,
    every candidate is decided exactly."""
    steps = np.array(sorted(range(-128, 129), key=abs), dtype=float)
    nears = radius + steps * math.ulp(radius)
    q_hi = np.array([float(q) for q in ratios])
    q_lo = np.array([float(q - Fraction(h)) for q, h in zip(ratios, q_hi.tolist())])
    p = np.multiply.outer(nears, q_hi)
    (xh, xl), (qh, ql) = _split(nears[:, None]), _split(q_hi)
    e = ((xh * qh - p) + xh * ql + xl * qh) + xl * ql
    t = e + nears[:, None] * q_lo
    est = (np.abs((p - (p + t)) + t) / p).max(axis=1)
    if np.all((p > 2.0**-900) & (p < 2.0**900) & (q_hi > 2.0**-900) & (q_hi < 2.0**900)):
        candidates = np.flatnonzero(est <= est.min() + 2.0 * _EST_TOL)
    else:
        candidates = range(steps.size)
    best = None
    for i in candidates:
        near = float(nears[i])
        err, consts = _rounding(ratios, near)
        if best is None or err < best[0]:
            best = (err, near, consts)
        if err == 0:
            break
    return best[1], best[2]


_EST_TOL = 2.0**-100  # bound on the error of `_near_radius`'s estimate, 4 times the derived 2^-102


@lru_cache(maxsize=64)
def normalized_green_series(spec: FreeProductSpec, order: int):
    """(R, G^) with R = analyze_product(spec).radius and G^(u) = G(R u).

    The first-visit system of all m factors is solved in u = z/R, on the
    period lattice: a walk of period d = `product_period(spec)` returns only
    at multiples of d, so the solve runs in y = u^d at order N // d
    (`_zeta_series`), and its return series in y is scattered to every d-th
    coefficient, with exact zeros (+0.0) in between.  Each factor enters
    once, as its kernel in its own radius variable, built from the decimated
    `radius_series` G_i(rho_i x) = G~_i(x^d), with the constant s_i =
    alpha_i R / rho_i.  A finite group's kernel also has a closed rational
    form; the passes that `_eliminates` routes to it need the series only
    through the last pass before them.  All participating series have nonnegative
    coefficients, and c^_n = c_n R^n falls only like n^-lambda, so every
    coefficient stays a normal float (Flajolet & Sedgewick, Analytic
    Combinatorics, ch. VI, for the transfer to c^_n ~ C n^-lambda).  The
    solve adds a relative error near roundoff (the 3-regular tree meets its
    closed form to 2.5e-15 at order 2000 and 6.5e-15 at 4000) to that of
    the factor kernels; a
    lattice factor's return series is within a few eps of exact at every n
    (`lattice.return_series`).

    A relative error e in a constant s_i or in the weights' sum acts like a
    change e of the walk's mass: it moves the radius by about e and
    coefficient n by about n e, which is 1e-13 at n = 2000 for e = eps / 2.
    So the weights are exact fractions summing to 1, and the solve runs at
    the float R~ within 128 ulps of R whose m constants round least (the
    largest of their rounding errors is smallest); the best of those 257
    typically rounds by under 0.03 eps for two factors and 0.3 eps for three
    to five.  `_near_radius` finds it in one numpy pass over all 257
    candidates, with exact rational arithmetic only for those its error
    bound cannot tell apart (at most 52 on the benchmark and golden
    products).  The result is carried back to R.
    """
    # the weights as exact fractions of their sum, which is 1 only to rounding
    total = sum(map(Fraction, spec.weights))
    period = product_period(spec)
    reduced = order // period
    passes = _pass_orders(reduced)
    kernels, ratios = [], []
    for f, a in zip(spec.factors, spec.weights):
        form = f.first_return_form(period) if isinstance(f, FiniteGroup) else None
        top = max((c for c in passes if not _eliminates(form, c)), default=0)
        # G~ through y^(top + 1), so that its kernel reaches y^top
        rho, g = f.radius_series(period * (top + 1))
        kernels.append(_Kernel(_visit_kernel(PowerSeries(g.coeffs[::period])), form))
        ratios.append(Fraction(a) / total / Fraction(rho))
    radius = analyze_product(spec).radius
    near, consts = _near_radius(ratios, radius)
    g = np.zeros(order + 1)
    g[::period] = series_reciprocal(1.0 - sum(_zeta_series(kernels, consts, period, reduced))).coeffs
    # G(R u) = G(R~ (R / R~) u): coefficient n picks up (R / R~)^n; R - R~ is exact
    shift = math.log1p((radius - near) / near)
    return radius, PowerSeries(g * np.exp(shift * np.arange(order + 1)))


def _sqrt_coefficient(ans, weights, tbar: float, g0: float):
    """(g0, g1) of G(z) = g0 + g1 sqrt(R - z) + ... at Psi(theta-bar) = 0,
    given g0 = Phi(theta-bar) = G(R): g1 = -sqrt(2 g0 / (R^3 Phi''(theta-bar)))."""
    phi2 = phi_of(ans, weights, tbar, 2)
    if not phi2 > 0.0:
        raise RootNotBracketed(f"Phi''(theta-bar) = {phi2} fails the positivity guarantee")
    rho = tbar / g0
    return g0, -math.sqrt(2.0 * g0 / (rho**3 * phi2))


@dataclass(frozen=True)
class ProductAnalytics:
    """Aggregated invariants of a free-product walk."""

    theta_bar: float
    argmin_set: tuple
    psi_bar: float
    radius: float
    g_at_radius: float
    period: int
    sqrt_coeff: Optional[tuple]  # (g0, g1) at criticality, else None
    degenerate: bool


def analyze_product(spec: FreeProductSpec) -> ProductAnalytics:
    """Every product-level quantity from the only branch solve,
    `_solve_branch`; the square-root coefficient where |Psi(theta-bar)| <=
    _CRIT_TOL, so theta = theta-bar.  The degenerate (Z/2Z)*(Z/2Z) is
    recurrent with radius exactly 1."""
    if is_two_by_two(spec):
        return ProductAnalytics(
            theta_bar=math.inf,
            argmin_set=(0, 1),
            psi_bar=0.0,
            radius=1.0,
            g_at_radius=math.inf,
            period=product_period(spec),
            sqrt_coeff=None,
            degenerate=True,
        )
    ans = factor_analytics(spec)
    tbar, argmin, pb, theta, g_rho = _solve_branch(ans, spec.weights)
    coeff = None
    if abs(pb) <= _CRIT_TOL:
        try:
            coeff = _sqrt_coefficient(ans, spec.weights, tbar, g_rho)
        except FprwError:  # a numeric failure leaves the coefficient unreported
            pass
    return ProductAnalytics(
        theta_bar=tbar,
        argmin_set=argmin,
        psi_bar=pb,
        radius=theta / g_rho,
        g_at_radius=g_rho,
        period=product_period(spec),
        sqrt_coeff=coeff,
        degenerate=False,
    )
