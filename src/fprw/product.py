"""Free-product layer: theta-bar, Psi/Phi at the candidate singular argument,
spectral radius of the product walk, the exact product Green series via the
implicit equation G = Phi(zG), the zeta system, and the square-root
coefficient at criticality.

Conventions for infinite values follow the ratio rules c/(c+inf) = 0 and
inf/(inf+c) = 1; Psi_i at an infinite argument uses the factor's stored limit
(0 for null-recurrent factors, the stationary mass 1/|Gamma_i| for finite
groups), which keeps every branch a total function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ConfigError,
    DegenerateProduct,
    FprwError,
    NoConvergence,
    NotAtCriticality,
    RootNotBracketed,
)
from .factors import (
    DEFAULT_ORDER,
    FactorSpec,
    FiniteGroup,
    GreenAnalytics,
    analyze_factor,
    factor_series,
    invert_w,
    phi_derivs_at,
    psi_at_argument,
)
from .series import (
    PowerSeries,
    series_compose,
    series_derivative,
    series_mul,
    series_reciprocal,
    series_reversion,
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


@lru_cache(maxsize=256)
def _analytics(spec: FreeProductSpec, order: int):
    return tuple(analyze_factor(f, order=order) for f in spec.factors)


def factor_analytics(spec: FreeProductSpec, order: int = DEFAULT_ORDER):
    """Analyzed factors of the product, cached per (spec, order)."""
    return _analytics(spec, order)


def product_period(spec: FreeProductSpec) -> int:
    return math.gcd(*(an.period for an in factor_analytics(spec)))


def theta_bar(spec: FreeProductSpec):
    """(theta-bar, argmin set) for theta-bar = min_i theta_i / alpha_i."""
    ans = factor_analytics(spec)
    ratios = [an.theta / a for an, a in zip(ans, spec.weights)]
    tbar = min(ratios)
    if math.isinf(tbar):
        return math.inf, tuple(range(spec.m))
    argmin = tuple(i for i, r in enumerate(ratios) if r <= tbar * (1.0 + _TIE_RTOL))
    return tbar, argmin


def psi_of_t(spec: FreeProductSpec, t: float) -> float:
    """Psi(t) = 1 + sum_i (Psi_i(alpha_i t) - 1), totalized at infinity."""
    ans = factor_analytics(spec)
    if math.isinf(t):
        return 1.0 + sum(an.psi_at_radius - 1.0 for an in ans)
    return 1.0 + sum(
        psi_at_argument(an, a * t) - 1.0 for an, a in zip(ans, spec.weights)
    )


def psi_bar(spec: FreeProductSpec) -> float:
    """Psi evaluated at theta-bar (the regime-deciding quantity)."""
    return psi_of_t(spec, theta_bar(spec)[0])


def phi_of_t(spec: FreeProductSpec, t: float) -> float:
    """Phi(t) = sum_i Phi_i(alpha_i t) - (m - 1) via per-factor w-inversion."""
    ans = factor_analytics(spec)
    total = 1.0 - spec.m
    for an, a in zip(ans, spec.weights):
        ti = a * t
        if math.isfinite(an.theta) and ti >= an.theta * (1.0 - 1e-12):
            total += an.g_at_r
        else:
            total += an.green(invert_w(an, ti))
    return total


def phi_prime_of_t(spec: FreeProductSpec, t: float) -> float:
    """Phi'(t) = sum_i alpha_i Phi_i'(alpha_i t)."""
    ans = factor_analytics(spec)
    total = 0.0
    for an, a in zip(ans, spec.weights):
        ti = a * t
        if math.isfinite(an.theta) and ti >= an.theta * (1.0 - 1e-12):
            z = an.radius
        else:
            z = invert_w(an, ti)
        g, gp = an.green(z), an.green(z, 1)
        total += a / z if math.isinf(gp) else a * gp / (z * gp + g)
    return total


def phi_second_of_t(spec: FreeProductSpec, t: float) -> float:
    """Phi''(t) = sum_i alpha_i^2 Phi_i''(alpha_i t); NeedsDerivative propagates."""
    ans = factor_analytics(spec)
    total = 0.0
    for an, a in zip(ans, spec.weights):
        ti = a * t
        if math.isfinite(an.theta) and ti >= an.theta * (1.0 - 1e-12):
            z = an.radius
        else:
            z = invert_w(an, ti)
        total += a * a * phi_derivs_at(an, z)[2]
    return total


def _critical_theta(spec: FreeProductSpec, tbar: float) -> float:
    """The root of Psi on (0, theta-bar); exists exactly when Psi(theta-bar) < 0."""
    f = lambda t: psi_of_t(spec, t)
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
    return float(brentq(f, lo, hi, xtol=1e-300, rtol=1e-13, maxiter=200))


def product_radius(spec: FreeProductSpec):
    """(radius, G(radius)) of the product walk.

    Psi(theta-bar) >= 0: radius = theta-bar / Phi(theta-bar), G finite there.
    Psi(theta-bar) < 0: the branch point sits at the root theta* of Psi.
    The degenerate (Z/2Z)*(Z/2Z) is recurrent with radius exactly 1.
    """
    if is_two_by_two(spec):
        return 1.0, math.inf
    tbar, _ = theta_bar(spec)
    pb = psi_of_t(spec, tbar)
    if pb >= -_CRIT_TOL:
        theta = tbar
    else:
        theta = _critical_theta(spec, tbar)
    g = phi_of_t(spec, theta)
    return theta / g, g


def implicit_kernel(spec: FreeProductSpec, order: int) -> PowerSeries:
    """The kernel Phi(t) = sum_i Phi_i(alpha_i t) - (m-1) with G = Phi(zG).

    Built per factor as Phi_i = G_i o reversion(z G_i).  Note that Phi's
    Taylor coefficients can grow geometrically (its complex radius of
    convergence may sit inside the product radius), so solving the implicit
    equation through this kernel is only numerically trustworthy at modest
    orders; product_green_series uses the cancellation-free first-visit
    system instead and the tests reconcile the two routes at low order.
    """
    phi = PowerSeries(np.zeros(order + 1)) + (1.0 - spec.m)
    for f, a in zip(spec.factors, spec.weights):
        gi = factor_series(f, order)
        phi_i = series_compose(gi, series_reversion(gi.shift()))
        phi = phi + phi_i.scale_arg(a)
    return phi


def first_return_series(g: PowerSeries) -> PowerSeries:
    """First-return series U from a return series G via G = 1/(1-U)."""
    n = g.order
    c = g.coeffs
    u = np.zeros(n + 1)
    for i in range(1, n + 1):
        u[i] = c[i] - np.dot(u[1:i], c[i - 1:0:-1])
    return PowerSeries(u)


def _visit_kernel(f: FactorSpec, order: int) -> PowerSeries:
    """T(w) = U(w)/w of one factor: nonnegative first-return coefficients."""
    g = factor_series(f, order + 1)
    u = first_return_series(g)
    return PowerSeries(np.maximum(u.coeffs[1:], 0.0))


def _zeta_pair_series(t1: PowerSeries, t2: PowerSeries, a1: float, a2: float, order: int):
    """Solve the coupled first-visit system for the zeta series (Newton).

    zeta_i (1 - V_j) = alpha_i z with V_j = alpha_j z T_j(zeta_j).  Every
    series in the update (the V's, the sequence reciprocals 1/(1-V), the
    Jacobian inverse assembled as a product of 1/(1-positive) pieces) has
    nonnegative coefficients, so no step cancels and the relative accuracy
    of the geometrically small high-order coefficients survives.
    """
    t1p = series_derivative(t1).pad(order)
    t2p = series_derivative(t2).pad(order)
    zeta1 = PowerSeries.identity(order).truncate(1) * a1
    zeta2 = PowerSeries.identity(order).truncate(1) * a2
    cur = 1
    polished = False
    while cur < order or not polished:
        polished = cur == order
        cur = min(2 * cur, order)
        z1 = zeta1.pad(cur)
        z2 = zeta2.pad(cur)
        ident = PowerSeries.identity(cur)
        v1 = series_compose(t1.truncate(cur), z1).shift() * a1
        v2 = series_compose(t2.truncate(cur), z2).shift() * a2
        A = 1.0 - v2
        D = 1.0 - v1
        f1 = series_mul(z1, A) - ident * a1
        f2 = series_mul(z2, D) - ident * a2
        B = series_mul(z1, series_compose(t2p.truncate(cur), z2).shift() * a2)
        C = series_mul(z2, series_compose(t1p.truncate(cur), z1).shift() * a1)
        inv_a = series_reciprocal(A)
        inv_d = series_reciprocal(D)
        corr = series_mul(series_mul(B, C), series_mul(inv_a, inv_d))
        inv_det = series_mul(
            series_mul(inv_a, inv_d), series_reciprocal(1.0 - corr)
        )
        d1 = series_mul(series_mul(D, f1) + series_mul(B, f2), inv_det)
        d2 = series_mul(series_mul(C, f1) + series_mul(A, f2), inv_det)
        zeta1 = z1 - d1
        zeta2 = z2 - d2
    v1 = series_compose(t1.truncate(order), zeta1).shift() * a1
    v2 = series_compose(t2.truncate(order), zeta2).shift() * a2
    return zeta1, zeta2, v1, v2


def product_green_series(spec: FreeProductSpec, order: int) -> PowerSeries:
    """Exact return-probability series of the product walk.

    Solves the coupled first-visit equations for the zeta series, folding
    factors in pairwise (the first m-1 factors form a sub-product whose
    first-return kernel feeds the next pairing), then G = 1/(1 - V_1 - V_2).
    All participating series have nonnegative coefficients, which keeps the
    relative error of coefficient n at roundoff level for as long as it is a
    normal float.  c_n decays like radius^-n, so it drops below 2.2e-308
    near n = 708 / log(radius); past that point the coefficients are
    subnormal or zero and carry no relative accuracy.  For the tuned
    Z^7 * Z^8 product at its critical weight (radius 1.374) the last normal
    coefficient is c_2196.
    """
    return _green_series_cached(spec, order)


@lru_cache(maxsize=64)
def _green_series_cached(spec: FreeProductSpec, order: int) -> PowerSeries:
    # deeper folds consume one kernel order per level
    depth = spec.m - 2
    kernels = [
        (_visit_kernel(f, order + depth), a)
        for f, a in zip(spec.factors, spec.weights)
    ]
    while len(kernels) > 2:
        (tk1, a1), (tk2, a2) = kernels[0], kernels[1]
        w = a1 + a2
        g_head = _pair_green(tk1, tk2, a1 / w, a2 / w, order + len(kernels) - 2)
        u_head = first_return_series(g_head)
        t_head = PowerSeries(np.maximum(u_head.coeffs[1:], 0.0))
        kernels = [(t_head, w)] + kernels[2:]
    (tk1, a1), (tk2, a2) = kernels
    return _pair_green(tk1, tk2, a1, a2, order)


def _pair_green(t1: PowerSeries, t2: PowerSeries, a1: float, a2: float, order: int) -> PowerSeries:
    _, _, v1, v2 = _zeta_pair_series(
        t1.truncate(order), t2.truncate(order), a1, a2, order
    )
    return series_reciprocal(1.0 - (v1 + v2))


def zeta_at(spec: FreeProductSpec, z: float, tol: float = 1e-13, max_iter: int = 20000):
    """(zeta_1(z), zeta_2(z)) by damped monotone fixed-point iteration (m = 2)."""
    if spec.m != 2:
        raise ConfigError("the zeta system is formulated for two factors")
    if z == 0.0:
        return 0.0, 0.0
    a1, a2 = spec.weights
    an1, an2 = factor_analytics(spec)

    def u_over_w(an: GreenAnalytics, w: float) -> float:
        if w == 0.0:
            return an.series[1]  # U'(0) = mass of one-step returns
        g = an.green(min(w, an.radius))
        return (1.0 - 1.0 / g) / w if math.isfinite(g) else 1.0 / w

    z1, z2 = a1 * z, a2 * z
    damp = 1.0
    prev_step = None
    for _ in range(max_iter):
        n1 = a1 * z / (1.0 - a2 * z * u_over_w(an2, z2))
        n2 = a2 * z / (1.0 - a1 * z * u_over_w(an1, z1))
        n1 = min(n1, an1.radius)
        n2 = min(n2, an2.radius)
        step = max(abs(n1 - z1), abs(n2 - z2))
        if prev_step is not None and step > prev_step:
            damp = 0.5  # oscillation guard
        z1 += damp * (n1 - z1)
        z2 += damp * (n2 - z2)
        prev_step = step
        if step < tol:
            return z1, z2
    raise NoConvergence(f"zeta iteration did not converge at z={z}")


def sqrt_coefficient(spec: FreeProductSpec):
    """(g0, g1) of the critical expansion G(z) = g0 + g1 sqrt(radius - z) + ...

    Requires Psi(theta-bar) = 0 within tolerance.  g0 = Phi(theta-bar) and
    g1 = -sqrt(2 G(radius) / (radius^3 Phi''(theta-bar))).
    """
    tbar, _ = theta_bar(spec)
    pb = psi_of_t(spec, tbar)
    if abs(pb) > _CRIT_TOL:
        raise NotAtCriticality(f"Psi(theta-bar) = {pb:.3e} is not 0 within {_CRIT_TOL}")
    phi2 = phi_second_of_t(spec, tbar)
    if not phi2 > 0.0:
        raise RootNotBracketed(f"Phi''(theta-bar) = {phi2} fails the positivity guarantee")
    g0 = phi_of_t(spec, tbar)
    rho = tbar / g0
    g1 = -math.sqrt(2.0 * g0 / (rho**3 * phi2))
    return g0, g1


@dataclass(frozen=True)
class ProductAnalytics:
    """Aggregated invariants of a free-product walk."""

    theta_bar: float
    argmin_set: tuple
    psi_bar: float
    phi_bar: float
    phi2_bar: Optional[float]
    radius: float
    g_at_radius: float
    period: int
    sqrt_coeff: Optional[tuple]
    degenerate: bool


def analyze_product(spec: FreeProductSpec) -> ProductAnalytics:
    """One-stop evaluation of all product-level quantities."""
    if is_two_by_two(spec):
        return ProductAnalytics(
            theta_bar=math.inf,
            argmin_set=(0, 1),
            psi_bar=0.0,
            phi_bar=math.inf,
            phi2_bar=None,
            radius=1.0,
            g_at_radius=math.inf,
            period=product_period(spec),
            sqrt_coeff=None,
            degenerate=True,
        )
    tbar, argmin = theta_bar(spec)
    pb = psi_of_t(spec, tbar)
    radius, g_rho = product_radius(spec)
    phi_bar = phi_of_t(spec, tbar) if math.isfinite(tbar) else math.inf
    phi2 = None
    coeff = None
    if abs(pb) <= _CRIT_TOL:
        try:
            coeff = sqrt_coefficient(spec)
            phi2 = phi_second_of_t(spec, tbar)
        except FprwError:
            coeff = None
    return ProductAnalytics(
        theta_bar=tbar,
        argmin_set=argmin,
        psi_bar=pb,
        phi_bar=phi_bar,
        phi2_bar=phi2,
        radius=radius,
        g_at_radius=g_rho,
        period=product_period(spec),
        sqrt_coeff=coeff,
        degenerate=False,
    )


def require_transient(spec: FreeProductSpec) -> None:
    if is_two_by_two(spec):
        raise DegenerateProduct(
            "(Z/2Z)*(Z/2Z) is recurrent; the transient classification does not apply"
        )
