"""Phase-transition analysis in the mixing weight alpha_1 for two factors.

Upsilon(alpha_1) = Psi_1(alpha_1 tb) + Psi_2((1-alpha_1) tb) - 1 with
tb = min(theta_1/alpha_1, theta_2/(1-alpha_1)) recomputed per alpha_1.
Upsilon is V-shaped: strictly decreasing up to the critical weight
alpha_c = theta_1/(theta_1+theta_2) and strictly increasing after it (with
the ratio conventions c/(c+inf) = 0 and inf/(inf+c) = 1), so each monotone
piece holds at most one zero and the sign pattern across the pieces labels
the regime A-F.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .classify import law_of_psi
from .errors import (
    AmbiguousRegime,
    ConfigError,
    DegenerateProduct,
    OutOfDomain,
    TargetOutOfRange,
)
from .factors import GreenAnalytics, LatticeNN, analyze_factor, psi_at_argument
from .parallel import parallel_map, requested_threads
from .product import FreeProductSpec, _WARN_TOL, factor_analytics, is_two_by_two, theta_bar_of
from .roots import brent

_SIGN_TOL = 1e-9  # regime labels: Upsilon values closer to 0 than this count as zero
_CASE_F_TOL = 1e-6
_ROOT_XTOL = 1e-10
_ROOT_RTOL = 4 * sys.float_info.epsilon


def _two_analytics(spec: FreeProductSpec):
    if spec.m != 2:
        raise ConfigError("phase analysis is defined for exactly two factors")
    if is_two_by_two(spec):
        raise DegenerateProduct(
            "(Z/2Z)*(Z/2Z) is recurrent; its phase diagram is degenerate"
        )
    return factor_analytics(spec)


def critical_weight(theta1: float, theta2: float) -> Optional[float]:
    """alpha_c = theta_1/(theta_1+theta_2) with the infinity ratio rules."""
    if math.isinf(theta1) and math.isinf(theta2):
        return None
    if math.isinf(theta1):
        return 1.0
    if math.isinf(theta2):
        return 0.0
    return theta1 / (theta1 + theta2)


def upsilon_of(an1: GreenAnalytics, an2: GreenAnalytics, alpha1: float) -> float:
    if not 0.0 < alpha1 < 1.0:
        raise OutOfDomain("alpha_1 must lie strictly between 0 and 1")
    alpha2 = 1.0 - alpha1
    tb = min(an1.theta / alpha1, an2.theta / alpha2)
    if math.isinf(tb):
        return an1.psi_at_radius + an2.psi_at_radius - 1.0
    return (
        psi_at_argument(an1, min(alpha1 * tb, an1.theta))
        + psi_at_argument(an2, min(alpha2 * tb, an2.theta))
        - 1.0
    )


def upsilon(spec: FreeProductSpec, alpha1: float) -> float:
    """Upsilon(alpha_1); the weights stored in the spec are ignored."""
    an1, an2 = _two_analytics(spec)
    return upsilon_of(an1, an2, alpha1)


def _endpoint_limits(an1: GreenAnalytics, an2: GreenAnalytics):
    """(limit at alpha_1 -> 0, limit at alpha_1 -> 1)."""
    if math.isinf(an2.theta):
        at0 = an1.psi_at_radius + an2.psi_at_radius - 1.0
    else:
        at0 = an2.psi_at_radius
    if math.isinf(an1.theta):
        at1 = an1.psi_at_radius + an2.psi_at_radius - 1.0
    else:
        at1 = an1.psi_at_radius
    return at0, at1


def phase_roots(spec: FreeProductSpec):
    """(alpha_low, alpha_high): zeros of Upsilon on its two monotone pieces."""
    an1, an2 = _two_analytics(spec)
    ac = critical_weight(an1.theta, an2.theta)
    at0, at1 = _endpoint_limits(an1, an2)
    f = lambda a: upsilon_of(an1, an2, a)
    lo_eps = 1e-9

    if ac is None:
        return None, None  # Upsilon is constant
    val_c = an1.psi_at_radius + an2.psi_at_radius - 1.0 if 0.0 < ac < 1.0 else None

    alpha_low = None
    alpha_high = None
    if ac > 0.0:
        right_end = min(ac, 1.0 - lo_eps)
        bottom = val_c if val_c is not None else at1
        if at0 > _SIGN_TOL and bottom < -_SIGN_TOL:
            alpha_low = brent(f, lo_eps, right_end, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL, maxiter=200)
    if ac < 1.0:
        left_end = max(ac, lo_eps)
        bottom = val_c if val_c is not None else at0
        if bottom < -_SIGN_TOL and at1 > _SIGN_TOL:
            alpha_high = brent(
                f, left_end, 1.0 - lo_eps, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL, maxiter=200
            )
    return alpha_low, alpha_high


def regime_case(spec: FreeProductSpec) -> str:
    """Label A-F of the Upsilon shape (sign pattern across the two pieces)."""
    an1, an2 = _two_analytics(spec)
    ac = critical_weight(an1.theta, an2.theta)
    at0, at1 = _endpoint_limits(an1, an2)

    if ac is None:
        const = an1.psi_at_radius + an2.psi_at_radius - 1.0
        if const < -_SIGN_TOL:
            return "E"
        raise AmbiguousRegime(f"constant Upsilon = {const}; no transient label")

    interior = 0.0 < ac < 1.0
    # the infimum of Upsilon: the V-bottom when alpha_c is interior, the
    # far-end limit when Upsilon is monotone
    if interior:
        bottom = an1.psi_at_radius + an2.psi_at_radius - 1.0
    else:
        bottom = min(at0, at1)
    if interior and abs(bottom) <= _CASE_F_TOL:
        mid_l = upsilon_of(an1, an2, ac / 2.0)
        mid_r = upsilon_of(an1, an2, (1.0 + ac) / 2.0)
        if mid_l > _SIGN_TOL and mid_r > _SIGN_TOL:
            return "F"
        raise AmbiguousRegime(
            f"Upsilon(alpha_c) = {bottom} within the F-window but a midpoint is not positive"
        )
    if bottom > _SIGN_TOL:
        return "D"
    if bottom < -_SIGN_TOL:
        if at0 <= _SIGN_TOL and at1 <= _SIGN_TOL:
            return "E"  # limits may touch 0; the open interval stays negative
        if at0 > _SIGN_TOL and at1 > _SIGN_TOL:
            return "A"
        return "B" if at0 > _SIGN_TOL else "C"
    raise AmbiguousRegime(
        f"sign pattern (at0={at0}, bottom={bottom}, at1={at1}) straddles the tolerances"
    )


def _law_at(an1, an2, alpha1: float):
    """Law at one grid point: Upsilon is Psi(theta-bar) at these weights, and
    `classify.law_of_psi` decides it as `analyze` does (no radius solve)."""
    ups = upsilon_of(an1, an2, alpha1)
    _, argmin = theta_bar_of((an1, an2), (alpha1, 1.0 - alpha1))
    return (ups, *law_of_psi((an1, an2), argmin, ups), abs(ups) <= _WARN_TOL)


@dataclass(frozen=True)
class PhasePoint:
    alpha1: float
    upsilon: float
    kind: str
    factor_index: Optional[int]
    lam: float
    kappa: int
    near_critical: bool


@dataclass(frozen=True)
class PhaseDiagram:
    grid: tuple
    alpha_c: Optional[float]
    alpha_low: Optional[float]
    alpha_high: Optional[float]
    case: str


def logistic_grid(size: int) -> np.ndarray:
    """Grid on (0,1), denser towards both endpoints."""
    span = math.log(4.0 * size)
    x = np.linspace(-span, span, size)
    return 1.0 / (1.0 + np.exp(-x))


def _sweep_chunk(args):
    spec, alphas = args
    an1, an2 = _two_analytics(spec)
    rows = []
    for a in alphas:
        ups, kind, idx, lam, kappa, warn = _law_at(an1, an2, float(a))
        rows.append(
            PhasePoint(
                alpha1=float(a),
                upsilon=ups,
                kind=kind,
                factor_index=idx,
                lam=lam,
                kappa=kappa,
                near_critical=warn,
            )
        )
    return rows


def sweep(spec: FreeProductSpec, grid_size: int = 512) -> PhaseDiagram:
    """Evaluate Upsilon and the law kind across an alpha_1 grid.

    Grid points are independent; FPRW_THREADS > 1 distributes chunks over
    worker processes (each rebuilds the factor analytics), with results
    merged back in grid order.
    """
    if grid_size < 3:
        raise ConfigError("grid needs at least 3 points")
    an1, an2 = _two_analytics(spec)
    alphas = logistic_grid(grid_size)
    threads = requested_threads()
    nchunks = 4 * threads if threads > 1 else 1
    chunks = [list(c) for c in np.array_split(alphas, nchunks) if c.size]
    parts = parallel_map(_sweep_chunk, [(spec, c) for c in chunks])
    rows = [r for part in parts for r in part]
    low, high = phase_roots(spec)
    return PhaseDiagram(
        grid=tuple(rows),
        alpha_c=critical_weight(an1.theta, an2.theta),
        alpha_low=low,
        alpha_high=high,
        case=regime_case(spec),
    )


def tuned_lattice(d: int, delta: float) -> LatticeNN:
    """The one-parameter axis-weight family: mass 1-delta on axis 1."""
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0,1)")
    beta = (1.0 - delta,) + (delta / (d - 1),) * (d - 1)
    return LatticeNN(beta=beta, p=(0.5,) * d)


def _psi_at_theta(d: int, delta: float) -> float:
    return analyze_factor(tuned_lattice(d, delta)).psi_at_radius


def tune_axis_weights(d: int, target: float, delta_min: float = 0.02) -> LatticeNN:
    """Find the axis-weight family member with Psi(theta) = target (d >= 5)."""
    if d < 5:
        raise ConfigError("tuning needs d >= 5 (finite derivative at the radius)")
    hi = 1.0 - 1.0 / d  # uniform weights
    lo_val = _psi_at_theta(d, delta_min)
    hi_val = _psi_at_theta(d, hi)
    if not min(lo_val, hi_val) <= target <= max(lo_val, hi_val):
        raise TargetOutOfRange(
            f"target {target} outside attainable [{lo_val:.4f}, {hi_val:.4f}] for d={d}"
        )
    f = lambda t: _psi_at_theta(d, t) - target
    root = brent(f, delta_min, hi, xtol=1e-12, rtol=_ROOT_RTOL, maxiter=100)
    return tuned_lattice(d, root)
