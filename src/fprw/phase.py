"""Phase-transition analysis in the mixing weight alpha_1 for two factors.

Upsilon(alpha_1) is Psi(theta-bar) of the product at weights (alpha_1,
1 - alpha_1): 1 + (Psi_1(alpha_1 tb) - 1) + (Psi_2((1-alpha_1) tb) - 1) with
tb = min(theta_1/alpha_1, theta_2/(1-alpha_1)) recomputed per alpha_1.  It
comes from `product.psi_of`, so it is bit for bit the psi_bar that
`fprw analyze` prints at those weights.
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
from functools import partial
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
from .factors import GreenAnalytics, LatticeNN, analyze_factor
from .product import FreeProductSpec, _WARN_TOL, factor_analytics, is_two_by_two
from .product import psi_of, theta_bar_of
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


def upsilon_of(an1: GreenAnalytics, an2: GreenAnalytics, alpha1: float, kept=None) -> float:
    """Psi(theta-bar) of the product at weights (alpha_1, 1 - alpha_1).
    Without `kept`, a root search's store of solved pairs
    (`factors.invert_w`), every inversion starts from the full bracket,
    as in `fprw analyze`'s psi_bar."""
    if not 0.0 < alpha1 < 1.0:
        raise OutOfDomain("alpha_1 must lie strictly between 0 and 1")
    ans, weights = (an1, an2), (alpha1, 1.0 - alpha1)
    return psi_of(ans, weights, theta_bar_of(ans, weights)[0], kept)


def upsilon(spec: FreeProductSpec, alpha1: float) -> float:
    """Upsilon(alpha_1); the weights stored in the spec are ignored."""
    an1, an2 = _two_analytics(spec)
    return upsilon_of(an1, an2, alpha1)


def _limits(an1: GreenAnalytics, an2: GreenAnalytics):
    """(limit at alpha_1 -> 0, Upsilon(alpha_c), limit at alpha_1 -> 1).

    At alpha_c every factor's argument alpha_i theta-bar is its own theta_i,
    so Upsilon(alpha_c) is `psi_of` at weights theta_i and t = 1.  It is also
    the limit at the end where alpha_c sits when it is 0 or 1, and the
    constant value of Upsilon when both theta are infinite.
    """
    middle = psi_of((an1, an2), (an1.theta, an2.theta), 1.0)
    at0 = middle if math.isinf(an2.theta) else an2.psi_at_radius
    at1 = middle if math.isinf(an1.theta) else an1.psi_at_radius
    return at0, middle, at1


def phase_roots(spec: FreeProductSpec):
    """(alpha_low, alpha_high): zeros of Upsilon on its two monotone pieces,
    each of which falls or rises to Upsilon(alpha_c).  Each piece's search
    keeps its own solved pairs, from which its inversions start
    (`factors.invert_w`)."""
    an1, an2 = _two_analytics(spec)
    ac = critical_weight(an1.theta, an2.theta)
    if ac is None:
        return None, None  # Upsilon is constant
    at0, bottom, at1 = _limits(an1, an2)
    piece = lambda a, b: brent(
        partial(upsilon_of, an1, an2, kept={}), a, b, xtol=_ROOT_XTOL, rtol=_ROOT_RTOL, maxiter=200
    )
    lo_eps = 1e-9
    alpha_low = alpha_high = None
    if ac > 0.0 and at0 > _SIGN_TOL and bottom < -_SIGN_TOL:
        alpha_low = piece(lo_eps, min(ac, 1.0 - lo_eps))
    if ac < 1.0 and bottom < -_SIGN_TOL and at1 > _SIGN_TOL:
        alpha_high = piece(max(ac, lo_eps), 1.0 - lo_eps)
    return alpha_low, alpha_high


def regime_case(spec: FreeProductSpec) -> str:
    """Label A-F of the Upsilon shape (sign pattern across the two pieces)."""
    an1, an2 = _two_analytics(spec)
    ac = critical_weight(an1.theta, an2.theta)
    at0, middle, at1 = _limits(an1, an2)

    if ac is None:
        if middle < -_SIGN_TOL:
            return "E"
        raise AmbiguousRegime(f"constant Upsilon = {middle}; no transient label")

    interior = 0.0 < ac < 1.0
    # the infimum of Upsilon: the V-bottom when alpha_c is interior, the
    # far-end limit when Upsilon is monotone
    bottom = middle if interior else min(at0, at1)
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


@dataclass(frozen=True)
class PhasePoint:
    alpha1: float
    upsilon: float
    kind: str
    factor_index: Optional[int]
    lam: float
    kappa: int
    near_critical: bool


def _law_at(an1, an2, alpha1: float) -> PhasePoint:
    """One grid point: Upsilon is Psi(theta-bar) at these weights, and
    `classify.law_of_psi` decides the law as `analyze` does (no radius solve)."""
    ups = upsilon_of(an1, an2, alpha1)
    _, argmin = theta_bar_of((an1, an2), (alpha1, 1.0 - alpha1))
    kind, idx, lam, kappa = law_of_psi((an1, an2), argmin, ups)
    return PhasePoint(alpha1, ups, kind, idx, lam, kappa, abs(ups) <= _WARN_TOL)


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


def sweep(spec: FreeProductSpec, grid_size: int = 512) -> PhaseDiagram:
    """Evaluate Upsilon and the law kind across an alpha_1 grid, point by
    point in this process: a process pool gained only past about 16,000
    points on 2 cores."""
    if grid_size < 3:
        raise ConfigError("grid needs at least 3 points")
    an1, an2 = _two_analytics(spec)
    rows = tuple(_law_at(an1, an2, float(a)) for a in logistic_grid(grid_size))
    return PhaseDiagram(rows, critical_weight(an1.theta, an2.theta), *phase_roots(spec), regime_case(spec))


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
