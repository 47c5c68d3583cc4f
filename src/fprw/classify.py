"""Asymptotic-law classification for product return probabilities.

mu^(n delta)(e) ~ C rho^(-n delta) * L(n) with L either inherited from one
factor (n^-lambda log^kappa n via Darboux's coefficient map) or the square
root law n^-3/2; the recurrent (Z/2Z)*(Z/2Z) product keeps its n^-1/2 law.
The sign of Psi(theta-bar) picks the branch, with an explicit near-critical
warning band because the law is discontinuous across the critical weight.

Every law comes from `law_of_analysis`, which reads one
`product.analyze_product` pass and the analysed factors; `fprw analyze`
prints that same pass beside the law.  The phase sweep decides its grid
points with `law_of_psi`, the same rule without the radius solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InsufficientData, MissingSingularity, RootNotBracketed
# darboux_map is kept importable from here, beside the laws it feeds
from .factors import _INT_TOL, DEFAULT_ORDER, ExplicitSeries, darboux_map
from .product import (
    FreeProductSpec,
    ProductAnalytics,
    _CRIT_TOL,
    _WARN_TOL,
    analyze_product,
    factor_analytics,
    phi_of,
    product_green_series,
)
from .series import PowerSeries

INHERITED = "inherited"
THREE_HALVES = "three-halves"
ONE_HALF_DEGENERATE = "one-half-degenerate"

EXACT = "exact"
NEAR_CRITICAL = "near-critical-warning"


def _inverse_darboux(lam: float, kappa: int):
    """(q, k) of the singular term producing the law n^-lam log^kappa n."""
    q = lam - 1.0
    if abs(q - round(q)) < _INT_TOL:
        return q, kappa + 1
    return q, kappa


@dataclass(frozen=True)
class AsymptoticLaw:
    """Classified non-exponential return law of a product walk."""

    radius: float
    period: int
    kind: str
    lam: float
    kappa: int
    factor_index: Optional[int] = None  # source factor for the inherited kind
    confidence: str = EXACT

    def law_string(self) -> str:
        body = f"n^-{_fmt_exponent(self.lam)}"
        if self.kappa > 0:
            body += f"*log^{self.kappa}(n)"
        return body


def _fmt_exponent(lam: float) -> str:
    num = round(lam * 2)
    if abs(lam * 2 - num) < 1e-9 and num % 2 == 1:
        return f"{num}/2"
    if abs(lam - round(lam)) < 1e-9:
        return str(int(round(lam)))
    return f"{lam:.6g}"


def inherited_choice(ans, argmin):
    """(index, descriptor) of the argmin factor whose leading term dominates:
    smaller lambda, then larger kappa, then smaller index."""
    best = None
    for i in argmin:
        an = ans[i]
        if not (math.isfinite(an.g_at_r) and math.isfinite(an.gprime_at_r)):
            raise RootNotBracketed(
                f"factor {i} has a divergent derivative at its radius yet "
                f"Psi(theta-bar) > 0; numeric inconsistency"
            )
        if an.sing is None:
            raise MissingSingularity(
                f"factor {i} carries no singularity descriptor; cannot inherit a law"
            )
        key = (an.sing.lam, -an.sing.kappa, i)
        if best is None or key < best[0]:
            best = (key, i, an.sing)
    _, idx, sing = best
    return idx, sing


def law_of_psi(ans, argmin, pb: float):
    """(kind, factor index, lambda, kappa) from pb = Psi(theta-bar): the law
    of the dominant argmin factor when pb > _CRIT_TOL, else n^-3/2."""
    if pb > _CRIT_TOL:
        idx, sing = inherited_choice(ans, argmin)
        return INHERITED, idx, sing.lam, sing.kappa
    return THREE_HALVES, None, 1.5, 0


def law_of_analysis(pa: ProductAnalytics, ans) -> AsymptoticLaw:
    """The law of a product from its one analysis pass and its analysed factors."""
    if pa.degenerate:
        kind, idx, lam, kappa = ONE_HALF_DEGENERATE, None, 0.5, 0
    else:
        kind, idx, lam, kappa = law_of_psi(ans, pa.argmin_set, pa.psi_bar)
    near = not pa.degenerate and abs(pa.psi_bar) <= _WARN_TOL
    return AsymptoticLaw(
        radius=pa.radius,
        period=pa.period,
        kind=kind,
        lam=lam,
        kappa=kappa,
        factor_index=idx,
        confidence=NEAR_CRITICAL if near else EXACT,
    )


def classify_two(spec: FreeProductSpec) -> AsymptoticLaw:
    """Classify a two-factor product (all theorem branches)."""
    if spec.m != 2:
        raise ValueError("classify_two needs exactly two factors")
    return classify_multi(spec)


def classify_multi(
    spec: FreeProductSpec, method: str = "direct", fold_order: int = DEFAULT_ORDER
) -> AsymptoticLaw:
    """Classify an m-factor product.

    method="direct", the product path, applies the m-factor formula: the sign
    of Psi(theta-bar) = 1 + sum_i (Psi_i(alpha_i theta-bar) - 1).
    method="fold" is the reference that tests compare it with.  It follows
    the paper's induction: classify the first m-1 factors, wrap them as an
    explicit-series factor truncated at fold_order, and classify the
    resulting two-factor product.
    """
    if spec.m == 2 or method == "direct":
        return law_of_analysis(analyze_product(spec), factor_analytics(spec))
    if method != "fold":
        raise ValueError(f"unknown method {method!r}")

    head = FreeProductSpec(spec.factors[:-1], spec.weights[:-1])
    head_weight = sum(spec.weights[:-1])
    sub_law = classify_multi(head, method="fold", fold_order=fold_order)
    sub = analyze_product(head)
    if sub.psi_bar > _CRIT_TOL:
        # expansion of type (I): differentiable at the radius, inherited term
        phi1 = phi_of(factor_analytics(head), head.weights, sub.theta_bar, 1)
        sub_gprime = phi1 * sub.g_at_radius / (1.0 - sub.radius * phi1)
        sing = _inverse_darboux(sub_law.lam, sub_law.kappa)
    else:
        # expansion of type (II): square-root branch point
        sub_gprime = math.inf
        sing = (0.5, 0)
    series = product_green_series(head, fold_order)
    coeffs = np.clip(series.coeffs, 0.0, 1.0)
    synthetic = ExplicitSeries(
        coeffs=tuple(coeffs),
        radius=sub.radius,
        g_at_r=sub.g_at_radius,
        gprime_at_r=sub_gprime,
        sing=sing,
        period=sub_law.period,
    )
    pair = FreeProductSpec((synthetic, spec.factors[-1]), (head_weight, spec.weights[-1]))
    law = classify_two(pair)
    if law.kind == INHERITED:
        # map the synthetic index back to a real factor index
        idx = sub_law.factor_index if law.factor_index == 0 else spec.m - 1
        law = replace(law, factor_index=idx)
    return law


def estimate_radius(series: PowerSeries, delta: int) -> float:
    """Radius of convergence from the coefficients, by regressing
    log c_n = -n log rho - lam log n + const over the top half of the lattice."""
    n = np.arange(delta, series.order + 1, delta)
    vals = series.coeffs[n]
    keep = vals > 0
    n, vals = n[keep], vals[keep]
    if n.size < 8:
        raise InsufficientData("too few positive lattice coefficients")
    half = n.size // 2
    n, vals = n[half:], vals[half:]
    design = np.vstack([n, np.log(n), np.ones_like(n, dtype=float)]).T
    slope = np.linalg.lstsq(design, np.log(vals), rcond=None)[0][0]
    return math.exp(-slope)


def fit_exponent(
    series: PowerSeries,
    radius: float,
    delta: int,
    n_range: tuple,
    kappa: int = 0,
) -> float:
    """Empirical polynomial-decay exponent of c_n rho^n along the delta-lattice.

    kappa = 0: Richardson-extrapolated ratio estimate; kappa > 0: least squares
    against log(c_n rho^n) = const - lam log n + kappa log log n.
    """
    lo, hi = n_range
    n = np.arange(delta * max(1, lo // delta), min(hi, series.order - delta) + 1, delta)
    vals = series.coeffs[n]
    scaled = vals * np.power(radius, n.astype(float))
    keep = (vals > 0) & (scaled > 1e-280)
    n, scaled = n[keep], scaled[keep]
    if n.size < 4:
        raise InsufficientData("series too short for the requested fit range")
    if kappa > 0:
        design = np.vstack([-np.log(n), np.ones_like(n, dtype=float)]).T
        rhs = np.log(scaled) - kappa * np.log(np.log(n))
        return float(np.linalg.lstsq(design, rhs, rcond=None)[0][0])

    def lam_at(i: int) -> float:
        r = scaled[i + 1] / scaled[i]
        return -math.log(r) / math.log(n[i + 1] / n[i])

    top = n.size - 2
    mid = n.size // 2 - 1
    lam_hi = lam_at(top)
    lam_lo = lam_at(mid)
    # lam_at(n) = lam + b/n + O(n^-2): eliminate the 1/n term
    nh, nl = float(n[top]), float(n[mid])
    b = (lam_lo - lam_hi) / (1.0 / nl - 1.0 / nh)
    return float(lam_hi - b / nh)
