"""Nearest-neighbour random walks on Z^d.

The Green function is evaluated through the Laplace-transform form of the
exponential generating function: G(z) = int_0^inf e^-s prod_j I0(c_j z s) ds
with c_j = 2 beta_j sqrt(p_j (1-p_j)), where I0 is the modified Bessel
function.  Written with scaled Bessel factors the integrand is
e^{-(1 - z/rho) s} prod_j I0(c_j z s) e^{-c_j z s}: it decays exponentially
away from the convergence radius rho and like s^(-d/2) at it.  Derivatives in
z go through the integral sign; they stay convergent at z = rho as long as
d - 2*deriv >= 3.

The integral is taken in x = log s by the trapezoidal rule with step 1/8 on
the fixed nodes x in [-40, 90].  In x the integrand is analytic in the strip
|Im x| < pi/2 and decays at both ends (like e^x as x -> -inf; like
e^{-x/2} or faster, or double exponentially inside the radius, as
x -> +inf), so the step error is of order exp(-pi^2 / h) ~ 1e-34, far below
rounding (Takahasi & Mori 1974; the Laplace form is the one in Guttmann,
J. Phys. A 43 (2010) 305205).  Truncating at x = -40 leaves out about
e^-40 ~ 4e-18 of G; truncating at x = 90 leaves out at most about
e^-45 ~ 3e-20 (the slowest case, d - 2*deriv = 3 at the radius).  Near the
radius the damping gap 1 - z/rho is taken as (rho - z)/rho, which has no
cancellation, so G and its derivatives keep full relative accuracy as z
approaches rho.  One vectorized pass evaluates all nodes; the Bessel columns
are computed once per distinct axis coupling and raised to its multiplicity.

The exact return-probability series comes from a separate per-axis dynamic
programme in probability space, which doubles as an independent oracle for
the integral representation.  Its binomial weights are formed from log n!,
which cancels: coefficient n has a relative error of about eps log n!
(1e-12 near n = 3000).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .errors import OutOfDomain
from .series import PowerSeries

_STEP = 0.125
_LOG_S = np.arange(-320, 721) * _STEP  # x = log s on [-40, 90], 1,041 nodes
_NODES = np.exp(_LOG_S)
_WEIGHTS = _STEP * _NODES  # trapezoid weight times ds/dx
_CHUNK = 64  # z values per pass: each temporary array is 64 x 1,041 floats


def axis_coupling(beta, p) -> np.ndarray:
    """Per-axis constants c_j = 2 beta_j sqrt(p_j (1-p_j))."""
    beta = np.asarray(beta, dtype=float)
    p = np.asarray(p, dtype=float)
    return 2.0 * beta * np.sqrt(p * (1.0 - p))


def spectral_radius(beta, p) -> float:
    """Spectral radius sum_j beta_j sqrt(4 p_j (1-p_j)) of the walk."""
    return float(np.sum(axis_coupling(beta, p)))


def convergence_radius(beta, p) -> float:
    """Radius of convergence of the return series (reciprocal spectral radius)."""
    return 1.0 / spectral_radius(beta, p)


def _ive(nu: int, x):
    """Scaled Bessel I_nu(x) e^-x for nu in {0, 1}, accurate for every x >= 0."""
    return special.i0e(x) if nu == 0 else special.i1e(x)


def _laplace(couplings, mult, z, gap, deriv):
    """Trapezoidal sums of the deriv-th z-derivative integrand, one per z.

    z and gap = 1 - z/rho are 1-d arrays of equal length; couplings are the
    distinct c_j and mult their multiplicities.
    """
    s = _NODES
    prod = np.exp(-np.multiply.outer(gap, s))
    first = sq = diag = 0.0
    for c, m in zip(couplings, mult):
        x = np.multiply.outer(c * z, s)
        i0 = _ive(0, x)
        prod *= i0 if m == 1 else i0**m
        if deriv == 0:
            continue
        r = _ive(1, x) / i0
        a = c * r  # d/dz log I0(c z s), over s
        first = first + m * a
        if deriv == 2:
            sq = sq + m * a * a
            # I1'(x) / I0(x) = 1 - r/x, with the x -> 0 limit 1/2
            with np.errstate(invalid="ignore", divide="ignore"):
                diag = diag + m * c * c * np.where(x < 1e-8, 0.5, 1.0 - r / x)
    if deriv == 1:
        prod *= s * first
    elif deriv == 2:
        prod *= s * s * (diag + first * first - sq)
    return prod @ _WEIGHTS


def green(beta, p, z, deriv: int = 0):
    """G^(deriv)(z) for the lattice walk; math.inf where the integral diverges.

    Valid for 0 <= z <= radius and deriv in {0, 1, 2}.  A scalar z gives a
    float; an array of z gives an array of the same shape.
    """
    if deriv not in (0, 1, 2):
        raise OutOfDomain(f"deriv must be 0, 1 or 2, got {deriv}")
    c = axis_coupling(beta, p)
    rho = 1.0 / float(np.sum(c))
    zs = np.asarray(z, dtype=float)
    bad = (zs < 0.0) | (zs > rho * (1.0 + 1e-12))
    if np.any(bad):
        raise OutOfDomain(f"z={zs[bad].flat[0]} outside [0, {rho}]")
    flat = np.minimum(zs, rho).ravel()
    out = np.empty(flat.shape)
    diverges = (flat >= rho * (1.0 - 1e-13)) & (len(c) - 2 * deriv <= 2)
    out[diverges] = math.inf
    at_zero = flat == 0.0
    out[at_zero] = (1.0, 0.0, float(np.dot(c, c)))[deriv]
    todo = np.flatnonzero(~(diverges | at_zero))
    couplings, mult = np.unique(c, return_counts=True)
    for lo in range(0, todo.size, _CHUNK):
        idx = todo[lo : lo + _CHUNK]
        zc = flat[idx]
        out[idx] = _laplace(couplings, mult, zc, (rho - zc) / rho, deriv)
    if zs.ndim == 0:
        return float(out[0])
    return out.reshape(zs.shape)


def _axis_return_probs(p: float, order: int) -> np.ndarray:
    """Return probabilities of the +-1 walk with up-probability p, n = 0..order."""
    out = np.zeros(order + 1)
    out[0] = 1.0
    q = 4.0 * p * (1.0 - p)
    val = 1.0  # C(2m, m) 4^-m (4 p (1-p))^m, built multiplicatively
    for m in range(1, order // 2 + 1):
        val *= q * (2 * m - 1) / (2 * m)
        out[2 * m] = val
    return out


def return_series(beta, p, order: int) -> PowerSeries:
    """Exact return-probability series of the d-dimensional walk.

    Axes are merged one at a time: conditioning on how many of the n steps
    fall on the new axis gives a binomial mixture of the two return laws.
    Everything stays a probability, so nothing overflows, and the mixture is
    a sum of nonnegative terms.  Each binomial weight is exp of
    log n! - log k! - log (n-k)! + ..., whose terms reach about 2e4 at
    n = 3000 and cancel to O(1), so the weight and coefficient n carry a
    relative error of about eps log n!: measured at most 1.5 eps log n!,
    6.4e-12 on Z^2 and 6.3e-12 on Z^3 through n = 3000.  Coefficient n does
    not depend on `order`.
    """
    beta = np.asarray(beta, dtype=float)
    p = np.asarray(p, dtype=float)
    acc = _axis_return_probs(float(p[0]), order)
    wsum = float(beta[0])
    log_fact = special.gammaln(np.arange(order + 1) + 1)  # log n!, read per n
    for j in range(1, len(beta)):
        axis = _axis_return_probs(float(p[j]), order)
        b = float(beta[j]) / (wsum + float(beta[j]))
        nxt = np.zeros(order + 1)
        nxt[0] = 1.0
        log_b, log_nb = math.log(b), math.log1p(-b)
        for n in range(2, order + 1, 2):
            k = np.arange(0, n + 1, 2)
            logpmf = (
                log_fact[n]
                - log_fact[k]
                - log_fact[n - k]
                + k * log_b
                + (n - k) * log_nb
            )
            nxt[n] = float(np.dot(np.exp(logpmf) * axis[k], acc[n - k]))
        acc = nxt
        wsum += float(beta[j])
    return PowerSeries(acc)
