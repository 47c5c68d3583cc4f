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
the integral representation.  Its binomial weights take Loader's
saddle-point form, whose exponent does not cancel, and each merge sums only
the window of the binomial that a Chernoff bound leaves: every coefficient
is within a few eps of exact, and all n of a merge go in one array pass.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


# stirlerr(n) = log n! - log(sqrt(2 pi n) (n/e)^n) for n = 0..15, correctly
# rounded from 40-digit values (stirlerr(0) is 0 by convention; it is never read)
_STIRLERR_SMALL = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
# window cells per chunk: 64 KiB temporaries stay in cache, the fastest of
# 2^12..2^16 cells on the four exact-series lattice kernels
_CELLS = 1 << 13
_TAIL_TOL = 2.0**-60  # dropped binomial tail against the kept sum, per side


def _stirlerr(order: int) -> np.ndarray:
    """stirlerr(n) for n = 0..order (Loader 2000): the constants above below
    16, else the Stirling series 1/(12n) - 1/(360n^3) + 1/(1260n^5) -
    1/(1680n^7) + 1/(1188n^9), whose next term is at most 1.1e-16, at
    n = 16.  Each value is within eps/2 of exact in absolute terms
    (against 30-digit mpmath)."""
    out = np.empty(order + 1)
    small = min(order + 1, len(_STIRLERR_SMALL))
    out[:small] = _STIRLERR_SMALL[:small]
    n = np.arange(small, order + 1, dtype=float)
    nn = n * n
    out[small:] = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n
    return out


def _bd0(x, m):
    """x log(x/m) + m - x for x, m > 0 (Loader's deviance term), elementwise.

    With v = (x - m)/(x + m), x log(x/m) = 2 x atanh(v), so the deviance is
    (x - m) v + 2 x (atanh(v) - v): two terms of the sign of v^2, the second
    summed as its series v^3/3 + v^5/5 + ... where |v| < 1/10, so nothing
    cancels where the deviance is small.  Past 1/10, atanh(v) - v loses at
    most eps/|v| <= 10 eps of the deviance.  The series runs in place, so
    a pass allocates a few arrays, not one per operation."""
    d = x - m
    v = d / (x + m)
    w = v * v
    tail = w * (1.0 / 17.0)  # v^19 / 19 < 2^-53 v^3 / 3 for |v| < 1/10
    for j in range(6, 0, -1):
        tail += 1.0 / (2 * j + 3)
        tail *= w
    tail += 1.0 / 3.0
    tail *= w
    tail *= v
    tail = np.where(np.abs(v) < 0.1, tail, np.arctanh(v) - v)
    tail *= x
    tail *= 2.0
    d *= v
    d += tail
    return d


def _axis_return_probs(p: float, order: int, stir: np.ndarray) -> np.ndarray:
    """Return probabilities of the +-1 walk with up-probability p, n = 0..order.

    C(2m, m) (p (1-p))^m is exp(stirlerr(2m) - 2 stirlerr(m)) / sqrt(pi m)
    times q^m with q = 4 p (1-p).  The first factor is within an eps or two
    of exact at every m.  q^m is taken from q and its exact rounding error
    r, as q^m (1 + r/q)^m: raising the rounded q alone would multiply its
    error by m.  For p = 1/2, q^m is 1."""
    q = 4.0 * p * (1.0 - p)
    r = float(4 * Fraction(p) * (1 - Fraction(p)) - Fraction(q))
    m = np.arange(1, order // 2 + 1)
    out = np.zeros(order + 1)
    out[0] = 1.0
    central = np.exp(stir[2 * m] - 2.0 * stir[m]) / np.sqrt(math.pi * m)
    out[2::2] = central * q**m * np.exp(m * math.log1p(r / q))
    return out


def _chernoff_window(n, target, b):
    """Per n, fractions lo <= b <= hi with n D(lo || b) >= target and
    n D(hi || b) >= target, D the Bernoulli relative entropy, found by
    bisection; 0 or 1 where even that end falls short.  By the Chernoff
    bound, Binomial(n, b) puts at most exp(-target) below lo n and at most
    exp(-target) above hi n."""

    def short(a):
        return n * (special.rel_entr(a, b) + special.rel_entr(1.0 - a, 1.0 - b)) < target

    ends = np.array([[0.0], [1.0]])
    far = np.repeat(ends, n.size, axis=1)
    keep_all = short(far)
    near = np.full(far.shape, b)
    # each n stops once its bracket is under 1/n, so its window does not
    # depend on the other n of the pass
    while True:
        active = (far - near) * n > 1.0
        if not active.any():
            break
        mid = 0.5 * (near + far)
        out = short(mid)
        near = np.where(active & out, mid, near)
        far = np.where(active & ~out, mid, far)
    return np.where(keep_all, ends, far)


def _merge_axis(acc, axis, b, c, stir):
    """Return probabilities of the walk on one more axis, taken with
    probability b = 1 - c per step.

    Coefficient n is sum_k C(n, k) b^k c^(n-k) axis_k acc_(n-k) over even k.
    axis and acc are probabilities, so term k is at most Binomial(n, b)(k).
    Only the window of k whose Chernoff bound on the rest, per side, is at
    most _TAIL_TOL of one kept term, the one at k ~ n b, is summed, so the
    dropped mass is below 2 _TAIL_TOL of the kept sum.  All even n go in one
    array pass: rows grouped by window width, in chunks of at most _CELLS
    cells, so every temporary has a fixed size."""
    order = acc.size - 1
    out = np.zeros(order + 1)
    out[0] = 1.0
    # Loader's form of C(n, k) b^k c^(n-k) for 0 < k < n is exp(stirlerr(n) -
    # stirlerr(k) - stirlerr(n-k) - bd0(k, nb) - bd0(n-k, nc)) sqrt(n / (2 pi
    # k (n-k))).  The stirlerr terms are O(1/k) and the deviances
    # nonnegative, so the exponent does not cancel.  The factors of k and of
    # n - k go into the two laws once, lk_k = axis_k e^-stirlerr(k) / sqrt(k)
    # and lj_j = acc_j e^-stirlerr(j) / sqrt(j), so term k is
    # row_n e^-(bd0 + bd0) lk_k lj_(n-k)
    j = np.arange(1, order + 1)
    lk = np.zeros(order + 1)
    lj = np.zeros(order + 1)
    lk[1:] = axis[1:] * np.exp(-stir[1:]) / np.sqrt(j)
    lj[1:] = acc[1:] * np.exp(-stir[1:]) / np.sqrt(j)
    n = np.arange(2, order + 1, 2)
    row_n = np.exp(stir[n]) * np.sqrt(n / (2.0 * math.pi))

    def inner(nn, k):  # term k / row_n for 2 <= k <= n - 2
        rest = nn - k
        dev = _bd0(k.astype(float), nn * b)
        dev += _bd0(rest.astype(float), nn * c)
        return np.exp(-dev) * lk[k] * lj[rest]

    # a kept term bounds the kept sum from below; n = 2 keeps both its ends
    mid = np.clip(2 * np.round(n * b / 2).astype(np.int64), 2, np.maximum(n - 2, 2))
    kept = np.zeros(n.size)
    kept[1:] = row_n[1:] * inner(n[1:], mid[1:])
    with np.errstate(divide="ignore"):
        target = -np.log(kept) - math.log(_TAIL_TOL)
    nf = n.astype(float)
    # every dropped k lies at least a n beyond the window's edge on its side
    lo, hi = _chernoff_window(nf, target, b) * nf
    lo = np.floor(lo + 1.0).astype(np.int64)
    hi = np.ceil(hi - 1.0).astype(np.int64)
    hi = np.minimum(n, np.maximum(hi + hi % 2, mid))
    lo = np.maximum(0, np.minimum(lo - lo % 2, mid))
    # the ends k = 0 and k = n are exact powers
    out[n] = np.where(lo == 0, c**n * acc[n], 0.0) + np.where(hi == n, b**n * axis[n], 0.0)
    lo, hi = np.maximum(lo, 2), np.minimum(hi, n - 2)
    # a row sums its window padded to a multiple of 16 cells, so its sum, and
    # so coefficient n, does not depend on which rows share its chunk
    cols = -(-((hi - lo) // 2 + 1) // 16) * 16
    for width in np.unique(cols[1:]).tolist():
        rows = 1 + np.flatnonzero(cols[1:] == width)
        step = max(1, _CELLS // width)
        for first in range(0, rows.size, step):
            chunk = rows[first : first + step]
            nn, top = n[chunk, None], hi[chunk, None]
            k = lo[chunk, None] + 2 * np.arange(width)
            terms = inner(nn, np.minimum(k, top))
            out[n[chunk]] += row_n[chunk] * np.where(k <= top, terms, 0.0).sum(axis=1)
    return out


def return_series(beta, p, order: int) -> PowerSeries:
    """Exact return-probability series of the d-dimensional walk.

    Axes are merged one at a time: conditioning on how many of the n steps
    fall on the new axis gives a binomial mixture of the two return laws.
    Everything stays a probability, so nothing overflows, and the mixture is
    a sum of nonnegative terms over a window of the binomial that a Chernoff
    bound shows holds all but 2^-60 of it per side (`_merge_axis`).  The
    binomial weights and the axis laws, built once per distinct p, are in
    Loader's saddle-point form, accurate to an eps or two each.  Against
    exact rationals the error is at most 2.5 eps on Z^2 and 3.2 eps on Z^3
    through n = 3000, and 4.6 eps on Z^5 and 5.7 eps on a biased Z^5
    through n = 200.  Coefficient n does not depend on `order`: its window
    and its sum see only n.
    """
    beta = np.asarray(beta, dtype=float)
    p = np.asarray(p, dtype=float)
    stir = _stirlerr(order)
    laws = {pj: _axis_return_probs(pj, order, stir) for pj in set(p.tolist())}
    acc = laws[float(p[0])]
    wsum = float(beta[0])
    for j in range(1, len(beta)):
        bj = float(beta[j])
        acc = _merge_axis(acc, laws[float(p[j])], bj / (wsum + bj), wsum / (wsum + bj), stir)
        wsum += bj
    return PowerSeries(acc)
