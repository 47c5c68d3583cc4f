"""Nearest-neighbour random walks on Z^d.

The Green function is a Laplace transform.  With c_j = 2 beta_j
sqrt(p_j (1-p_j)) and F(t) = prod_j I0(c_j t), I0 the modified Bessel
function, G(z) = int_0^inf e^-s F(z s) ds.  Put t = z s and a = 1/z, and
integrate by parts once:

    G(z) = 1 + int_0^inf e^(-a t) F'(t) dt,
    G^(k)(z) = a^(k+1) int_0^inf t^k e^(-a t) F^(k)(t) dt    (k = 1, 2)

(the Laplace form is the one in Guttmann, J. Phys. A 43 (2010) 305205).
Only the damping e^(-a t) depends on z.  F' and F'' are sums of products of
I0, I1 and I2 at c_j t, with I1' = (I0 + I2)/2, so every term is
nonnegative.  With scaled Bessel functions the damping is e^(-(gap/z) t),
where gap = (rho - z)/rho has no cancellation, so G and its derivatives keep
full relative accuracy as z approaches rho.  At rho the integrand of G^(k)
decays like t^(k - d/2), which converges while d - 2k >= 3.  The scaled
columns of F' and F'' on the nodes are built once per walk and kept for the
last few walks, so a call costs one exp and one dot product per z.

The integral is taken in x = log t by the trapezoidal rule with step 1/8 on
fixed nodes x in [-48, 90].  In x the integrand is analytic in the strip
|Im x| < pi/2 and decays at both ends, so the step error is of order
exp(-pi^2 / h) ~ 1e-34 (Takahasi & Mori 1974).  On the whole line the rule
keeps that accuracy whatever the offset of its grid (Trefethen & Weideman,
SIAM Review 56 (2014)), so nodes fixed in t, shifted by log z against nodes
in s, cost nothing.  A call sums the nodes from t = z e^-24 up to where the
damping underflows to 0.  The integrands grow like t^(k+1) from t = 0, so
the cut leaves out at most e^-48 / 2 of G - 1 and e^-72 / 6 of G' and G''.
That is why G is taken as 1 + int F': in the form a int e^(-a t) F dt the
mass a t_0 below a cut at t_0 goes missing, 4e-14 of G at z = 1e-4 rho with
the cut at e^-40.  Past t = e^90 the slowest decay (d - 2k = 3 at the
radius) leaves out about e^-45 ~ 3e-20.  At and below z = 1e-9 rho, G =
1 + |c|^2 z^2 / 2, G' = |c|^2 z and G'' = |c|^2, |c|^2 = sum_j c_j^2: the
return probabilities have p_4 <= (3/2) |c|^2 p_2 and p_2n <= rho^-2n, so
the terms left out are below 1e-17 relative.  The scaled Bessel functions
come from their power series below x = 24 and their asymptotic series above
(`_scaled_bessel`), within 2.5 eps of exact.

The exact return-probability series comes from a separate per-axis dynamic
programme in probability space, which doubles as an independent oracle for
the integral representation.  Its binomial weights take Loader's
saddle-point form, whose exponent does not cancel, and each merge sums only
the window of the binomial that a Chernoff bound leaves: every coefficient
is within a few eps of exact.  A merge is a convolution over blocks of
about 0.7 sqrt(a) even rows n around an anchor row a, by the exact identity

    bd0(k, n b) + bd0(n - k, n c)
        = bd0(k, a b) + bd0(n - k, a c) - bd0(n, a) + (b + c - 1)(n - a)

for Loader's deviance bd0: the factors of k and of n - k are formed once
per block, and a row's sum is one sum of products (`_block_sums`), with no
deviance or exp per term.  The blocks are laid out by n alone, so no coefficient depends on the order asked for.  Axes
merge heaviest first, and the law of every prefix of merged axes is kept,
keyed on its relative weights and p, so walks that share a prefix share its
merges: Z^6 after Z^5 is one merge (`return_series`).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import OutOfDomain
from .series import PowerSeries

_STEP = 0.125
_LOG_T = np.arange(-384, 721) * _STEP  # x = log t on [-48, 90], 1,105 nodes
_NODES = np.exp(_LOG_T)
_TINY = 1e-9  # z / rho at or below which G's first Taylor terms are exact to rounding
_HEAD = 24.0  # nodes below t = z e^-24 are left out
_UNDERFLOW = 750.0  # exp(-u) is exactly 0.0 past u = 745.2

# Scaled Bessel functions: the power series below _SERIES_TO, the asymptotic
# series from it on.  Each coefficient is an exact rational rounded once.
_SERIES_TO = 24.0
_POWER = np.array([[1 / (math.factorial(k) * math.factorial(k + nu)) for nu in range(3)] for k in range(41)])


def _asymptotic_coefficient(nu: int, k: int) -> float:
    num = math.prod((2 * j - 1) ** 2 - 4 * nu * nu for j in range(1, k + 1))
    return num / (math.factorial(k) * 8**k)


_ASYMPTOTIC = np.array([[_asymptotic_coefficient(nu, k) for nu in range(3)] for k in range(21)])


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


def _horner(coef, y):
    """Rows sum_k coef[k, nu] y^k for every column nu of coef, and their
    derivatives in y."""
    s = np.repeat(coef[-1][:, None], y.size, axis=1)
    ds = np.zeros(s.shape)
    for row in coef[-2::-1]:
        ds *= y
        ds += s
        s *= y
        s += row[:, None]
    return s, ds


def _scaled_bessel(x) -> np.ndarray:
    """I_nu(x) e^-x for nu = 0, 1, 2 (rows) at every x > 0, each within
    2.5 eps of exact on the kernel's nodes (against 30-digit mpmath).

    Below x = 24 it is (x/2)^nu e^-x S_nu(x^2/4) with S_nu(y) = sum_k
    y^k / (k! (k+nu)!), 41 terms, all positive.  d log S_nu / d log y is
    x I_(nu+1) / (2 I_nu), up to 12, so y = x^2/4 is carried with its
    rounding error dy (Dekker's exact product) and S_nu is taken as
    S_nu(y) + S_nu'(y) dy.  I2 comes from its own series: I0 - 2 I1 / x
    cancels at small x.  From x = 24 on it is (2 pi x)^(-1/2) sum_k a_k(nu)
    x^-k with a_k = prod_(j<=k) ((2j-1)^2 - 4 nu^2) / (k! 8^k), 21 terms:
    the last is below 2^-56 at x = 24, the terms still fall there until
    k = 48, and the e^-2x term the series leaves out is 1.4e-21."""
    out = np.empty((3, x.size))
    small = x < _SERIES_TO
    half = 0.5 * x[small]
    y = half * half
    split = 134217729.0 * half  # 2^27 + 1
    hi = split - (split - half)
    lo = half - hi
    dy = ((hi * hi - y) + 2.0 * hi * lo) + lo * lo  # y + dy = half^2 exactly
    s, ds = _horner(_POWER, y)
    s += ds * dy
    s *= np.exp(-2.0 * half)
    s[1] *= half
    s[2] *= y
    out[:, small] = s
    big = x[~small]
    out[:, ~small] = _horner(_ASYMPTOTIC, 1.0 / big)[0] / np.sqrt(2.0 * math.pi * big)
    return out


class _Kernel:
    """The z-free part of the quadrature for one walk: its radius and the
    integrand columns of G, G' and G'' on the nodes."""

    def __init__(self, beta, p):
        c = axis_coupling(beta, p)
        self.rho = 1.0 / float(np.sum(c))
        self.dim = c.size
        self.curvature = float(np.dot(c, c))  # G''(0)
        values, mult = np.unique(c, return_counts=True)
        # F(t) = prod_j I0(c_j t).  With r_j = I1/I0 and q_j = I2/I0 at c_j t,
        # and P = prod_j I0(c_j t) e^(-c_j t): e^(-t/rho) F' = P sum_j c_j r_j
        # and e^(-t/rho) F'' = P (sum_j c_j^2 (1 + q_j)/2 + sum_(j != k) c_j r_j
        # c_k r_k), since I1' = (I0 + I2)/2.  Every term is nonnegative.
        mult = mult.tolist()
        prod = np.ones(_NODES.size)
        first = second = 0.0
        cr = []
        for v, m in zip(values.tolist(), mult):
            i0, i1, i2 = _scaled_bessel(v * _NODES)
            prod *= i0 if m == 1 else i0**m
            cr.append(v * (i1 / i0))
            first = first + m * cr[-1]
            second = second + m * (0.5 * v * v) * (1.0 + i2 / i0)
        for i, (m, x) in enumerate(zip(mult, cr)):  # ordered pairs of axes
            for j, (n, y) in enumerate(zip(mult, cr)):
                pairs = m * (n - 1) if i == j else m * n
                if pairs:
                    second = second + pairs * x * y
        # trapezoid weight times dt/dx, times t^deriv
        weight = _STEP * _NODES
        self.columns = (weight * prod * first, weight * _NODES * prod * first,
                        weight * _NODES**2 * prod * second)

    def value(self, z: float, deriv: int) -> float:
        """G^(deriv)(z) under the domain, divergence and small-z rules."""
        if z < 0.0 or z > self.rho * (1.0 + 1e-12):
            raise OutOfDomain(f"z={z} outside [0, {self.rho}]")
        z = min(z, self.rho)
        if z >= self.rho * (1.0 - 1e-13) and self.dim - 2 * deriv <= 2:
            return math.inf
        if z <= self.rho * _TINY:
            return (1.0 + 0.5 * self.curvature * z * z, self.curvature * z, self.curvature)[deriv]
        return self.quadrature(z, deriv)

    def quadrature(self, z: float, deriv: int) -> float:
        """G^(deriv) by the trapezoidal sums, for a float z in (rho _TINY,
        rho]."""
        b = (self.rho - z) / self.rho / z  # the damping rate gap / z in t
        lo = max(0, math.floor((math.log(z) - _HEAD - _LOG_T[0]) / _STEP))
        hi = _NODES.size
        if b > 0.0:
            hi = min(hi, math.floor((math.log(_UNDERFLOW / b) - _LOG_T[0]) / _STEP) + 1)
        s = float(np.exp(-b * _NODES[lo:hi]) @ self.columns[deriv][lo:hi])
        if deriv == 0:
            return 1.0 + s
        return s / (z * z) if deriv == 1 else s / (z * z * z)


@lru_cache(maxsize=32)
def _kernel(beta: tuple, p: tuple) -> _Kernel:
    """The kernel of one walk, kept for the last 32 walks."""
    return _Kernel(beta, p)


def green(beta, p, z, deriv: int = 0):
    """G^(deriv)(z) for the lattice walk; math.inf where the integral diverges.

    Valid for a scalar z with 0 <= z <= radius and deriv in {0, 1, 2}.
    """
    if deriv not in (0, 1, 2):
        raise OutOfDomain(f"deriv must be 0, 1 or 2, got {deriv}")
    return _kernel(tuple(beta), tuple(p)).value(float(z), deriv)


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
_BLOCK_ROWS = 0.7  # rows of a merge block per sqrt of its first row
# prefix laws of `return_series` kept, keyed on their relative weights and
# p: the 19 of one exact-series round (Z^5 and Z^6, tuned Z^7 and Z^8) fit
_LAWS_SIZE = 32
_LAWS: "OrderedDict[tuple, PowerSeries]" = OrderedDict()


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
    most eps/|v| <= 10 eps of the deviance.  Each cell evaluates only its
    own branch, the series or `arctanh`, with the same operations in the
    same order as a pass that formed both and picked one, so the values are
    the same bit for bit.  The series runs in place, so a pass allocates a
    few arrays, not one per operation."""
    d = x - m
    v = d / (x + m)
    small = np.abs(v) < 0.1
    big = ~small
    vs = v[small]
    w = vs * vs
    series = w * (1.0 / 17.0)  # v^19 / 19 < 2^-53 v^3 / 3 for |v| < 1/10
    for j in range(6, 0, -1):
        series += 1.0 / (2 * j + 3)
        series *= w
    series += 1.0 / 3.0
    series *= w
    series *= vs
    vb = v[big]
    tail = np.empty(v.shape)
    tail[small] = series
    tail[big] = np.arctanh(vb) - vb
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

    def rel_entr(x, y):  # x log(x/y), 0 at x = 0
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(x > 0.0, x * np.log(x / y), 0.0)

    def short(a):
        return n * (rel_entr(a, b) + rel_entr(1.0 - a, 1.0 - b)) < target

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


def _blocks(order: int):
    """(heads, anchors) of the merge blocks that hold the even rows n <= order.

    A block holds the 1 + floor(_BLOCK_ROWS sqrt(head)) even rows from its
    head on, and its anchor is its middle row.  Blocks are laid out from
    n = 2 by n alone, so a row's block, and with it the row's sum, does not
    depend on `order`."""
    heads, anchors = [], []
    n = 2
    while n <= order:
        rows = 1 + int(_BLOCK_ROWS * math.sqrt(n))
        heads.append(n)
        anchors.append(n + 2 * (rows // 2))
        n += 2 * rows
    return np.array(heads), np.array(anchors)


def _merge_axis(acc, axis, b, c, stir):
    """Return probabilities of the walk on one more axis, taken with
    probability b = 1 - c per step.

    Coefficient n is sum_k C(n, k) b^k c^(n-k) axis_k acc_(n-k) over even k.
    axis and acc are probabilities, so term k is at most Binomial(n, b)(k).
    Only the window of k whose Chernoff bound on the rest, per side, is at
    most _TAIL_TOL of one kept term, the one at k ~ n b, is summed, so the
    dropped mass is below 2 _TAIL_TOL of the kept sum.  The window sums go
    by blocks of rows (`_block_sums`)."""
    order = acc.size - 1
    out = np.zeros(order + 1)
    out[0] = 1.0
    # Loader's form of C(n, k) b^k c^(n-k) for 0 < k < n is exp(stirlerr(n) -
    # stirlerr(k) - stirlerr(n-k) - bd0(k, nb) - bd0(n-k, nc)) sqrt(n / (2 pi
    # k (n-k))).  The stirlerr terms are O(1/k) and the deviances
    # nonnegative, so the exponent does not cancel.  The factors of k and of
    # n - k go into the two laws once, lk_k = axis_k e^-stirlerr(k) / sqrt(k)
    # and lj_j = acc_j e^-stirlerr(j) / sqrt(j), so term k is
    # row_n e^-(bd0 + bd0) lk_k lj_(n-k); lk is 0 past `order`, where the
    # padding of a row's window reads it
    j = np.arange(1, order + 1)
    lk = np.zeros(order + 32)
    lj = np.zeros(order + 1)
    lk[1 : order + 1] = axis[1:] * np.exp(-stir[1:]) / np.sqrt(j)
    lj[1:] = acc[1:] * np.exp(-stir[1:]) / np.sqrt(j)
    n = np.arange(2, order + 1, 2)
    row_n = np.exp(stir[n]) * np.sqrt(n / (2.0 * math.pi))

    # a kept term bounds the kept sum from below; n = 2 keeps both its ends
    mid = np.clip(2 * np.round(n * b / 2).astype(np.int64), 2, np.maximum(n - 2, 2))
    kept = np.zeros(n.size)
    nn, k = n[1:], mid[1:]
    dev = _bd0(k.astype(float), nn * b)
    dev += _bd0((nn - k).astype(float), nn * c)
    kept[1:] = row_n[1:] * (np.exp(-dev) * lk[k] * lj[nn - k])
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
    # so coefficient n, does not depend on which rows share its pass
    cols = -(-((hi - lo) // 2 + 1) // 16) * 16
    if n.size > 1:  # n = 2 has no k strictly inside
        _block_sums(out, lk, lj, n[1:], lo[1:], cols[1:], row_n[1:], b, c)
    return out


def _block_sums(out, lk, lj, n, lo, cols, row_n, b, c):
    """Add to out[n] row n's window sum: Loader's weights times lk_k
    lj_(n-k) for k = lo, lo + 2, ..., `cols` cells, as a convolution over
    blocks of rows.

    With a the anchor of n's block (`_blocks`), Loader's pair of deviances
    splits exactly:

        bd0(k, n b) + bd0(n - k, n c)
            = bd0(k, a b) + bd0(n - k, a c) - bd0(n, a) + (b + c - 1)(n - a),

    so term k is row_n e^(bd0(n, a) - (b + c - 1)(n - a)) f_k g_(n-k), with
    f_k = lk_k e^-bd0(k, a b) and g_j = lj_j e^-bd0(j, a c) formed once per
    block, over the union of its rows' windows (`_anchored`).  A row's sum
    is the pairwise sum of the products of f from its window's low end and
    g run backwards, `cols` cells of each; the padding past the window adds
    terms beyond it, or zeros past k = n - 2.  (einsum's dot product sums
    its products in a few running lanes, and took Z^2 and Z^3 from 2.6 and
    3.0 eps to 4.6 and 4.7 eps off exact through n = 3000.)  Within a block |n - a| <= 0.82 sqrt(a),
    so bd0(n, a) <= 0.38, and the exponents stay as small as in the
    cell-wise form.
    b + c - 1 is summed exactly, and a b and a c go in with their rounding
    errors, so the terms are those of Loader's form at the exact float b
    and c, to first order in the rounding of the means: closer than the
    cell-wise form, which rounds n b per row.  The blocks' f and g are formed
    a group at a time, at most about _CELLS cells, and the rows summed in
    chunks of at most _CELLS cells, so every temporary has a bounded size."""
    heads, anchors = _blocks(int(n[-1]))
    block = np.searchsorted(heads, n, side="right") - 1
    starts = np.flatnonzero(np.diff(block, prepend=-1))  # the first row of each block
    own = np.repeat(np.arange(starts.size), np.diff(np.append(starts, n.size)))
    a = anchors[block[starts]]
    nf, an = n.astype(float), a[own].astype(float)
    scale = row_n * np.exp(_bd0(nf, an) - math.fsum((b, c, -1.0)) * (nf - an))
    # per block, f from the lowest k of its rows to the last padded cell, and
    # g from the highest j = n - k down to the lowest, in steps of 2
    top = lo + 2 * cols - 2
    kb, jt = np.minimum.reduceat(lo, starts), np.maximum.reduceat(n - lo, starts)
    fsize = (np.maximum.reduceat(top, starts) - kb) // 2 + 1
    gsize = (jt - np.minimum.reduceat(n - top, starts)) // 2 + 1
    foff, goff = np.cumsum(fsize) - fsize, np.cumsum(gsize) - gsize
    fs = foff[own] + (lo - kb[own]) // 2  # a row's first cell in f and in g
    gs = goff[own] + (jt[own] - (n - lo)) // 2
    ends = np.append(starts, n.size)
    cells = np.cumsum(fsize + gsize)
    first = 0
    while first < starts.size:
        # the blocks of one group: at least one, at most about _CELLS cells
        last = max(first + 1, int(np.searchsorted(cells, cells[first] - fsize[first] - gsize[first] + _CELLS, "right")))
        group, rows = slice(first, last), slice(ends[first], ends[last])
        wide = int(cols[rows].max())
        f = sliding_window_view(_anchored(lk, kb[group], fsize[group], 2, a[group], b, wide), wide)
        g = sliding_window_view(_anchored(lj, jt[group], gsize[group], -2, a[group], c, wide), wide)
        for width in sorted(set(cols[rows].tolist())):
            pick = rows.start + np.flatnonzero(cols[rows] == width)
            step = max(1, _CELLS // width)
            for i in range(0, pick.size, step):
                p = pick[i : i + step]
                sums = (f[fs[p] - foff[first], :width] * g[gs[p] - goff[first], :width]).sum(axis=1)
                out[n[p]] += scale[p] * sums
        first = last


def _anchored(law, top, size, step, anchor, p, pad):
    """law_i e^-bd0(i, a p) for i = top, top + step, ..., `size` cells per
    block of anchor a, the blocks laid end to end and followed by `pad`
    zeros; 0 where i < 2.

    a p is rounded to m; its rounding error e comes from Dekker's split of p
    (a p_hi and a p_lo are exact for a < 2^26) and goes in to first order,
    bd0(i, m + e) = bd0(i, m) + (m - i) e / m."""
    split = 134217729.0 * p  # 2^27 + 1
    high = split - (split - p)
    mean = anchor * p
    slip = ((anchor * high - mean) + anchor * (p - high)) / mean
    i = np.repeat(top - step * (np.cumsum(size) - size), size) + step * np.arange(int(size.sum()))
    out = np.zeros(i.size + pad)
    ok = np.flatnonzero(i >= 2)
    x, m = i[ok].astype(float), np.repeat(mean, size)[ok]
    out[ok] = law[i[ok]] * np.exp(-(_bd0(x, m) + (m - x) * np.repeat(slip, size)[ok]))
    return out


def _kept(key: tuple, order: int):
    """The law kept under `key`, truncated to `order`, or None where none
    is kept through `order`."""
    law = _LAWS.get(key)
    if law is None or law.order < order:
        return None
    _LAWS.move_to_end(key)
    return law.truncate(order)


def _keep(key: tuple, law: PowerSeries) -> PowerSeries:
    _LAWS[key] = law
    _LAWS.move_to_end(key)
    if len(_LAWS) > _LAWS_SIZE:
        _LAWS.popitem(last=False)
    return law


def return_series(beta, p, order: int) -> PowerSeries:
    """Exact return-probability series of the d-dimensional walk.

    Axes are merged one at a time, heaviest first (ties in the order
    given): conditioning on how many of the n steps fall on the new axis
    gives a binomial mixture of the two return laws, the new axis taken
    with probability b, its weight over that of the axes merged so far and
    itself.  b and 1 - b are exact ratios of the float axis weights, each
    rounded once.  Everything stays a probability, so nothing overflows,
    and the mixture is a sum of nonnegative terms over a window of the
    binomial that a Chernoff bound shows holds all but 2^-60 of it per side
    (`_merge_axis`), as a convolution over blocks of rows, each with its
    own anchor row (`_block_sums`).  The binomial weights and the axis laws
    are in Loader's saddle-point form, accurate to an eps or two each.
    Against exact rationals the error is at most 2.6 eps on Z^2 and 3.0 eps
    on Z^3 through n = 3000, and 4.0 eps on Z^5, 7.2 eps on a biased Z^5 and
    8.8 and 5.0 eps on the tuned Z^7 and Z^8 of delta = 0.3 through n = 400.
    Coefficient n does not depend on `order`: its window, its block and its
    sum see only n.

    The law of the first k axes depends only on their relative weights and
    their p.  It is kept under the exact ratios of their weights to the
    first axis's and their p values, at the highest order built, for the
    last `_LAWS_SIZE` prefixes, and a lower order is its truncation, bit
    for bit.  A walk starts from its longest kept prefix, so Z^6 after Z^5
    is one merge.  A tuned family, heavy axis first, merges its light axes
    into it with small b, whose windows are narrow.
    """
    axes = sorted(zip(map(Fraction, beta), map(float, p)), key=lambda a: -a[0])
    key = tuple((*(w / axes[0][0]).as_integer_ratio(), pj) for w, pj in axes)
    stir = _stirlerr(order)

    def axis_law(pj):  # the prefix of one axis
        law = _kept(((1, 1, pj),), order)
        return law if law is not None else _keep(((1, 1, pj),), PowerSeries(_axis_return_probs(pj, order, stir)))

    k = len(key)
    while k > 1 and (acc := _kept(key[:k], order)) is None:
        k -= 1
    if k == 1:
        acc = axis_law(axes[0][1])
    total = sum(w for w, _ in axes[:k])
    for j in range(k, len(axes)):
        w, pj = axes[j]
        b, c = float(w / (total + w)), float(total / (total + w))
        acc = _keep(key[: j + 1], PowerSeries(_merge_axis(acc.coeffs, axis_law(pj).coeffs, b, c, stir)))
        total += w
    return acc
