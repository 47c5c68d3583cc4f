"""Truncated formal power-series arithmetic over float64 coefficients.

A series is a coefficient vector c0..cN; every binary operation truncates to
the smaller of the two orders.  Composition uses Brent-Kung block evaluation,
reversion and the implicit Green-function solve use Newton iteration with
order doubling, so everything stays at O(N^2) flops with plain (FFT-free)
convolutions.  Direct convolution keeps the relative accuracy of the tiny
high-order coefficients, which decay geometrically for the series handled
here; FFT products would drown them in absolute rounding noise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonzeroInnerConstant, NotInvertible, ZeroConstantTerm


class PowerSeries:
    """Immutable truncated power series: coeffs[k] is the z^k coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coeffs must be finite")
        arr.flags.writeable = False
        self.coeffs = arr

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls(np.zeros(order + 1))

    @classmethod
    def one(cls, order: int) -> "PowerSeries":
        c = np.zeros(order + 1)
        c[0] = 1.0
        return cls(c)

    @classmethod
    def identity(cls, order: int) -> "PowerSeries":
        """The series z."""
        c = np.zeros(order + 1)
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    def truncate(self, order: int) -> "PowerSeries":
        if order >= self.order:
            return self.pad(order)
        return PowerSeries(self.coeffs[: order + 1])

    def pad(self, order: int) -> "PowerSeries":
        if order <= self.order:
            return self
        c = np.zeros(order + 1)
        c[: self.coeffs.size] = self.coeffs
        return PowerSeries(c)

    def __getitem__(self, k: int) -> float:
        return float(self.coeffs[k]) if 0 <= k <= self.order else 0.0

    def __add__(self, other):
        if isinstance(other, PowerSeries):
            n = min(self.order, other.order)
            return PowerSeries(self.coeffs[: n + 1] + other.coeffs[: n + 1])
        c = self.coeffs.copy()
        c[0] += other
        return PowerSeries(c)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other if isinstance(other, PowerSeries) else self + (-other)

    def __rsub__(self, other):
        return (-1.0) * self + other

    def __mul__(self, other):
        if isinstance(other, PowerSeries):
            return series_mul(self, other)
        return PowerSeries(self.coeffs * float(other))

    __rmul__ = __mul__

    def shift(self) -> "PowerSeries":
        """Multiply by z, truncating at the same order."""
        c = np.zeros(self.coeffs.size)
        c[1:] = self.coeffs[:-1]
        return PowerSeries(c)

    def scale_arg(self, alpha: float) -> "PowerSeries":
        """The series a(alpha*z): coefficient k picks up alpha^k."""
        return PowerSeries(self.coeffs * alpha ** np.arange(self.coeffs.size))

    def __call__(self, z: float) -> float:
        """Evaluate the truncated polynomial at a scalar point."""
        return float(np.polynomial.polynomial.polyval(z, self.coeffs))

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


def _trunc_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    return np.convolve(a[: order + 1], b[: order + 1])[: order + 1]


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to the smaller order."""
    n = min(a.order, b.order)
    return PowerSeries(_trunc_mul(a.coeffs, b.coeffs, n))


def series_reciprocal(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse: series b with a*b = 1 + O(z^{N+1})."""
    c = a.coeffs
    if c[0] == 0.0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    n = a.order
    b = np.zeros(n + 1)
    b[0] = 1.0 / c[0]
    for k in range(1, n + 1):
        b[k] = -np.dot(c[1 : k + 1], b[k - 1 :: -1]) / c[0]
    return PowerSeries(b)


def series_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer(inner(z)) truncated to the smaller order; inner(0) must be 0."""
    if inner.coeffs[0] != 0.0:
        raise NonzeroInnerConstant("composition needs inner constant term 0")
    n = min(outer.order, inner.order)
    f = outer.coeffs[: n + 1]
    g = inner.coeffs[: n + 1]
    if n == 0:
        return PowerSeries(f.copy())
    # Brent-Kung: split outer into sqrt-size blocks, one dgemm for the block
    # values, then Horner over inner^m.
    m = math.isqrt(n) + 1
    pows = np.zeros((m, n + 1))
    pows[0, 0] = 1.0
    for i in range(1, m):
        pows[i] = _trunc_mul(pows[i - 1], g, n)
    nblocks = -(-(n + 1) // m)
    fpad = np.zeros(nblocks * m)
    fpad[: n + 1] = f
    blocks = fpad.reshape(nblocks, m) @ pows
    gm = _trunc_mul(pows[m - 1], g, n)
    acc = blocks[-1]
    for j in range(nblocks - 2, -1, -1):
        acc = _trunc_mul(acc, gm, n) + blocks[j]
    return PowerSeries(acc)


def series_derivative(a: PowerSeries) -> PowerSeries:
    """Formal derivative, order drops by one (constant input stays order 0)."""
    if a.order == 0:
        return PowerSeries([0.0])
    return PowerSeries(a.coeffs[1:] * np.arange(1, a.order + 1))


def series_reversion(w: PowerSeries) -> PowerSeries:
    """Compositional inverse: v with w(v(z)) = z + O(z^{N+1}).

    Kept as an oracle: it builds Phi_i = G_i o reversion(z G_i) for the
    implicit-equation route in test_series.py::test_z2_star_z2_matches_word_convolution.
    """
    if w.coeffs[0] != 0.0:
        raise NotInvertible("reversion needs w(0) = 0")
    if w.order < 1 or w.coeffs[1] == 0.0:
        raise NotInvertible("reversion needs a nonzero linear coefficient")
    n = w.order
    v = np.zeros(n + 1)
    v[1] = 1.0 / w.coeffs[1]
    wp = series_derivative(w).pad(n)
    cur = 1
    polished = False
    while cur < n or not polished:
        polished = cur == n  # one extra full-order pass scrubs roundoff
        cur = min(2 * cur, n)
        vt = PowerSeries(v[: cur + 1])
        res = series_compose(w.truncate(cur), vt) - PowerSeries.identity(cur)
        slope = series_compose(wp.truncate(cur), vt)
        upd = series_mul(res, series_reciprocal(slope))
        v[: cur + 1] -= upd.coeffs
        v[0] = 0.0
    return PowerSeries(v)


def solve_implicit_green(phi: PowerSeries, order: int) -> PowerSeries:
    """The unique series g with g = phi(z*g) through the given order.

    Kept as an oracle: the implicit-equation route G = Phi(zG) to a product
    series, checked against word convolution in
    test_series.py::test_z2_star_z2_matches_word_convolution.

    Newton iteration with order doubling; each pass fixes the already-correct
    coefficients exactly and extends the correct range, so the result agrees
    with the coefficient-by-coefficient fixed point.
    """
    g = np.zeros(order + 1)
    g[0] = phi.coeffs[0]
    phip = series_derivative(phi).pad(order)
    cur = 0
    while cur < order:
        cur = min(2 * cur + 1, order)
        gt = PowerSeries(g[: cur + 1])
        zg = gt.shift()
        res = gt - series_compose(phi.truncate(cur), zg)
        den = 1.0 - series_compose(phip.truncate(cur), zg).shift()
        upd = series_mul(res, series_reciprocal(den))
        g[: cur + 1] -= upd.coeffs
    return PowerSeries(g)
