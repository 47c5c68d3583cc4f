"""Truncated formal power-series arithmetic over float64 coefficients.

A series is a coefficient vector c0..cN; every binary operation truncates to
the smaller of the two orders.  Products are direct (FFT-free) convolutions
that form only the coefficients they keep.  Composition uses Brent-Kung block
evaluation (Brent & Kung, JACM 1978) with blocks of m, about sqrt(N/3): a
table of m powers at order N, then Horner's rule over the blocks, whose
step j is needed only through N - j m v, v the valuation of the inner
series.  That is m products at order N and N/(m v) products of falling
order, together worth about 2 sqrt(N/3) = 1.15 sqrt(N) products at order N
for v = 1, each of O(N^2) flops, so O(N^2.5) in all; outers that share
one table of powers each keep their own order.  An outer polynomial of degree
D with D^2 < N, such as the kernel T(x) = x of Z/2Z, goes by Horner's rule
instead: D truncated products and no table of powers.  The reciprocal is
Newton iteration with order doubling from 1/c0, two truncated products per
step, at every order.  Direct convolution keeps the relative accuracy of
every coefficient that is small against the coefficient sums, which FFT
products would drown in absolute rounding noise.

No kernel here hands a long sum to BLAS: a BLAS dot past 10,000 terms runs on
OpenBLAS's thread pool, whose split of the sum depends on the core count and
whose helper thread then busy-waits for about 130 ms.  A dot that may be long
goes through `serial_dot`, and block evaluation uses einsum (see
`series_compose`).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonzeroInnerConstant, ZeroConstantTerm


def horner(coeffs, z: float) -> float:
    """sum_n coeffs[n] z^n by Horner's rule, in the order of operations of
    numpy's `polyval`, so it gives the same value.  `coeffs` is an array or
    a list of floats; a caller that evaluates one polynomial many times
    keeps the list."""
    c = coeffs.tolist() if isinstance(coeffs, np.ndarray) else coeffs
    acc = c[-1] + z * 0.0
    for a in reversed(c[:-1]):
        acc = a + acc * z
    return float(acc)


def two_product(a, b):
    """(p, e) with p = a b rounded and p + e = a b exactly: Dekker's
    two-product on Veltkamp's split, each half of at most 26 significant
    bits so that a product of two halves is exact.  a and b are floats or
    arrays, with |a|, |b| and |a b| in 2^-900 .. 2^900, where the split
    and the products stay exact."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _split(a):
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


# terms per np.dot in serial_dot: below OpenBLAS's 10,000-term threshold for
# a threaded ddot (0.3.31; a 10,001-term dot left about 47 ms of helper-thread
# CPU behind it on 2 cores, a 9,999-term one none)
_DOT_CHUNK = 8192


def serial_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The dot product of two 1-d arrays, on the calling thread.

    np.dot over chunks of at most _DOT_CHUNK terms, summed in order.  Up to
    _DOT_CHUNK terms it is np.dot, bit for bit; longer sums do not depend on
    the number of BLAS threads, and leave no helper thread spinning.
    """
    total = float(np.dot(a[:_DOT_CHUNK], b[:_DOT_CHUNK]))
    for lo in range(_DOT_CHUNK, a.size, _DOT_CHUNK):
        total += float(np.dot(a[lo : lo + _DOT_CHUNK], b[lo : lo + _DOT_CHUNK]))
    return total


class PowerSeries:
    """Immutable truncated power series: coeffs[k] is the z^k coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.isfinite(arr).all():
            raise ValueError("coeffs must be finite")
        arr.flags.writeable = False
        self.coeffs = arr

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    @classmethod
    def zero(cls, order: int) -> "PowerSeries":
        return cls(np.zeros(order + 1))

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
        """The series a(alpha*z): coefficient k picks up alpha^k.

        The factor goes on as two half powers, so a coefficient stays finite
        and keeps its accuracy where alpha^k alone would overflow or
        underflow."""
        half = alpha ** (0.5 * np.arange(self.coeffs.size))
        return PowerSeries(self.coeffs * half * half)

    def __call__(self, z: float) -> float:
        """Evaluate the truncated polynomial at a scalar point."""
        return horner(self.coeffs, z)

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:6])
        tail = ", ..." if self.order >= 6 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


_SPLIT_ORDER = 512  # below this a truncated product is one np.convolve


def _trunc_mul(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """Coefficients 0..order of a*b, by direct convolution.

    With h = order // 2 + 1, the low halves a[:h] b[:h] give coefficients
    0..2h-2 in full; the cross terms a b[h:] and a[h:] b are needed only to
    order - h, so each is a truncated product of half the size; a[h:] b[h:]
    starts past order.  Recursing forms about half of the full product's
    terms.
    """

    def low(a, b, n):
        if n < _SPLIT_ORDER:
            return np.convolve(a[: n + 1], b[: n + 1])[: n + 1]
        h = n // 2 + 1
        out = np.zeros(n + 1)
        out[: 2 * h - 1] = np.convolve(a[:h], b[:h])
        out[h:] += low(a, b[h:], n - h) + low(a[h:], b, n - h)
        return out

    return low(a, b, order)


def series_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated to the smaller order."""
    n = min(a.order, b.order)
    return PowerSeries(_trunc_mul(a.coeffs, b.coeffs, n))


def series_reciprocal(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse: series b with a*b = 1 + O(z^{N+1}).

    Newton iteration with order doubling from b = 1/c_0: each step takes b,
    correct through h - 1, to order 2h - 1 or N as b <- b - b (a b)_{>=h},
    two truncated products, since (a b)_k vanishes for 0 < k < h.  For a =
    1 - P with P >= 0 the high part (a b)_{>=h} = -(P b)_{>=h} has no
    cancellation and b stays a sum of nonnegative terms.
    """
    c = a.coeffs
    if c[0] == 0.0:
        raise ZeroConstantTerm("reciprocal needs a nonzero constant term")
    n = a.order
    b = np.zeros(n + 1)
    b[0] = 1.0 / c[0]
    for top in reversed([n >> j for j in range(n.bit_length())]):  # ..., n // 2, n
        h = top // 2 + 1  # b is correct through h - 1 and zero past it
        high = _trunc_mul(c, b, top)[h:]
        b[h : top + 1] = -_trunc_mul(b, high, top - h)
    b += 0.0  # -0.0 + 0.0 = +0.0: a zero coefficient carries no sign
    return PowerSeries(b)


def series_compose(outer, inner: PowerSeries):
    """outer(inner(z)); inner(0) must be 0.

    `outer` may be a sequence of series, and the results come back as a
    tuple.  Each result has its own order, the smaller of its outer's order
    and the inner's, so one call can compose a kernel at full order and its
    slope at half order.  The outers share one table of the powers of inner,
    built to the highest order among them, so the result of that order is
    bitwise the one a call of its own gives.  An outer of degree D (its last
    nonzero coefficient) with D^2 < N is a short polynomial: Horner's rule
    takes D truncated products and needs no table.  A longer outer goes by
    blocks of m = floor(sqrt(N/3)) + 4 coefficients (the + 4 spares short
    compositions some Horner steps; past order 500 any m near sqrt(N/3) is
    as fast): m products at order N for the table of powers, then one Horner
    step per block, the step at block j a product at order N - (j + 1) m v,
    v the valuation of the inner series.  For v = 1 that is about
    2 sqrt(N/3) products at order N in all.
    """
    if inner.coeffs[0] != 0.0:
        raise NonzeroInnerConstant("composition needs inner constant term 0")
    outers = (outer,) if isinstance(outer, PowerSeries) else tuple(outer)
    orders = [min(inner.order, f.order) for f in outers]
    g = inner.coeffs
    out = [None] * len(outers)
    long = []
    for i, (f, n) in enumerate(zip(outers, orders)):
        nz = np.flatnonzero(f.coeffs[: n + 1])
        degree = int(nz[-1]) if nz.size else 0
        if degree == 0 or degree * degree < n:
            acc = np.zeros(n + 1)
            acc[0] = f.coeffs[degree]
            for j in range(degree - 1, -1, -1):
                acc = _trunc_mul(acc, g, n)
                acc[0] += f.coeffs[j]
            out[i] = PowerSeries(acc)
        else:
            long.append(i)
    if long:
        # Brent-Kung: split outer into blocks of m, take the block values
        # against the table of inner^0..inner^(m-1), then Horner over inner^m.
        # With v the valuation of inner, block j enters times inner^(j m),
        # which starts at y^(j m v), so Horner's partial sum at block j is
        # needed only through n - j m v, and each step multiplies by inner^m
        # with its m v leading zeros stripped
        top = max(orders[i] for i in long)
        m = math.isqrt(top // 3) + 4
        pows = np.zeros((m, top + 1))
        pows[0, 0] = 1.0
        for i in range(1, m):
            pows[i] = _trunc_mul(pows[i - 1], g, top)
        shift = m * int(np.flatnonzero(g)[0]) if g.any() else top + 1
        gm = _trunc_mul(pows[m - 1], g, top)[shift:]
        for i in long:
            n = orders[i]
            nblocks = min(-(-(n + 1) // m), n // shift + 1)
            coef = np.zeros(nblocks * m)
            used = min(n + 1, coef.size)
            coef[:used] = outers[i].coeffs[:used]
            coef, table = coef.reshape(nblocks, m)[:, ::-1], pows[::-1]
            for j in range(nblocks - 1, -1, -1):
                # einsum, not a BLAS dgemv, whose threads spin on this shape;
                # summed from the highest power down, the order of growing
                # terms when the inner series has mass at most 1, as in the
                # radius variable
                block = np.einsum("j,jk->k", coef[j], table[:, : n - j * shift + 1])
                if j < nblocks - 1:
                    block[shift:] += _trunc_mul(acc, gm, n - (j + 1) * shift)
                acc = block
            out[i] = PowerSeries(acc)
    return out[0] if isinstance(outer, PowerSeries) else tuple(out)


def series_derivative(a: PowerSeries) -> PowerSeries:
    """Formal derivative, order drops by one (constant input stays order 0)."""
    if a.order == 0:
        return PowerSeries([0.0])
    return PowerSeries(a.coeffs[1:] * np.arange(1, a.order + 1))
