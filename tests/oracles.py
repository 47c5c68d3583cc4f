"""Second routes that only tests call: series reversion and the implicit
Green-function solve G = Phi(zG), both by Newton iteration with order
doubling on the series kernels of `fprw.series`."""

import numpy as np

from fprw.errors import FprwError
from fprw.series import (
    PowerSeries,
    series_compose,
    series_derivative,
    series_mul,
    series_reciprocal,
)


class NotInvertible(FprwError):
    """Series reversion needs a nonzero linear coefficient."""


def series_reversion(w: PowerSeries) -> PowerSeries:
    """Compositional inverse: v with w(v(z)) = z + O(z^{N+1}).

    It builds Phi_i = G_i o reversion(z G_i) for the implicit-equation route
    in test_series.py::test_z2_star_z2_matches_word_convolution.
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

    The implicit-equation route G = Phi(zG) to a product series, checked
    against word convolution in
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
