"""Second routes that only tests call: series reversion and the implicit
Green-function solve G = Phi(zG), both by Newton iteration with order
doubling on the series kernels of `fprw.series`; and the tuple word algebra
that `fprw.mc`'s coded letters are tested against."""

import numpy as np

from fprw.errors import FprwError
from fprw.factors import HomTree, LatticeNN
from fprw.series import (
    PowerSeries,
    series_compose,
    series_derivative,
    series_mul,
    series_reciprocal,
)


def monomial(power: int, order: int) -> PowerSeries:
    """z^power through order `order`: the series 1 at power 0, z at power 1."""
    c = np.zeros(order + 1)
    c[power : power + 1] = 1.0  # nothing when power > order
    return PowerSeries(c)


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
        res = series_compose(w.truncate(cur), vt) - monomial(1, cur)
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


# ---------------------------------------------------------------------------
# tuple words: (factor index, element) letters.  A lattice element is an
# integer coordinate tuple, a tree element a reduced tuple of C2 flips, a
# finite group's element its index in the Cayley table.


def identity_elem(factor):
    if isinstance(factor, LatticeNN):
        return (0,) * factor.dim
    if isinstance(factor, HomTree):
        return ()
    return factor.id


def combine(factor, a, b):
    """The product a b of two elements of one factor."""
    if isinstance(factor, LatticeNN):
        return tuple(x + y for x, y in zip(a, b))
    if isinstance(factor, HomTree):  # reduced words of flips: equal neighbours cancel
        for g in b:
            a = a[:-1] if a and a[-1] == g else a + (g,)
        return a
    return factor.table[a][b]


def dist_to_identity(factor, e) -> int:
    """Steps the factor's walk needs to take e back to the identity."""
    if isinstance(factor, LatticeNN):
        return sum(abs(x) for x in e)
    if isinstance(factor, HomTree):
        return len(e)
    return factor.dist_table[e]


def word_multiply(factors, word: tuple, factor: int, g) -> tuple:
    """Right-multiply a normal-form word by group element g of one factor."""
    spec = factors[factor]
    if g == identity_elem(spec):
        return word
    if word and word[-1][0] == factor:
        merged = combine(spec, word[-1][1], g)
        if merged == identity_elem(spec):
            return word[:-1]
        return word[:-1] + ((factor, merged),)
    return word + ((factor, g),)


def word_is_normal(factors, word: tuple) -> bool:
    """Normal-form invariant: no identity letters, no equal adjacent factors."""
    no_identity = all(g != identity_elem(factors[i]) for i, g in word)
    return no_identity and all(a[0] != b[0] for a, b in zip(word, word[1:]))


def word_erase_cost(factors, word: tuple) -> int:
    """Lower bound on the steps needed to walk the word back to the identity."""
    return sum(dist_to_identity(factors[i], g) for i, g in word)
