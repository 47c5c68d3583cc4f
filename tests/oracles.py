"""Second routes that only tests call: series reversion and the implicit
Green-function solve G = Phi(zG), both by Newton iteration with order
doubling on the series kernels of `fprw.series`; the paper's induction over
the factors (`fold_classify`) and the zeta fixed-point iteration (`zeta_at`),
against which the m-factor classification and the series solve are checked;
and the tuple word algebra that `fprw.mc`'s coded letters are tested
against."""

import math
from dataclasses import replace

import numpy as np

from fprw.classify import INHERITED, classify_multi
from fprw.errors import ConfigError, FprwError, NoConvergence
from fprw.factors import _INT_TOL, DEFAULT_ORDER, ExplicitSeries, HomTree, LatticeNN
from fprw.product import (
    _CRIT_TOL,
    FreeProductSpec,
    analyze_product,
    factor_analytics,
    phi_of,
    product_green_series,
)
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
# the paper's induction and the zeta system


def _inverse_darboux(lam: float, kappa: int):
    """(q, k) of the singular term producing the law n^-lam log^kappa n."""
    q = lam - 1.0
    if abs(q - round(q)) < _INT_TOL:
        return q, kappa + 1
    return q, kappa


def fold_classify(spec: FreeProductSpec, fold_order: int = DEFAULT_ORDER):
    """The law of an m-factor product by the paper's induction (Woess, Random
    Walks on Infinite Graphs and Groups, 2000, section 9): classify the
    first m-1 factors, wrap them as an explicit-series factor truncated at
    fold_order, and classify the resulting two-factor product."""
    if spec.m == 2:
        return classify_multi(spec)
    head = FreeProductSpec(spec.factors[:-1], spec.weights[:-1])
    head_weight = sum(spec.weights[:-1])
    sub_law = fold_classify(head, fold_order)
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
    law = classify_multi(pair)
    if law.kind == INHERITED:
        # map the synthetic index back to a real factor index
        idx = sub_law.factor_index if law.factor_index == 0 else spec.m - 1
        law = replace(law, factor_index=idx)
    return law


def zeta_at(spec: FreeProductSpec, z: float, tol: float = 1e-13, max_iter: int = 20000):
    """(zeta_1(z), zeta_2(z)) by damped monotone fixed-point iteration (m = 2):
    the second route to the zeta system, against which
    test_product.py::TestZeta checks the series solve and the radius."""
    if spec.m != 2:
        raise ConfigError("the zeta system is formulated for two factors")
    if z == 0.0:
        return 0.0, 0.0
    a1, a2 = spec.weights
    an1, an2 = factor_analytics(spec)

    def u_over_w(an, w: float) -> float:
        if w == 0.0:
            return an.spec.series(1)[1]  # U'(0) = mass of one-step returns
        g = an.green(min(w, an.radius))
        return (1.0 - 1.0 / g) / w if math.isfinite(g) else 1.0 / w

    z1, z2 = a1 * z, a2 * z
    damp = 1.0
    prev_step = None
    for _ in range(max_iter):
        n1 = a1 * z / (1.0 - a2 * z * u_over_w(an2, z2))
        n2 = a2 * z / (1.0 - a1 * z * u_over_w(an1, z1))
        n1 = min(n1, an1.radius)
        n2 = min(n2, an2.radius)
        step = max(abs(n1 - z1), abs(n2 - z2))
        if prev_step is not None and step > prev_step:
            damp = 0.5  # oscillation guard
        z1 += damp * (n1 - z1)
        z2 += damp * (n2 - z2)
        prev_step = step
        if step < tol:
            return z1, z2
    raise NoConvergence(f"zeta iteration did not converge at z={z}")


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
