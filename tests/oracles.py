"""Second routes that only tests call: series reversion and the implicit
Green-function solve G = Phi(zG), both by Newton iteration with order
doubling on the series kernels of `fprw.series`; the paper's induction over
the factors (`fold_classify`) and the zeta fixed-point iteration (`zeta_at`),
against which the m-factor classification and the series solve are checked;
the tuple word algebra that `fprw.mc`'s coded letters are tested
against, and the triple-loop associativity check that a finite group's
construction is tested against; the lattice return law's deviance with
both of its branches evaluated in every cell, and its axes merged in the
order given with no kept prefix laws; and 30-digit spectral radii, Woess's formula for free
products of copies of Z/2Z and an mpmath branch solve of the golden
Z3*C3."""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np

from fprw import lattice
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


def bd0_both_branches(x, m):
    """Loader's deviance x log(x/m) + m - x as `lattice._bd0` formed it
    before each cell took one branch: the series and `arctanh` in every
    cell, one of them picked by np.where."""
    d = x - m
    v = d / (x + m)
    w = v * v
    tail = w * (1.0 / 17.0)
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


def cellwise_merge_axis(acc, axis, b, c, stir):
    """`lattice._merge_axis` as it formed every term from its own pair of
    deviances, one window cell at a time, before the merge went by blocks.

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
        dev = lattice._bd0(k.astype(float), nn * b)
        dev += lattice._bd0(rest.astype(float), nn * c)
        return np.exp(-dev) * lk[k] * lj[rest]

    # a kept term bounds the kept sum from below; n = 2 keeps both its ends
    mid = np.clip(2 * np.round(n * b / 2).astype(np.int64), 2, np.maximum(n - 2, 2))
    kept = np.zeros(n.size)
    kept[1:] = row_n[1:] * inner(n[1:], mid[1:])
    with np.errstate(divide="ignore"):
        target = -np.log(kept) - math.log(lattice._TAIL_TOL)
    nf = n.astype(float)
    # every dropped k lies at least a n beyond the window's edge on its side
    lo, hi = lattice._chernoff_window(nf, target, b) * nf
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
    for width in sorted(set(cols[1:].tolist())):
        rows = 1 + np.flatnonzero(cols[1:] == width)
        step = max(1, lattice._CELLS // width)
        for first in range(0, rows.size, step):
            chunk = rows[first : first + step]
            nn, top = n[chunk, None], hi[chunk, None]
            k = lo[chunk, None] + 2 * np.arange(width)
            terms = inner(nn, np.minimum(k, top))
            out[n[chunk]] += row_n[chunk] * np.where(k <= top, terms, 0.0).sum(axis=1)
    return out


def in_order_return_series(beta, p, order: int, exact_b: bool = True) -> np.ndarray:
    """The lattice return law merged axis by axis in the order given, each
    law built afresh.  With `exact_b` each merge takes b and 1 - b as exact
    ratios of the weights, rounded once, as `lattice.return_series` does;
    without, from a running float sum of the weights, as it did before it
    merged heaviest first."""
    stir = lattice._stirlerr(order)
    acc = lattice._axis_return_probs(float(p[0]), order, stir)
    wsum, total = float(beta[0]), Fraction(float(beta[0]))
    for bj, pj in zip(map(float, beta[1:]), p[1:]):
        if exact_b:
            w = Fraction(bj)
            b, c = float(w / (total + w)), float(total / (total + w))
            total += w
        else:
            b, c = bj / (wsum + bj), wsum / (wsum + bj)
            wsum += bj
        acc = lattice._merge_axis(acc, lattice._axis_return_probs(float(pj), order, stir), b, c, stir)
    return acc


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


def tuple_steps(factor):
    """[(step, probability)] of one factor in support order: a lattice step
    is a unit coordinate tuple, built here from its dim, and tree step g
    the one-flip word (g,)."""
    if isinstance(factor, LatticeNN):
        out = []
        for j, (b, pj) in enumerate(zip(factor.beta, factor.p)):
            up = tuple(1 if i == j else 0 for i in range(factor.dim))
            dn = tuple(-1 if i == j else 0 for i in range(factor.dim))
            out += [(up, b * pj), (dn, b * (1.0 - pj))]
        return out
    if isinstance(factor, HomTree):
        return [((g,), 1.0 / factor.q) for g in range(factor.q)]
    return factor.step_support()


def tuple_support(spec: FreeProductSpec):
    """[(factor index, step, probability)] of the product's support."""
    return [
        (i, g, a * p) for i, (f, a) in enumerate(zip(spec.factors, spec.weights)) for g, p in tuple_steps(f)
    ]


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


def is_associative(table) -> bool:
    """(ab)c = a(bc) for every triple of elements, by the triple loop."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]] for a in range(n) for b in range(n) for c in range(n)
    )


# R of the golden Z3*C3 (Z^3 and C3 with steps 0.1, 0.5, 0.4, at weights
# 1/2 each), from an mpmath branch solve: G of Z^3 by quadrature, C3's by a
# matrix inverse, Newton for each w inversion and a secant root of Psi
Z3_C3_RADIUS = "1.2301125450461342391"


def c2_product_radius(weights, dps: int = 30):
    """R of the free product of copies of Z/2Z, the i-th flipped with
    probability p_i = weights[i] (summing to 1), to `dps` digits: 1 / R =
    min over t >= 0 of sum_i sqrt(t^2 + p_i^2) - (m - 2) t (Woess, Random
    Walks on Infinite Graphs and Groups, 2000, ch. 9).  The minimum is where
    sum_i t / sqrt(t^2 + p_i^2) = m - 2, found by bisection; m = 2 has it at
    t = 0, where R = 1.  The q-regular tree is q copies at 1/q each, with R
    = q / (2 sqrt(q - 1))."""
    with mp.workdps(dps + 10):
        ps = [mp.mpf(p) for p in weights]
        m = len(ps)
        slope = lambda t: mp.fsum(t / mp.sqrt(t * t + p * p) for p in ps) - (m - 2)
        lo, hi = mp.mpf(0), mp.mpf(1)
        while m > 2 and slope(hi) < 0:
            hi *= 2
        for _ in range(int(3.5 * (dps + 10)) if m > 2 else 0):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if slope(mid) < 0 else (lo, mid)
        t = (lo + hi) / 2 if m > 2 else mp.mpf(0)
        return 1 / (mp.fsum(mp.sqrt(t * t + p * p) for p in ps) - (m - 2) * t)
