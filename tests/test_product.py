import itertools
import json
import math
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fprw import cli, mc, product
from fprw.classify import classify_multi, estimate_radius
from fprw.errors import ConfigError
from fprw.factors import ExplicitSeries, FiniteGroup, HomTree, LatticeNN, analyze_factor, cyclic_group, flip_group
from fprw.product import (
    FreeProductSpec,
    analyze_product,
    factor_analytics,
    is_two_by_two,
    normalized_green_series,
    phi_of,
    product_green_series,
    psi_of,
    theta_bar_of,
)
from fprw.series import PowerSeries

from .oracles import Z3_C3_RADIUS, c2_product_radius, monomial, zeta_at


def spec_of(*pairs):
    factors, weights = zip(*pairs)
    return FreeProductSpec(factors, weights)


Z5 = LatticeNN.simple(5)
Z6 = LatticeNN.simple(6)
Z3 = LatticeNN.simple(3)
Z1 = LatticeNN.simple(1)
Z2 = LatticeNN.simple(2)
C2 = flip_group()
C3 = cyclic_group(3, (0.0, 0.5, 0.5))


class TestSpec:
    def test_weights_normalized(self):
        s = spec_of((Z5, 2.0), (Z6, 6.0))
        assert s.weights == (0.25, 0.75)

    def test_needs_two_factors(self):
        with pytest.raises(ConfigError):
            FreeProductSpec((Z5,), (1.0,))

    def test_degenerate_detection(self):
        assert is_two_by_two(spec_of((C2, 0.5), (C2, 0.5)))
        assert not is_two_by_two(spec_of((C2, 0.5), (C3, 0.5)))


class TestThetaBar:
    def test_recurrent_factor_never_argmin(self):
        s = spec_of((C3, 0.3), (Z5, 0.7))
        tbar, argmin = theta_bar_of(factor_analytics(s), s.weights)
        an5 = factor_analytics(s)[1]
        assert tbar == pytest.approx(an5.theta / 0.7)
        assert argmin == (1,)

    def test_tie_at_critical_weight(self):
        ans = factor_analytics(spec_of((Z5, 0.5), (Z6, 0.5)))
        t1, t2 = ans[0].theta, ans[1].theta
        ac = t1 / (t1 + t2)
        s = spec_of((Z5, ac), (Z6, 1.0 - ac))
        _, argmin = theta_bar_of(factor_analytics(s), s.weights)
        assert argmin == (0, 1)

    def test_identical_factors_tie(self):
        _, argmin = theta_bar_of(factor_analytics(spec_of((Z5, 0.5), (Z5, 0.5))), (0.5, 0.5))
        assert argmin == (0, 1)

    def test_all_recurrent_gives_infinity(self):
        tbar, _ = theta_bar_of(factor_analytics(spec_of((C2, 0.5), (C3, 0.5))), (0.5, 0.5))
        assert tbar == math.inf


class TestPsiBar:
    def test_small_weight_limit(self):
        # alpha_1 -> 0 with theta_2 < inf: Psi(theta-bar) -> Psi_2(theta_2)
        s = spec_of((Z5, 1e-5), (Z6, 1.0 - 1e-5))
        an6 = factor_analytics(s)[1]
        assert analyze_product(s).psi_bar == pytest.approx(an6.psi_at_radius, abs=1e-3)

    def test_negative_when_argmin_has_infinite_derivative(self):
        # make Z3 the argmin: its Psi vanishes at theta, dragging Psi below 0
        s = spec_of((Z3, 0.9), (Z5, 0.1))
        tbar, argmin = theta_bar_of(factor_analytics(s), s.weights)
        assert argmin == (0,)
        assert analyze_product(s).psi_bar < 0.0

    def test_monotone_decreasing_in_t(self):
        s = spec_of((Z5, 0.5), (Z6, 0.5))
        ans = factor_analytics(s)
        tbar, _ = theta_bar_of(ans, s.weights)
        ts = np.linspace(tbar * 0.02, tbar, 12)
        vals = [psi_of(ans, s.weights, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert psi_of(ans, s.weights, tbar * 1e-9) == pytest.approx(1.0, abs=1e-6)


class TestRadius:
    def test_radius_exceeds_one(self):
        for s in (
            spec_of((C2, 0.5), (C3, 0.5)),
            spec_of((Z1, 0.5), (Z1, 0.5)),
            spec_of((Z5, 0.5), (Z6, 0.5)),
        ):
            pa = analyze_product(s)
            assert pa.radius > 1.0
            assert pa.g_at_radius > 1.0 and math.isfinite(pa.g_at_radius)

    def test_psi_positive_branch_formula(self):
        s = spec_of((Z5, 0.5), (Z6, 0.5))
        assert analyze_product(s).psi_bar > 0
        tbar, _ = theta_bar_of(factor_analytics(s), s.weights)
        radius = analyze_product(s).radius
        assert radius == pytest.approx(tbar / phi_of(factor_analytics(s), s.weights, tbar), rel=1e-12)

    def test_series_growth_consistency_both_branches(self):
        # psi >= 0 branch and psi < 0 (root) branch against coefficient growth
        for s in (spec_of((Z5, 0.5), (Z6, 0.5)), spec_of((C2, 0.5), (C3, 0.5))):
            radius = analyze_product(s).radius
            series = product_green_series(s, 400)
            est = estimate_radius(series, 2 if s.factors[0] is Z5 else 1)
            assert abs(est / radius - 1.0) < 0.01


GOLDEN = Path(__file__).parent / "golden"

# the tree products of ROADMAP item 13: (degrees, weights)
ITEM_13 = [((4, 6), (0.11, 0.89)), ((3, 8), (0.02, 0.98)), ((5, 3), (0.3, 0.7)), ((3, 3), (0.5, 0.5))]


def golden_spec(name):
    config = json.loads((GOLDEN / "configs.json").read_text())[name]
    return FreeProductSpec(tuple(cli.parse_factor(f, i) for i, f in enumerate(config["factors"])), config["weights"])


def flip_weights(s):
    """The flip probabilities of `s` written as a free product of copies of
    Z/2Z, exact: HomTree(q) at weight a is q copies at a / q."""
    with mp.workdps(40):
        return [mp.mpf(a) / getattr(f, "q", 1) for f, a in zip(s.factors, s.weights) for _ in range(getattr(f, "q", 1))]


def c2_twin(s):
    """`s` with every tree written as its copies of Z/2Z, in floats."""
    factors, weights = [], []
    for f, a in zip(s.factors, s.weights):
        q = f.q if isinstance(f, HomTree) else 1
        factors += [flip_group()] * q if isinstance(f, HomTree) else [f]
        weights += [a / q] * q
    return FreeProductSpec(tuple(factors), tuple(weights))


def ulps_from(x, want):
    return abs(float((mp.mpf(x) - want) / mp.mpf(math.ulp(float(want)))))


class TestRadiusToAFewUlps:
    """R against 30-digit references (ROADMAP item 13): at the parent of the
    change that brought t / z and tighter inversions, T4*T6 was 3,296 ulps
    off, T3*T8 about 21,000 and Z3*C3 71."""

    @pytest.mark.parametrize("degrees,weights", ITEM_13, ids=["T4*T6", "T3*T8", "T5*T3", "T3*T3"])
    def test_tree_product_and_its_c2_twin(self, degrees, weights):
        # measured within 1.1 ulps (trees) and 2.5 (twins)
        s = FreeProductSpec(tuple(map(HomTree, degrees)), weights)
        for walk in (s, c2_twin(s)):
            assert ulps_from(analyze_product(walk).radius, c2_product_radius(flip_weights(walk))) <= 4

    def test_golden_z3_c3_is_the_nearest_double(self):
        assert analyze_product(golden_spec("Z3xC3")).radius == float(Z3_C3_RADIUS)


@st.composite
def tree_products(draw):
    """(q, further degrees, weights) of a product of two or three trees whose
    first, HomTree(q), has a weight that q divides: weights in 4096ths that
    sum to 1, so that its twin with q copies of Z/2Z at a / q is the same
    walk in floats."""
    q = draw(st.integers(3, 8))
    others = tuple(draw(st.lists(st.integers(3, 8), min_size=1, max_size=2)))
    share = draw(st.integers(1, (4096 - len(others)) // q))
    rest = 4096 - q * share
    cuts = [draw(st.integers(1, rest - 1))] if len(others) == 2 else []
    parts = [b - a for a, b in zip([0, *cuts], [*cuts, rest])]
    return q, others, tuple(x / 4096 for x in (q * share, *parts))


@settings(max_examples=40, deadline=None)
@given(case=tree_products())
@example(case=(4, (6,), (0.11, 0.89)))
@example(case=(3, (8,), (0.02, 0.98)))
def test_tree_equals_its_c2_twin(case):
    # HomTree(q) at weight a and q copies of Z/2Z at a / q each are one walk.
    # Radii measured within 4 ulps over 5,000 draws (the copies share one
    # root, so their Green values' roundings add up q times).  R's 4 ulps
    # move coefficient n of the normalized series by up to 4 n eps, and over
    # 300 draws at order 200 the two solves differed by at most 106 eps more
    q, others, weights = case
    rest = tuple(map(HomTree, others))
    s = FreeProductSpec((HomTree(q), *rest), weights)
    twin = FreeProductSpec((flip_group(),) * q + rest, (s.weights[0] / q,) * q + s.weights[1:])
    want, got = analyze_product(s), analyze_product(twin)
    assert abs(got.radius - want.radius) <= 4 * math.ulp(want.radius)
    law = lambda walk: (lambda a: (a.kind, a.lam, a.kappa, a.period))(classify_multi(walk))
    assert law(twin) == law(s)
    g, h = normalized_green_series(twin, 200)[1].coeffs, normalized_green_series(s, 200)[1].coeffs
    nz = h != 0.0
    assert np.array_equal(g != 0.0, nz)
    n = np.arange(201)[nz]
    assert np.all(np.abs(g[nz] / h[nz] - 1.0) <= (4 * n + 256) * np.finfo(float).eps)


def test_analysis_does_not_depend_on_what_ran_before():
    # every value of a root search comes from its own kept roots: each
    # product analysed with fresh factors gives the same floats as after
    # the same product at nearby weights, whose roots would make narrow
    # brackets, and so do the phase roots of the two-factor ones
    from fprw import phase

    walks = [golden_spec(name) for name in json.loads((GOLDEN / "configs.json").read_text())]
    walks += [FreeProductSpec(tuple(map(HomTree, d)), w) for d, w in ITEM_13]
    for w in walks:
        roots = lambda: phase.phase_roots(w) if w.m == 2 and not is_two_by_two(w) else None
        analyze_factor.cache_clear()
        fresh = analyze_product(w), roots()
        analyze_factor.cache_clear()
        for eps in (1e-7, 1e-4, 1e-2):
            analyze_product(FreeProductSpec(w.factors, (w.weights[0] * (1.0 + eps), *w.weights[1:])))
        assert (analyze_product(w), roots()) == fresh


def test_branch_solves_take_few_green_evaluations():
    # factor Green evaluations that miss each factor's cache, over the golden
    # products and ROADMAP item 13's table: 1,023 before inversions started
    # from kept roots and trees from their closed form, 293 after; the
    # counts repeat exactly
    walks = [golden_spec(name) for name in json.loads((GOLDEN / "configs.json").read_text())]
    walks += [FreeProductSpec(tuple(map(HomTree, d)), w) for d, w in ITEM_13]
    analyze_factor.cache_clear()
    for walk in walks:
        analyze_product(walk)
    ans = {id(an): an for walk in walks for an in factor_analytics(walk)}
    assert sum(an._green.cache_info().misses for an in ans.values()) <= 0.6 * 1023


class TestGreenSeries:
    def test_constant_and_first(self):
        s = spec_of((C2, 0.5), (C3, 0.5))
        g = product_green_series(s, 10)
        assert g[0] == 1.0
        assert abs(g[1]) < 1e-15  # no one-step returns for these factors

    def test_two_by_two_second_coefficient(self):
        for a1 in (0.5, 0.3):
            s = spec_of((C2, a1), (C2, 1.0 - a1))
            g = product_green_series(s, 6)
            assert g[2] == pytest.approx(a1**2 + (1 - a1) ** 2, abs=1e-13)

    def test_probability_coefficients(self):
        s = spec_of((Z2, 0.4), (C3, 0.6))
        g = product_green_series(s, 60)
        assert np.all(g.coeffs >= -1e-13)
        assert np.all(g.coeffs <= 1.0 + 1e-13)

    @pytest.mark.parametrize(
        "pairs",
        [
            ((C2, 0.5), (C3, 0.5)),
            ((C2, 0.2), (C3, 0.8)),
            ((Z1, 0.5), (Z1, 0.5)),
            ((Z1, 0.7), (C2, 0.3)),
            ((C2, 1.0), (C2, 1.0), (C2, 1.0)),
            ((Z2, 0.4), (C3, 0.6)),
        ],
    )
    def test_matches_word_convolution(self, pairs):
        s = spec_of(*pairs)
        n = 14
        exact = mc.bfs_convolution(s, n)
        g = product_green_series(s, n)
        assert np.max(np.abs(g.coeffs - exact.coeffs)) <= 1e-10

    def test_period_support(self):
        s = spec_of((Z1, 0.5), (C2, 0.5))  # both period 2
        g = product_green_series(s, 51)
        assert np.all(np.abs(g.coeffs[1::2]) < 1e-15)

    @pytest.mark.parametrize(
        "factor,period",
        [(cyclic_group(3, (0.0, 1.0, 0.0)), 3), (cyclic_group(4, (0.0, 1.0, 0.0, 0.0)), 4)],
        ids=["C3*C3", "C4*C4"],
    )
    def test_period_lattice_matches_word_convolution(self, factor, period):
        s = spec_of((factor, 0.5), (factor, 0.5))
        assert product.product_period(s) == period
        for order in (0, 1, period - 1, period, period + 1, 30):
            g = product_green_series(s, order).coeffs
            exact = mc.bfs_convolution(s, order).coeffs
            assert np.array_equal(g != 0.0, exact != 0.0)
            assert np.all(g[np.arange(order + 1) % period != 0] == 0.0)
            nz = exact != 0.0
            assert np.max(np.abs(g[nz] / exact[nz] - 1.0)) <= 1e-12


@st.composite
def cyclic_walks(draw):
    """Z/nZ with a random step law on a random support that generates the group."""
    n = draw(st.integers(2, 6))
    support = draw(st.sets(st.integers(0, n - 1), min_size=1).filter(lambda s: math.gcd(n, *s) == 1))
    raw = [draw(st.floats(0.1, 1.0)) if r in support else 0.0 for r in range(n)]
    return cyclic_group(n, tuple(x / sum(raw) for x in raw))


@settings(max_examples=40, deadline=None)
@given(st.lists(cyclic_walks(), min_size=2, max_size=3), st.data())
def test_series_vanish_exactly_off_the_period_lattice(walks, data):
    order = 40
    for f in walks:
        period = f.invariants()[1]
        _, g = f.radius_series(order)
        off = np.arange(order + 1) % period != 0
        assert np.all(g.coeffs[off] == 0.0)
        assert not np.any(np.signbit(g.coeffs))
    weights = [data.draw(st.floats(0.1, 1.0)) for _ in walks]
    s = FreeProductSpec(tuple(walks), tuple(weights))
    period = product.product_period(s)
    for c in (normalized_green_series(s, order)[1].coeffs, product_green_series(s, order).coeffs):
        off = np.arange(order + 1) % period != 0
        assert np.all(c[off] == 0.0)
        assert not np.any(np.signbit(c[off]))


class TestZeta:
    def test_at_zero(self):
        assert zeta_at(spec_of((Z5, 0.5), (Z6, 0.5)), 0.0) == (0.0, 0.0)

    def test_link_identity_interior(self):
        s = spec_of((Z5, 0.6), (Z6, 0.4))
        radius = analyze_product(s).radius
        series = product_green_series(s, 300)
        ans = factor_analytics(s)
        for z in (0.5 * radius, 0.75 * radius):
            z1, z2 = zeta_at(s, z)
            gval = float(np.polynomial.polynomial.polyval(z, series.coeffs))
            for zi, ai, an in ((z1, 0.6, ans[0]), (z2, 0.4, ans[1])):
                link = zi / (ai * z) * an.green(zi)
                assert link == pytest.approx(gval, rel=1e-8)

    def test_boundary_value_at_radius(self):
        # Psi(theta-bar) > 0 with argmin {0}: zeta_1(radius) = radius of factor 1
        s = spec_of((Z5, 0.8), (Z6, 0.2))
        assert analyze_product(s).psi_bar > 0
        assert theta_bar_of(factor_analytics(s), s.weights)[1] == (0,)
        radius = analyze_product(s).radius
        z1, z2 = zeta_at(s, radius)
        ans = factor_analytics(s)
        assert z1 == pytest.approx(ans[0].radius, abs=1e-8)
        assert z2 < ans[1].radius

    def test_rejects_three_factors(self):
        with pytest.raises(ConfigError):
            zeta_at(spec_of((C2, 1.0), (C2, 1.0), (C2, 1.0)), 0.5)


class TestSqrtCoefficient:
    def test_not_at_criticality(self):
        assert analyze_product(spec_of((Z5, 0.5), (Z6, 0.5))).sqrt_coeff is None


class TestAnalyzeProduct:
    def test_degenerate_flag(self):
        pa = analyze_product(spec_of((C2, 0.5), (C2, 0.5)))
        assert pa.degenerate and pa.radius == 1.0 and pa.g_at_radius == math.inf

    def test_summary_consistency(self):
        s = spec_of((Z5, 0.5), (Z6, 0.5))
        pa = analyze_product(s)
        assert pa.psi_bar == pytest.approx(psi_of(factor_analytics(s), s.weights, pa.theta_bar))
        assert pa.period == 2
        assert pa.psi_bar <= 1.0
        assert pa.psi_bar > 0.0
        assert pa.radius == pa.theta_bar / pa.g_at_radius
        assert math.isfinite(pa.g_at_radius)


def tree_returns(q, order, dps=150):
    """Return probabilities of the q-regular tree walk at n = 0, 2, ..., order.

    G(z) = (q s - (q - 2)) / (2 (1 - z^2)) with s = sqrt(1 - 4 (q-1) z^2 / q^2)
    and sqrt(1 - 4x) = 1 - 2 sum_n C_{n-1} x^n (Catalan numbers C), so
    p_2N = 1 - q sum_{n=1}^{N} C_{n-1} ((q-1)/q^2)^n.  The sum cancels to
    about rho^-2N, so it runs with dps digits.
    """
    with mp.workdps(dps):
        r = mp.mpf(q - 1) / q**2
        out = [mp.mpf(1)]
        term, acc = r, mp.mpf(0)  # term = C_{n-1} r^n
        for n in range(1, order // 2 + 1):
            acc += term
            out.append(1 - q * acc)
            term = term * r * 2 * (2 * n - 1) / (n + 1)
        return [float(v) for v in out]


def _frac_mul(a, b):
    return [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a))]


def _frac_reciprocal(a):
    b = [1 / a[0]]
    for n in range(1, len(a)):
        b.append(-sum(a[k] * b[n - k] for k in range(1, n + 1)) / a[0])
    return b


def _frac_one_minus(parts, n):
    return [int(k == 0) - sum(p[k] for p in parts) for k in range(n)]


def exact_tree_series(q, order):
    """Return probabilities of the q-regular tree walk in exact rationals:
    F = z/q + ((q-1)/q) z F^2 is the first passage to a neighbour, G = 1/(1 - zF)."""
    f = [Fraction(0)] * (order + 1)
    for _ in range(order + 1):
        f = [Fraction(0)] + [Fraction(int(n == 0), q) + Fraction(q - 1, q) * c for n, c in enumerate(_frac_mul(f, f)[:-1])]
    return _frac_reciprocal(_frac_one_minus([[Fraction(0)] + f[:-1]], order + 1))


def exact_lattice_series(d, order):
    """Return probabilities of the simple walk on Z^d in exact rationals: the
    exponential generating function is the d-th power of that of Z^1."""
    one_axis = [Fraction(comb(k, k // 2), 2**k * d**k * factorial(k)) if k % 2 == 0 else Fraction(0) for k in range(order + 1)]
    egf = [Fraction(int(k == 0)) for k in range(order + 1)]
    for _ in range(d):
        egf = _frac_mul(egf, one_axis)
    return [c * factorial(k) for k, c in enumerate(egf)]


def exact_product_series(series, weights):
    """c_0..c_N of the free product in exact rationals from the factors' return
    series c_0..c_N: the first-visit system in z, zeta_i = alpha_i z / (1 - sum_{j != i} V_j)
    with V_j = alpha_j z T_j(zeta_j), iterated until every coefficient is fixed."""
    n = len(series[0])
    # T(w) = (1 - 1/G(w)) / w
    kernels = [[-c for c in _frac_reciprocal(g)[1:]] + [Fraction(0)] for g in series]
    zeta = [[Fraction(0)] * n for _ in series]
    for _ in range(n + 1):
        v = []
        for a, t, z in zip(weights, kernels, zeta):
            tz = [Fraction(0)] * n
            for c in reversed(t):
                tz = _frac_mul(tz, z)
                tz[0] += c
            v.append([Fraction(0)] + [a * c for c in tz[:-1]])
        zeta = [
            [Fraction(0)] + [a * c for c in _frac_reciprocal(_frac_one_minus(v[:i] + v[i + 1:], n))[:-1]]
            for i, a in enumerate(weights)
        ]
    return _frac_reciprocal(_frac_one_minus(v, n))


class TestNormalizedSeries:
    def test_three_regular_tree_closed_form_at_order_4000(self):
        s = spec_of((C2, 1.0), (C2, 1.0), (C2, 1.0))
        g = product_green_series(s, 4000).coeffs
        want = np.array(tree_returns(3, 4000))
        assert np.all(g[1::2] == 0.0)
        assert want[-1] > np.finfo(float).tiny  # about 2e-107
        assert np.max(np.abs(g[::2] / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("q,order", [(4, 3000), (5, 2000)])
    def test_regular_tree_closed_form_of_more_factors(self, q, order):
        s = FreeProductSpec((C2,) * q, (1.0,) * q)
        g = product_green_series(s, order).coeffs
        # the last term is about 1e-187 (q = 4) and 1e-194 (q = 5)
        want = np.array(tree_returns(q, order, dps=260))
        assert np.all(g[1::2] == 0.0)
        assert want[-1] > np.finfo(float).tiny
        assert np.max(np.abs(g[::2] / want - 1.0)) <= 1e-13

    def test_explicit_factor_product_matches_exact_fractions(self):
        # word convolution cannot take an explicit factor, so the golden
        # X3*T4*Z8 is checked against the first-visit system in rationals
        config = json.loads((Path(__file__).parent / "golden" / "configs.json").read_text())["X3xT4xZ8"]
        s = FreeProductSpec(tuple(cli.parse_factor(f, i) for i, f in enumerate(config["factors"])), config["weights"])
        weights = [Fraction(w) for w in config["weights"]]
        exact = exact_product_series(
            [[Fraction(c) for c in config["factors"][0]["coeffs"][:9]], exact_tree_series(4, 8), exact_lattice_series(8, 8)],
            [w / sum(weights) for w in weights],
        )
        # orders 0-3 end the Newton doubling after its first or second pass
        for order in (200, 0, 1, 2, 3):
            got = product_green_series(s, order).coeffs[:9]
            assert got.size == min(order, 8) + 1
            for g, e in zip(got, exact):
                assert abs(Fraction(float(g)) - e) <= 2 * np.finfo(float).eps * e
            # printed to 12 digits: c_6 = 0.00110110351562499981 is 2e-19 below a tie
            assert [f"{g:.12g}" for g in got] == [f"{float(e):.12g}" for e in exact[: got.size]]

    def test_full_order_compositions_run_once_per_factor(self, monkeypatch):
        # the solve runs in y = u^period at order N // period, and the Newton
        # pass that reaches that order is the last one: m kernel evaluations
        # (a composition, or C3's elimination past its crossover) at that
        # order per solve, not 2m
        orders = []
        real = product._Kernel.at

        def spy(kernel, inner, h):
            orders.append(inner.order)
            return real(kernel, inner, h)

        monkeypatch.setattr(product._Kernel, "at", spy)
        cases = (
            (((Z5, 0.5), (Z6, 0.5)), 2),
            (((Z5, 0.4), (Z6, 0.35), (HomTree(3), 0.25)), 2),
            (((C2, 0.5), (C3, 0.5)), 1),
        )
        for pairs, period in cases:
            assert product.product_period(spec_of(*pairs)) == period
            for order in (1, 2, 300, 301):
                orders.clear()
                normalized_green_series.__wrapped__(spec_of(*pairs), order)  # uncached
                assert orders.count(order // period) == len(pairs)
                assert max(orders) == order // period

    def test_one_kernel_per_distinct_factor(self, monkeypatch):
        # factors are frozen and hashable: C2 * C2 * C2 builds one C2
        # kernel, and Z5 * Z6 * Z5 one for Z5 and one for Z6
        built = []
        real = product._Kernel.__init__

        def spy(kernel, series, form=None):
            built.append(series.order)
            real(kernel, series, form)

        monkeypatch.setattr(product._Kernel, "__init__", spy)
        for pairs, kernels in ((((C2, 1.0),) * 3, 1), (((Z5, 0.3), (Z6, 0.3), (Z5, 0.4)), 2)):
            built.clear()
            normalized_green_series.__wrapped__(spec_of(*pairs), 300)
            assert len(built) == kernels

    def test_pass_orders_end_on_a_doubling(self):
        # each pass reaches at most 2c + 2 after one that reached c, the
        # first at most 2, and the last starts from (order - 1) // 2
        for order in range(3000):
            passes = product._pass_orders(order)
            assert passes[-1] == order and passes[0] <= 2
            assert all(a < b <= 2 * a + 2 for a, b in zip(passes, passes[1:]))
            if order > 2:
                assert passes[-2] == (order - 1) // 2
        assert product._pass_orders(1500) == [1, 4, 10, 22, 45, 92, 186, 374, 749, 1500]
        assert product._pass_orders(1000) == [2, 6, 14, 30, 61, 124, 249, 499, 1000]

    def test_unscaled_series_is_normalized_times_radius_power(self):
        s = spec_of((Z5, 0.5), (Z6, 0.5))
        radius, scaled = normalized_green_series(s, 1500)
        assert radius == analyze_product(s).radius
        c = product_green_series(s, 1500).coeffs
        with mp.workdps(30):
            for n in range(0, 1501, 50):
                want = mp.mpf(float(scaled[n])) * mp.mpf(radius) ** -n
                if want >= np.finfo(float).tiny:
                    assert float(abs(c[n] / want - 1)) <= 4 * np.finfo(float).eps

    def test_normalized_series_stays_normal_past_underflow(self):
        # c_n R^n ~ n^-lambda: normal where c_n itself underflows to zero
        for pairs in (((Z5, 0.5), (Z6, 0.5)), ((Z5, 0.4), (Z6, 0.35), (HomTree(3), 0.25))):
            s = spec_of(*pairs)
            _, scaled = normalized_green_series(s, 1500)
            c = product_green_series(s, 1500).coeffs
            assert np.all(scaled.coeffs[::2] >= np.finfo(float).tiny)
            assert np.all(scaled.coeffs[1::2] == 0.0)
            assert np.any(c[::2] < np.finfo(float).tiny)

    def test_zero_coefficients_carry_no_sign(self):
        for pairs in (((Z5, 0.5), (Z6, 0.5)), ((C2, 1.0), (C2, 1.0), (C2, 1.0)), ((Z1, 0.3), (C2, 0.7))):
            s = spec_of(*pairs)
            assert not np.any(np.signbit(product_green_series(s, 200).coeffs))
            assert not np.any(np.signbit(normalized_green_series(s, 200)[1].coeffs))

    @pytest.mark.parametrize(
        "factor",
        [
            LatticeNN((0.5, 0.3, 0.2), (0.6, 0.5, 0.3)),
            Z5,
            HomTree(4),
            cyclic_group(3, (0.1, 0.5, 0.4)),
            ExplicitSeries(
                coeffs=tuple(HomTree(3).series(300).coeffs), radius=3 / (2 * math.sqrt(2)),
                g_at_r=4.0, gprime_at_r=math.inf, sing=None, period=2,
            ),
        ],
        ids=["biased-lattice", "Z5", "T4", "C3", "explicit-T3"],
    )
    def test_radius_series_is_series_in_radius_variable(self, factor):
        rho, scaled = factor.radius_series(300)
        assert rho == pytest.approx(factor.invariants()[0], rel=1e-14)
        c = factor.series(300).coeffs
        with mp.workdps(30):
            want = [float(mp.mpf(float(x)) * mp.mpf(rho) ** n) for n, x in enumerate(c)]
        assert np.allclose(scaled.coeffs, want, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------------------
# R~: the float near the radius whose constants round least


def reference_near_radius(ratios, radius):
    """(R~, constants) by the exact search over all 257 candidates, the loop
    normalized_green_series ran before its numpy pass: the reference."""
    best = None
    for j in sorted(range(-128, 129), key=abs):
        near = radius + j * math.ulp(radius)
        exact = [q * Fraction(near) for q in ratios]
        consts = [float(x) for x in exact]
        err = max(abs(Fraction(c) / x - 1) for c, x in zip(consts, exact))
        if best is None or err < best[0]:
            best = (err, near, consts)
        if err == 0:
            break
    _, near, consts = best
    return near, consts


def assert_near_radius_is_the_reference(spec):
    total = sum(map(Fraction, spec.weights))
    ratios = [Fraction(a) / total / Fraction(f.radius_series(0)[0]) for f, a in zip(spec.factors, spec.weights)]
    radius = analyze_product(spec).radius
    near, consts = product._near_radius(ratios, radius)
    want_near, want_consts = reference_near_radius(ratios, radius)
    assert near.hex() == want_near.hex()
    assert [c.hex() for c in consts] == [c.hex() for c in want_consts]


def golden_specs():
    configs = json.loads((Path(__file__).parent / "golden" / "configs.json").read_text())
    return {
        name: FreeProductSpec(tuple(cli.parse_factor(f, i) for i, f in enumerate(c["factors"])), c["weights"])
        for name, c in configs.items()
    }


class TestNearRadius:
    @pytest.mark.parametrize("name", sorted(golden_specs()))
    def test_golden_configs(self, name):
        assert_near_radius_is_the_reference(golden_specs()[name])

    def test_exact_series_workload(self, monkeypatch, tmp_path):
        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "benchmark"))
        import workloads

        for seed in range(101, 111):
            for i, op in enumerate(workloads.build("exact-series", seed)):
                path = tmp_path / f"{seed}-{i}.json"
                path.write_text(json.dumps(op["config"]))
                assert_near_radius_is_the_reference(cli.load_config(str(path))[0])

    def test_fraction_checks_are_few(self, monkeypatch):
        # the numpy pass leaves few candidates to the exact arithmetic
        checks = []
        exact = product._rounding
        monkeypatch.setattr(product, "_rounding", lambda r, x: checks.append(x) or exact(r, x))
        for spec in golden_specs().values():
            checks.clear()
            normalized_green_series.__wrapped__(spec, 20)
            assert 1 <= len(checks) <= 64


@st.composite
def any_factor(draw):
    kind = draw(st.sampled_from(["lattice", "finite", "tree", "explicit"]))
    if kind == "lattice":
        d = draw(st.integers(1, 4))
        beta = [draw(st.floats(0.1, 1.0)) for _ in range(d)]
        beta = [b / sum(beta) for b in beta]
        beta[-1] = 1.0 - sum(beta[:-1])
        return LatticeNN(tuple(beta), tuple(draw(st.floats(0.05, 0.95)) for _ in range(d)))
    if kind == "finite":
        return draw(cyclic_walks())
    if kind == "tree":
        return HomTree(draw(st.integers(2, 6)))
    q = draw(st.integers(3, 5))
    return ExplicitSeries(
        coeffs=tuple(HomTree(q).series(40).coeffs), radius=q / (2 * math.sqrt(q - 1)),
        g_at_r=(q - 1) / (q - 2), gprime_at_r=math.inf, sing=None, period=2,
    )


@settings(max_examples=40, deadline=None)
@given(st.lists(any_factor(), min_size=2, max_size=4), st.data())
@example([C2, C2, C2], None)  # equal thirds: every constant is exact at R~ = R
def test_near_radius_is_the_exact_search(factors, data):
    if data is None:
        weights = [1 / 3] * 3
    else:
        weights = [data.draw(st.floats(0.05, 1.0)) for _ in factors]
    spec = FreeProductSpec(tuple(factors), tuple(weights))
    if not is_two_by_two(spec):
        assert_near_radius_is_the_reference(spec)


# ---------------------------------------------------------------------------
# finite groups: the kernel by elimination on its closed form


def symmetric_three(mu) -> FiniteGroup:
    """S_3 with step law mu over its permutations in lexicographic order."""
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(a[b[k]] for k in range(3))] for b in perms] for a in perms]
    inv = [table[x].index(0) for x in range(6)]
    return FiniteGroup(P=[[mu[table[inv[x]][y]] for y in range(6)] for x in range(6)], id=0, table=table)


def klein_four(mu) -> FiniteGroup:
    table = [[x ^ y for y in range(4)] for x in range(4)]
    return FiniteGroup(P=[[mu[x ^ y] for y in range(4)] for x in range(4)], id=0, table=table)


S3 = symmetric_three((0.1, 0.25, 0.15, 0.2, 0.2, 0.1))
K4 = klein_four((0.1, 0.3, 0.4, 0.2))
C4_PERIOD_2 = cyclic_group(4, (0.0, 0.3, 0.0, 0.7))


def all_brent_kung(monkeypatch):
    monkeypatch.setattr(product, "_eliminates", lambda form, order: False)


class TestFiniteKernel:
    @pytest.mark.parametrize(
        "group,period,below,above",
        [(C3, 1, 150, 200), (S3, 1, 3500, 3800), (K4, 1, 520, 570), (C4_PERIOD_2, 2, 20, 40)],
        ids=["C3", "S3", "Klein", "C4-decimated"],
    )
    def test_elimination_matches_brent_kung(self, group, period, below, above):
        # the rule routes each group to Brent-Kung below its crossover (C3 173,
        # S3 3660, Klein 544, period-2 C4 28 to 35) and to elimination above
        # it; both routes give the same coefficients
        form = group.first_return_form(period)
        assert not product._eliminates(form, below) and product._eliminates(form, above)
        for order in (below, above):
            _, g = group.radius_series(period * (order + 1))
            kernel = product._Kernel(product._visit_kernel(PowerSeries(g.coeffs[::period])))
            c = np.arange(1.0, order + 2.0) ** -1.5
            c[0] = 0.0
            inner = PowerSeries(0.9 * c / c.sum())
            h = order - order // 2
            for got, want in zip(product._eliminated(form, inner, h), kernel.at(inner, h)):
                assert got.order == want.order
                nz = want.coeffs != 0.0
                assert np.array_equal(got.coeffs != 0.0, nz) and np.all(want.coeffs[1:] > 0.0)
                assert np.max(np.abs(got.coeffs[nz] / want.coeffs[nz] - 1.0)) <= 1e-14

    def test_closed_form_is_the_decimated_kernel(self):
        # C4 with steps +-1 watched every second step lives on {0, 2}: it
        # stays with mass 2 (0.3)(0.7) and crosses with 0.3^2 + 0.7^2
        a, r, q, c = C4_PERIOD_2.first_return_form(2)
        assert (a, r.tolist(), q.tolist(), c.tolist()) == pytest.approx((0.42, [0.58], [[0.42]], [0.58]), rel=1e-15)
        _, g = C4_PERIOD_2.radius_series(2 * 41)
        kernel = product._visit_kernel(PowerSeries(g.coeffs[::2])).coeffs
        want = [a] + [r[0] * q[0, 0] ** (n - 1) * c[0] for n in range(1, 41)]
        # the kernel from the return series cancels to an absolute error
        assert np.allclose(kernel, want, rtol=1e-14, atol=1e-15)
        # the closed form composed with y is the kernel to rounding
        k, kp = product._eliminated((a, r, q, c), monomial(1, 40), 39)
        assert np.allclose(k.coeffs, want, rtol=1e-14, atol=0.0)
        assert np.allclose(kp.coeffs, [n * want[n] for n in range(1, 41)], rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "pairs",
        [((C2, 0.45), (C3, 0.55)), ((Z3, 0.4), (S3, 0.6))],
        ids=["C2*C3", "Z3*S3"],
    )
    def test_product_series_matches_all_brent_kung(self, pairs, monkeypatch):
        s = spec_of(*pairs)
        got = normalized_green_series.__wrapped__(s, 2000)[1].coeffs
        all_brent_kung(monkeypatch)
        want = normalized_green_series.__wrapped__(s, 2000)[1].coeffs
        assert np.array_equal(got == 0.0, want == 0.0)
        nz = want != 0.0
        assert np.max(np.abs(got[nz] / want[nz] - 1.0)) <= 1e-14

    @pytest.mark.parametrize(
        "pairs",
        [((C2, 0.45), (C3, 0.55)), ((Z3, 0.4), (S3, 0.6)), ((C4_PERIOD_2, 0.5), (Z3, 0.5)), ((K4, 0.3), (C3, 0.7))],
        ids=["C2*C3", "Z3*S3", "C4*Z3", "K4*C3"],
    )
    def test_elimination_matches_word_convolution(self, pairs, monkeypatch):
        # every pass of a finite factor by elimination, down to order 14
        monkeypatch.setattr(product, "_eliminates", lambda form, order: form is not None)
        monkeypatch.setattr(mc, "EXACT_COLUMN_BYTES", 1 << 32)
        s = spec_of(*pairs)
        exact = mc.bfs_convolution(s, 14).coeffs
        got = normalized_green_series.__wrapped__(s, 14)
        g = got[1].scale_arg(1.0 / got[0]).coeffs
        nz = exact != 0.0
        assert np.array_equal(g != 0.0, nz)
        assert np.max(np.abs(g[nz] / exact[nz] - 1.0)) <= 1e-12
