import json
import math
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fprw import cli, mc, product
from fprw.classify import estimate_radius
from fprw.errors import ConfigError, NotAtCriticality
from fprw.factors import ExplicitSeries, HomTree, LatticeNN, cyclic_group, flip_group
from fprw.product import (
    FreeProductSpec,
    analyze_product,
    factor_analytics,
    is_two_by_two,
    normalized_green_series,
    phi_of_t,
    product_green_series,
    product_radius,
    psi_bar,
    psi_of_t,
    sqrt_coefficient,
    theta_bar,
    zeta_at,
)
from fprw.series import series_compose


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
        tbar, argmin = theta_bar(s)
        an5 = factor_analytics(s)[1]
        assert tbar == pytest.approx(an5.theta / 0.7)
        assert argmin == (1,)

    def test_tie_at_critical_weight(self):
        ans = factor_analytics(spec_of((Z5, 0.5), (Z6, 0.5)))
        t1, t2 = ans[0].theta, ans[1].theta
        ac = t1 / (t1 + t2)
        s = spec_of((Z5, ac), (Z6, 1.0 - ac))
        _, argmin = theta_bar(s)
        assert argmin == (0, 1)

    def test_identical_factors_tie(self):
        _, argmin = theta_bar(spec_of((Z5, 0.5), (Z5, 0.5)))
        assert argmin == (0, 1)

    def test_all_recurrent_gives_infinity(self):
        tbar, _ = theta_bar(spec_of((C2, 0.5), (C3, 0.5)))
        assert tbar == math.inf


class TestPsiBar:
    def test_small_weight_limit(self):
        # alpha_1 -> 0 with theta_2 < inf: Psi(theta-bar) -> Psi_2(theta_2)
        s = spec_of((Z5, 1e-5), (Z6, 1.0 - 1e-5))
        an6 = factor_analytics(s)[1]
        assert psi_bar(s) == pytest.approx(an6.psi_at_radius, abs=1e-3)

    def test_negative_when_argmin_has_infinite_derivative(self):
        # make Z3 the argmin: its Psi vanishes at theta, dragging Psi below 0
        s = spec_of((Z3, 0.9), (Z5, 0.1))
        tbar, argmin = theta_bar(s)
        assert argmin == (0,)
        assert psi_bar(s) < 0.0

    def test_monotone_decreasing_in_t(self):
        s = spec_of((Z5, 0.5), (Z6, 0.5))
        tbar, _ = theta_bar(s)
        ts = np.linspace(tbar * 0.02, tbar, 12)
        vals = [psi_of_t(s, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert psi_of_t(s, tbar * 1e-9) == pytest.approx(1.0, abs=1e-6)


class TestRadius:
    def test_degenerate_two_by_two(self):
        radius, g = product_radius(spec_of((C2, 0.5), (C2, 0.5)))
        assert radius == 1.0 and g == math.inf

    def test_radius_exceeds_one(self):
        for s in (
            spec_of((C2, 0.5), (C3, 0.5)),
            spec_of((Z1, 0.5), (Z1, 0.5)),
            spec_of((Z5, 0.5), (Z6, 0.5)),
        ):
            radius, g = product_radius(s)
            assert radius > 1.0
            assert g > 1.0 and math.isfinite(g)

    def test_psi_positive_branch_formula(self):
        s = spec_of((Z5, 0.5), (Z6, 0.5))
        assert psi_bar(s) > 0
        tbar, _ = theta_bar(s)
        radius, g = product_radius(s)
        assert radius == pytest.approx(tbar / phi_of_t(s, tbar), rel=1e-12)

    def test_series_growth_consistency_both_branches(self):
        # psi >= 0 branch and psi < 0 (root) branch against coefficient growth
        for s in (spec_of((Z5, 0.5), (Z6, 0.5)), spec_of((C2, 0.5), (C3, 0.5))):
            radius, _ = product_radius(s)
            series = product_green_series(s, 400)
            est = estimate_radius(series, 2 if s.factors[0] is Z5 else 1)
            assert abs(est / radius - 1.0) < 0.01


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
        radius, _ = product_radius(s)
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
        assert psi_bar(s) > 0
        assert theta_bar(s)[1] == (0,)
        radius, _ = product_radius(s)
        z1, z2 = zeta_at(s, radius)
        ans = factor_analytics(s)
        assert z1 == pytest.approx(ans[0].radius, abs=1e-8)
        assert z2 < ans[1].radius

    def test_rejects_three_factors(self):
        with pytest.raises(ConfigError):
            zeta_at(spec_of((C2, 1.0), (C2, 1.0), (C2, 1.0)), 0.5)


class TestSqrtCoefficient:
    def test_not_at_criticality(self):
        with pytest.raises(NotAtCriticality):
            sqrt_coefficient(spec_of((Z5, 0.5), (Z6, 0.5)))


class TestAnalyzeProduct:
    def test_degenerate_flag(self):
        pa = analyze_product(spec_of((C2, 0.5), (C2, 0.5)))
        assert pa.degenerate and pa.radius == 1.0

    def test_summary_consistency(self):
        s = spec_of((Z5, 0.5), (Z6, 0.5))
        pa = analyze_product(s)
        assert pa.psi_bar == pytest.approx(psi_bar(s))
        assert pa.period == 2
        assert pa.psi_bar <= 1.0
        assert pa.radius == pytest.approx(pa.theta_bar / pa.phi_bar, rel=1e-12)
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
        # pass that reaches that order is the last one: m compositions at that
        # order per solve, not 2m
        orders = []

        def spy(outer, inner):
            orders.append(inner.order)
            return series_compose(outer, inner)

        monkeypatch.setattr(product, "series_compose", spy)
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

    def test_unscaled_series_is_normalized_times_radius_power(self):
        s = spec_of((Z5, 0.5), (Z6, 0.5))
        radius, scaled = normalized_green_series(s, 1500)
        assert radius == product_radius(s)[0]
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
