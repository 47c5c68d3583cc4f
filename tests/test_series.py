import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fprw import series as series_mod
from fprw.errors import NonzeroInnerConstant, ZeroConstantTerm
from fprw.factors import LatticeNN
from fprw.series import (
    PowerSeries,
    serial_dot,
    series_compose,
    series_derivative,
    series_mul,
    series_reciprocal,
)
from .oracles import NotInvertible, monomial, series_reversion, solve_implicit_green


def geometric(order):
    return PowerSeries(np.ones(order + 1))


def z1_green(order):
    """Green series of the symmetric nearest-neighbour walk on Z: sum C(2n,n) 4^-n z^2n."""
    c = np.zeros(order + 1)
    for n in range(order // 2 + 1):
        c[2 * n] = math.comb(2 * n, n) * 0.25**n
    return PowerSeries(c)


def first_return_probs_z(nmax):
    """First-return probabilities on Z by a positions DP that never touches 0."""
    # mass[x] = P[walk at x, 0 not yet revisited], x != 0
    span = nmax + 2
    mass = {1: 0.5, -1: 0.5}
    out = np.zeros(nmax + 1)
    for n in range(2, nmax + 1):
        nxt = {}
        for x, p in mass.items():
            for y in (x - 1, x + 1):
                if abs(y) <= span:
                    nxt[y] = nxt.get(y, 0.0) + 0.5 * p
        out[n] = nxt.pop(0, 0.0)
        mass = nxt
    return out


def loop_reciprocal(c):
    """1/c by one dot product per coefficient, the textbook recurrence."""
    b = np.zeros(c.size)
    b[0] = 1.0 / c[0]
    for k in range(1, c.size):
        b[k] = -np.dot(c[1 : k + 1], b[k - 1 :: -1]) / c[0]
    return b + 0.0


class TestMul:
    def test_difference_of_squares(self):
        a = PowerSeries([1.0, 1.0, 0.0])
        b = PowerSeries([1.0, -1.0, 0.0])
        assert np.allclose(series_mul(a, b).coeffs, [1.0, 0.0, -1.0])

    def test_identity_element(self):
        rng = np.random.default_rng(0)
        a = PowerSeries(rng.normal(size=9))
        assert np.array_equal(series_mul(a, monomial(0, 8)).coeffs, a.coeffs)

    def test_z1_green_square_double_sum(self):
        # [z^{2n}] G^2 = sum_k C(2k,k) C(2n-2k,n-k) 4^-n, checked term by term
        g = z1_green(40)
        sq = series_mul(g, g)
        for n in range(21):
            expect = sum(
                math.comb(2 * k, k) * math.comb(2 * (n - k), n - k) for k in range(n + 1)
            ) * 0.25**n
            assert sq[2 * n] == pytest.approx(expect, rel=1e-13)
            if n >= 1:
                assert sq[2 * n - 1] == 0.0

    def test_truncates_to_min_order(self):
        a = PowerSeries(np.ones(10))
        b = PowerSeries(np.ones(4))
        assert series_mul(a, b).order == 3


class TestReciprocal:
    def test_geometric(self):
        r = series_reciprocal(PowerSeries([1.0, -1.0] + [0.0] * 8))
        assert np.allclose(r.coeffs, np.ones(10))

    def test_involution(self):
        rng = np.random.default_rng(1)
        a = PowerSeries(np.concatenate([[2.0], rng.normal(size=12)]))
        back = series_reciprocal(series_reciprocal(a))
        assert np.allclose(back.coeffs, a.coeffs, atol=1e-12)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(ZeroConstantTerm):
            series_reciprocal(PowerSeries([0.0, 1.0]))

    def test_first_returns_on_z(self):
        # U = 1 - 1/G must list the first-return probabilities of the Z walk
        order = 30
        g = z1_green(order)
        u = 1.0 - series_reciprocal(g)
        dp = first_return_probs_z(order)
        assert np.allclose(u.coeffs, dp, atol=1e-13)
        # Catalan closed form as a second check
        for n in range(1, order // 2 + 1):
            cat = math.comb(2 * n - 2, n - 1) // n
            assert u[2 * n] == pytest.approx(2 * cat * 0.25**n, rel=1e-12)


class TestCompose:
    def test_identity_both_ways(self):
        z = monomial(1, 12)
        assert np.allclose(series_compose(z, z).coeffs, z.coeffs)

    def test_geometric_of_square(self):
        inner = PowerSeries([0.0, 0.0, 1.0] + [0.0] * 6)
        out = series_compose(geometric(8), inner)
        assert np.allclose(out.coeffs, [1, 0, 1, 0, 1, 0, 1, 0, 1])

    def test_nonzero_inner_rejected(self):
        with pytest.raises(NonzeroInnerConstant):
            series_compose(geometric(3), PowerSeries([1.0, 1.0, 0.0, 0.0]))

    def test_against_horner(self):
        rng = np.random.default_rng(2)
        outer = PowerSeries(rng.normal(size=33))
        inner_c = rng.normal(size=33) * 0.5
        inner_c[0] = 0.0
        inner = PowerSeries(inner_c)
        got = series_compose(outer, inner)
        acc = PowerSeries.zero(32)
        for c in outer.coeffs[::-1]:
            acc = series_mul(acc, inner) + c
        assert np.allclose(got.coeffs, acc.coeffs, atol=1e-10)


class TestReversion:
    def test_identity(self):
        z = monomial(1, 8)
        assert np.allclose(series_reversion(z).coeffs, z.coeffs)

    def test_moebius_pair(self):
        order = 16
        w = PowerSeries(np.concatenate([[0.0], np.ones(order)]))  # z/(1-z)
        v = series_reversion(w)
        expect = np.concatenate([[0.0], [(-1.0) ** (n - 1) for n in range(1, order + 1)]])
        assert np.allclose(v.coeffs, expect, atol=1e-12)

    def test_catalan(self):
        order = 20
        w = PowerSeries([0.0, 1.0, -1.0] + [0.0] * (order - 2))
        v = series_reversion(w)
        for n in range(1, order + 1):
            cat = math.comb(2 * (n - 1), n - 1) / n
            assert v[n] == pytest.approx(cat, rel=1e-11)

    def test_z1_walk_self_inverse(self):
        order = 64
        w = z1_green(order).shift()  # z*G(z)
        v = series_reversion(w)
        back = series_compose(w, v)
        assert np.allclose(back.coeffs, monomial(1, order).coeffs, atol=1e-12)
        # closed form: w = z/sqrt(1-z^2) inverts to t/sqrt(1+t^2)
        exact = np.zeros(order + 1)
        for n in range((order - 1) // 2 + 1):
            exact[2 * n + 1] = (-1.0) ** n * math.comb(2 * n, n) * 0.25**n
        assert np.allclose(v.coeffs, exact, atol=1e-13)
        # v o w is the ill-conditioned direction at this order: w^k coefficient
        # sums cancel heavily, so only a conditioning-scaled tolerance holds
        forth = series_compose(v, w)
        assert np.allclose(forth.coeffs, monomial(1, order).coeffs, atol=1e-6)

    def test_zero_linear_rejected(self):
        with pytest.raises(NotInvertible):
            series_reversion(PowerSeries([0.0, 0.0, 1.0]))
        with pytest.raises(NotInvertible):
            series_reversion(PowerSeries([1.0, 1.0]))


def words_2x2_convolution(alpha, nmax):
    """Return probabilities on (Z/2Z)*(Z/2Z) by direct word enumeration."""
    probs = {(): 1.0}
    out = np.zeros(nmax + 1)
    out[0] = 1.0
    for n in range(1, nmax + 1):
        nxt = {}
        for word, p in probs.items():
            for letter, a in ((0, alpha), (1, 1.0 - alpha)):
                if word and word[-1] == letter:
                    new = word[:-1]
                else:
                    new = word + (letter,)
                nxt[new] = nxt.get(new, 0.0) + p * a
        out[n] = nxt.get((), 0.0)
        probs = nxt
    return out


class TestImplicitGreen:
    def test_constant_phi(self):
        g = solve_implicit_green(monomial(0, 10), 10)
        assert np.allclose(g.coeffs, monomial(0, 10).coeffs)

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(3)
        c = np.abs(rng.normal(size=17)) * 0.3
        c[0] = 1.0
        phi = PowerSeries(c)
        g = solve_implicit_green(phi, 16)
        res = g - series_compose(phi, g.shift())
        assert np.max(np.abs(res.coeffs)) < 1e-12

    def test_nonnegative_probability_coeffs(self):
        phi = PowerSeries([1.0, 0.3, 0.2, 0.1] + [0.0] * 12)
        g = solve_implicit_green(phi, 15)
        assert g[0] == 1.0
        assert np.all(g.coeffs >= -1e-15)

    def test_z2_star_z2_matches_word_convolution(self):
        order = 14
        gi = PowerSeries([1.0 if k % 2 == 0 else 0.0 for k in range(order + 1)])  # 1/(1-z^2)
        w = gi.shift()
        phi_i = series_compose(gi, series_reversion(w))
        phi = phi_i.scale_arg(0.5) * 2.0 - 1.0
        g = solve_implicit_green(phi, order)
        brute = words_2x2_convolution(0.5, order)
        assert np.allclose(g.coeffs, brute, atol=1e-12)


coeff_lists = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=1, max_size=12
)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(coeff_lists, coeff_lists, coeff_lists)
    def test_associativity_distributivity(self, a, b, c):
        n = min(len(a), len(b), len(c)) - 1
        A, B, C = (PowerSeries(x).truncate(n) for x in (a, b, c))
        left = series_mul(series_mul(A, B), C)
        right = series_mul(A, series_mul(B, C))
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)
        dist_l = series_mul(A, B + C)
        dist_r = series_mul(A, B) + series_mul(A, C)
        assert np.allclose(dist_l.coeffs, dist_r.coeffs, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(coeff_lists)
    # tails whose reversion reaches |v_k| ~ 1e6-1e7, where the residual of
    # v o w is ~1e-9 in absolute terms yet at rounding level for the terms summed
    @example([2.0, -1.0, 1.5, 0.0, 0.0, 1 / 3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    @example(
        [2.0, -1.71875, 1.640625, 1.5, 0.0, 1 / 3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.057513830867135685]
    )
    def test_reversion_two_sided(self, tail):
        w = PowerSeries([0.0, 1.0] + [0.5 * t for t in tail])
        v = series_reversion(w)
        n = w.order
        ident = monomial(1, n).coeffs
        for outer, inner in ((w, v), (v, w)):
            residual = np.abs(series_compose(outer, inner).coeffs - ident)
            # rounding bound: n * eps times the magnitudes summed, |outer| o |inner|,
            # plus one smallest normal for gradual underflow
            summed = series_compose(
                PowerSeries(np.abs(outer.coeffs)), PowerSeries(np.abs(inner.coeffs))
            )
            bound = 4 * n * np.finfo(float).eps * summed.coeffs + np.finfo(float).tiny
            assert np.all(residual <= bound)


def test_derivative():
    d = series_derivative(PowerSeries([5.0, 1.0, 2.0, 3.0]))
    assert np.allclose(d.coeffs, [1.0, 4.0, 9.0])


class TestKernels:
    """The split truncated product and the shared-table composition."""

    split = series_mod._SPLIT_ORDER

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=-3, max_value=3),
        st.sampled_from((1, 2, 4)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.booleans(),
    )
    def test_split_product_equals_convolve(self, offset, mult, seed, signed):
        n = mult * self.split + offset
        rng = np.random.default_rng(seed)
        a, b = rng.random(n + 1), rng.random(n + 1)
        if signed:
            a, b = a - 0.5, b - 0.5
        got = series_mod._trunc_mul(a, b, n)
        want = np.convolve(a, b)[: n + 1]
        # the same terms in another order: within rounding of |a| * |b|
        bound = 2 * (n + 1) * np.finfo(float).eps * np.convolve(np.abs(a), np.abs(b))[: n + 1]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound)
        if not signed:
            assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_shared_table_compose_is_bitwise_separate(self, order, count, seed):
        rng = np.random.default_rng(seed)
        outers = [PowerSeries(rng.normal(size=order + 1)) for _ in range(count)]
        inner_c = rng.random(order + 1)
        inner_c[0] = 0.0
        inner = PowerSeries(inner_c)
        shared = series_compose(outers, inner)
        assert isinstance(shared, tuple) and len(shared) == count
        for outer, got in zip(outers, shared):
            assert np.array_equal(got.coeffs, series_compose(outer, inner).coeffs)

    def test_shared_table_compose_is_bitwise_separate_past_split(self):
        order = 2 * self.split + 5
        rng = np.random.default_rng(7)
        outer, outer_p = (PowerSeries(rng.random(order + 1)) for _ in range(2))
        inner = PowerSeries(np.concatenate([[0.0], rng.random(order) / order]))
        shared = series_compose((outer, outer_p), inner)
        assert np.array_equal(shared[0].coeffs, series_compose(outer, inner).coeffs)
        assert np.array_equal(shared[1].coeffs, series_compose(outer_p, inner).coeffs)

    @pytest.mark.parametrize("order", [40, 2 * series_mod._SPLIT_ORDER + 5])
    def test_mixed_orders_keep_each_order(self, order):
        # a kernel at full order and its slope at half order share one table;
        # the full-order result is bitwise that of a call of its own
        rng = np.random.default_rng(order)
        inner = PowerSeries(np.concatenate([[0.0], rng.random(order) / order]))
        outer, slope = PowerSeries(rng.random(order + 1)), PowerSeries(rng.random(order // 2 + 1))
        full, half = series_compose((outer, slope), inner)
        assert (full.order, half.order) == (order, order // 2)
        assert np.array_equal(full.coeffs, series_compose(outer, inner).coeffs)
        # the half-order result takes the full table's block size: equal to rounding
        alone = series_compose(slope, inner.truncate(order // 2)).coeffs
        assert np.allclose(half.coeffs, alone, rtol=1e-14, atol=0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=1200),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_short_outer_is_horner_on_trunc_mul(self, order, degree, seed):
        degree = min(degree, math.isqrt(order - 1) if order > 1 else 0)  # degree^2 < order
        rng = np.random.default_rng(seed)
        coeffs = np.zeros(order + 1)  # trailing zeros past the degree
        coeffs[: degree + 1] = rng.normal(size=degree + 1)
        coeffs[degree] = 1.0 + rng.random()
        inner_c = np.concatenate([[0.0], rng.random(order) / order])
        # reference: repeated _trunc_mul from the top coefficient down
        want = np.zeros(order + 1)
        want[0] = coeffs[degree]
        for j in range(degree - 1, -1, -1):
            want = series_mod._trunc_mul(want, inner_c, order)
            want[0] += coeffs[j]
        real = series_mod._trunc_mul
        with mock.patch.object(series_mod, "_trunc_mul", wraps=real) as spy:
            got = series_compose(PowerSeries(coeffs), PowerSeries(inner_c)).coeffs
        assert spy.call_count == degree  # no table of powers
        assert np.array_equal(got, want)
        # a top coefficient of 1e-300 forces Brent-Kung and moves only z^order,
        # by 1e-300 inner_1^order: the two routes agree to rounding
        padded = coeffs.copy()
        padded[order] = 1e-300
        blocked = series_compose(PowerSeries(padded), PowerSeries(inner_c)).coeffs
        scale = np.zeros(order + 1)
        scale[0] = abs(coeffs[degree])
        for j in range(degree - 1, -1, -1):
            scale = np.convolve(scale, inner_c)[: order + 1]
            scale[0] += abs(coeffs[j])
        bound = 4 * (order + 1) * np.finfo(float).eps * scale + 1e-300
        assert np.all(np.abs(blocked - got) <= bound)

    @pytest.mark.parametrize("order", [1, 2, 40, 2 * series_mod._SPLIT_ORDER + 3])
    def test_flip_kernel_compositions_are_bitwise(self, order):
        # the C2 kernel T(x) = x and its slope T' = 1 give zeta and 1 exactly
        rng = np.random.default_rng(order)
        zeta = PowerSeries(np.concatenate([[0.0], rng.random(order)]))
        t, tp = series_compose((monomial(1, order), monomial(0, order)), zeta)
        assert np.array_equal(t.coeffs, zeta.coeffs)
        assert np.array_equal(tp.coeffs, monomial(0, order).coeffs)
        assert not np.any(np.signbit(t.coeffs)) and not np.any(np.signbit(tp.coeffs))

    def test_reciprocal_zeros_carry_no_sign(self):
        # 1/(1 - z^2/2): every odd coefficient is a zero formed as -0, by the
        # Newton steps below the split at order 11 and past it at 1025
        for order in (11, 2 * self.split + 1):
            r = series_reciprocal(PowerSeries([1.0, 0.0, -0.5] + [0.0] * (order - 2)))
            assert not np.any(np.signbit(r.coeffs))
            assert np.all(r.coeffs[1::2] == 0.0)

    @pytest.mark.parametrize("order", [1, 11, 62, 255, 511, 512, 513, 1025, 3000])
    def test_reciprocal_past_split_matches_loop(self, order):
        # 1 - P with P >= 0 of mass 0.9 is the elimination's diagonal, and Z^5's
        # return series in its radius variable the input of the visit kernel
        rng = np.random.default_rng(order)
        p = rng.random(order + 1)
        p[0] = 0.0
        p *= 0.9 / p.sum()
        _, g = LatticeNN.simple(5).radius_series(order)
        for c in (np.concatenate([[1.0], -p[1:]]), g.coeffs):
            got = series_reciprocal(PowerSeries(c)).coeffs
            want = loop_reciprocal(c)
            # measured at orders 1-199 and every 37th to 3000: at most 7 ulp
            # on 1 - P, 9 on Z^5
            assert np.all(np.abs(got - want) <= 16 * np.spacing(np.abs(want)))
            assert np.array_equal(got == 0.0, want == 0.0)
            assert not np.any(np.signbit(got[got == 0.0]))

    def test_reciprocal_of_one_minus_p_against_fractions(self):
        # 1/(1 - P) in exact rational arithmetic from the same float P, at
        # order 200; measured: 2.06 eps relative (loop_reciprocal: 1.69)
        order = 200
        rng = np.random.default_rng(5)
        p = rng.random(order + 1)
        p[0] = 0.0
        p *= 0.9 / p.sum()
        got = series_reciprocal(PowerSeries(np.concatenate([[1.0], -p[1:]]))).coeffs
        q = [Fraction(x) for x in p.tolist()]
        exact = [Fraction(1)]
        for k in range(1, order + 1):
            exact.append(sum(q[j] * exact[k - j] for j in range(1, k + 1)))
        rel = max(abs(Fraction(x) / e - 1) for x, e in zip(got.tolist(), exact))
        assert rel <= 4 * np.finfo(float).eps

    def test_scale_arg_past_overflow_of_the_power(self):
        # 2^1100 overflows, while c_n 2^n here is 1 for every n
        n = np.arange(1101)
        c = PowerSeries(0.5 ** n.astype(float) * (n < 1074))
        scaled = c.scale_arg(2.0).coeffs
        assert np.allclose(scaled[:1074], 1.0, rtol=1e-15, atol=0.0)
        assert np.all(scaled[1074:] == 0.0)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    z=st.floats(-2.0, 2.0),
    deriv=st.integers(0, 2),
)
def test_horner_matches_numpy_polyval_exactly(coeffs, z, deriv):
    # series.horner and factors._poly_value replace numpy.polynomial's
    # polyval and polyder, which would load numpy.polynomial on first use
    from fprw.factors import _poly_value

    poly = np.polynomial.polynomial
    c = np.array(coeffs)
    assert series_mod.horner(c, z) == float(poly.polyval(z, c))
    assert _poly_value(c, z, deriv) == float(poly.polyval(z, poly.polyder(c, deriv)))


class TestSerialDot:
    def test_np_dot_up_to_one_chunk(self):
        rng = np.random.default_rng(3)
        for n in (1, 17, series_mod._DOT_CHUNK):
            a, b = rng.random(n), rng.random(2 * n)[::-2]
            assert serial_dot(a, b) == float(np.dot(a, b))

    def test_long_dot_is_accurate(self):
        rng = np.random.default_rng(4)
        a, b = rng.random(2 * series_mod._DOT_CHUNK + 5), rng.random(2 * series_mod._DOT_CHUNK + 5)
        assert serial_dot(a, b) == pytest.approx(math.fsum(a * b), rel=1e-14)
