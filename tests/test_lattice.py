import math
from collections import Counter
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fprw import lattice
from fprw.errors import OutOfDomain
from fprw.phase import tuned_lattice


def simple(d):
    return np.full(d, 1.0 / d), np.full(d, 0.5)


class TestRadius:
    def test_simple_walk_any_dimension(self):
        for d in (1, 2, 3, 5, 8):
            beta, p = simple(d)
            assert lattice.spectral_radius(beta, p) == pytest.approx(1.0)
            assert lattice.convergence_radius(beta, p) == pytest.approx(1.0)

    def test_biased_one_dimensional(self):
        # beta=1, p=0.8: spectral radius sqrt(4*0.8*0.2) = 0.8, radius 1.25
        assert lattice.spectral_radius([1.0], [0.8]) == pytest.approx(0.8)
        assert lattice.convergence_radius([1.0], [0.8]) == pytest.approx(1.25)

    def test_radius_against_series_growth(self):
        beta = np.array([0.5, 0.3, 0.2])
        p = np.array([0.5, 0.4, 0.7])
        order = 1600
        s = lattice.return_series(beta, p, order)
        n = np.arange(2, order + 1, 2)
        logc = np.log(s.coeffs[n])
        # regression log c_n = a n + b log n + const kills the n^-3/2 bias
        A = np.vstack([n, np.log(n), np.ones_like(n, dtype=float)]).T
        a = np.linalg.lstsq(A, logc, rcond=None)[0][0]
        est_radius = math.exp(-a)
        assert abs(est_radius / lattice.convergence_radius(beta, p) - 1) < 0.01


class TestSeries:
    def test_constant_term(self):
        s = lattice.return_series(*simple(3), 8)
        assert s[0] == 1.0

    def test_d1_central_binomial(self):
        s = lattice.return_series([1.0], [0.5], 24)
        for n in range(13):
            assert s[2 * n] == pytest.approx(math.comb(2 * n, n) * 0.25**n, rel=1e-13)

    def test_d2_two_step_enumeration(self):
        # 4 generators with prob 1/4 each; return prob at n=2 is 4*(1/4)^2
        s = lattice.return_series(*simple(2), 4)
        assert s[2] == pytest.approx(0.25, abs=1e-15)

    def test_small_n_multinomial_sum(self):
        beta = np.array([0.6, 0.4])
        p = np.array([0.3, 0.5])
        s = lattice.return_series(beta, p, 6)
        # direct multinomial sum over axis allocations for n = 2, 4, 6
        def direct(n):
            tot = 0.0
            for n1 in range(0, n + 1, 2):
                n2 = n - n1
                ways = math.comb(n, n1)
                a1 = math.comb(n1, n1 // 2) * (p[0] * (1 - p[0])) ** (n1 // 2)
                a2 = math.comb(n2, n2 // 2) * (p[1] * (1 - p[1])) ** (n2 // 2)
                tot += ways * beta[0] ** n1 * beta[1] ** n2 * a1 * a2
            return tot

        for n in (2, 4, 6):
            assert s[n] == pytest.approx(direct(n), rel=1e-13)
            assert s[n - 1] == 0.0

    def test_coefficients_are_probabilities(self):
        s = lattice.return_series(np.array([0.2, 0.8]), np.array([0.45, 0.55]), 60)
        assert np.all(s.coeffs >= 0.0)
        assert np.all(s.coeffs <= 1.0)
        assert np.all(s.coeffs[1::2] == 0.0)

    def test_relative_error_bounded_through_3000(self):
        # log n! ~ 2e4 cancels inside the binomial weights, so coefficient n
        # carries a relative error of about eps log n! (measured: at most
        # 1.49 eps log n!, 6.4e-12 on Z^2 and 6.3e-12 on Z^3)
        order = 3000
        # A002893: a_m = sum_{i+j+k=m} (m! / (i! j! k!))^2 = sum_k C(m,k)^2 C(2k,k)
        a = [1, 3]
        for m in range(2, order // 2 + 1):
            a.append(((10 * m * m - 10 * m + 3) * a[-1] - 9 * (m - 1) ** 2 * a[-2]) // (m * m))
        assert all(a[m] == sum(math.comb(m, k) ** 2 * math.comb(2 * k, k) for k in range(m + 1)) for m in range(40))
        exact = {
            2: [Fraction(math.comb(2 * m, m) ** 2, 16**m) for m in range(order // 2 + 1)],
            3: [Fraction(math.comb(2 * m, m) * a[m], 36**m) for m in range(order // 2 + 1)],
        }
        for d, want in exact.items():
            got = lattice.return_series(*simple(d), order).coeffs[::2]
            err = [abs(float(Fraction(float(g)) / w - 1)) for g, w in zip(got, want)]
            bound = [2 * np.finfo(float).eps * math.lgamma(2 * m + 1) for m in range(order // 2 + 1)]
            assert all(e <= b for e, b in zip(err, bound))


class TestGreen:
    def test_value_at_zero(self):
        for d in (1, 2, 3, 6):
            assert lattice.green(*simple(d), 0.0) == pytest.approx(1.0)

    def test_recurrent_dimensions_diverge_at_radius(self):
        for d in (1, 2):
            assert lattice.green(*simple(d), 1.0) == math.inf
        assert lattice.green(*simple(3), 1.0, deriv=1) == math.inf
        assert lattice.green(*simple(4), 1.0, deriv=1) == math.inf
        assert lattice.green(*simple(5), 1.0, deriv=2) == math.inf
        assert lattice.green(*simple(6), 1.0, deriv=2) == math.inf

    def test_watson_value_d3(self):
        got = lattice.green(*simple(3), 1.0)
        assert got == pytest.approx(1.5163860591519780, abs=1e-9)

    def test_d3_series_summation_with_tail(self):
        # partial sums plus an n^-3/2 tail estimate pin G_3(1) to 1e-5
        order = 4000
        s = lattice.return_series(*simple(3), order)
        partial = float(np.sum(s.coeffs))
        from scipy.special import zeta

        n = np.arange(order - 200, order + 1, 2)
        const = float(np.mean(s.coeffs[n] * (n / 2.0) ** 1.5))
        tail = const * float(zeta(1.5, order // 2 + 1))
        assert lattice.green(*simple(3), 1.0) == pytest.approx(partial + tail, abs=1e-5)

    def test_interior_matches_series(self):
        beta = np.array([0.7, 0.3])
        p = np.array([0.5, 0.2])
        rho = lattice.convergence_radius(beta, p)
        s = lattice.return_series(beta, p, 900)
        for z in (0.25 * rho, 0.6 * rho, 0.85 * rho):
            direct = float(np.polynomial.polynomial.polyval(z, s.coeffs))
            assert lattice.green(beta, p, z) == pytest.approx(direct, rel=1e-9)

    def test_partial_sums_below_green(self):
        beta, p = simple(3)
        s = lattice.return_series(beta, p, 200)
        z = 0.9
        val = lattice.green(beta, p, z)
        partial = float(np.polynomial.polynomial.polyval(z, s.coeffs))
        assert partial < val

    def test_derivatives_match_series(self):
        beta, p = simple(4)
        s = lattice.return_series(beta, p, 900)
        z = 0.7
        c = s.coeffs
        n = np.arange(len(c))
        d1 = float(np.sum(n[1:] * c[1:] * z ** (n[1:] - 1)))
        d2 = float(np.sum(n[2:] * (n[2:] - 1) * c[2:] * z ** (n[2:] - 2)))
        assert lattice.green(beta, p, z, 1) == pytest.approx(d1, rel=1e-9)
        assert lattice.green(beta, p, z, 2) == pytest.approx(d2, rel=1e-9)

    def test_radius_values_finite_when_transient(self):
        g5 = lattice.green(*simple(5), 1.0)
        g5p = lattice.green(*simple(5), 1.0, 1)
        assert 1.0 < g5 < 1.3
        assert 0.0 < g5p < math.inf
        g7pp = lattice.green(*simple(7), 1.0, 2)
        assert 0.0 < g7pp < math.inf

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            lattice.green(*simple(3), 1.2)
        with pytest.raises(OutOfDomain):
            lattice.green(*simple(3), -0.1)


# ---------------------------------------------------------------------------
# high-precision oracles near and at the radius

NEAR_RADIUS = (2, 6, 10, 12)  # z = rho (1 - 10^-k)


def mp_laplace_green(c, gap, deriv):
    """mpmath quadrature of G^(deriv) in x = log s, at z = rho (1 - gap).

    G(z) = int e^x e^{-gap s} prod_j e^{-a_j s} I0(a_j s) dx with s = e^x and
    a_j = c_j z, sum_j c_j rho = 1 held exactly; deriv 1 brings in the factor
    s sum_j c_j I1/I0.  The quadrature is tanh-sinh on finite pieces, a rule
    and truncation of its own.
    """
    with mp.workdps(17):
        groups = Counter(float(x) for x in c)
        cs = [mp.mpf(x) for x in groups]
        mult = list(groups.values())
        total = mp.fsum(x * m for x, m in zip(cs, mult))
        z = (1 - mp.mpf(gap)) / total
        a = [x * z for x in cs]

        def f(x):
            s = mp.exp(x)
            i0 = [mp.besseli(0, aj * s) * mp.exp(-aj * s) for aj in a]
            val = s * mp.exp(-mp.mpf(gap) * s) * mp.fprod(v**m for v, m in zip(i0, mult))
            if deriv:
                i1 = [mp.besseli(1, aj * s) * mp.exp(-aj * s) for aj in a]
                val *= s * mp.fsum(m * cj * v1 / v0 for cj, m, v0, v1 in zip(cs, mult, i0, i1))
            return val

        cuts = [-45, -8, 0, 6, 20, 45, 100]
        if gap:
            knee = float(-mp.log(gap))
            cuts = sorted(set(cuts) | {knee - 3, knee + 3})
        return float(mp.quad(f, cuts))


def rel_err(got, want):
    return abs(got / float(want) - 1.0)


class TestNearRadius:
    @pytest.mark.parametrize("k", NEAR_RADIUS)
    def test_z1_closed_form(self, k):
        z = 1.0 - 10.0**-k
        with mp.workdps(30):
            zm = mp.mpf(z)
            g = 1 / mp.sqrt((1 - zm) * (1 + zm))
            gp = zm * g**3
        got = lattice.green([1.0], [0.5], z)
        got_p = lattice.green([1.0], [0.5], z, 1)
        assert rel_err(got, g) <= 1e-13
        assert got_p > 0.0
        assert rel_err(got_p, gp) <= 1e-13

    @pytest.mark.parametrize("k", NEAR_RADIUS)
    def test_z2_elliptic_k(self, k):
        # G(z) = (2/pi) K(m = z^2) for the simple walk on Z^2
        z = 1.0 - 10.0**-k
        with mp.workdps(30):
            g = 2 / mp.pi * mp.ellipk(mp.mpf(z) ** 2)
            gp = mp.diff(lambda t: 2 / mp.pi * mp.ellipk(t**2), mp.mpf(z))
        got = lattice.green(*simple(2), z)
        got_p = lattice.green(*simple(2), z, 1)
        assert rel_err(got, g) <= 1e-13
        assert got_p > 0.0
        assert rel_err(got_p, gp) <= 1e-13

    def test_z3_close_to_the_radius(self):
        beta, p = simple(3)
        c = lattice.axis_coupling(beta, p)
        z = lattice.convergence_radius(beta, p) * (1.0 - 1e-10)
        gap = 1.0 - z / lattice.convergence_radius(beta, p)
        for deriv in (0, 1):
            got = lattice.green(beta, p, z, deriv)
            assert got > 0.0
            assert rel_err(got, mp_laplace_green(c, gap, deriv)) <= 1e-13

    @pytest.mark.parametrize("d", range(3, 9))
    @pytest.mark.parametrize("tuned", [False, True], ids=["simple", "tuned"])
    def test_at_radius_against_mpmath(self, d, tuned):
        if tuned:
            spec = tuned_lattice(d, 0.3)
            beta, p = spec.beta, spec.p
        else:
            beta, p = simple(d)
        c = lattice.axis_coupling(beta, p)
        rho = lattice.convergence_radius(beta, p)
        for deriv in (0, 1):
            got = lattice.green(beta, p, rho, deriv)
            if d - 2 * deriv <= 2:
                assert got == math.inf
                continue
            assert got > 0.0
            assert rel_err(got, mp_laplace_green(c, 0.0, deriv)) <= 1e-13

    def test_array_argument_matches_scalar_calls(self):
        # the same terms summed as a matrix product: equal up to summation order
        rtol = 1e-14
        beta, p = np.array([0.5, 0.3, 0.2]), np.array([0.5, 0.4, 0.7])
        rho = lattice.convergence_radius(beta, p)
        z = rho * np.array([[0.0, 0.3, 0.9], [0.999, 1.0 - 1e-12, 1.0]])
        for deriv in (0, 1, 2):
            got = lattice.green(beta, p, z, deriv)
            assert got.shape == z.shape
            want = [lattice.green(beta, p, float(v), deriv) for v in z.ravel()]
            np.testing.assert_allclose(got.ravel(), want, rtol=rtol)
        # more points than one evaluation pass holds
        many = np.linspace(0.0, rho, 150)
        want = [lattice.green(beta, p, float(v)) for v in many]
        np.testing.assert_allclose(lattice.green(beta, p, many), want, rtol=rtol)


def per_n_gammaln_series(beta, p, order):
    """The axis merge of return_series with gammaln called anew for each n."""
    from scipy import special

    beta = np.asarray(beta, dtype=float)
    p = np.asarray(p, dtype=float)
    acc = lattice._axis_return_probs(float(p[0]), order)
    wsum = float(beta[0])
    for j in range(1, len(beta)):
        axis = lattice._axis_return_probs(float(p[j]), order)
        b = float(beta[j]) / (wsum + float(beta[j]))
        nxt = np.zeros(order + 1)
        nxt[0] = 1.0
        log_b, log_nb = math.log(b), math.log1p(-b)
        for n in range(2, order + 1, 2):
            k = np.arange(0, n + 1, 2)
            logpmf = (
                special.gammaln(n + 1)
                - special.gammaln(k + 1)
                - special.gammaln(n - k + 1)
                + k * log_b
                + (n - k) * log_nb
            )
            nxt[n] = float(np.dot(np.exp(logpmf) * axis[k], acc[n - k]))
        acc = nxt
        wsum += float(beta[j])
    return acc


@pytest.mark.parametrize(
    "beta,p",
    [simple(5), ((0.7, 0.1, 0.1, 0.05, 0.05), (0.5, 0.6, 0.5, 0.45, 0.5))],
    ids=["Z5", "biased-Z5"],
)
def test_log_factorial_table_is_bitwise_per_n_gammaln(beta, p):
    got = lattice.return_series(beta, p, 701).coeffs
    assert np.array_equal(got, per_n_gammaln_series(beta, p, 701))
