import math
import tracemalloc
from collections import Counter, OrderedDict
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fprw import lattice
from fprw.errors import OutOfDomain
from fprw.factors import LatticeNN
from fprw.phase import tuned_lattice
from tests import oracles


def simple(d):
    return np.full(d, 1.0 / d), np.full(d, 0.5)


@pytest.fixture
def fresh_laws(monkeypatch):
    """return_series with no prefix law kept from earlier tests."""
    monkeypatch.setattr(lattice, "_LAWS", OrderedDict())
    return lattice._LAWS


EXACT_EPS = 16  # relative error of return_series against exact rationals, in eps


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
        # Loader's weights and axis laws hold every coefficient to a few eps
        # (measured: at most 2.5 eps on Z^2 and 3.2 eps on Z^3)
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
            assert max(err) <= EXACT_EPS * np.finfo(float).eps


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


# ---------------------------------------------------------------------------
# the t-form kernel against its oracles

COLUMN_WALKS = {
    **{f"Z{d}": simple(d) for d in range(1, 9)},
    "tuned-Z3": (tuned_lattice(3, 0.3).beta, tuned_lattice(3, 0.3).p),
    "biased-Z3": ((0.5, 0.3, 0.2), (0.5, 0.4, 0.7)),
}


@pytest.mark.parametrize("walk", COLUMN_WALKS)
def test_scaled_bessel_columns_against_mpmath(walk):
    # measured: at most 2.42 eps (biased-Z3, I0); scipy's i0e and i1e
    # reach 5 eps on the same nodes
    eps = np.finfo(float).eps
    for v in np.unique(lattice.axis_coupling(*COLUMN_WALKS[walk])).tolist():
        x = v * lattice._NODES
        got = lattice._scaled_bessel(x)
        assert np.all(got > 0.0)
        with mp.workdps(30):
            for i, xi in enumerate(x.tolist()):
                xm = mp.mpf(xi)
                damp = mp.exp(-xm)
                for nu in range(3):
                    want = mp.besseli(nu, xm) * damp
                    assert abs(mp.mpf(float(got[nu, i])) / want - 1) <= 3 * eps, (v, xi, nu)


def scipy_laplace_green(beta, p, z, deriv):
    """The s-form kernel the t-form replaced, with scipy's Bessel functions:
    G^(deriv)(z) = int e^-s d^deriv/dz^deriv prod_j I0(c_j z s) ds, by the
    trapezoidal rule in log s on [-40, 90] with step 1/8, for 0 < z < rho."""
    from scipy import special

    c = lattice.axis_coupling(beta, p)
    rho = 1.0 / float(np.sum(c))
    s = np.exp(np.arange(-320, 721) * 0.125)
    prod = np.exp(-(rho - z) / rho * s)
    first = sq = diag = 0.0
    for cj, m in zip(*np.unique(c, return_counts=True)):
        x = cj * z * s
        i0 = special.i0e(x)
        prod *= i0 if m == 1 else i0**m
        r = special.i1e(x) / i0
        a = cj * r
        first = first + m * a
        sq = sq + m * a * a
        with np.errstate(invalid="ignore", divide="ignore"):
            diag = diag + m * cj * cj * np.where(x < 1e-8, 0.5, 1.0 - r / x)
    if deriv == 1:
        prod *= s * first
    elif deriv == 2:
        prod *= s * s * (diag + first * first - sq)
    return float(prod @ (0.125 * s))


def series_green(beta, p, z, deriv):
    """G^(deriv)(z) summed in 30 digits from the exact return series, for
    z <= rho / 2 (the tail past order 100 is below 1e-30 relative)."""
    with mp.workdps(30):
        zm = mp.mpf(z)
        terms = exact_return_series(beta, p, 100)
        return mp.fsum(
            mp.mpf(c.numerator) / c.denominator * mp.ff(2 * k, deriv) * zm ** (2 * k - deriv)
            for k, c in enumerate(terms)
            if 2 * k >= deriv
        )


@st.composite
def walks(draw):
    d = draw(st.integers(1, 8))
    raw = draw(st.lists(st.floats(0.02, 1.0), min_size=d, max_size=d))
    beta = [x / sum(raw) for x in raw]
    symmetric = draw(st.booleans())
    p = [0.5] * d if symmetric else draw(st.lists(st.floats(0.02, 0.98), min_size=d, max_size=d))
    return beta, p


@settings(max_examples=300, deadline=None)
@given(
    walk=walks(),
    frac=st.one_of(
        st.floats(-8.0, 0.0).map(lambda u: 10.0**u),
        st.floats(-10.0, -0.3).map(lambda u: 1.0 - 10.0**u),
    ),
)
def test_green_matches_the_scipy_kernel(walk, frac):
    beta, p = walk
    z = lattice.convergence_radius(beta, p) * min(frac, 1.0 - 1e-10)
    for deriv in (0, 1, 2):
        got = lattice.green(beta, p, z, deriv)
        want = scipy_laplace_green(beta, p, z, deriv)
        if abs(got / want - 1.0) <= 2e-15:
            continue
        # the oracle itself is off by up to 11 eps at small z (G'' on Z^7
        # and Z^8, against the exact series): there the exact series decides
        assert frac <= 0.5, (z, deriv, got, want)
        exact = series_green(beta, p, z, deriv)
        assert abs(got / exact - 1) <= abs(want / exact - 1), (z, deriv, got, want)


@pytest.mark.parametrize("walk", ["Z1", "Z3", "Z8", "biased-Z3"])
def test_small_z_rule_meets_the_quadrature(walk):
    # at and below rho 1e-9 G is 1 + |c|^2 z^2 / 2, G' = |c|^2 z and G'' =
    # |c|^2, whose next terms are below 1e-17 relative; just above, the
    # quadrature takes over (measured: at most 1.5 eps)
    beta, p = COLUMN_WALKS[walk]
    rho = lattice.convergence_radius(beta, p)
    for z in (rho * lattice._TINY, rho * lattice._TINY * (1 + 1e-9), rho * 1e-6):
        for deriv in (0, 1, 2):
            exact = series_green(beta, p, z, deriv)
            assert abs(lattice.green(beta, p, z, deriv) / exact - 1) <= 4 * np.finfo(float).eps


def test_one_kernel_per_walk_in_a_bounded_cache():
    lattice._kernel.cache_clear()
    beta, p = simple(5)
    for z in (0.1, 0.5, np.array([0.2, 0.9])):
        lattice.green(beta, p, z, 1)
    info = lattice._kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    for d in range(1, 2 * info.maxsize):
        lattice.green(*simple(d), 0.5)
    assert lattice._kernel.cache_info().currsize == info.maxsize


def _exact_weights(beta, p):
    """(a_j, t_j, F) of `exact_return_series`: beta_j = a_j / 2^E and t_j =
    a_j^2 u_j with p_j (1 - p_j) = u_j / 2^F, all integers."""
    beta = [Fraction(float(x)) for x in beta]
    q = [Fraction(float(x)) * (1 - Fraction(float(x))) for x in p]
    e = max(x.denominator for x in beta).bit_length() - 1
    f = max(x.denominator for x in q).bit_length() - 1
    a = [int(x * 2**e) for x in beta]
    return a, [aj * aj * int(qj * 2**f) for aj, qj in zip(a, q)], f


def _return_fractions(a, big_q, f, top):
    return [Fraction(math.comb(2 * M, M) * big_q[M], 2 ** (f * M) * sum(a) ** (2 * M)) for M in range(top + 1)]


def exact_return_series(beta, p, order):
    """Even coefficients of the return series in exact rationals.

    The floats beta_j = a_j / 2^E and p_j (1 - p_j) = u_j / 2^F are exact
    dyadic rationals.  The exponential generating function of the walk is
    prod_j sum_m t_j^m x^m / (m!)^2 in x = (s / B)^2, t_j = a_j^2 u_j, B =
    sum_j a_j, so with Q_M = (M!)^2 2^(2EM + FM) [x^M], an integer,
    Q^(j)_M = sum_m C(M, m)^2 t_j^m Q^(j-1)_(M-m) and c_(2M) = C(2M, M) Q_M /
    (2^(FM) B^(2M)).  Each Q^(j)_M is taken by Horner's rule in t_j, so
    every product has the small t_j or C(M, m)^2 as one factor, where the
    direct sum (`direct_exact_return_series`) multiplies two big integers
    per term; the integers, and so the fractions, are the same.
    """
    a, t, f = _exact_weights(beta, p)
    top = order // 2
    rows = [[math.comb(M, m) ** 2 for m in range(M + 1)] for M in range(top + 1)]
    big_q = [t[0] ** M for M in range(top + 1)]
    for tj in t[1:]:
        new = []
        for M, row in enumerate(rows):
            acc = 0
            for m in range(M, -1, -1):
                acc = acc * tj + row[m] * big_q[M - m]
            new.append(acc)
        big_q = new
    return _return_fractions(a, big_q, f, top)


def direct_exact_return_series(beta, p, order):
    """`exact_return_series` by its direct sum over m with powers of t_j."""
    a, t, f = _exact_weights(beta, p)
    top = order // 2
    big_q = None
    for tj in t:
        powers = [tj**m for m in range(top + 1)]
        if big_q is None:
            big_q = powers
            continue
        big_q = [sum(math.comb(M, m) ** 2 * powers[m] * big_q[M - m] for m in range(M + 1)) for M in range(top + 1)]
    return _return_fractions(a, big_q, f, top)


def test_exact_reference_matches_multinomial_sum():
    beta, p = (0.6, 0.4), (0.3, 0.5)
    want = exact_return_series(beta, p, 6)
    b = [Fraction(x) for x in beta]
    for M, w in enumerate(want):
        n = 2 * M
        direct = sum(
            math.comb(n, n1) * b[0] ** n1 * b[1] ** (n - n1)
            * math.comb(n1, n1 // 2) * (Fraction(p[0]) * (1 - Fraction(p[0]))) ** (n1 // 2)
            * math.comb(n - n1, (n - n1) // 2) * (Fraction(p[1]) * (1 - Fraction(p[1]))) ** ((n - n1) // 2)
            for n1 in range(0, n + 1, 2)
        ) / (b[0] + b[1]) ** n
        assert w == direct


EXACT_CASES = {
    "Z5": simple(5),
    "biased-Z5": ((0.7, 0.1, 0.1, 0.05, 0.05), (0.5, 0.6, 0.5, 0.45, 0.5)),
    "tuned-Z7": (tuned_lattice(7, 0.3).beta, (0.5,) * 7),
    "tuned-Z8": (tuned_lattice(8, 0.3).beta, (0.5,) * 8),
}


@pytest.mark.parametrize("case", ["biased-Z5", "tuned-Z8"])
def test_horner_reference_is_the_direct_sum(case):
    assert exact_return_series(*EXACT_CASES[case], 60) == direct_exact_return_series(*EXACT_CASES[case], 60)


@lru_cache(maxsize=None)
def exact_even_coefficients(case):
    """The even coefficients of EXACT_CASES[case] through n = 400, exact; a
    lower order's are their prefix."""
    return exact_return_series(*EXACT_CASES[case], 400)


def assert_exact_through(case, order):
    beta, p = EXACT_CASES[case]
    got = lattice.return_series(beta, p, order).coeffs
    want = exact_even_coefficients(case)[: order // 2 + 1]
    assert np.all(got[1::2] == 0.0)
    err = [abs(float(Fraction(float(g)) / w - 1)) for g, w in zip(got[::2], want)]
    assert max(err) <= EXACT_EPS * np.finfo(float).eps


@pytest.mark.parametrize("case", EXACT_CASES)
def test_matches_exact_rationals_at_order_200(case):
    # measured: 4.0 eps on Z5, 7.2 eps on biased-Z5, 8.8 on tuned-Z7 and 5.0
    # on tuned-Z8.  With b from a running float sum of the weights, tuned-Z7
    # was 15.8 eps off and tuned-Z8 28.3: an error in b + c of a few ulps
    # grows like n
    assert_exact_through(case, 200)


@pytest.mark.parametrize("case", EXACT_CASES)
def test_matches_exact_rationals_at_order_400(case):
    # from n = 100 on a merge block holds at least 8 rows; measured as at
    # order 200, which the largest errors are below
    assert_exact_through(case, 400)


@pytest.mark.parametrize(
    "beta,p",
    [simple(5), ((0.7, 0.1, 0.1, 0.05, 0.05), (0.5, 0.6, 0.5, 0.45, 0.5)), (tuned_lattice(8, 0.3).beta, (0.5,) * 8)],
    ids=["Z5", "biased-Z5", "tuned-Z8"],
)
def test_coefficients_do_not_depend_on_order(beta, p, fresh_laws):
    # the kept prefix laws serve a lower order by truncation; each order
    # here is built afresh
    top = lattice.return_series(beta, p, 1501).coeffs
    for order in (0, 1, 2, 3, 4, 37, 200, 1001, 1500):
        fresh_laws.clear()
        assert np.array_equal(lattice.return_series(beta, p, order).coeffs, top[: order + 1])


TUNED = {d: tuned_lattice(d, 0.3) for d in (7, 8)}
MERGE_ORDER_CASES = {
    "Z5": simple(5),
    "Z6": simple(6),
    "tuned-Z7": (TUNED[7].beta, TUNED[7].p),
    "tuned-Z8": (TUNED[8].beta, TUNED[8].p),
    "biased-Z5": ((0.7, 0.1, 0.1, 0.05, 0.05), (0.5, 0.6, 0.5, 0.45, 0.5)),
}


@pytest.mark.parametrize("beta,p", MERGE_ORDER_CASES.values(), ids=MERGE_ORDER_CASES)
def test_kept_prefixes_match_a_fresh_merge_bitwise(beta, p, fresh_laws):
    # these axes come heaviest first already, so the merges are those of
    # a fresh in-order merge with the same b; Z6 starts from the kept Z5
    lattice.return_series(*simple(5), 1501)
    got = lattice.return_series(beta, p, 1501).coeffs
    assert np.array_equal(got, oracles.in_order_return_series(beta, p, 1501))


@pytest.mark.parametrize("d", [5, 6])
def test_heaviest_first_matches_the_float_weight_merge(d, fresh_laws):
    # against in-order merges with b from a running float sum of the
    # weights: measured 4.4e-16 on Z5 and on Z6
    beta, p = simple(d)
    got = lattice.return_series(beta, p, 1501).coeffs
    want = oracles.in_order_return_series(beta, p, 1501, exact_b=False)
    assert np.array_equal(got == 0.0, want == 0.0)
    nz = want > 0.0
    assert np.max(np.abs(got[nz] / want[nz] - 1.0)) <= 1e-15


def test_heaviest_first_reorders_within_roundoff(fresh_laws):
    # the lightest axis given first: merged last here; measured 3.8e-15
    # through n = 1500, and both orders were within 4.3 eps of exact
    # rationals through n = 240
    beta, p = (0.1, 0.3, 0.2, 0.4), (0.3, 0.5, 0.6, 0.5)
    got = lattice.return_series(beta, p, 1501).coeffs
    want = oracles.in_order_return_series(beta, p, 1501)
    assert np.array_equal(got == 0.0, want == 0.0)
    nz = want > 0.0
    assert np.max(np.abs(got[nz] / want[nz] - 1.0)) <= 1e-14
    again = lattice.return_series((0.4, 0.3, 0.2, 0.1), (0.5, 0.5, 0.6, 0.3), 1501).coeffs
    assert np.array_equal(got, again)


class TestKeptLaws:
    @pytest.fixture
    def merges(self, monkeypatch, fresh_laws):
        calls = []
        real = lattice._merge_axis

        def counted(acc, axis, b, c, stir):
            calls.append(acc.size - 1)
            return real(acc, axis, b, c, stir)

        monkeypatch.setattr(lattice, "_merge_axis", counted)
        return calls

    def test_z6_is_one_merge_past_z5(self, merges):
        z5, z6 = LatticeNN.simple(5), LatticeNN.simple(6)
        z5.radius_series(1501)
        assert merges == [1501] * 4
        z6.radius_series(1501)
        assert merges == [1501] * 5

    def test_lower_order_first_rebuilds_once_at_the_higher(self, merges, fresh_laws):
        # the exact-series benchmark's order of requests on some seeds:
        # Z5*Z6*T3 at order 1000 (kernels to 1001) before Z5*Z6 at 1500 (1501)
        z5, z6 = LatticeNN.simple(5), LatticeNN.simple(6)
        low = [f.radius_series(1001)[1] for f in (z5, z6)]
        high = [f.radius_series(1501)[1] for f in (z5, z6)]
        assert merges == [1001] * 5 + [1501] * 5
        # both orders are now served from the kept order-1501 laws, which
        # truncate bitwise to the order-1001 builds
        again = [f.radius_series(order)[1] for f in (z5, z6) for order in (1001, 1501)]
        assert len(merges) == 10
        assert np.array_equal(again[0].coeffs, low[0].coeffs)
        assert np.array_equal(again[2].coeffs, low[1].coeffs)
        assert np.array_equal(again[1].coeffs, high[0].coeffs)
        assert np.array_equal(again[3].coeffs, high[1].coeffs)
        # a truncated law is bitwise a fresh build at its order
        fresh_laws.clear()
        assert np.array_equal(z6.radius_series(1001)[1].coeffs, low[1].coeffs)

    def test_key_is_relative_weights_and_p(self, merges):
        # Z^2 with weights (2, 2) is Z^2 with (1/2, 1/2); a second axis of
        # another p is another law
        a = lattice.return_series((0.5, 0.5), (0.5, 0.5), 300)
        b = lattice.return_series((2.0, 2.0), (0.5, 0.5), 300)
        assert np.array_equal(a.coeffs, b.coeffs) and len(merges) == 1
        c = lattice.return_series((0.5, 0.5), (0.5, 0.6), 300)
        assert len(merges) == 2
        assert np.array_equal(c.coeffs, oracles.in_order_return_series((0.5, 0.5), (0.5, 0.6), 300))

    def test_cache_is_bounded(self, fresh_laws):
        for d in range(1, 2 * lattice._LAWS_SIZE):
            lattice.return_series((1.0 / d,) * d, (0.5,) * d, 20)
            assert len(fresh_laws) <= lattice._LAWS_SIZE


def test_bd0_takes_one_branch_bitwise():
    # against the formula that evaluated both branches in every cell, on
    # random cells shaped as `_merge_axis` forms them and on both sides of
    # |v| = 1/10, where the branch changes, one ulp at a time
    rng = np.random.default_rng(7)
    x = rng.integers(1, 5000, (300, 64)).astype(float)
    m = rng.uniform(0.5, 5000.0, (300, 1))
    assert np.array_equal(lattice._bd0(x.copy(), m), oracles.bd0_both_branches(x.copy(), m))
    x = np.exp(rng.uniform(-30.0, 30.0, 4000))
    m = x * np.exp(rng.uniform(-3.0, 3.0, 4000))
    assert np.array_equal(lattice._bd0(x, m), oracles.bd0_both_branches(x, m))
    m = rng.uniform(1.0, 1000.0, 20000)
    for edge in (11.0 / 9.0, 9.0 / 11.0):  # v = +1/10 and -1/10
        x = m * edge * (1.0 + rng.uniform(-1e-15, 1e-15, m.size))
        v = np.abs((x - m) / (x + m))
        for near in (np.nextafter(0.1, 0.0), 0.1, np.nextafter(0.1, 1.0)):
            assert np.any(v == near)
        assert np.array_equal(lattice._bd0(x, m), oracles.bd0_both_branches(x, m))


def full_sum_series(beta, p, order):
    """return_series with every binomial term summed, one n at a time:
    Loader's weights for 0 < k < n and the exact powers at the ends, the
    axes merged heaviest first with the exact b of return_series."""
    stir = lattice._stirlerr(order)
    axes = sorted(zip(map(Fraction, beta), p), key=lambda a: -a[0])
    acc = lattice._axis_return_probs(axes[0][1], order, stir)
    wsum = axes[0][0]
    for bj, pj in axes[1:]:
        axis = lattice._axis_return_probs(pj, order, stir)
        b, c = float(bj / (wsum + bj)), float(wsum / (wsum + bj))
        merged = np.zeros(order + 1)
        merged[0] = 1.0
        for n in range(2, order + 1, 2):
            k = np.arange(2, n - 1, 2)
            dev = lattice._bd0(k.astype(float), n * b) + lattice._bd0((n - k).astype(float), n * c)
            w = np.exp(stir[n] - stir[k] - stir[n - k] - dev) * np.sqrt(n / (2 * math.pi * k * (n - k)))
            merged[n] = c**n * acc[n] + b**n * axis[n] + np.sum(w * axis[k] * acc[n - k])
        acc = merged
        wsum += bj
    return acc


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(2, 4),
    small=st.floats(0.005, 0.1),
    rest=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=2),
    p=st.lists(st.floats(0.2, 0.8), min_size=4, max_size=4),
    order=st.integers(40, 700),
)
def test_window_matches_full_binomial_sum(d, small, rest, p, order):
    # the light axis enters last, with ratio b < small / (1 + small) < 0.1
    beta = [1.0, small, *rest][:d]
    got = lattice.return_series(beta, p[:d], order).coeffs
    full = full_sum_series(beta, p[:d], order)
    # each merge drops at most 2 _TAIL_TOL of its kept sum; the terms are
    # formed and summed in another way, within 8 eps a merge (measured: 3)
    bound = (d - 1) * (2 * lattice._TAIL_TOL + 8 * np.finfo(float).eps)
    assert np.all((got == 0.0) == (full == 0.0))
    nz = full > 0.0
    assert np.all(np.abs(got[nz] - full[nz]) <= bound * full[nz])


@settings(max_examples=30, deadline=None)
@given(
    weights=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
    p=st.lists(st.floats(0.3, 0.7), min_size=4, max_size=4),
    order=st.integers(2, 1500),
)
def test_block_merge_matches_the_cellwise_merge(weights, p, order):
    # each merge against the form that took each term's own pair of
    # deviances, on the same laws.  The cell-wise form rounds n b per row,
    # and on a biased law the summand's weight sits off k = n b, so its
    # terms move by about eps/2 per unit of that offset (measured: at most
    # 17.0 eps over 400 random draws of these inputs; 55 eps with p in
    # [0.2, 0.8], 3.0 eps with p = 1/2)
    stir = lattice._stirlerr(order)
    axes = sorted(zip(map(Fraction, weights), p), key=lambda a: -a[0])
    acc = lattice._axis_return_probs(axes[0][1], order, stir)
    total = axes[0][0]
    for w, pj in axes[1:]:
        b, c = float(w / (total + w)), float(total / (total + w))
        total += w
        axis = lattice._axis_return_probs(pj, order, stir)
        got = lattice._merge_axis(acc, axis, b, c, stir)
        want = oracles.cellwise_merge_axis(acc, axis, b, c, stir)
        assert np.array_equal(got == 0.0, want == 0.0)
        nz = want > 0.0
        assert np.max(np.abs(got[nz] / want[nz] - 1.0), initial=0.0) <= 32 * np.finfo(float).eps
        acc = want


@pytest.mark.parametrize("weights", [(1.0, 1.0), (1.0, 0.3), (3.0, 1.0), (1.0, 0.05), (0.7, 0.2), (1.0, 0.01)])
def test_block_merge_keeps_the_binomial_mass(weights):
    # with both laws 1 at every n, row n sums Loader's weights over even k:
    # ((b + c)^n + (c - b)^n) / 2 times e^(-n (b + c - 1)), which Loader's
    # pair of deviances carries (measured: at most 4.0 eps through n = 1500,
    # against 9 to 10 eps with the (b + c - 1)(n - a) term left out, with
    # the means a b and a c taken as rounded, or with each block anchored on
    # the next block's middle row)
    order = 1500
    stir = lattice._stirlerr(order)
    w0, w1 = map(Fraction, weights)
    b, c = float(w1 / (w0 + w1)), float(w0 / (w0 + w1))
    got = lattice._merge_axis(np.ones(order + 1), np.ones(order + 1), b, c, stir)
    with mp.workprec(200):
        bb, cc = mp.mpf(b), mp.mpf(c)
        for n in range(2, order + 1, 2):
            want = ((bb + cc) ** n + (cc - bb) ** n) / 2 * mp.exp(-n * (bb + cc - 1))
            assert abs(mp.mpf(got[n]) / want - 1) <= 6 * np.finfo(float).eps, n


def test_stirlerr_table_against_mpmath():
    table = lattice._stirlerr(3000)
    with mp.workdps(30):
        for n in [*range(1, 200), 500, 501, 1000, 2999, 3000]:
            want = mp.loggamma(n + 1) - (n + mp.mpf(1) / 2) * mp.log(n) + n - mp.log(2 * mp.pi) / 2
            if n < len(lattice._STIRLERR_SMALL):
                assert table[n] == float(want)  # the literal constants are correctly rounded
            assert abs(mp.mpf(table[n]) - want) <= np.finfo(float).eps / 2  # measured: 0.48 eps


def test_tuned_z8_at_order_10001_keeps_temporaries_bounded(fresh_laws):
    # chunked at _CELLS window cells per pass; unchunked, each temporary of a
    # merge would hold its 5,000 rows x 250 window cells, 10 MB
    spec = tuned_lattice(8, 0.3)
    c = tuple(lattice.axis_coupling(spec.beta, spec.p).tolist())
    tracemalloc.start()
    try:
        s = lattice.return_series(c, (0.5,) * 8, 10001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(s.coeffs[::2] > 0.0)
    assert peak <= 4 * 2**20  # measured: 1.6 MB, of which 0.7 MB are the order-10^4 arrays, with 0.6 MB of kept prefix laws
