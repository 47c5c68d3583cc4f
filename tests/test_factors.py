import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import fprw
from fprw import cli, roots
from fprw.errors import ConfigError, NeedsDerivative, OutOfDomain, RootNotBracketed
from fprw.factors import (
    ExplicitSeries,
    FiniteGroup,
    HomTree,
    LatticeNN,
    _poly_value,
    _tree_green_closed,
    _tree_radius,
    analyze_factor,
    cyclic_group,
    flip_group,
    invert_w,
    phi_at,
    phi_parts,
    psi_at,
    psi_at_argument,
)
from fprw.series import series_derivative

from .oracles import is_associative

GOLDEN_CONFIGS = Path(__file__).parent / "golden" / "configs.json"


@pytest.fixture(scope="module")
def z5():
    return analyze_factor(LatticeNN.simple(5))


@pytest.fixture(scope="module")
def z3():
    return analyze_factor(LatticeNN.simple(3))


def reduced_latin_squares(n):
    """Every n x n Latin square whose first row and column are 0, ..., n - 1."""
    square = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield tuple(tuple(row) for row in square)
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            yield from fill(cell + 1)
            return
        for v in range(n):
            if v not in square[i][:j] and all(square[k][j] != v for k in range(i)):
                square[i][j] = v
                yield from fill(cell + 1)
        square[i][j] = None

    return list(fill(0))


def right_closure(table, steps):
    """The elements that right products by `steps` reach from element 0."""
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [table[x][s] for x in frontier for s in steps if table[x][s] not in reached]
        reached.update(frontier)
    return reached


class TestSpecValidation:
    def test_lattice_weights_must_normalize(self):
        with pytest.raises(ConfigError):
            LatticeNN(beta=(0.5, 0.4), p=(0.5, 0.5))
        with pytest.raises(ConfigError):
            LatticeNN(beta=(1.0,), p=(1.0,))

    def test_finite_group_stochastic(self):
        with pytest.raises(ConfigError):
            cyclic_group(3, (0.2, 0.2, 0.2))

    def test_finite_group_must_generate(self):
        # mass only on the identity never leaves it
        with pytest.raises(ConfigError):
            cyclic_group(3, (1.0, 0.0, 0.0))

    def test_invariance_rejected(self):
        table = tuple(tuple((x + y) % 2 for y in range(2)) for x in range(2))
        P = ((0.0, 1.0), (0.5, 0.5))
        with pytest.raises(ConfigError):
            FiniteGroup(P=P, id=0, table=table)

    def test_associativity_verdict_is_the_triple_loops(self):
        # Light's test on a generating part of the support, against the
        # triple loop: every reduced Latin square of order 5 (56, of which the
        # 6 tables of Z/5Z are associative) with every support, at uniform
        # weights and with P built to be invariant.  A support that does not
        # generate is refused as such, whether the table is associative or not
        squares = reduced_latin_squares(5)
        assert len(squares) == 56 and sum(map(is_associative, squares)) == 6
        seen = set()
        for table in squares:
            inverse = [table[row.index(0)] for row in table]
            for size in range(1, 6):
                for support in itertools.combinations(range(5), size):
                    mu = [1.0 / size if g in support else 0.0 for g in range(5)]
                    P = [[mu[g] for g in row] for row in inverse]
                    if len(right_closure(table, support)) < 5:
                        want = "support of the walk must generate the group"
                    else:
                        want = None if is_associative(table) else "Cayley table is not associative"
                    try:
                        FiniteGroup(P=P, id=0, table=table)
                        got = None
                    except ConfigError as exc:
                        got = str(exc)
                    assert got == want, (table, support)
                    seen.add(want)
        assert len(seen) == 3

    def test_associativity_is_checked_past_a_first_generator_that_passes(self):
        # the direct product of each square with C2, element (x, a) at 2x + a:
        # the flip (0, 1) is the first generator, and it passes Light's test
        # on every such table, associative or not
        for square in reduced_latin_squares(5):
            table = [[2 * square[x // 2][y // 2] + (x + y) % 2 for y in range(10)] for x in range(10)]
            mu = [0.2 if g in (1, 2, 4, 6, 8) else 0.0 for g in range(10)]
            P = [[mu[g] for g in table[row.index(0)]] for row in table]
            if is_associative(table):
                FiniteGroup(P=P, id=0, table=table)
            else:
                with pytest.raises(ConfigError, match="not associative"):
                    FiniteGroup(P=P, id=0, table=table)

    def test_order_400_is_checked_in_well_under_a_second(self):
        # the triple loop took 4.7-6.1 s; Light's test on the one generator
        # takes 0.12-0.30 s for the whole construction (2 cores)
        mu = [0.0] * 400
        mu[1] = mu[-1] = 0.5
        start = time.perf_counter()
        cyclic_group(400, mu)
        assert time.perf_counter() - start < 1.0

    def test_explicit_constraints(self):
        with pytest.raises(ConfigError):
            ExplicitSeries(coeffs=(0.5, 0.0), radius=1.0, g_at_r=2.0,
                           gprime_at_r=1.0, sing=None, period=1)
        with pytest.raises(ConfigError):
            ExplicitSeries(coeffs=(1.0, 0.0), radius=1.0, g_at_r=math.inf,
                           gprime_at_r=1.0, sing=None, period=1)


class TestFiniteGroup:
    def test_flip_green_closed_form(self):
        an = analyze_factor(flip_group())
        # G(z) = 1/(1-z^2)
        assert an.green(0.5) == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert an.green(1.0) == math.inf
        assert an.radius == pytest.approx(1.0)
        assert an.period == 2
        assert an.theta == math.inf

    def test_matrix_power_oracle(self):
        spec = cyclic_group(3, (0.0, 0.5, 0.5))
        an = analyze_factor(spec)
        series = spec.series(32)
        P = spec.matrix()
        M = np.eye(3)
        for n in range(33):
            assert series[n] == pytest.approx(M[0, 0], abs=1e-14)
            M = M @ P
        assert an.period == 1  # returns at n=2 (1+2) and n=3 (1+1+1)

    def test_radius_is_exactly_one(self):
        # a stochastic matrix has spectral radius 1; an eigenvalue solver
        # gives 1/|eig| = 1.0000000000000004 for this walk
        assert analyze_factor(cyclic_group(3, (0.0, 0.5, 0.5))).radius == 1.0

    def test_radius_from_series_growth(self):
        spec = cyclic_group(4, (0.1, 0.5, 0.1, 0.3))
        an = analyze_factor(spec)
        n = np.arange(40, 401)
        vals = spec.series(400).coeffs[n]
        keep = vals > 0
        est = np.exp(np.max(np.log(vals[keep]) / n[keep]))
        assert abs(1.0 / est - an.radius) < 0.01

    def test_derivatives_match_series(self):
        spec = cyclic_group(3, (0.2, 0.3, 0.5))
        an = analyze_factor(spec)
        z = 0.7
        c = spec.series(600).coeffs
        n = np.arange(c.size)
        assert an.green(z, 1) == pytest.approx(float(np.sum(n[1:] * c[1:] * z ** (n[1:] - 1))), rel=1e-10)
        assert an.green(z, 2) == pytest.approx(
            float(np.sum(n[2:] * (n[2:] - 1) * c[2:] * z ** (n[2:] - 2))), rel=1e-10
        )

    def test_psi_limit_is_stationary_mass(self):
        # group-invariant chains have uniform stationary law: Psi(inf) = 1/|G|
        an2 = analyze_factor(flip_group())
        assert an2.psi_at_radius == pytest.approx(0.5)
        an3 = analyze_factor(cyclic_group(3, (0.0, 0.5, 0.5)))
        assert an3.psi_at_radius == pytest.approx(1.0 / 3.0)
        # numeric check: Psi near the radius approaches 1/|G|
        for z in (0.99, 0.999, 0.9999):
            got = psi_at(an3, z)
            assert abs(got - 1.0 / 3.0) < 3.0 * (1.0 - z)

    def test_distance_table_computed_once(self):
        # rotation by 1 only: erasing 1 takes two steps, erasing 2 one
        spec = cyclic_group(3, (0.0, 1.0, 0.0))
        assert spec.dist_table == (0, 2, 1)
        assert spec.dist_table is spec.dist_table


class TestHomTree:
    def test_green_value_at_zero(self):
        an = analyze_factor(HomTree(3))
        assert an.green(0.0) == 1.0

    def test_bfs_series_oracle(self):
        # direct word enumeration on the free product of three involutions
        series = HomTree(3).series(16)
        probs = {(): 1.0}
        for n in range(1, 17):
            nxt = {}
            for word, mass in probs.items():
                for g in range(3):
                    new = word[:-1] if word and word[-1] == g else word + (g,)
                    nxt[new] = nxt.get(new, 0.0) + mass / 3.0
            probs = nxt
            assert series[n] == pytest.approx(probs.get((), 0.0), abs=1e-12)

    def test_radius_and_sqrt_singularity(self):
        an = analyze_factor(HomTree(3))
        assert an.radius == pytest.approx(3.0 / (2.0 * math.sqrt(2.0)))
        assert an.g_at_r == pytest.approx(4.0)  # 2(q-1)/(q-2)
        assert an.gprime_at_r == math.inf
        assert (an.sing.q, an.sing.k) == (0.5, 0)
        assert (an.sing.lam, an.sing.kappa) == (1.5, 0)
        assert an.psi_at_radius == 0.0

    def test_degree_two_is_line(self):
        an = analyze_factor(HomTree(2))
        # the 2-regular tree is the line: G = 1/sqrt(1-z^2)
        assert an.green(0.6) == pytest.approx(1.0 / math.sqrt(1.0 - 0.36), rel=1e-12)
        assert an.g_at_r == math.inf
        assert an.sing is None

    def test_series_does_not_depend_on_blas_threads(self):
        # coefficient n of F^2 is a dot of n - 2 terms; as one np.dot, OpenBLAS
        # split it across its threads past 10,000 terms, and the coefficients
        # from n = 10,022 on differed between 1 and 2 threads, by up to 1.1e-15
        run = "import sys; from fprw.factors import HomTree; " \
              "sys.stdout.buffer.write(HomTree(3).radius_series(20001)[1].coeffs.tobytes())"
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(fprw.__file__).parents[1])
        outs = [
            subprocess.run([sys.executable, "-c", run], env=e, capture_output=True, check=True).stdout
            for e in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
        ]
        assert len(outs[0]) == 8 * 20002
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("q", range(2, 9))
    def test_closed_form_matches_the_first_passage_series(self, q):
        # the closed form of G, G' and G'' is derived by hand; the series comes
        # from the first-passage recurrence F = z/q + ((q-1)/q) z F^2.  At
        # 0.9 R its terms past order 1000 fall like 0.9^n, far below rounding
        # (measured: at most 2.3e-16, 6.6e-16 and 1.2e-15 relative over q = 2..8)
        series = HomTree(q).series(1000)
        derivs = [series, series_derivative(series), series_derivative(series_derivative(series))]
        for z in (np.linspace(0.0, 0.9, 19) * _tree_radius(q)).tolist():
            for deriv, want in enumerate(derivs):
                got = _tree_green_closed(q, z, deriv)
                assert got == pytest.approx(want(z), rel=1e-14, abs=0.0), (z, deriv)

    def test_derivative_matches_finite_difference(self):
        an = analyze_factor(HomTree(4))
        z, h = 0.5, 1e-5
        fd = (an.green(z + h) - an.green(z - h)) / (2 * h)
        assert an.green(z, 1) == pytest.approx(fd, rel=1e-8)
        h = 1e-4  # second difference needs a wider step against cancellation
        fd2 = (an.green(z + h) - 2 * an.green(z) + an.green(z - h)) / h**2
        assert an.green(z, 2) == pytest.approx(fd2, rel=1e-6)


class TestAnalyzeLattice:
    def test_singularity_descriptors(self):
        for d, expect in ((5, (1.5, 0, 2.5, 0)), (6, (2.0, 1, 3.0, 0)), (7, (2.5, 0, 3.5, 0))):
            an = analyze_factor(LatticeNN.simple(d))
            assert (an.sing.q, an.sing.k, an.sing.lam, an.sing.kappa) == expect
        for d in (1, 2, 3, 4):
            assert analyze_factor(LatticeNN.simple(d)).sing is None

    def test_low_dimension_infinities(self, z3):
        assert math.isfinite(z3.g_at_r)
        assert z3.gprime_at_r == math.inf
        assert z3.psi_at_radius == 0.0
        an1 = analyze_factor(LatticeNN.simple(1))
        assert an1.g_at_r == math.inf and an1.theta == math.inf

    def test_theta_product(self, z5):
        assert z5.theta == pytest.approx(z5.radius * z5.g_at_r)
        assert z5.period == 2


class TestPsi:
    def test_limit_at_zero(self, z5):
        assert psi_at(z5, 0.0) == 1.0
        assert psi_at(z5, 1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_cartwright_z5(self, z5):
        assert psi_at(z5, 1.0) == pytest.approx(0.691, abs=0.002)

    def test_infinite_gprime_gives_zero(self, z3):
        assert psi_at(z3, z3.radius) == 0.0

    def test_strictly_decreasing_in_z(self, z5, z3):
        for an in (z5, z3):
            zs = np.linspace(0.05, an.radius * 0.999, 25)
            vals = [psi_at(an, z) for z in zs]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_phi_identity(self, z5):
        # Psi = Phi - t Phi' must agree with the U-based formula
        for z in (0.3, 0.6, 0.9):
            phi, phi1 = phi_at(z5, z), phi_at(z5, z, 1)
            t = z * z5.green(z)
            assert psi_at(z5, z) == pytest.approx(phi - t * phi1, rel=1e-9)


class TestPhiDerivs:
    def test_value_at_zero(self, z5):
        assert phi_at(z5, 0.0) == 1.0

    def test_convexity_on_grid(self, z5):
        for z in np.linspace(0.1, 0.95, 9):
            assert phi_at(z5, z, 2) > 0.0

    def test_needs_derivative_at_radius_d5(self, z5):
        with pytest.raises(NeedsDerivative):
            phi_at(z5, z5.radius, 2)

    def test_finite_second_derivative_d7_at_radius(self):
        an = analyze_factor(LatticeNN.simple(7))
        phi, phi2 = phi_at(an, an.radius), phi_at(an, an.radius, 2)
        assert phi == pytest.approx(an.g_at_r)
        assert 0.0 < phi2 < math.inf

    def test_finite_difference_of_phi_prime(self, z5):
        # d(Phi)/dt = Phi' along t = zG(z); central difference kills the O(h) bias
        h = 1e-4
        z0, z1 = 0.5 - h, 0.5 + h
        t0, t1 = z0 * z5.green(z0), z1 * z5.green(z1)
        p0 = phi_at(z5, z0)
        p1 = phi_at(z5, z1)
        d0 = phi_at(z5, 0.5, 1)
        assert (p1 - p0) / (t1 - t0) == pytest.approx(d0, rel=1e-6)


class TestInvertW:
    def test_zero(self, z5):
        assert invert_w(z5, 0.0) == 0.0

    def test_roundtrip_grid(self, z5):
        for t in np.linspace(0.01, z5.theta * 0.98, 7):
            z = invert_w(z5, t)
            assert z * z5.green(z) == pytest.approx(t, abs=1e-10)

    def test_endpoint(self, z5):
        assert invert_w(z5, z5.theta) == pytest.approx(z5.radius)

    def test_out_of_domain(self, z5):
        with pytest.raises(OutOfDomain):
            invert_w(z5, z5.theta * 1.01)

    def test_unbounded_w_for_recurrent_factor(self):
        an = analyze_factor(flip_group())
        z = invert_w(an, 50.0)
        assert z * an.green(z) == pytest.approx(50.0, rel=1e-9)
        assert psi_at_argument(an, 1e9) == pytest.approx(0.5, abs=1e-4)

    def test_kept_roots_start_the_bracket(self, z5):
        kept = {}
        ts = [z5.theta * x for x in (0.3, 0.9, 0.6, 0.6, 0.61)]
        zs = [invert_w(z5, t, kept) for t in ts]
        assert kept[id(z5)][0] == sorted(set(ts))
        assert zs[3] == zs[2]  # a repeated argument returns its kept root
        for t, z in zip(ts, zs):
            assert z == pytest.approx(invert_w(z5, t), rel=1e-15)

    def test_kept_root_that_does_not_bracket_falls_back(self):
        # the explicit 3-regular tree of the golden X3*Z6 jumps from its
        # truncated series to the asserted G(R) at z = R (1 - 1e-13), so a
        # root kept in the jump has w above every argument of the gap
        config = json.loads(GOLDEN_CONFIGS.read_text())["X3xZ6"]["factors"][0]
        an = analyze_factor(cli.parse_factor(config, 0))
        jump = an.radius * (1.0 - 1e-13)
        below = math.nextafter(jump, 0.0)
        low, high = below * an.green(below), jump * an.green(jump)
        kept = {}
        kept_root = invert_w(an, low + 0.75 * (high - low), kept)
        t = low + 0.9 * (high - low)
        assert kept_root * an.green(kept_root) > t  # not a lower end for t
        with pytest.raises(RootNotBracketed):
            roots.brent(lambda z: z * an.green(z) - t, kept_root, an.radius, xtol=1e-300, rtol=1e-15, maxiter=200)
        assert invert_w(an, t, kept) == invert_w(an, t)

    def test_capped_walk_is_never_kept(self):
        # w is unbounded; the walk stops 2e-13 short of the radius, where w
        # is about 2.8e12, and returns that point, which is no root
        an = analyze_factor(flip_group())
        kept = {}
        for t in (1e15, 2e15):
            z = invert_w(an, t, kept)
            assert z * an.green(z) < t
            assert phi_parts(an, t, kept) == (an.green(z), 0.0)
        assert kept.get(id(an), ([], []))[0] == []
        assert invert_w(an, 1e12, kept) == invert_w(an, 1e12)


def test_kept_evaluator_arrays_give_the_values_of_fresh_ones():
    # FiniteGroup.green keeps P, the identity and the unit vector, and
    # ExplicitSeries.green its coefficient lists; rebuilt per call, as
    # before, they give the same floats
    finite = cyclic_group(3, (0.1, 0.5, 0.4))
    explicit = cli.parse_factor(json.loads(GOLDEN_CONFIGS.read_text())["X3xZ6"]["factors"][0], 0)
    for z in np.linspace(0.01, 0.99, 25).tolist():
        P = finite.matrix()
        e = np.zeros(finite.order)
        e[finite.id] = 1.0
        M = np.eye(finite.order) - z * P
        u, v = np.linalg.solve(M, e), np.linalg.solve(M.T, e)
        pu = P @ u
        fresh = (u[finite.id], v @ pu, 2.0 * (v @ (P @ np.linalg.solve(M, pu))))
        assert [finite.green(z, d) for d in range(3)] == [float(x) for x in fresh]
        y = z * explicit.radius
        assert [explicit.green(y, d) for d in range(3)] == [_poly_value(np.array(explicit.coeffs), y, d) for d in range(3)]


class TestExplicitSeries:
    def test_mirror_of_z5(self, z5):
        spec = ExplicitSeries(
            coeffs=tuple(z5.spec.series(64).coeffs),
            radius=z5.radius,
            g_at_r=z5.g_at_r,
            gprime_at_r=z5.gprime_at_r,
            sing=(1.5, 0),
            period=2,
        )
        an = analyze_factor(spec)
        assert an.green(0.5) == pytest.approx(z5.green(0.5), rel=1e-10)
        assert psi_at(an, 1.0) == pytest.approx(psi_at(z5, 1.0), rel=1e-9)
        assert (an.sing.lam, an.sing.kappa) == (2.5, 0)

    def test_period_support(self, z5):
        an = analyze_factor(LatticeNN.simple(2))
        series = an.spec.series(50)
        for n in range(51):
            if series[n] > 0:
                assert n % an.period == 0
