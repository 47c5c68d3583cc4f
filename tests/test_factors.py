import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fprw
from fprw.errors import ConfigError, NeedsDerivative, OutOfDomain
from fprw.factors import (
    ExplicitSeries,
    FiniteGroup,
    HomTree,
    LatticeNN,
    analyze_factor,
    cyclic_group,
    flip_group,
    invert_w,
    phi_at,
    psi_at,
    psi_at_argument,
)


@pytest.fixture(scope="module")
def z5():
    return analyze_factor(LatticeNN.simple(5))


@pytest.fixture(scope="module")
def z3():
    return analyze_factor(LatticeNN.simple(3))


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
